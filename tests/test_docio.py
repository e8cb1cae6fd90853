"""Document round-trips, parse errors, and fixture emission."""

from __future__ import annotations

import json
import random
import re
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bipartite_rigidity import cli, docio
from bipartite_rigidity.engine import Verdict, rigidity_test, verify_chain
from bipartite_rigidity.fixtures import all_fixtures, emit_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework
from conftest import huge_k44


def test_parse_alternating_line():
    text = '{"d": 1, "P": [["0"], ["2"]], "Q": [["1"], ["3"]]}'
    fw = docio.parse_framework(text)
    assert fw == BipartiteFramework.from_lists(1, [[0], [2]], [[1], [3]])


def test_parse_zero_denominator():
    text = '{"d": 1, "P": [["1/0"]], "Q": []}'
    with pytest.raises(docio.ParseError):
        docio.parse_framework(text)


def test_parse_cube_with_integers():
    doc = {
        "d": 3,
        "P": [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]],
        "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    }
    fw = docio.parse_framework(json.dumps(doc))
    assert fw.n == fw.m == 4 and fw.dimension == 3


def test_parse_rejects_bad_documents():
    with pytest.raises(docio.ParseError):
        docio.parse_framework("not json")
    with pytest.raises(docio.ParseError):
        docio.parse_framework('{"d": -1, "P": [], "Q": []}')
    with pytest.raises(docio.ParseError):
        docio.parse_framework('{"d": 1, "P": [], "Q": []}')
    with pytest.raises(docio.DimensionMismatch):
        docio.parse_framework('{"d": 2, "P": [["1"]], "Q": []}')
    with pytest.raises(docio.ParseError):
        docio.parse_framework('{"d": 1, "P": [[0.5]], "Q": []}')


def test_framework_round_trip_is_canonical():
    fw = BipartiteFramework.from_lists(2, [[F(1, 3), 0], [2, F(-5, 7)]], [[0, 0]])
    text = docio.serialize_framework(fw, name="demo", expected_verdict="universally-rigid")
    parsed, meta = docio.parse_framework_document(text)
    assert parsed == fw
    assert meta == {"name": "demo", "expected_verdict": "universally-rigid"}
    assert docio.serialize_framework(parsed, **meta) == text


def test_serialize_then_parse_idempotent_on_noncanonical():
    messy = '{"Q": [["3"]], "P": [["1"], ["2"]], "d": 1}'
    fw = docio.parse_framework(messy)
    once = docio.serialize_framework(fw)
    assert docio.serialize_framework(docio.parse_framework(once)) == once


def test_chain_round_trip():
    fw = BipartiteFramework.from_lists(1, [[0], [2]], [[1], [3]])
    verdict, chain = rigidity_test(fw)
    text = docio.serialize_chain(chain)
    parsed = docio.parse_chain(text)
    assert parsed.verdict is verdict
    assert parsed.framework == fw
    assert verify_chain(fw, parsed)
    assert docio.serialize_chain(parsed) == text


def test_chain_round_trip_with_separation():
    fw = BipartiteFramework.from_lists(1, [[0], [1]], [[2], [3]])
    _, chain = rigidity_test(fw)
    text = docio.serialize_chain(chain)
    # documents from earlier releases also carry a top-level "tolerance"
    # and a per-record "margin" equal to the separation's delta
    legacy = json.loads(text)
    legacy["tolerance"] = "1e-08"
    legacy["iterations"][-1]["margin"] = legacy["iterations"][-1]["separation"]["delta"]
    for doc in (text, json.dumps(legacy)):
        parsed = docio.parse_chain(doc)
        assert verify_chain(fw, parsed)
        assert docio.serialize_chain(parsed) == text


def test_chain_round_trip_space_example():
    fw = fixture("projection_k44").framework
    _, chain = rigidity_test(fw)
    parsed = docio.parse_chain(docio.serialize_chain(chain))
    assert verify_chain(fw, parsed)
    # floating stress data survives exactly (17 significant digits)
    for rec, orig in zip(parsed.records, chain.records):
        if orig.stress is not None:
            assert rec.stress.omega == orig.stress.omega


def test_parse_chain_errors():
    with pytest.raises(docio.ParseError):
        docio.parse_chain("[]")
    with pytest.raises(docio.ParseError):
        docio.parse_chain('{"verdict": "nonsense", "input": {}, "iterations": []}')
    # A record of the wrong shape fails with the locus of the bad field.
    text = docio.serialize_chain(rigidity_test(fixture("k22_line").framework)[1])
    for path, value, locus in (
        (("iterations", 0, "index"), "x", "iterations[0].index:"),
        (("iterations", 0, "balance"), [1], "iterations[0].balance:"),
        (("iterations", 0), 5, "iterations[0]:"),
        (("iterations", 0, "kind"), ["balanced"], "iterations[0].kind:"),
        (("iterations", 0, "stress", "residual"), 10**400,
         "iterations[0].stress.residual:"),
        (("iterations", 0, "stress", "omega"), "12", "iterations[0].stress.omega:"),
        (("iterations", 0, "stress", "residual"), "nan", "iterations[0].stress.residual:"),
        (("iterations", 0, "stress", "min_eigenvalue"), True,
         "iterations[0].stress.min_eigenvalue:"),
        (("iterations", 0, "stress", "omega", 0, 1), "-inf",
         "iterations[0].stress.omega[0][1]:"),
        (("iterations", 0, "stress", "omega", 1, 0), False,
         "iterations[0].stress.omega[1][0]:"),
        (("input", "P"), 1, "input.P:"),
        (("format",), "1", "format:"),
        (("format",), True, "format:"),
        (("format",), 1.0, "format:"),
        (("format",), docio.FORMAT_VERSION + 1, "format:"),
    ):
        with pytest.raises(docio.ParseError, match=re.escape(locus)):
            docio.parse_chain(_replaced(text, path, value))
    # JSON number tokens that read as NaN or an infinity.
    for path, locus in (
        (("iterations", 0, "stress", "residual"), "iterations[0].stress.residual:"),
        (("iterations", 0, "stress", "omega", 0, 0), "iterations[0].stress.omega[0][0]:"),
    ):
        marked = _replaced(text, path, "TOKEN")
        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(docio.ParseError, match=re.escape(locus)):
                docio.parse_chain(marked.replace('"TOKEN"', token))
    missing = json.loads(text)
    del missing["format"]
    with pytest.raises(docio.ParseError, match="format:"):
        docio.parse_chain(json.dumps(missing))


def _replaced(text, path, value):
    """The JSON document ``text`` with the value at ``path`` replaced."""
    doc = json.loads(text)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


def _paths(node, path=()):
    """The path to every value in a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_FUZZ_CHAINS = [
    docio.serialize_chain(rigidity_test(fixture(name).framework)[1])
    for name in ("projection_k44", "separated_line")
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1100), 2**1100)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_chain_mutated_documents(data):
    # Any value at any place either parses or raises ParseError, never
    # another exception.
    text = data.draw(st.sampled_from(_FUZZ_CHAINS))
    path = data.draw(st.sampled_from(list(_paths(json.loads(text)))))
    mutated = _replaced(text, path, data.draw(_JSON_VALUES))
    try:
        docio.parse_chain(mutated)
    except docio.ParseError:
        pass


def test_emit_fixtures(tmp_path):
    written = emit_fixtures(tmp_path)
    names = {p.name for p in written}
    assert "manifest.json" in names
    assert "k22_line.json" in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {e["name"] for e in manifest} == set(all_fixtures())
    for entry in manifest:
        body = (tmp_path / entry["file"]).read_text()
        fw, meta = docio.parse_framework_document(body)
        assert meta["expected_verdict"] == entry["expected_verdict"]
        # canonical round trip, byte for byte
        assert docio.serialize_framework(fw, name=entry["name"],
                                         expected_verdict=meta["expected_verdict"]) == body


def test_every_fixture_matches_annotation():
    for name, fx in all_fixtures().items():
        verdict, chain = rigidity_test(fx.framework)
        assert verdict is fx.expected, name
        assert verify_chain(fx.framework, chain), name


#: Text near the canonical ``"a"`` and ``"a/b"`` spellings: signs, zeros,
#: slashes, spaces, underscores, decimal points and non-ASCII digits.
_RATIONAL_LIKE = st.text(alphabet="0123456789-+/ ._e٣²", max_size=12)


@given(st.one_of(st.text(max_size=12), _RATIONAL_LIKE,
                 st.builds(lambda a, b: f"{a}/{b}", st.integers(), st.integers(0, 10**30))))
def test_rat_from_reads_strings_as_fraction_does(text):
    # Fraction computes 10**exponent with no limit, so a text whose exponent
    # is past the bound is refused without ever being handed to it.
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exponent and abs(int(exponent[1])) > docio.MAX_DIGITS:
        with pytest.raises(docio.ParseError, match="exponent beyond"):
            docio._rat_from(text, "P", 0)
        return
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(docio.ParseError) as raised:
            docio._rat_from(text, "P", 0)
        assert str(raised.value) == f"P[0]: invalid rational {text!r} ({exc})"
    else:
        got = docio._rat_from(text, "P", 0)
        assert type(got) is F and got == expected


@pytest.mark.parametrize("text", [
    "1e999999999", "1E-999999999", "0e99999999", "1e1_000_000", "1e\u0661" + "\u0660" * 6,
])
def test_rat_from_refuses_exponents_past_the_bound(text):
    with pytest.raises(docio.ParseError, match=r"P\[0\]: .*exponent beyond"):
        docio._rat_from(text, "P", 0)


def test_rat_from_reads_exponents_at_the_bound():
    assert docio._rat_from("1e100000", "P") == 10**100000
    assert docio._rat_from(" -2.5E-100_000 ", "P") == F(-25, 10**100001)


def test_check_refuses_a_huge_exponent_quickly(tmp_path, capsys):
    path = tmp_path / "fw.json"
    path.write_text('{"d": 1, "P": [["0"], ["1e9999999999"]], "Q": [["1"]]}')
    begin = time.perf_counter()
    assert cli.main(["check", str(path)]) == 2
    assert time.perf_counter() - begin < 1
    assert "P[1][0]" in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [
    ("9" * 4301, 10**4301 - 1),
    ("-" + "9" * 4301, 1 - 10**4301),
    ("1/" + "9" * 4301, F(1, 10**4301 - 1)),
    ("9" * docio.MAX_DIGITS, 10**docio.MAX_DIGITS - 1),
], ids=["numerator", "negative", "denominator", "at-bound"])
def test_rat_from_reads_past_the_interpreter_digit_limit(text, value):
    # Fraction itself still refuses these; canonical text up to MAX_DIGITS
    # digits per part reads back exactly.
    with pytest.raises(ValueError):
        F(text)
    assert docio._rat_from(text, "P") == value


@pytest.mark.parametrize("text", [
    "9" * (docio.MAX_DIGITS + 1),
    "-" + "9" * (docio.MAX_DIGITS + 1),
    "1/" + "9" * (docio.MAX_DIGITS + 1),
], ids=["numerator", "negative", "denominator"])
def test_rat_from_keeps_the_digit_limit_error(text):
    # Past the reader's own bound the error is located and names the bound.
    with pytest.raises(docio.ParseError, match=re.escape(
            f"P[2]: invalid rational {text[:40]!r}... ({len(text)} characters) "
            f"(more than {docio.MAX_DIGITS} digits)")):
        docio._rat_from(text, "P", 2)


@pytest.mark.parametrize("limit", [0, docio.MAX_DIGITS + 10], ids=["unlimited", "above-bound"])
def test_rat_list_keeps_the_digit_limit_error(limit):
    # The list reader holds the same bound when the interpreter's own limit
    # is off or above it.
    text = "9" * (docio.MAX_DIGITS + 1)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(docio.ParseError, match=re.escape(
                f"P[2][1]: invalid rational {text[:40]!r}... ({len(text)} characters) "
                f"(more than {docio.MAX_DIGITS} digits)")):
            docio._rat_list(["1", text], "P", 2)
        at_bound = "-" + "9" * (docio.MAX_DIGITS - 1)
        assert docio._rat_list(["1/2", at_bound], "P") == (F(1, 2), F(int(at_bound)))
    finally:
        sys.set_int_max_str_digits(before)


@settings(max_examples=50, deadline=None)
@given(bits=st.integers(0, 60_000), seed=st.integers(), negative=st.booleans())
def test_rationals_write_and_read_at_any_size(bits, seed, negative):
    # The chunked conversions give what an unlimited interpreter gives.
    v = random.Random(seed).getrandbits(bits) * (-1 if negative else 1)
    for value in (F(v), F(v, 7**(bits // 7) + 1)):
        text = docio._rat_to_str(value)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert docio._rat_from(text, "P") == value


@pytest.mark.parametrize("seed", [0, 3])
def test_chain_round_trip_past_the_digit_limit(seed):
    # Coordinates near 10^400 give separating quadrics with entries past
    # 4300 digits; the chain writes, reads back equal and verifies.
    fw = huge_k44(seed)
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.NOT_DIMENSIONALLY_RIGID
    quadric = chain.records[-1].separation.matrix.upper
    assert max(abs(v.numerator) for v in quadric) > 10**4300
    text = docio.serialize_chain(chain)
    parsed = docio.parse_chain(text)
    assert parsed == chain
    assert verify_chain(fw, parsed)
    assert docio.serialize_chain(parsed) == text


def test_chain_round_trip_is_equal():
    # Stress matrices compare by value, so a parsed chain equals its source.
    for name, fx in all_fixtures().items():
        _, chain = rigidity_test(fx.framework)
        assert docio.parse_chain(docio.serialize_chain(chain)) == chain, name


def test_huge_json_integer_is_a_parse_error():
    text = '{"d": 1, "P": [[' + "1" * 5000 + ']], "Q": [["1"]]}'
    with pytest.raises(docio.ParseError, match="invalid JSON"):
        docio.parse_framework(text)


@pytest.mark.parametrize("parse", [docio.parse_framework, docio.parse_chain])
def test_deeply_nested_json_is_a_parse_error(parse):
    # The recursion limit stays as it is; the reader reports the nesting.
    for text in ("[" * 100000 + "]" * 100000, '{"a":' * 100000 + "1" + "}" * 100000):
        with pytest.raises(docio.ParseError, match="^invalid JSON: nested too deeply$"):
            parse(text)
