"""Document round-trips, parse errors, and fixture emission."""

from __future__ import annotations

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bipartite_rigidity import docio
from bipartite_rigidity.engine import rigidity_test, verify_chain
from bipartite_rigidity.fixtures import all_fixtures, emit_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework


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
            assert (rec.stress.omega == orig.stress.omega).all()


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
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(docio.ParseError) as raised:
            docio._rat_from(text, "P", 0)
        assert str(raised.value) == f"P[0]: invalid rational {text!r} ({exc})"
    else:
        got = docio._rat_from(text, "P", 0)
        assert type(got) is F and got == expected


@pytest.mark.parametrize("text", ["9" * 4301, "-" + "9" * 4301, "1/" + "9" * 4301])
def test_rat_from_keeps_the_digit_limit_error(text):
    with pytest.raises(ValueError) as limit:
        F(text)
    with pytest.raises(docio.ParseError, match=re.escape(f"({limit.value})")):
        docio._rat_from(text, "P")
