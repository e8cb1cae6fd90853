"""The canonical JSON writer and the list readers against their references.

``docio.canonical_json`` must write exactly what ``json.dumps(value,
indent=2, sort_keys=True) + "\\n"`` writes, and the list and row readers
must read exactly what the per-value readers read, refusing the same value
with the same message and locus.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bipartite_rigidity import docio

# -- writer ------------------------------------------------------------------

#: Any code point, lone surrogates and control characters included.
_CHARS = st.characters(exclude_categories=())
_HUGE_INTS = st.builds(
    lambda digits, sign: sign * (10**digits - 1), st.integers(4290, 4310), st.sampled_from([1, -1])
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _HUGE_INTS,
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(_CHARS, max_size=6),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(_CHARS, max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_canonical_json_writes_what_json_dumps_writes(value):
    assert _outcome(docio.canonical_json, value) == _outcome(_dumps, value)


@pytest.mark.parametrize("value", [
    {}, [], "", [[]], {"": {}}, {"b": [1, [], {}], "a": None},
    ["\ud800", "\x00\x1f ", "é"], [10**4301], {"k": [1.5, -0.0, True, False]},
    [float("nan"), float("inf"), float("-inf")],
])
def test_canonical_json_edge_cases(value):
    assert _outcome(docio.canonical_json, value) == _outcome(_dumps, value)


def test_canonical_json_refuses_what_json_refuses():
    for value in ([object()], {"a": {1, 2}}):
        with pytest.raises(TypeError) as expected:
            _dumps(value)
        with pytest.raises(TypeError) as got:
            docio.canonical_json(value)
        assert str(got.value) == str(expected.value)


# -- readers -----------------------------------------------------------------


def ref_rats(items, locus, index=None):
    """The per-value reading of a list of rationals, kept as a reference."""
    where = locus if index is None else f"{locus}[{index}]"
    return tuple(docio._rat_from(v, where, k) for k, v in enumerate(items))


def ref_floats(rows, locus):
    """The per-value reading of ``omega`` rows, kept as a reference."""
    return tuple(
        tuple(docio._float_from(v, f"{locus}.omega[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )


def _read(read, *args):
    try:
        return "ok", read(*args)
    except docio.ParseError as exc:
        return type(exc), str(exc)


_CANONICAL_RATS = st.builds(
    lambda n, d: str(F(n, d)), st.integers(-(10**30), 10**30), st.integers(1, 10**12)
)
_OTHER_RATS = st.one_of(
    st.sampled_from([
        "2/4", "-0", "0/7", "+3", " 5", "5 ", "1/-2", "1/0", "0/00", "1//2", "/", "-", "",
        "1.5", "1e3", "1_000", "٣", "NaN", "1e999", "inf", "1/2\n",
    ]),
    st.text(alphabet="0123456789-+/ ._e", max_size=8),
    st.integers(10**639, 10**700).map(str),
    st.builds(lambda n: f"1/{n}", st.integers(10**639, 10**700)),
    # past the interpreter's digit limit: read value by value
    st.builds(lambda k: "-" + "9" * k, st.integers(4290, 4310)),
    st.builds(lambda k: "1/" + "7" * k, st.integers(4290, 4310)),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)
_RAT_LISTS = st.one_of(
    st.lists(_CANONICAL_RATS, max_size=6),
    st.lists(st.one_of(_CANONICAL_RATS, _OTHER_RATS), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(_RAT_LISTS, st.one_of(st.none(), st.integers(0, 9)))
def test_rational_list_reader_reads_as_the_reference(items, index):
    got = _read(docio._rat_list, items, "x.lambdas", index)
    assert got == _read(ref_rats, items, "x.lambdas", index)
    if got[0] == "ok":
        assert all(type(v) is F for v in got[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(_CANONICAL_RATS, _OTHER_RATS), min_size=2, max_size=2),
                min_size=1, max_size=4))
def test_points_reader_reads_as_the_reference(points):
    got = _read(docio._points_from, {"P": points}, "P", 2)
    expected = _read(lambda: tuple(ref_rats(pt, "P", idx) for idx, pt in enumerate(points)))
    assert got == expected


_CANONICAL_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(docio._float_to_str)
_OTHER_FLOATS = st.one_of(
    st.sampled_from(["NaN", "nan", "1e999", "-inf", "Infinity", " 1.5 ", "1_0", "0x10", "", "-0"]),
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=2),
)


@st.composite
def omega_rows(draw):
    """Square rows of floats, mostly canonical; some ragged or not lists at all."""
    size = draw(st.integers(0, 4))
    entry = st.one_of(_CANONICAL_FLOATS, _CANONICAL_FLOATS, _OTHER_FLOATS)
    row = st.lists(entry, min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, size - 1))] = draw(
            st.one_of(st.lists(entry, max_size=size + 1), st.text(max_size=3), st.integers()))
    return rows


@settings(max_examples=200, deadline=None)
@given(omega_rows())
def test_omega_reader_reads_as_the_reference(rows):
    doc = {"omega": rows, "rank": 0, "min_eigenvalue": "0", "residual": "0"}
    got = _read(lambda: docio._stress_from(doc, "s").omega)
    if isinstance(rows, list) and all(isinstance(r, list) and len(r) == len(rows) for r in rows):
        expected = _read(ref_floats, rows, "s")
    else:
        expected = (docio.ParseError, "s.omega: expected a square matrix")
    # repr tells -0.0 from 0.0
    assert repr(got) == repr(expected)


def test_readers_refuse_with_the_value_locus():
    with pytest.raises(docio.ParseError, match=r"^P\[1\]\[0\]: invalid rational 'x' "):
        docio._points_from({"P": [["1"], ["x"]]}, "P", 1)
    with pytest.raises(docio.ParseError, match=r"^s\.omega\[1\]\[0\]: expected a finite number"):
        docio._stress_from({"omega": [["1", "0"], ["1e999", "2"]]}, "s")
    with pytest.raises(docio.ParseError, match=r"^x\[2\]: expected a rational, got a boolean"):
        docio._rats_from(["1", "2", True], "x")


def test_rationals_read_under_the_smallest_digit_limit():
    # 640 digits per part is the least limit the interpreter accepts; longer
    # parts are read value by value, in chunks.
    sevens = int("7" * 640)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        short = "-" + "9" * 640 + "/" + "7" * 640
        long = "9" * 641 + "/" + "7" * 640
        assert docio._rat_list([short, long], "x") == (
            F(-(10**640 - 1), sevens), F(10**641 - 1, sevens))
    finally:
        sys.set_int_max_str_digits(limit)


def ref_ints(items, locus):
    """The per-value reading of a list of integers, kept as a reference."""
    return tuple(docio._int_from(v, locus, k) for k, v in enumerate(items))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.integers(), st.booleans(), st.floats(),
                          st.text(max_size=2), st.none()), max_size=5))
def test_integer_list_reader_reads_as_the_reference(items):
    assert _read(docio._ints_from, items, "x.known_p") == _read(ref_ints, items, "x.known_p")
