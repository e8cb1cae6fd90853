"""The two exact formats and the warm start, each against a plain reference.

``lp._clear`` is the one place a rational vector is cleared to integers, and
``geometry._lift`` / ``geometry._diagonal`` the one place the row-major
upper-triangle layout of a lift, a quadric or a Gram is built.  The
references below spell each format out on its own, with no call into either.
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity.geometry import (
    BipartiteFramework,
    SymmetricMatrix,
    _diagonal,
    _gram,
    _lift,
    veronese,
)
from bipartite_rigidity.lp import (
    LPOutcome,
    LPProblem,
    LPStatus,
    MalformedProblem,
    _clear,
    maximize,
    solve_feasibility,
)
from test_integer_geometry import BIG, RATIONALS, SETTINGS

#: Rationals with denominators up to 10**400, zeros among them.
CLEARABLE = st.one_of(
    RATIONALS,
    st.builds(F, st.integers(-9, 9), st.integers(1, 10**400)),
    st.builds(F, st.integers(-BIG, BIG), st.sampled_from([2, 3, 10**400, 6 * 10**399])),
)

#: Integer hats ``(X, c)`` with ``c > 0``, of order 1..5.
INT_HATS = st.integers(0, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-BIG, BIG), min_size=d, max_size=d), st.integers(1, BIG)
    ).map(lambda xc: [*xc[0], xc[1]])
)


def ref_scale(values) -> int:
    """The least positive ``s`` with every ``v * s`` integral, grown one value at a time."""
    s = 1
    for v in values:
        s *= (v * s).denominator
    return s


def ref_upper(matrix) -> list:
    """The row-major upper triangle of a full square matrix."""
    order = len(matrix)
    return [matrix[i][j] for i in range(order) for j in range(i, order)]


def ref_full_gram(hats, weights, order) -> list[list[int]]:
    """The full-square integer Gram ``sum_k weights[k] hats[k] hats[k]^T``."""
    pairs = [(h, a) for h, a in zip(hats, weights) if a]
    return [
        [sum(a * h[i] * h[j] for h, a in pairs) for j in range(order)] for i in range(order)
    ]


def ref_quadratic_form(matrix: SymmetricMatrix, vec) -> F:
    """``vec^T S vec`` over every entry of the square, as ``quadratic_form`` computed it."""
    if len(vec) != matrix.order:
        raise ValueError("vector length mismatch")
    acc = F(0)
    for i in range(matrix.order):
        vi = vec[i]
        if not vi:
            continue
        for j in range(matrix.order):
            vj = vec[j]
            if vj:
                acc += vi * matrix.entry(i, j) * vj
    return acc


# -- one rational clear ------------------------------------------------------


@SETTINGS
@given(st.lists(CLEARABLE, max_size=8))
def test_clear_is_the_least_common_scale(values):
    ints, s = _clear(values)
    assert s == ref_scale(values)
    assert all(type(v) is int for v in ints)
    assert ints == [v * s for v in values]


def test_clear_edge_cases():
    assert _clear([]) == ([], 1)
    assert _clear([F(0), F(0)]) == ([0, 0], 1)
    assert _clear([F(1, 4), F(1, 6)]) == ([3, 2], 12)
    big = 10**400
    assert _clear([F(1, big), F(-3, 2 * big), F(0)]) == ([2, -3, 0], 2 * big)
    assert _clear([F(7), 5]) == ([7, 5], 1)
    # Floats have no rational parts to read, so a float never clears quietly.
    with pytest.raises(AttributeError):
        _clear([F(1, 2), 0.5])


# -- one upper-triangle lift -------------------------------------------------


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda d: st.lists(RATIONALS, min_size=d, max_size=d)))
def test_lift_of_fraction_hats_is_the_veronese_lift(point):
    hat = [*point, F(1)]
    lift = veronese(point)
    assert _lift(hat) == list(lift.upper)
    assert all(
        lift.entry(i, j) == hat[i] * hat[j] for i in range(len(hat)) for j in range(len(hat))
    )


@SETTINGS
@given(INT_HATS, st.integers(-3, 3))
def test_lift_of_integer_hats_is_the_upper_triangle(hat, a):
    order = len(hat)
    assert _lift(hat) == ref_upper([[x * y for y in hat] for x in hat])
    scaled = [a * v for v in hat]
    assert _lift(scaled, hat) == ref_upper([[x * y for y in hat] for x in scaled])
    other = [v + k for k, v in enumerate(hat)]
    assert _lift(other, hat) == ref_upper([[x * y for y in hat] for x in other])
    assert _diagonal(order) == ref_upper([[i == j for j in range(order)] for i in range(order)])


@SETTINGS
@given(st.lists(st.tuples(INT_HATS, st.integers(-5, 5)), max_size=6), st.integers(1, 5))
def test_gram_is_the_upper_triangle_of_the_full_square(pairs, order):
    hats = [(h + [1] * order)[:order] for h, _ in pairs]
    weights = [a for _, a in pairs]
    assert _gram(hats, weights, order) == ref_upper(ref_full_gram(hats, weights, order))
    full = SymmetricMatrix(order, tuple(_gram(hats, weights, order))).rows()
    assert full == ref_full_gram(hats, weights, order)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda order: st.tuples(
    st.lists(RATIONALS, min_size=order * (order + 1) // 2,
             max_size=order * (order + 1) // 2),
    st.lists(RATIONALS, min_size=order - 1, max_size=order - 1),
)))
def test_evaluate_point_is_the_quadratic_form(data):
    upper, point = data
    matrix = SymmetricMatrix(len(point) + 1, tuple(upper))
    value = matrix.evaluate_point(point)
    assert type(value) is F
    assert value == ref_quadratic_form(matrix, (*point, F(1)))


def test_evaluate_point_rejects_a_wrong_length():
    matrix = SymmetricMatrix.from_upper(2, [1, 2, 3])
    assert matrix.evaluate_point([F(1)]) == 1 + 2 * 2 + 3
    with pytest.raises(ValueError):
        matrix.evaluate_point([F(1), F(2)])


# -- the phase-1 tableau as its own warm start -------------------------------


def test_feasible_outcome_holds_its_tableau():
    prob = LPProblem.create([[1, 1]], [F(2, 3)], 2, objective=[1, 0])
    start = solve_feasibility(LPProblem.create([[1, 1]], [F(2, 3)], 2))
    assert start.phase_one.constraints == (prob.rows, prob.rhs, prob.col_scale,
                                           prob.rhs_scale)
    assert maximize(prob, start=start) == maximize(prob)
    # The start is copied, never pivoted: it can start another solve.
    assert maximize(prob, start=start).value == F(2, 3)


def test_maximize_rejects_starts_of_other_constraints():
    prob = LPProblem.create([[1, 1]], [2], 2, objective=[1, 0])
    cases = [
        # Same rows and rhs values, another rhs scale.
        solve_feasibility(LPProblem.create([[1, 1]], [F(2, 3)], 2)),
        # Another column scale.
        solve_feasibility(LPProblem.create([[F(1, 2), 1]], [2], 2)),
        # An outcome that carries no tableau.
        LPOutcome(LPStatus.FEASIBLE, point=(F(2), F(0))),
        LPOutcome(LPStatus.INFEASIBLE, solve_dual=lambda: (F(1),)),
        maximize(prob),
    ]
    for start in cases:
        with pytest.raises(MalformedProblem):
            maximize(prob, start=start)
    # No rows: the widths differ only in the column scales.
    wide = LPProblem.create([], [], 3, objective=[1, 0, 0])
    with pytest.raises(MalformedProblem):
        maximize(wide, start=solve_feasibility(LPProblem.create([], [], 2)))


# -- numbers only ------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda v: BipartiteFramework.from_lists(1, [[v]], [[0]]),
    lambda v: veronese([v]),
    lambda v: SymmetricMatrix.from_upper(1, [v]),
    lambda v: LPProblem.create([[v]], [1], 1),
    lambda v: LPProblem.create([[1]], [v], 1),
    lambda v: LPProblem.create([[1]], [1], 1, objective=[v]),
], ids=["from_lists", "veronese", "from_upper", "create-rows", "create-rhs", "create-objective"])
def test_constructors_take_numbers_only(build):
    # Text is read only by docio, which bounds it; here it is refused at
    # once, however large the number it spells.
    build(F(1, 2))
    build(3)
    for text in ("1/2", "1e10000000"):
        begin = time.perf_counter()
        with pytest.raises(TypeError):
            build(text)
        assert time.perf_counter() - begin < 0.1
