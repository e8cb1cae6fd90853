"""Solver unit tests: exactness, Farkas evidence, determinism, oracle parity."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity.lp import (
    LPProblem,
    LPStatus,
    MalformedProblem,
    ZERO,
    maximize,
    solve_feasibility,
)
from conftest import oracle_lp


def column_products(prob: LPProblem, y) -> list:
    """``y^T A_j`` for every column ``j`` of the problem."""
    return [
        sum((row[j] * y[i] for i, row in enumerate(prob.rows)), ZERO)
        for j in range(prob.n_vars)
    ]


def farkas_refutes(prob: LPProblem, y) -> bool:
    """Check a Farkas vector exactly: ``y^T A <= 0`` and ``y^T b > 0``."""
    if any(col > 0 for col in column_products(prob, y)):
        return False
    return sum((b * y[i] for i, b in enumerate(prob.rhs)), ZERO) > 0


def check_feasible_point(prob: LPProblem, x) -> bool:
    """Exact re-verification that ``x >= 0`` satisfies every row."""
    if len(x) != prob.n_vars or any(v < 0 for v in x):
        return False
    for row, b in zip(prob.rows, prob.rhs):
        if sum((c * v for c, v in zip(row, x) if c), ZERO) != b:
            return False
    return True


def test_single_variable_feasible():
    prob = LPProblem.create([[1]], [1], 1)
    out = solve_feasibility(prob)
    assert out.status is LPStatus.FEASIBLE
    assert out.point == (F(1),)


def test_sign_obstruction_farkas():
    prob = LPProblem.create([[1]], [-1], 1)
    out = solve_feasibility(prob)
    assert out.status is LPStatus.INFEASIBLE
    assert out.dual == (F(-1),)
    assert farkas_refutes(prob, out.dual)


def test_radon_system_alternating_line():
    # Balance the lifted points of {0, 2} against {1, 3}: three matrix
    # entries (x*x, x, 1) plus the normalization row; unique solution.
    rows = [
        [0, 4, -1, -9],
        [0, 2, -1, -3],
        [1, 1, -1, -1],
        [1, 1, 0, 0],
    ]
    out = solve_feasibility(LPProblem.create(rows, [0, 0, 0, 1], 4))
    assert out.status is LPStatus.FEASIBLE
    assert out.point == (F(1, 4), F(3, 4), F(3, 4), F(1, 4))


def test_maximize_box():
    # x <= 1 stated as the row x + s = 1.
    prob = LPProblem.create([[1, 1]], [1], 2, objective=[1, 0])
    out = maximize(prob)
    assert out.status is LPStatus.OPTIMAL
    assert out.value == 1


def test_maximize_unbounded():
    prob = LPProblem.create([], [], 1, objective=[1])
    assert maximize(prob).status is LPStatus.UNBOUNDED


def test_max_margin_line_lp_against_oracle():
    # Maximize the margin of a quadratic a*x^2 + 2b*x + c on the split
    # {0,1} vs {2,3} with coefficients boxed in [-1, 1].  Stated in
    # standard form (a, b, c split into nonnegative pairs, slack columns
    # for every inequality); the oracle enumerates vertices and rays of
    # the same system independently of the simplex path.
    # Columns: a+, a-, b+, b-, c+, c-, delta, 4 margin slacks, 6 box slacks.
    n_cols = 6 + 1 + 10
    margin_rows = [
        [0, 0, 1],  # value at 0 >= delta
        [1, 2, 1],  # value at 1 >= delta
        [-4, -4, -1],  # value at 2 <= -delta
        [-9, -6, -1],  # value at 3 <= -delta
    ]
    rows = []
    rhs = []
    for k, vals in enumerate(margin_rows):
        row = [0] * n_cols
        for t, v in enumerate(vals):
            row[2 * t] = v
            row[2 * t + 1] = -v
        row[6] = -1
        row[7 + k] = -1
        rows.append(row)
        rhs.append(0)
    for k in range(3):  # |a|, |b|, |c| <= 1: two rows each
        for sign, slack in ((1, 11 + 2 * k), (-1, 12 + 2 * k)):
            row = [0] * n_cols
            row[2 * k], row[2 * k + 1], row[slack] = sign, -sign, 1
            rows.append(row)
            rhs.append(1)
    objective = [0] * n_cols
    objective[6] = 1
    prob = LPProblem.create(rows, rhs, n_cols, objective=objective)
    out = maximize(prob)
    assert out.status is LPStatus.OPTIMAL
    assert out.value > F(1, 3)  # the explicit feasible separator gives 1/3

    # Oracle: vertex enumeration over the four natural unknowns
    # (a, b, c, delta) with the same eleven halfspaces; the region is a
    # box-bounded polytope, so the optimum sits at a vertex.
    halfspaces = [  # coefficients . (a, b, c, delta) >= rhs
        ([0, 0, 1, -1], 0),
        ([1, 2, 1, -1], 0),
        ([-4, -4, -1, -1], 0),
        ([-9, -6, -1, -1], 0),
        ([1, 0, 0, 0], -1),
        ([-1, 0, 0, 0], -1),
        ([0, 1, 0, 0], -1),
        ([0, -1, 0, 0], -1),
        ([0, 0, 1, 0], -1),
        ([0, 0, -1, 0], -1),
        ([0, 0, 0, 1], 0),
    ]
    best = None
    from itertools import combinations as _comb

    for active in _comb(range(len(halfspaces)), 4):
        aug = [[F(v) for v in halfspaces[i][0]] + [F(halfspaces[i][1])] for i in active]
        point = _solve_square(aug)
        if point is None:
            continue
        if all(
            sum(F(c) * x for c, x in zip(coefs, point)) >= rhs_v
            for coefs, rhs_v in halfspaces
        ):
            if best is None or point[3] > best:
                best = point[3]
    assert best == out.value


def _solve_square(aug):
    """Unique solution of a 4x4 rational system from augmented rows."""
    k = 4
    rows = [list(r) for r in aug]
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[col])]
    return [rows[i][k] for i in range(k)]


def test_malformed_widths():
    with pytest.raises(MalformedProblem):
        LPProblem.create([[1, 2], [1]], [0, 0], 2)
    with pytest.raises(MalformedProblem):
        LPProblem.create([[1]], [0], 1, objective=[1, 2])


def test_feasibility_rejects_objective():
    prob = LPProblem.create([[1]], [1], 1, objective=[1])
    with pytest.raises(MalformedProblem):
        solve_feasibility(prob)


def test_feasible_points_reverify_exactly(rng):
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        prob = LPProblem.create(rows, rhs, n)
        out = solve_feasibility(prob)
        if out.status is LPStatus.FEASIBLE:
            assert check_feasible_point(prob, out.point)
        else:
            assert farkas_refutes(prob, out.dual)


def test_status_matches_vertex_enumeration_oracle(rng):
    agree = 0
    for _ in range(250):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        objective = [rng.randint(-3, 3) for _ in range(n)]
        prob = LPProblem.create(rows, rhs, n, objective=objective)
        out = maximize(prob)
        expected = oracle_lp(rows, rhs, objective)
        if out.status is LPStatus.INFEASIBLE:
            assert expected == "infeasible"
            assert farkas_refutes(prob, out.dual)
        elif out.status is LPStatus.UNBOUNDED:
            assert expected == "unbounded"
        else:
            assert expected == ("optimal", out.value)
            assert check_feasible_point(prob, out.point)
            agree += 1
    assert agree > 10  # sampling sanity: optima do occur


def test_optimal_dual_matches_value(rng):
    # Strong duality pins dual . rhs to the optimal value, and the dual is
    # feasible: y . A_j >= c_j on every column.
    count = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        objective = [rng.randint(-3, 3) for _ in range(n)]
        prob = LPProblem.create(rows, rhs, n, objective=objective)
        out = maximize(prob)
        if out.status is LPStatus.OPTIMAL:
            assert sum(y * b for y, b in zip(out.dual, prob.rhs)) == out.value
            assert all(
                col >= c for col, c in zip(column_products(prob, out.dual), prob.objective)
            )
            count += 1
    assert count > 5


def test_redundant_row_keeps_artificial_basic():
    # The third row is the sum of the first two, so after phase 1 it is zero
    # in every structural column and its artificial cannot be driven out.
    rows = [[1, 1, 1, 0], [1, -1, 0, 1], [2, 0, 1, 1]]
    rhs = [3, 1, 4]
    objective = [1, 2, -1, 1]
    start = solve_feasibility(LPProblem.create(rows, rhs, 4))
    assert start.status is LPStatus.FEASIBLE
    splx = start.phase_one.splx
    assert any(b >= splx.nx for b in splx.basis)
    prob = LPProblem.create(rows, rhs, 4, objective=objective)
    assert oracle_lp(rows, rhs, objective) == ("optimal", F(10))
    for out in (maximize(prob), maximize(prob, start=start)):
        assert out.status is LPStatus.OPTIMAL
        assert out.value == 10
        assert check_feasible_point(prob, out.point)
        assert sum(y * b for y, b in zip(out.dual, prob.rhs)) == 10
        assert all(col >= c for col, c in zip(column_products(prob, out.dual), objective))


def test_determinism():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        prob = LPProblem.create(rows, rhs, n)
        first = solve_feasibility(prob)
        second = solve_feasibility(prob)
        assert first == second


@st.composite
def feasible_constraints(draw):
    """Rows, rhs and width of an LP that a drawn ``x0 >= 0`` satisfies.

    Every variable outside a drawn ``unboxed`` subset gets a box
    ``x_j <= u_j``, stated as the row ``x_j + s_j = u_j`` with a slack
    column ``s_j``, so the region is bounded unless an unboxed variable runs
    along a direction the rows leave open.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    unboxed = draw(st.sets(st.integers(0, n - 1), max_size=2))
    x0 = [draw(st.integers(0, 3)) for _ in range(n)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    boxed = [j for j in range(n) if j not in unboxed]
    width = n + len(boxed)
    rows = [row + [0] * len(boxed) for row in rows]
    for s, j in enumerate(boxed):
        row = [0] * width
        row[j] = row[n + s] = 1
        rows.append(row)
        rhs.append(x0[j] + draw(st.integers(0, 3)))
    return rows, rhs, width


@given(
    feasible_constraints(),
    st.lists(st.lists(st.integers(-3, 3), min_size=10, max_size=10), min_size=2, max_size=4),
)
def test_warm_start_matches_cold_solve(constraints, objectives):
    rows, rhs, width = constraints
    start = solve_feasibility(LPProblem.create(rows, rhs, width))
    assert start.status is LPStatus.FEASIBLE
    # One start serves every objective in turn, so no warm solve may alter it.
    for objective in objectives:
        prob = LPProblem.create(rows, rhs, width, objective=objective[:width])
        cold = maximize(prob)
        warm = maximize(prob, start=start)
        assert (warm.status, warm.point, warm.value, warm.dual) == (
            cold.status, cold.point, cold.value, cold.dual)


def test_maximize_rejects_foreign_start():
    prob = LPProblem.create([[1, 1]], [2], 2, objective=[1, 0])
    own = solve_feasibility(LPProblem.create([[1, 1]], [2], 2))
    assert maximize(prob, start=own).value == 2
    infeasible = LPProblem.create([[1, 1]], [-1], 2, objective=[1, 0])
    cases = [
        (prob, solve_feasibility(LPProblem.create([[1, 2]], [2], 2))),
        (prob, solve_feasibility(LPProblem.create([[1, 1]], [1], 2))),
        (prob, solve_feasibility(LPProblem.create([[1, 1, 0]], [2], 3))),
        (infeasible, solve_feasibility(LPProblem.create([[1, 1]], [-1], 2))),
        (prob, maximize(prob)),
    ]
    assert cases[3][1].status is LPStatus.INFEASIBLE
    for target, start in cases:
        with pytest.raises(MalformedProblem):
            maximize(target, start=start)
