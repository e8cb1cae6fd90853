"""Solver unit tests: exactness, Farkas evidence, determinism, oracle parity."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity import lp
from bipartite_rigidity.engine import rigidity_test
from bipartite_rigidity.lp import (
    LPOutcome,
    LPProblem,
    LPStatus,
    MalformedProblem,
    ZERO,
    maximize,
    pivot_rows,
    solve_feasibility,
)
from bipartite_rigidity.separation import _radon_problem
from conftest import fraction_pivot, k10x10, oracle_lp


def stated(prob: LPProblem) -> tuple[list, list]:
    """The rational rows and rhs that a cleared problem stands for."""
    rows = [[F(v, s) for v, s in zip(row, prob.col_scale)] for row in prob.rows]
    return rows, [F(b, prob.rhs_scale) for b in prob.rhs]


def column_products(prob: LPProblem, y) -> list:
    """``y^T A_j`` for every column ``j`` of the problem."""
    rows, _ = stated(prob)
    return [
        sum((row[j] * y[i] for i, row in enumerate(rows)), ZERO)
        for j in range(prob.n_vars)
    ]


def rhs_product(prob: LPProblem, y):
    """``y^T b`` for the problem's rhs ``b``."""
    return sum((b * v for b, v in zip(stated(prob)[1], y)), ZERO)


def farkas_refutes(prob: LPProblem, y) -> bool:
    """Check a Farkas vector exactly: ``y^T A <= 0`` and ``y^T b > 0``."""
    if any(col > 0 for col in column_products(prob, y)):
        return False
    return rhs_product(prob, y) > 0


def check_feasible_point(prob: LPProblem, x) -> bool:
    """Exact re-verification that ``x >= 0`` satisfies every row."""
    if len(x) != prob.n_vars or any(v < 0 for v in x):
        return False
    for row, b in zip(*stated(prob)):
        if sum((c * v for c, v in zip(row, x) if c), ZERO) != b:
            return False
    return True


def dual_feasible(prob: LPProblem, y) -> bool:
    """``y^T A_j >= c_j`` on every column of a problem with an objective."""
    return all(col >= c for col, c in zip(column_products(prob, y), prob.objective))


def test_pivot_rows_matches_fraction_gauss_jordan(rng):
    # Random pivot sequences, including re-pivots on a row already used and
    # negative pivots, against the Fraction Gauss-Jordan step of conftest.
    negative = 0
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        ref = [[F(v) for v in row] for row in rows]
        den = 1
        for _ in range(rng.randint(1, 8)):
            nonzero = [(r, c) for r in range(m) for c in range(n) if rows[r][c]]
            if not nonzero:
                break
            r, c = rng.choice(nonzero)
            piv = rows[r][c]
            negative += piv < 0
            den = pivot_rows(rows, r, c, den)
            assert den == abs(piv) and den > 0
            assert all(type(v) is int for row in rows for v in row)
            fraction_pivot(ref, r, c)
            assert [[F(v, den) for v in row] for row in rows] == ref
    assert negative > 10  # sampling sanity: negative pivots do occur


def test_radon_tableau_stays_integral():
    # The simplex pivots on ints over one denominator; a Fraction that slips
    # back into the tableau would multiply the solve time several times.
    out = solve_feasibility(_radon_problem(k10x10(1)))
    assert out.status is LPStatus.FEASIBLE
    splx = out.phase_one
    assert all(type(v) is int for row in splx.T for v in row)
    assert type(splx.den) is int and splx.den > 0


def test_tableau_holds_structural_columns_only(monkeypatch, rng):
    # No artificial column is stored: after every pivot, of seeded problems
    # and of a K(10,10) decision, each row holds the structural entries and
    # the rhs, nothing more.
    widths = set()
    pivot = lp._Simplex._pivot

    def recorded(splx, i, j):
        pivot(splx, i, j)
        widths.update(len(row) - splx.nx for row in splx.T)

    monkeypatch.setattr(lp._Simplex, "_pivot", recorded)
    for _ in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        objective = [rng.randint(-3, 3) for _ in range(n)]
        maximize(LPProblem.create(rows, rhs, n, objective=objective))
    rigidity_test(k10x10(1))
    assert widths == {1}


def test_duals_are_solved_once_and_only_when_read(monkeypatch):
    # Deciding K(10,10) reads a Farkas vector after every infeasible phase 1
    # (seed 3 is separated) and nothing after an optimum (seed 1 maximizes
    # six coordinates); each read solves the final basis once.
    events = []  # [outcome, basis solves made before the next LP call]
    basis_duals = lp._basis_duals

    def counted(*args):
        events[-1][1] += 1
        return basis_duals(*args)

    def recording(solve):
        def run(*args, **kwargs):
            out = solve(*args, **kwargs)
            events.append([out, 0])
            return out
        return run

    monkeypatch.setattr(lp, "_basis_duals", counted)
    monkeypatch.setattr(lp, "solve_feasibility", recording(lp.solve_feasibility))
    monkeypatch.setattr(lp, "maximize", recording(lp.maximize))
    for seed in (1, 3):
        rigidity_test(k10x10(seed))

    reads = [int(out.status is LPStatus.INFEASIBLE) for out, _ in events]
    assert [solves for _, solves in events] == reads
    infeasible = [out for out, _ in events if out.status is LPStatus.INFEASIBLE]
    positive = [out for out, _ in events if out.status is LPStatus.OPTIMAL and out.value > 0]
    assert infeasible and positive  # sampling sanity: both kinds occur
    before = [solves for _, solves in events]
    assert infeasible[0].dual is infeasible[0].dual
    assert [solves for _, solves in events] == before


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
            assert rhs_product(prob, out.dual) == out.value
            assert dual_feasible(prob, out.dual)
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
    splx = start.phase_one
    assert any(b >= splx.nx for b in splx.basis)
    prob = LPProblem.create(rows, rhs, 4, objective=objective)
    assert oracle_lp(rows, rhs, objective) == ("optimal", F(10))
    for out in (maximize(prob), maximize(prob, start=start)):
        assert out.status is LPStatus.OPTIMAL
        assert out.value == 10
        assert check_feasible_point(prob, out.point)
        assert rhs_product(prob, out.dual) == 10
        assert dual_feasible(prob, out.dual)


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


def test_outcomes_compare_by_their_duals():
    # The dual is solved when read, not stored as a field, and equality
    # still reads it.
    def infeasible(y):
        return LPOutcome(LPStatus.INFEASIBLE, solve_dual=lambda: y)

    assert infeasible((F(1),)) == infeasible((F(1),))
    assert infeasible((F(1),)) != infeasible((F(2),))


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


@st.composite
def random_constraints(draw):
    """Rows, rhs and width of an LP that may be infeasible or unbounded."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return rows, rhs, n


POSITIVE = st.builds(F, st.integers(1, 12), st.integers(1, 12))


@given(
    st.one_of(feasible_constraints(), random_constraints()),
    st.lists(st.integers(-3, 3), min_size=10, max_size=10),
    st.lists(POSITIVE, min_size=10, max_size=10),
    POSITIVE,
    POSITIVE,
    st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_scaled_problems_solve_alike(constraints, objective, scales, t, w, negate):
    # The solver clears denominators by scaling each column, the rhs and the
    # objective by a positive integer.  Scaling them by positive rationals
    # here must move the outcome by exactly that scale: a column scale
    # divides its coordinate, the rhs scales the point and the value, and
    # the objective scales the value and the dual.  Negated rows put
    # negative entries in the rhs.
    rows, rhs, width = constraints
    signs = [-1 if flip else 1 for flip, _ in zip(negate, rows)]
    rows = [[sign * v for v in row] for sign, row in zip(signs, rows)]
    rhs = [sign * b for sign, b in zip(signs, rhs)]
    objective = objective[:width]
    s = scales[:width]
    variants = [  # rows, rhs, objective, point map, value factor, dual factor
        (rows, rhs, objective, list, 1, 1),
        ([[v * sj for v, sj in zip(row, s)] for row in rows], rhs,
         [c * sj for c, sj in zip(objective, s)],
         lambda x: [v / sj for v, sj in zip(x, s)], 1, 1),
        (rows, [b * t for b in rhs], objective, lambda x: [v * t for v in x], t, 1),
        (rows, rhs, [c * w for c in objective], list, w, w),
    ]
    base = base_feasible = None
    for v_rows, v_rhs, v_objective, move, value_factor, dual_factor in variants:
        feasible = solve_feasibility(LPProblem.create(v_rows, v_rhs, width))
        prob = LPProblem.create(v_rows, v_rhs, width, objective=v_objective)
        out = maximize(prob)
        base = base or out
        base_feasible = base_feasible or feasible
        assert (out.status, feasible.status) == (base.status, base_feasible.status)
        if feasible.status is LPStatus.INFEASIBLE:
            # A positive scale leaves the Farkas vector as it is.
            assert feasible.dual == out.dual == base.dual
            assert farkas_refutes(prob, out.dual)
            continue
        assert list(feasible.point) == move(base_feasible.point)
        assert check_feasible_point(prob, feasible.point)
        if out.status is LPStatus.OPTIMAL:
            assert list(out.point) == move(base.point)
            assert out.value == base.value * value_factor
            assert list(out.dual) == [y * dual_factor for y in base.dual]
            assert check_feasible_point(prob, out.point)
            assert rhs_product(prob, out.dual) == out.value
            assert dual_feasible(prob, out.dual)
