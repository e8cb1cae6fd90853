"""Balance certificates, max-margin quadrics, and the dichotomy between them."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from bipartite_rigidity import lp
from bipartite_rigidity.engine import _pass, rigidity_test
from bipartite_rigidity.fixtures import all_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework, SymmetricMatrix, veronese
from bipartite_rigidity.lp import ZERO
from bipartite_rigidity.reduction import KnownSet
from bipartite_rigidity.separation import (
    EmptySide,
    _radon_problem,
    RadonCertificate,
    SeparationCertificate,
    max_margin_quadric,
    maximal_support_radon,
    verify_radon,
    verify_separation,
)
from conftest import flag, k10x10, random_framework


def line_fw(p_vals, q_vals):
    return BipartiteFramework.from_lists(1, [[v] for v in p_vals], [[v] for v in q_vals])


ALTERNATING = line_fw([0, 2], [1, 3])
SPLIT = line_fw([0, 1], [2, 3])


def test_margin_positive_for_split_line():
    # -x^2 + x + 1 takes values (1, 1, -1, -5) on 0..3, and no form with
    # entries in [-1, 1] does better.
    matrix, delta = max_margin_quadric(SPLIT)
    assert delta == 1
    cert = SeparationCertificate(matrix=matrix, delta=delta)
    assert verify_separation(cert, SPLIT)


def test_margin_zero_for_alternating_line():
    _, delta = max_margin_quadric(ALTERNATING)
    assert delta == 0


def test_explicit_line_separator():
    # The quadric 1 - 2x/3 takes values (1, 1/3, -1/3, -1) on 0..3.
    matrix = SymmetricMatrix.from_upper(2, [0, F(-1, 3), 1])
    cert = SeparationCertificate(matrix=matrix, delta=F(1, 3))
    assert verify_separation(cert, SPLIT)
    assert not verify_separation(cert, ALTERNATING)


def test_zero_matrix_never_separates():
    cert = SeparationCertificate(matrix=SymmetricMatrix.from_upper(2, [0, 0, 0]), delta=ZERO)
    assert not verify_separation(cert, SPLIT)


def test_conic_two_lines_separates_plane_classes():
    # Classes on the unit circle split by a pair of horizontal lines.
    def circle(t):
        t = F(t)
        return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]

    fw = BipartiteFramework.from_lists(
        2,
        [circle(1), circle(-1), circle(3)],
        [circle(0), circle(F(1, 5)), circle(F(-1, 5))],
    )
    matrix, delta = max_margin_quadric(fw)
    assert delta > 0
    assert verify_separation(SeparationCertificate(matrix=matrix, delta=delta), fw)


def primal_box_margin(fw: BipartiteFramework) -> F:
    """The max margin from the primal LP, stated independently of the engine.

    Columns: ``a+`` and ``a-`` (one per upper-triangle entry), ``delta``, a
    margin slack per point and a box slack per entry.  Margin rows read
    ``+-form(point) - delta - slack = 0``; box rows ``a+ + a- + s = 1`` keep
    every entry ``a+ - a-`` in [-1, 1].
    """
    hat = fw.dimension + 1
    weights = [1 if i == j else 2 for i in range(hat) for j in range(i, hat)]
    k = len(weights)
    n_pts = fw.n + fw.m
    width = 2 * k + 1 + n_pts + k
    rows, rhs = [], []
    for s, pt in enumerate(fw.points_p + fw.points_q):
        sign = 1 if s < fw.n else -1
        row = [ZERO] * width
        for e, v in enumerate(veronese(pt).upper):
            row[e] = sign * weights[e] * v
            row[k + e] = -row[e]
        row[2 * k] = row[2 * k + 1 + s] = F(-1)
        rows.append(row)
        rhs.append(ZERO)
    for e in range(k):
        row = [ZERO] * width
        row[e] = row[k + e] = row[2 * k + 1 + n_pts + e] = F(1)
        rows.append(row)
        rhs.append(F(1))
    objective = [ZERO] * width
    objective[2 * k] = F(1)
    out = lp.maximize(lp.LPProblem.create(rows, rhs, width, objective=objective))
    assert out.status is lp.LPStatus.OPTIMAL
    return out.value


def test_max_margin_matches_primal_box_lp(rng):
    # The distance LP's optimum is the primal box LP's by duality; its
    # dual, read as a form, must reach that margin inside the box.
    positive = 0
    for _ in range(40):
        fw = random_framework(rng, d_max=3, nm_max=9)
        matrix, delta = max_margin_quadric(fw)
        assert delta == primal_box_margin(fw)
        assert all(abs(v) <= 1 for v in matrix.upper)
        if delta > 0:
            assert verify_separation(SeparationCertificate(matrix=matrix, delta=delta), fw)
            positive += 1
    assert 0 < positive < 40  # sampling sanity: both sides of the dichotomy occur


def test_radon_alternating_line_exact_values():
    cert = maximal_support_radon(ALTERNATING)
    assert isinstance(cert, RadonCertificate)
    assert cert.lambdas == (F(1, 4), F(3, 4))
    assert cert.mus == (F(3, 4), F(1, 4))
    assert verify_radon(ALTERNATING, cert)
    # both sides equal [[3, 3/2], [3/2, 1]]
    acc = [ZERO] * 3
    for coef, pt in zip(cert.lambdas, ALTERNATING.points_p):
        for k, v in enumerate(veronese(pt).upper):
            acc[k] += coef * v
    assert acc == [F(3), F(3, 2), F(1)]


def test_radon_absent_for_split_line():
    cert = maximal_support_radon(SPLIT)
    assert isinstance(cert, SeparationCertificate)
    assert verify_separation(cert, SPLIT)
    _, delta = max_margin_quadric(SPLIT)
    assert cert.delta <= delta


def test_radon_absent_for_distinct_pair():
    fw = BipartiteFramework.from_lists(2, [[0, 0]], [[1, 0]])
    cert = maximal_support_radon(fw)
    assert isinstance(cert, SeparationCertificate)
    assert verify_separation(cert, fw)


def test_maximal_support_full_on_alternating_line():
    cert = maximal_support_radon(ALTERNATING)
    assert cert.support_p == (0, 1)
    assert cert.support_q == (0, 1)


def test_maximal_support_omits_conic_center():
    def circle(t):
        t = F(t)
        return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]

    fw = BipartiteFramework.from_lists(
        2,
        [circle(0), circle(1), circle(3), [0, 0]],
        [circle(F(1, 2)), circle(2), circle(-1)],
    )
    cert = maximal_support_radon(fw)
    assert isinstance(cert, RadonCertificate)
    assert cert.support_p == (0, 1, 2)  # the center vertex carries nothing
    assert cert.support_q == (0, 1, 2)
    assert verify_radon(fw, cert)


#: Two line frameworks, each with one P point on a Q point: their balance
#: regions have coordinates whose maximum is exactly zero.
POINT_ON_POINT = (
    line_fw([-2, F(-1, 12), 1, F(-7, 4), 13], [-2]),
    line_fw([-1, F(7, 8), F(8, 9), F(-3, 7)], [-1, F(9, 7)]),
)


def balance_passes(fw) -> list[BipartiteFramework]:
    """The reduced framework of every pass of ``fw``'s chain that solved a balance LP."""
    _, chain = rigidity_test(fw)
    steps = [_pass(fw, KnownSet(rec.known_p, rec.known_q)) for rec in chain.records]
    return [step.sub for step in steps if step.sub is not None]


def test_support_maximality_is_exact(rng):
    # Every index outside the returned support has LP-max exactly zero
    # over the feasible region, by a cold solve.  Exercised on fixtures with
    # forced-zero coefficients, the point-on-point lines, every balance pass
    # of flag seeds 1-5, a handful of random instances and the K(10,10)
    # instances of seeds 1-3.
    cases = [
        fixture("k43_center").framework,
        BipartiteFramework.from_lists(
            2, [[0, 0], [2, 0], [1, 1], [1, -1]], [[1, 0], [3, 0]]
        ),
        *POINT_ON_POINT,
    ]
    cases += [sub for seed in range(1, 6) for sub in balance_passes(flag(seed))]
    cases += [random_framework(rng, d_max=2, nm_max=8) for _ in range(15)]
    cases += [k10x10(seed) for seed in (1, 2, 3)]
    checked = 0
    for fw in cases:
        cert = maximal_support_radon(fw)
        if isinstance(cert, SeparationCertificate):
            assert verify_separation(cert, fw)
            continue
        assert verify_radon(fw, cert)
        base = _radon_problem(fw)
        values = cert.lambdas + cert.mus
        for coord, val in enumerate(values):
            if val > 0:
                continue
            obj = [ZERO] * (fw.n + fw.m)
            obj[coord] = F(1)
            out = lp.maximize(replace(base, objective=tuple(obj)))
            assert out.status is lp.LPStatus.OPTIMAL
            assert out.value == 0
            checked += 1
    assert checked >= 2  # the center vertex and an off-line vertex at least


def test_only_a_farkas_vector_is_solved_for(monkeypatch):
    # A balance pass reads no dual off a zero optimum: deciding the
    # fixtures, flag seeds 1-10 and the point-on-point lines solves one
    # basis for its duals per separated record, the Farkas vector.
    solves = []
    basis_duals = lp._basis_duals

    def counted(*args):
        solves.append(args)
        return basis_duals(*args)

    monkeypatch.setattr(lp, "_basis_duals", counted)
    cases = [fx.framework for fx in all_fixtures().values()]
    cases += [flag(seed) for seed in range(1, 11)]
    cases += POINT_ON_POINT
    kinds = Counter(rec.kind for fw in cases for rec in rigidity_test(fw)[1].records)
    assert kinds["separated"] >= 1
    assert len(solves) == kinds["separated"]


def test_dichotomy_random(rng):
    for _ in range(120):
        fw = random_framework(rng, d_max=3, nm_max=9)
        cert = maximal_support_radon(fw)
        matrix, delta = max_margin_quadric(fw)
        assert isinstance(cert, SeparationCertificate) == (delta > 0)
        if isinstance(cert, SeparationCertificate):
            assert verify_separation(cert, fw)
            assert cert.delta <= delta
            assert verify_separation(
                SeparationCertificate(matrix=matrix, delta=delta), fw
            )
        else:
            assert verify_radon(fw, cert)


def test_certificate_existence_affine_invariant(rng):
    for _ in range(25):
        fw = random_framework(rng, d_max=2, nm_max=7)
        d = fw.dimension
        shift = tuple(F(rng.randint(-3, 3)) for _ in range(d))
        lower = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j < i else F(0)) for j in range(d)] for i in range(d)]
        upper = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(d)] for i in range(d)]

        def apply(v):
            w = tuple(sum(upper[i][j] * v[j] for j in range(d)) for i in range(d))
            w = tuple(sum(lower[i][j] * w[j] for j in range(d)) for i in range(d))
            return tuple(a + s for a, s in zip(w, shift))

        mapped = BipartiteFramework(
            d,
            tuple(apply(p) for p in fw.points_p),
            tuple(apply(q) for q in fw.points_q),
        )
        assert isinstance(maximal_support_radon(fw), SeparationCertificate) == (
            isinstance(maximal_support_radon(mapped), SeparationCertificate)
        )


def test_empty_side_rejected():
    fw = BipartiteFramework.from_lists(1, [[0]], [])
    with pytest.raises(EmptySide):
        max_margin_quadric(fw)
    with pytest.raises(EmptySide):
        maximal_support_radon(fw)


def test_verify_radon_rejects_corruption():
    cert = maximal_support_radon(ALTERNATING)
    bad = RadonCertificate(lambdas=(-cert.lambdas[0], cert.lambdas[1]), mus=cert.mus)
    assert not verify_radon(ALTERNATING, bad)
    bad2 = RadonCertificate(lambdas=cert.mus, mus=cert.lambdas)
    assert not verify_radon(ALTERNATING, bad2)


def test_phase_one_runs_once_per_radon_call(monkeypatch):
    # A rigid K(10,10): phase 1 runs once, and a coordinate is maximized
    # only when it is zero in every point found so far (the first balance
    # point and each maximizer with a positive optimum).  The count is
    # recomputed from the recorded points, and it is strictly below the
    # first point's zero count: later points cover coordinates.
    fw = k10x10(1)
    first = lp.solve_feasibility(_radon_problem(fw))  # deterministic: the call's own first point
    counts = Counter()
    maximized = []

    def counted_phase1(splx):
        counts["phase1"] += 1
        return phase1(splx)

    def recorded_maximize(prob, start=None):
        out = maximize(prob, start=start)
        maximized.append((prob.objective.index(1), out))
        return out

    phase1, maximize = lp._Simplex.phase1, lp.maximize
    monkeypatch.setattr(lp._Simplex, "phase1", counted_phase1)
    monkeypatch.setattr(lp, "maximize", recorded_maximize)
    assert isinstance(maximal_support_radon(fw), RadonCertificate)
    assert counts == {"phase1": 1}
    points = [first.point]
    expected = []
    outcomes = iter(maximized)
    for coord in range(fw.n + fw.m):
        if any(pt[coord] for pt in points):
            continue
        expected.append(coord)
        _, out = next(outcomes)
        if out.value > 0:
            points.append(out.point)
    assert [coord for coord, _ in maximized] == expected
    zeros = sum(1 for v in first.point if v == 0)
    assert 0 < len(expected) < zeros
