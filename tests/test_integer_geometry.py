"""Integer spans, certificates, residuals, balance LP and projection against Fraction references.

Each ``ref_*`` function below is the plain rational computation that the
package now does on cleared integers.  The property tests draw point sets in
d = 0..3 with duplicate points, all-zero coordinates, rank-deficient
configurations and denominators up to 10**400, and demand the same answers.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import chain, count, product
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bipartite_rigidity import lp
from bipartite_rigidity.engine import _reduce, rigidity_test
from bipartite_rigidity.fixtures import all_fixtures, fixture
from bipartite_rigidity.geometry import (
    BipartiteFramework,
    SymmetricMatrix,
    _hats,
    affine_span_dim,
    in_affine_span,
    linear_rank,
    veronese,
)
from bipartite_rigidity.lp import LPProblem, LPStatus, maximize, solve_feasibility
from bipartite_rigidity.separation import (
    RadonCertificate,
    SeparationCertificate,
    _distance_problem,
    _farkas_quadric,
    _radon_problem,
    maximal_support_radon,
    verify_radon,
    verify_separation,
)
from bipartite_rigidity.reduction import (
    ClosureViolated,
    DegeneratePoint,
    KnownSet,
    affine_closure,
    project_out_known_set,
    slide_functional,
    slide_to_hyperplane,
    span_invariant_holds,
)
from bipartite_rigidity.stress import (
    COORD_CAP,
    _hatted,
    _prescaled,
    equilibrium_residual,
    verify_super_stable_certificate,
)
from conftest import flag, fraction_rref, k10x10, random_framework

BIG = 10**400

# -- Fraction references -------------------------------------------------------


def ref_rank(rows) -> int:
    """Rank by Gaussian elimination on ``Fraction`` rows."""
    rows = [[F(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        src = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        pivot = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / pivot[col]
            rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
        rank += 1
    return rank


def ref_span_dim(points) -> int:
    return ref_rank([[a - b for a, b in zip(pt, points[0])] for pt in points[1:]])


def ref_in_span(v, points) -> bool:
    return ref_span_dim([*points, v]) == ref_span_dim(points)


def ref_lift(point) -> list[F]:
    hat = [*point, F(1)]
    return [hat[i] * hat[j] for i in range(len(hat)) for j in range(i, len(hat))]


def ref_form(matrix: SymmetricMatrix, point) -> F:
    """``p^ S p^`` with off-diagonal entries counted twice."""
    hat = [*point, F(1)]
    pairs = [(i, j) for i in range(len(hat)) for j in range(i, len(hat))]
    return sum(
        (v * hat[i] * hat[j] * (1 if i == j else 2) for (i, j), v in zip(pairs, matrix.upper)),
        F(0),
    )


def affine_dependence(points):
    """A nonzero ``v`` with ``sum v_i (p_i, 1) = 0``, or None, by Fraction RREF."""
    rows = [list(r) for r in zip(*([*pt, F(1)] for pt in points))]
    pivots = fraction_rref(rows)
    free = next((c for c in range(len(points)) if c not in pivots), None)
    if free is None:
        return None
    v = [F(0)] * len(points)
    v[free] = F(1)
    for row, col in zip(rows, pivots):
        v[col] = -row[free]
    return v


def ref_verify_radon(fw, cert) -> bool:
    if len(cert.lambdas) != fw.n or len(cert.mus) != fw.m:
        return False
    if any(v < 0 for v in cert.lambdas + cert.mus):
        return False
    if sum(cert.lambdas) != 1 or sum(cert.mus) != 1:
        return False
    acc = [F(0)] * len(ref_lift(fw.points_p[0]))
    for coef, point in zip(cert.lambdas, fw.points_p):
        acc = [a + coef * v for a, v in zip(acc, ref_lift(point))]
    for coef, point in zip(cert.mus, fw.points_q):
        acc = [a - coef * v for a, v in zip(acc, ref_lift(point))]
    return not any(acc)


def ref_verify_separation(cert, fw) -> bool:
    if cert.delta <= 0 or cert.matrix.order != fw.dimension + 1:
        return False
    if any(abs(v) > 1 for v in cert.matrix.upper):
        return False
    return all(ref_form(cert.matrix, p) >= cert.delta for p in fw.points_p) and all(
        ref_form(cert.matrix, q) <= -cert.delta for q in fw.points_q
    )


def ref_prescaled(fw) -> list[tuple[F, ...]]:
    """Clear the common denominator, then halve until the peak is at most COORD_CAP."""
    coords = [c for pt in fw.all_points() for c in pt]
    scale = F(lcm(*(c.denominator for c in coords)))
    peak = max((abs(c * scale) for c in coords), default=F(0))
    while peak > COORD_CAP:
        scale /= 2
        peak /= 2
    return [tuple(scale * c for c in pt) for pt in fw.all_points()]


def ref_projector(points) -> list[list[F]]:
    """The projector ``I - B^T (B B^T)^{-1} B`` along the hull's directions, on Fractions.

    ``B`` is the nonzero RREF rows of the difference vectors and
    ``(B B^T)^{-1} B`` is read off the RREF of ``[B B^T | B]``; for one
    point the hull has no directions and the projector is the identity.
    """
    d = len(points[0])
    diffs = [[a - b for a, b in zip(pt, points[0])] for pt in points[1:]]
    basis = diffs[: len(fraction_rref(diffs))]
    system = [[sum((a * b for a, b in zip(u, v)), F(0)) for v in basis] + u for u in basis]
    fraction_rref(system)
    k = len(basis)
    return [
        [int(i == j) - sum((basis[a][i] * system[a][k + j] for a in range(k)), F(0))
         for j in range(d)]
        for i in range(d)
    ]


def ref_project_out(fw, known):
    """The cone point and projected complements by ``Fraction`` matrix products."""
    if known.is_empty():
        raise ValueError("cannot project out an empty certified set")
    proj = ref_projector(known.points(fw))

    def apply(v):
        return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in proj)

    p0 = apply(known.points(fw)[0])
    out = []
    for cls, points, marked in (("P", fw.points_p, known.p_indices),
                                ("Q", fw.points_q, known.q_indices)):
        out.append([])
        for i, pt in enumerate(points):
            if i in marked:
                continue
            image = apply(pt)
            if image == p0:
                raise ClosureViolated(f"class-{cls} vertex {i} projects onto the cone point")
            out[-1].append(image)
    return p0, out[0], out[1]


def ref_residual(omega, fw) -> float:
    hatted = np.array([[float(c) for c in pt] + [1.0] for pt in ref_prescaled(fw)]).T
    return float(np.max(np.abs(hatted @ omega)))


# -- strategies ----------------------------------------------------------------

SMALL = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
RATIONALS = st.one_of(
    SMALL,
    st.just(F(0)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(F, st.integers(-9, 9), st.sampled_from([BIG, 3**800, 7 * BIG + 1])),
    st.builds(F, st.integers(-BIG, BIG), st.just(1)),
)
#: A tiny positive rational, to sit just above or below a margin.
TINY = st.sampled_from([F(1, BIG), F(1, 3 * BIG + 1), F(1, 2**1400)])


@st.composite
def point_sets(draw, d=None, min_size=1, max_size=7, coords=RATIONALS):
    """Points in d-space, d in 0..3: generators, duplicates and affine combinations.

    Combinations ``a + t (b - a)`` of generators keep the span small, so
    rank-deficient sets and points inside a span come up often.
    """
    if d is None:
        d = draw(st.integers(0, 3))
    gens = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=d + 2))
    if draw(st.booleans()):
        gens.append((F(0),) * d)
    points = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            points.append(draw(st.sampled_from(gens)))
        elif kind == 1:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            t = draw(SMALL)
            points.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        else:
            points.append(draw(st.tuples(*[coords] * d)))
    return points


def split(draw, points) -> BipartiteFramework:
    n = draw(st.integers(1, len(points)))
    return BipartiteFramework(len(points[0]), tuple(points[:n]), tuple(points[n:]))


# -- spans ---------------------------------------------------------------------

SETTINGS = settings(max_examples=100, deadline=None)


@SETTINGS
@given(point_sets())
def test_affine_span_dim_matches_reference(points):
    assert affine_span_dim(points) == ref_span_dim(points)


@SETTINGS
@given(point_sets(min_size=0))
def test_linear_rank_matches_reference(vectors):
    assert linear_rank(vectors) == ref_rank(vectors)


@SETTINGS
@given(st.data())
def test_in_affine_span_matches_reference(data):
    points = data.draw(point_sets())
    if data.draw(st.booleans()):
        # A point of the span: base plus rational multiples of two differences.
        base, a, b = (data.draw(st.sampled_from(points)) for _ in range(3))
        s, t = data.draw(RATIONALS), data.draw(SMALL)
        v = tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(base, a, b))
    else:
        v = data.draw(st.tuples(*[RATIONALS] * len(points[0])))
    assert in_affine_span(v, points) == ref_in_span(v, points)


@SETTINGS
@given(st.data())
def test_affine_closure_matches_per_vertex_membership(data):
    # The closure clears and reduces the certified hull once for all
    # unmarked vertices; each verdict must be the one in_affine_span, and
    # the Fraction reference, give that vertex alone.
    points = data.draw(point_sets(d=data.draw(st.integers(1, 3)), min_size=2, max_size=9))
    fw = split(data.draw, points)
    marked_p = data.draw(st.sets(st.integers(0, fw.n - 1), min_size=1))
    marked_q = data.draw(st.sets(st.integers(0, fw.m - 1))) if fw.m else set()
    known = KnownSet.of(marked_p, marked_q)
    hull = known.points(fw)
    inside = [in_affine_span(pt, hull) for pt in fw.all_points()]
    assert inside == [ref_in_span(pt, hull) for pt in fw.all_points()]
    assert affine_closure(fw, known, _hats(fw.all_points())) == known.union(
        [i for i in range(fw.n) if inside[i]],
        [j for j in range(fw.m) if inside[fw.n + j]],
    )


# -- certificates --------------------------------------------------------------


POSITIVE = st.builds(F, st.integers(1, 6), st.integers(1, 6))


@SETTINGS
@given(st.data())
def test_verify_radon_matches_reference(data):
    # Balance certificates come from the LP, or from a Q side that repeats P
    # in reverse with the same weights.  Balance stays under any affine map
    # of the points, so huge-denominator images keep them valid; then an
    # edit may break one.
    d = data.draw(st.integers(0, 3))
    points = data.draw(point_sets(d=d, min_size=2, max_size=8, coords=SMALL))
    if data.draw(st.booleans()):
        weights = data.draw(st.lists(POSITIVE, min_size=len(points), max_size=len(points)))
        weights = [w / sum(weights) for w in weights]
        fw = BipartiteFramework(d, tuple(points), tuple(reversed(points)))
        cert = RadonCertificate(tuple(weights), tuple(reversed(weights)))
    else:
        fw = split(data.draw, points)
        cert = maximal_support_radon(fw) if fw.m else None
        if not isinstance(cert, RadonCertificate):
            weights = data.draw(st.lists(POSITIVE, min_size=fw.n + fw.m, max_size=fw.n + fw.m))
            cert = RadonCertificate(tuple(weights[: fw.n]), tuple(weights[fw.n :]))
    matrix = [data.draw(st.tuples(*[RATIONALS] * d)) for _ in range(d)]
    shift = data.draw(st.tuples(*[RATIONALS] * d))

    def image(pt):
        return tuple(sum((a * x for a, x in zip(row, pt)), s) for row, s in zip(matrix, shift))

    mapped = BipartiteFramework(
        d, tuple(map(image, fw.points_p)), tuple(map(image, fw.points_q))
    )
    edit = data.draw(st.sampled_from(["none", "tiny", "moment", "double", "swap", "negate", "short"]))
    lambdas, mus = list(cert.lambdas), list(cert.mus)
    eps = data.draw(TINY)
    dependence = affine_dependence(fw.points_p)
    if edit == "tiny" and len(lambdas) > 1:
        lambdas[0] += eps
        lambdas[-1] -= eps
    elif edit == "moment" and dependence:
        # Keeps the sum and the first moments; only the second ones move.
        lambdas = [v + eps * u for v, u in zip(lambdas, dependence)]
    elif edit == "double":
        lambdas = [2 * v for v in lambdas]
        mus = [2 * v for v in mus]
    elif edit == "swap":
        mus.reverse()
    elif edit == "negate":
        lambdas[0] = -lambdas[0]
    elif edit == "short":
        mus = mus[:-1]
    edited = RadonCertificate(tuple(lambdas), tuple(mus))
    assert verify_radon(mapped, edited) == ref_verify_radon(mapped, edited)
    if edit == "none" and ref_verify_radon(fw, cert):
        assert verify_radon(mapped, cert)


ENTRIES = st.one_of(
    st.integers(1, 6), st.integers(1, BIG), st.sampled_from([BIG, 2**1300])
).flatmap(lambda den: st.builds(F, st.integers(-den, den), st.just(den)))


@SETTINGS
@given(st.data())
def test_verify_separation_matches_reference(data):
    # The classes are the points where a random form is positive and
    # negative, so the form separates them with an exact smallest margin;
    # delta is set to that margin, a tiny rational above or below it, or
    # anything else.
    points = data.draw(point_sets())
    d = len(points[0])
    upper = data.draw(st.lists(ENTRIES, min_size=(d + 1) * (d + 2) // 2,
                               max_size=(d + 1) * (d + 2) // 2))
    matrix = SymmetricMatrix.from_upper(d + 1, upper)
    values = [ref_form(matrix, pt) for pt in points]
    if not any(v > 0 for v in values):
        matrix = SymmetricMatrix.from_upper(d + 1, [-v for v in upper])
        values = [-v for v in values]
    side_p = [pt for pt, v in zip(points, values) if v > 0] or points
    side_q = [pt for pt, v in zip(points, values) if v <= 0 and pt not in side_p]
    fw = BipartiteFramework(d, tuple(side_p), tuple(side_q))
    margin = min([ref_form(matrix, p) for p in side_p] + [-ref_form(matrix, q) for q in side_q])
    eps = data.draw(TINY)
    for delta in (margin, margin + eps, margin - eps, data.draw(RATIONALS)):
        cert = SeparationCertificate(matrix, delta)
        assert verify_separation(cert, fw) == ref_verify_separation(cert, fw)
    if margin > 0:
        assert verify_separation(SeparationCertificate(matrix, margin), fw)


# -- floating read-out -----------------------------------------------------------


def assert_prescaled_like_reference(fw) -> None:
    """``_prescaled`` gives the halving loop's rationals and ``_hatted`` their floats, bit for bit."""
    ints, _, shift = _prescaled(fw)
    scaled = ref_prescaled(fw)
    assert [tuple(F(v, 1 << shift) for v in pt) for pt in ints] == scaled
    reference = np.array([[float(c) for c in pt] + [1.0] for pt in scaled]).T
    hatted = _hatted(fw)
    assert hatted.shape == reference.shape and hatted.tobytes() == reference.tobytes()


# The reference's halving loop is slow on 10**400-sized coordinates.
@settings(max_examples=50, deadline=None)
@given(point_sets(), st.integers(0, 2**32 - 1))
def test_prescale_and_residual_match_reference(points, seed):
    # The integer clear plus shift gives the rationals of the halving loop,
    # and the prescaled floats and the residual are the bit-identical floats.
    fw = BipartiteFramework(len(points[0]), tuple(points[:1]), tuple(points[1:]))
    assert_prescaled_like_reference(fw)
    k = len(points)
    omega = np.random.default_rng(seed).standard_normal((k, k))
    assert equilibrium_residual(omega, fw) == ref_residual(omega, fw)


@pytest.mark.parametrize("peak", [0, 1, 63, 64, 65, 127, 128, 129, 2**70, 2**70 + 1])
@pytest.mark.parametrize("den", [1, 3, 2**5, BIG])
def test_prescale_shift_at_powers_of_two(peak, den):
    # The shift is the least one that brings the peak to at most COORD_CAP,
    # including peaks exactly at COORD_CAP times a power of two.
    fw = BipartiteFramework.from_lists(1, [[F(peak, den)]], [[F(1, den)]])
    assert_prescaled_like_reference(fw)


# -- the verifiers stay on ints --------------------------------------------------


def test_verifiers_run_on_ints(fraction_products):
    # K(10,10) seed 1 balances on its first pass and seed 3 is separated on
    # its first; replaying those certificates, the stress included, and
    # closing the certified set multiplies, divides, adds and subtracts no
    # Fraction.
    rigid, separated = k10x10(1), k10x10(3)
    record = rigidity_test(rigid)[1].records[0]
    radon, cert = record.radon, record.stress
    separation = rigidity_test(separated)[1].records[0].separation
    assert radon is not None and cert is not None and separation is not None
    fraction_products.clear()
    F(1, 2) * F(1, 3)
    F(1, 2) / F(1, 3)
    1 / F(1, 3)
    assert fraction_products == ["__mul__", "__truediv__", "__rtruediv__"]
    fraction_products.clear()
    assert verify_radon(rigid, radon)
    assert verify_separation(separation, separated)
    assert affine_span_dim(rigid.all_points()) == 3
    support = rigid.subframework(radon.support_p, radon.support_q)
    assert affine_span_dim(support.points_p) == affine_span_dim(support.all_points())
    assert verify_super_stable_certificate(support, cert)
    table = _hats(rigid.all_points())
    known = affine_closure(rigid, KnownSet.of(radon.support_p, radon.support_q), table)
    assert span_invariant_holds(rigid, known, table)
    assert fraction_products == []


def test_separation_margin_is_exact_at_huge_denominators():
    # P = {0}, Q = {1/c} on the line and f(x) = 1/(2c) - x: f is 1/(2c) on P
    # and -1/(2c) on Q, so delta = 1/(2c) holds and a hair more does not.
    c = BIG + 1
    fw = BipartiteFramework.from_lists(1, [[0]], [[F(1, c)]])
    matrix = SymmetricMatrix.from_upper(2, [0, F(-1, 2), F(1, 2 * c)])
    assert verify_separation(SeparationCertificate(matrix, F(1, 2 * c)), fw)
    assert not verify_separation(SeparationCertificate(matrix, F(1, 2 * c) + F(1, c**3)), fw)


# -- the balance LP on integer hats ----------------------------------------------


def ref_columns(fw) -> list:
    """Balance columns from ``Fraction`` lifts: ``lift(p)`` for P, ``-lift(q)`` for Q."""
    return [veronese(p).upper for p in fw.points_p] + [
        tuple(-v for v in veronese(q).upper) for q in fw.points_q
    ]


def ref_radon_problem(fw) -> LPProblem:
    """The balance LP from ``Fraction`` lifts, cleared by ``LPProblem.create``."""
    rows = [list(row) for row in zip(*ref_columns(fw))]
    rows.append([1] * fw.n + [0] * fw.m)
    return LPProblem.create(rows, [0] * (len(rows) - 1) + [1], fw.n + fw.m)


def ref_distance_problem(fw) -> LPProblem:
    """The distance LP of ``max_margin_quadric`` from ``Fraction`` lifts."""
    hat = fw.dimension + 1
    weights = [1 if i == j else 2 for i in range(hat) for j in range(i, hat)]
    k = len(weights)
    rows = []
    for e, row in enumerate(zip(*ref_columns(fw))):
        slack = [0] * (2 * k)
        slack[e], slack[k + e] = -1, 1
        rows.append([*row, *slack])
    rows.append([1] * (fw.n + fw.m) + [0] * (2 * k))
    objective = [0] * (fw.n + fw.m) + [-w for w in weights] * 2
    return LPProblem.create(rows, [0] * k + [1], fw.n + fw.m + 2 * k, objective=objective)


def ref_farkas_quadric(d: int, y) -> SeparationCertificate:
    """The quadric of a balance Farkas vector by the ``Fraction`` formula."""
    hat = d + 1
    pairs = [(i, j) for i in range(hat) for j in range(i, hat)]
    upper = [-y[k] if i == j else -y[k] / 2 for k, (i, j) in enumerate(pairs)]
    y_norm = y[len(upper)]
    upper[-1] -= y_norm / 2
    scale = max(abs(v) for v in upper)
    return SeparationCertificate(
        SymmetricMatrix.from_upper(hat, [v / scale for v in upper]), y_norm / (2 * scale)
    )


def unit(total: int, j: int) -> tuple:
    return tuple(int(k == j) for k in range(total))


def assert_same_balance_lp(fw) -> None:
    """The integer builds and the ``Fraction`` references solve alike, pivot for pivot."""
    pairs = ((ref_radon_problem(fw), _radon_problem(fw)),
             (ref_distance_problem(fw), _distance_problem(fw)))
    for ref, new in pairs:
        a, b = lp._Simplex(ref), lp._Simplex(new)
        assert (a.T, a.col_scale, a.rhs_scale) == (b.T, b.col_scale, b.rhs_scale)
    ref, new = pairs[0]
    first, start = solve_feasibility(ref), solve_feasibility(new)
    assert first == start
    if first.status is LPStatus.INFEASIBLE:
        d = fw.dimension
        assert _farkas_quadric(d, first.dual) == ref_farkas_quadric(d, first.dual)
        return
    assert first.phase_one.T == start.phase_one.T
    # The coordinates maximal_support_radon may maximize: zero in the first point.
    total = fw.n + fw.m
    for j in (j for j in range(total) if first.point[j] == 0):
        assert maximize(replace(ref, objective=unit(total, j)), start=first) == maximize(
            replace(new, objective=unit(total, j)), start=start)


@st.composite
def frameworks(draw, max_size=8):
    """Frameworks from :func:`point_sets`, both classes nonempty."""
    points = draw(point_sets(min_size=2, max_size=max_size))
    n = draw(st.integers(1, len(points) - 1))
    return BipartiteFramework(len(points[0]), tuple(points[:n]), tuple(points[n:]))


@pytest.mark.parametrize(
    "fw",
    [fx.framework for fx in all_fixtures().values()] + [k10x10(seed) for seed in (1, 2, 3)],
)
def test_balance_lp_matches_fraction_reference_on_fixtures(fw):
    assert_same_balance_lp(fw)
    assert maximize(ref_distance_problem(fw)) == maximize(_distance_problem(fw))


#: Pivots on entries of 10**400 denominators make some examples take a
#: second, so the LP properties draw fewer of them.
LP_SETTINGS = settings(max_examples=50, deadline=None)


# The distance LP is left unsolved here: on 10**400 denominators its
# solves take seconds, and its tableau is compared above.
@LP_SETTINGS
@given(frameworks())
def test_balance_lp_matches_fraction_reference(fw):
    assert_same_balance_lp(fw)


def test_balance_lp_builds_and_reads_on_ints(fraction_products):
    # The balance and distance LPs of K(10,10) seed 1 and of a separated
    # fixture are built, and that fixture's Farkas quadric is read, with no
    # Fraction product.
    rigid, separated = k10x10(1), fixture("k33_split").framework
    farkas = solve_feasibility(_radon_problem(separated))
    assert farkas.status is LPStatus.INFEASIBLE
    fraction_products.clear()
    F(1, 2) * F(1, 3)
    assert len(fraction_products) == 1  # the counter sees a product
    fraction_products.clear()
    for fw in (rigid, separated):
        _radon_problem(fw)
        _distance_problem(fw)
    cert = _farkas_quadric(separated.dimension, farkas.dual)
    assert fraction_products == []
    assert verify_separation(cert, separated)


# -- the projection of a certified set on integers -------------------------------


def assert_positive_multiple(ray, diff):
    """``ray`` is ``t * diff`` for some ``t > 0``, by exact cross-multiplication."""
    k = next(i for i, v in enumerate(diff) if v)
    assert ray[k] * diff[k] > 0
    assert all(r * diff[k] == v * ray[k] for r, v in zip(ray, diff))


def assert_rays_like_reference(p0, rays, expected):
    ref_p0, ref_p, ref_q = expected
    assert p0 == ref_p0
    assert len(rays) == len(ref_p) + len(ref_q)
    for ray, image in zip(rays, ref_p + ref_q):
        assert_positive_multiple(ray, [a - b for a, b in zip(image, ref_p0)])


@SETTINGS
@given(st.data())
def test_project_out_matches_fraction_reference(data):
    # Random known sets, ones whose hull swallows a complement vertex
    # included: the same cone point and rays along the same images, or the
    # same error.
    points = data.draw(point_sets(d=data.draw(st.integers(1, 3)), min_size=2, max_size=8))
    fw = split(data.draw, points)
    known = KnownSet.of(
        data.draw(st.lists(st.integers(0, fw.n - 1), min_size=1, max_size=fw.n)),
        data.draw(st.lists(st.integers(0, fw.m - 1), max_size=fw.m)) if fw.m else [],
    )
    table = _hats(fw.all_points())
    with pytest.raises(ValueError, match="empty certified set"):
        project_out_known_set(fw, KnownSet.empty(), table)
    try:
        expected = ref_project_out(fw, known)
    except ValueError as err:  # ClosureViolated is a ValueError
        with pytest.raises(type(err)) as raised:
            project_out_known_set(fw, known, table)
        assert str(raised.value) == str(err)
    else:
        assert_rays_like_reference(*project_out_known_set(fw, known, table), expected)


def test_project_out_runs_on_ints(fraction_products):
    # flag seed 1 certifies a line, then a plane; projecting out its second
    # known set and searching the functional gives the recorded cone point
    # and functional with no Fraction product or sum, and the slide builds
    # each coordinate as one Fraction of integers.
    fw = flag(1)
    record = next(r for r in rigidity_test(fw)[1].records if r.cone_point is not None)
    known = KnownSet(record.known_p, record.known_q)
    assert len(known.points(fw)) > 2
    fraction_products.clear()
    F(1, 2) * F(1, 3)
    F(1, 2) + F(1, 3)
    assert fraction_products == ["__mul__", "__add__"]  # the counter sees both
    table = _hats(fw.all_points())
    fraction_products.clear()
    p0, rays = project_out_known_set(fw, known, table)
    functional = slide_functional(rays)
    slid, _ = slide_to_hyperplane(p0, rays, functional)
    assert fraction_products == []
    assert (p0, functional) == (record.cone_point, record.functional)
    assert_rays_like_reference(p0, rays, ref_project_out(fw, known))
    ref_p0, ref_functional, ref_p, ref_q = ref_reduce(fw, known)
    assert (p0, functional, slid) == (ref_p0, ref_functional, ref_p + ref_q)


# -- the whole reduction of a pass against the Fraction pipeline -----------------


def ref_slide(p0, points):
    """The functional search and slide on ``Fraction`` differences from the cone point."""
    diffs = [tuple(a - b for a, b in zip(v, p0)) for v in points]
    if any(not any(diff) for diff in diffs):
        raise DegeneratePoint("a vertex coincides with the cone point")
    d = len(p0)
    axes = [tuple(int(i == axis) for i in range(d)) for axis in range(d)]
    shells = (c for k in count(1) for c in product(range(k + 1), repeat=d) if max(c) == k)
    functional = () if d == 0 else next(
        c for c in chain(axes, shells)
        if all(sum((a * b for a, b in zip(c, diff)), F(0)) != 0 for diff in diffs)
    )
    slid = []
    for diff in diffs:
        value = sum((a * b for a, b in zip(functional, diff)), F(0))
        slid.append(tuple(b + x / value for b, x in zip(p0, diff)))
    return tuple(F(v) for v in functional), slid


def ref_reduce(fw, known):
    """Project, search and slide, all in ``Fraction`` arithmetic."""
    p0, proj_p, proj_q = ref_project_out(fw, known)
    functional, slid = ref_slide(p0, proj_p + proj_q)
    return p0, functional, slid[: len(proj_p)], slid[len(proj_p) :]


@functools.lru_cache(maxsize=None)
def decided_known_sets(seed: int) -> tuple:
    """``(framework, known set)`` of every pass with a certified set, in two seeded decisions."""
    out = []
    for fw in (flag(seed), random_framework(random.Random(seed), d_max=3, nm_max=10)):
        for rec in rigidity_test(fw)[1].records:
            if rec.known_p or rec.known_q:
                out.append((fw, KnownSet(rec.known_p, rec.known_q)))
    return tuple(out)


@st.composite
def random_known_sets(draw):
    """Random known sets, closed or not; tiny integers often make an axis vanish on a ray."""
    coords = draw(st.sampled_from([RATIONALS, st.integers(-2, 2).map(F)]))
    fw = split(draw, draw(point_sets(min_size=2, max_size=8, coords=coords)))
    known = KnownSet.of(
        draw(st.lists(st.integers(0, fw.n - 1), min_size=1, max_size=fw.n)),
        draw(st.lists(st.integers(0, fw.m - 1), max_size=fw.m)) if fw.m else [],
    )
    return fw, affine_closure(fw, known, _hats(fw.all_points())) if draw(st.booleans()) else known


@SETTINGS
@given(st.one_of(
    st.integers(0, 40).map(decided_known_sets).filter(bool).flatmap(st.sampled_from),
    random_known_sets(),
))
def test_reduce_matches_fraction_pipeline(case):
    # d = 0..3, repeated and collinear points, denominators up to 10**400,
    # and known sets of seeded decisions: the integer pass gives the same
    # cone point, functional and slid points as the Fraction pipeline, or
    # the same error with the same message.
    fw, known = case
    comp = known.complement(fw)
    table = _hats(fw.all_points())
    assume(comp.size)  # a pass with no complement exits before reducing
    try:
        expected = ref_reduce(fw, known)
    except ValueError as err:  # ClosureViolated is a ValueError
        with pytest.raises(type(err)) as raised:
            _reduce(fw, known, comp, table)
        assert str(raised.value) == str(err)
    else:
        assert _reduce(fw, known, comp, table)[:4] == expected
