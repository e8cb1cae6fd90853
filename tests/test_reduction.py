"""Projection, sliding, affine closure, and coned frameworks."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity.engine import Verdict, rigidity_test
from bipartite_rigidity.geometry import BipartiteFramework, _hats, affine_span_dim
from bipartite_rigidity.lp import _clear
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
from test_integer_geometry import ref_projector

RATIONALS = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def fw_collinear_with_offline():
    # Four collinear vertices split two and two, plus one off the line.
    return BipartiteFramework.from_lists(
        2, [[0, 0], [2, 0], [1, 1]], [[1, 0], [3, 0]]
    )


def test_projection_kills_line():
    fw = fw_collinear_with_offline()
    known = KnownSet.of([0, 1], [0, 1])
    p0, rays = project_out_known_set(fw, known, _hats(fw.all_points()))
    assert p0 == (F(0), F(0))
    [(x, y)] = rays  # the off-line vertex keeps its height
    assert x == 0 and y > 0


def test_projection_closure_violation():
    fw = BipartiteFramework.from_lists(2, [[0, 0], [2, 0], [3, 0]], [[1, 0]])
    known = KnownSet.of([0, 1], [0])
    with pytest.raises(ClosureViolated):
        project_out_known_set(fw, known, _hats(fw.all_points()))


@st.composite
def point_sets(draw):
    """One to d + 2 points in d-space, d up to 4."""
    d = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[RATIONALS] * d), min_size=1, max_size=d + 2))


@given(point_sets())
def test_projector_idempotent(pts):
    # The Fraction projector that project_out_known_set is checked against
    # (test_integer_geometry.py) is symmetric, idempotent, kills the hull's
    # directions, and its trace is the codimension of the hull.
    d = len(pts[0])
    proj = ref_projector(pts)
    times = [
        [sum(proj[i][k] * proj[k][j] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]
    assert times == proj
    assert all(proj[i][j] == proj[j][i] for i in range(d) for j in range(d))
    for pt in pts[1:]:
        diff = [a - b for a, b in zip(pt, pts[0])]
        assert all(sum(row[j] * diff[j] for j in range(d)) == 0 for row in proj)
    assert sum(proj[i][i] for i in range(d)) == d - affine_span_dim(pts)


def test_slide_examples():
    # Scaling along rays from the origin onto the line y = 1.
    out, _ = slide_to_hyperplane(
        (F(0), F(0)),
        [(0, 1), (1, 1), (0, 2)],
        functional=(F(0), F(1)),
    )
    assert out == [(F(0), F(1)), (F(1), F(1)), (F(0), F(1))]
    out, _ = slide_to_hyperplane((F(0),), [(2,)], functional=(F(1),))
    assert out == [(F(1),)]
    # A rational cone point and functional: 1/3 + 3 / (3/2).
    out, _ = slide_to_hyperplane((F(1, 3),), [(3,), (-6,)], functional=(F(1, 2),))
    assert out == [(F(7, 3),), (F(7, 3),)]


def test_slide_functional_deterministic_search():
    # x fails on the first point, y works for all.
    c = slide_functional([(0, 2), (3, 1)])
    assert c == (F(0), F(1))
    # both axes fail; the first working small combination is (1, 1).
    c = slide_functional([(0, 2), (3, 0)])
    assert c == (F(1), F(1))


def ref_slide_functional(p0, points):
    """The search as it was with a fixed cap of 64 shells, kept as a reference."""
    d = len(p0)
    diffs = [tuple(a - b for a, b in zip(v, p0)) for v in points]

    def works(c):
        return all(sum(ci * vi for ci, vi in zip(c, diff)) != 0 for diff in diffs)

    for axis in range(d):
        c = [0] * d
        c[axis] = 1
        if works(c):
            return tuple(F(v) for v in c)
    for k in range(1, 65):
        for combo in product(range(k + 1), repeat=d):
            if max(combo) != k or not any(combo):
                continue
            if works(combo):
                return tuple(F(v) for v in combo)
    raise AssertionError("functional search exhausted; input beyond supported scale")


@st.composite
def ray_sets(draw):
    """A cone point and up to seven points off it, in d = 1..4, with small entries."""
    d = draw(st.integers(1, 4))
    coord = st.fractions(-3, 3, max_denominator=3)
    p0 = tuple(draw(st.lists(coord, min_size=d, max_size=d)))
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(
        lambda v: tuple(a + b for a, b in zip(p0, v)))
    return p0, draw(st.lists(point.filter(lambda v: v != p0), max_size=7))


@given(ray_sets())
def test_slide_functional_matches_the_capped_search(rays):
    # With no ray there is nothing to be nonzero on: the functional is empty.
    p0, points = rays
    c = slide_functional([tuple(int(a - b) for a, b in zip(v, p0)) for v in points])
    assert c == (ref_slide_functional(p0, points) if points else ())
    assert max(c, default=0) <= len(points)


def test_slide_functional_past_the_first_shell():
    # Both axes and every vector of the first shell vanish on some ray.
    assert slide_functional([(0, 1), (1, 0), (1, -1)]) == (F(1), F(2))


def test_slide_idempotent_on_hyperplane():
    p0 = (F(0), F(0))
    rays = [(1, 2), (-2, 4)]
    c = slide_functional(rays)
    once, _ = slide_to_hyperplane(p0, rays, c)
    # Rays are integers; each offset is cleared by a positive factor.
    again = [_clear([a - b for a, b in zip(v, p0)])[0] for v in once]
    twice, _ = slide_to_hyperplane(p0, again, c)
    assert once == twice


def test_slide_degenerate_point():
    # A zero ray: no functional is nonzero on it.
    with pytest.raises(DegeneratePoint):
        slide_functional([(0,)])
    with pytest.raises(ValueError, match="functional vanishes on a ray"):
        slide_to_hyperplane((F(0),), [(0,)], functional=(F(1),))


def test_slide_functional_in_zero_space():
    # 0-space has no ray: with no points the functional is empty, and any
    # point coincides with the cone point.
    assert slide_functional([]) == ()
    with pytest.raises(DegeneratePoint):
        slide_functional([()])
    assert slide_to_hyperplane((), [], ()) == ([], [])


def test_rationality_preserved():
    fw = fw_collinear_with_offline()
    known = KnownSet.of([0, 1], [0, 1])
    p0, rays = project_out_known_set(fw, known, _hats(fw.all_points()))
    assert all(isinstance(c, F) for c in p0)
    assert all(isinstance(c, int) for ray in rays for c in ray)
    slid, _ = slide_to_hyperplane(p0, rays, slide_functional(rays))
    assert all(isinstance(c, F) for pt in slid for c in pt)


def test_affine_closure_absorbs_line_point():
    fw = BipartiteFramework.from_lists(1, [[0], [2], [5]], [[1], [3]])
    known = KnownSet.of([0, 1], [0, 1])
    closed = affine_closure(fw, known, _hats(fw.all_points()))
    assert closed.p_indices == (0, 1, 2)


def test_affine_closure_leaves_offline_vertex():
    fw = fw_collinear_with_offline()
    known = KnownSet.of([0, 1], [0, 1])
    closed = affine_closure(fw, known, _hats(fw.all_points()))
    assert closed == KnownSet.of([0, 1], [0, 1])


def test_affine_closure_idempotent_and_monotone(rng):
    from conftest import random_framework

    for _ in range(20):
        fw = random_framework(rng, d_max=2, nm_max=7)
        known = KnownSet.of(
            [i for i in range(fw.n) if rng.random() < 0.5] or [0],
            [j for j in range(fw.m) if rng.random() < 0.5],
        )
        table = _hats(fw.all_points())
        closed = affine_closure(fw, known, table)
        assert set(known.p_indices) <= set(closed.p_indices)
        assert set(known.q_indices) <= set(closed.q_indices)
        assert affine_closure(fw, closed, table) == closed


def test_closure_certifies_center_vertex():
    # Hexagon on a circle spans the plane; a center vertex joins by closure.
    from bipartite_rigidity.fixtures import fixture

    fw = fixture("k43_center").framework
    known = KnownSet.of([0, 1, 2], [0, 1, 2])
    closed = affine_closure(fw, known, _hats(fw.all_points()))
    assert closed.p_indices == (0, 1, 2, 3)


def test_span_invariant():
    fw = fw_collinear_with_offline()
    table = _hats(fw.all_points())
    assert span_invariant_holds(fw, KnownSet.of([0, 1], [0, 1]), table)
    assert not span_invariant_holds(fw, KnownSet.of([0, 2], [0]), table)
    assert span_invariant_holds(fw, KnownSet.empty(), table)


# The cone over a base framework in d-space: the base at final coordinate
# zero and the apex (0, 1) off that hyperplane, as a vertex of each class
# (a coincident pair joined by a zero-length bar) so that it is adjacent to
# every base vertex; with one class empty the apex joins the other class.


def test_cone_over_alternating_line_is_rigid():
    # The alternating line P = {0, 2}, Q = {1, 3}, coned.
    coned = BipartiteFramework.from_lists(
        2, [[0, 0], [2, 0], [0, 1]], [[1, 0], [3, 0], [0, 1]]
    )
    verdict, _ = rigidity_test(coned)
    assert verdict is Verdict.UNIVERSALLY_RIGID


def test_cone_over_single_point_is_bar():
    # The single point P = {5}, Q = {}, coned: one bar.
    coned = BipartiteFramework.from_lists(2, [[5, 0]], [[0, 1]])
    verdict, _ = rigidity_test(coned)
    assert verdict is Verdict.UNIVERSALLY_RIGID


def test_cone_preserves_dimensional_flexibility():
    # The coned copy of the strictly separated pair P = {0, 1}, Q = {2, 3}
    # stays not dimensionally rigid: coning preserves dimensional rigidity
    # in both directions.
    coned = BipartiteFramework.from_lists(
        2, [[0, 0], [1, 0], [0, 1]], [[2, 0], [3, 0], [0, 1]]
    )
    verdict, _ = rigidity_test(coned)
    assert verdict is Verdict.NOT_DIMENSIONALLY_RIGID


def test_reduced_framework_spans():
    # Projection then sliding of the two-stage space example produces an
    # alternating line quadruple in the quotient.
    from bipartite_rigidity.fixtures import fixture

    fw = fixture("projection_k44").framework
    known = KnownSet.of([0, 1], [0, 1])
    p0, rays = project_out_known_set(fw, known, _hats(fw.all_points()))
    slid, _ = slide_to_hyperplane(p0, rays, slide_functional(rays))
    assert affine_span_dim(slid) == 1
    xs = sorted(pt[0] for pt in slid)
    assert xs == [F(0), F(1), F(2), F(3)]
