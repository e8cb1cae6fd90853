"""Projection, sliding, affine closure, and coning."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity.engine import Verdict, rigidity_test
from bipartite_rigidity.geometry import BipartiteFramework, affine_span_dim
from bipartite_rigidity.reduction import (
    ApexInSpan,
    ClosureViolated,
    DegeneratePoint,
    KnownSet,
    affine_closure,
    cone_over,
    orthogonal_projector,
    project_out_known_set,
    slide_functional,
    slide_to_hyperplane,
    span_invariant_holds,
)

RATIONALS = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def fw_collinear_with_offline():
    # Four collinear vertices split two and two, plus one off the line.
    return BipartiteFramework.from_lists(
        2, [[0, 0], [2, 0], [1, 1]], [[1, 0], [3, 0]]
    )


def test_projection_kills_line():
    fw = fw_collinear_with_offline()
    known = KnownSet.of([0, 1], [0, 1])
    p0, proj_p, proj_q = project_out_known_set(fw, known)
    assert p0 == (F(0), F(0))
    assert proj_p == [(F(0), F(1))]  # the off-line vertex keeps its height
    assert proj_q == []


def test_projection_closure_violation():
    fw = BipartiteFramework.from_lists(2, [[0, 0], [2, 0], [3, 0]], [[1, 0]])
    known = KnownSet.of([0, 1], [0])
    with pytest.raises(ClosureViolated):
        project_out_known_set(fw, known)


@st.composite
def point_sets(draw):
    """One to d + 2 points in d-space, d up to 4."""
    d = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[RATIONALS] * d), min_size=1, max_size=d + 2))


@given(point_sets())
def test_projector_idempotent(pts):
    # Symmetric, idempotent, kills the hull's directions, and its trace is
    # the codimension of the hull.
    d = len(pts[0])
    proj = orthogonal_projector(pts)
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
    out = slide_to_hyperplane(
        (F(0), F(0)),
        [(F(0), F(1)), (F(1), F(1)), (F(0), F(2))],
        functional=(F(0), F(1)),
    )
    assert out == [(F(0), F(1)), (F(1), F(1)), (F(0), F(1))]
    out = slide_to_hyperplane((F(0),), [(F(2),)], functional=(F(1),))
    assert out == [(F(1),)]


def test_slide_functional_deterministic_search():
    # x fails on the first point, y works for all.
    c = slide_functional((F(0), F(0)), [(F(0), F(2)), (F(3), F(1))])
    assert c == (F(0), F(1))
    # both axes fail; the first working small combination is (1, 1).
    c = slide_functional((F(0), F(0)), [(F(0), F(2)), (F(3), F(0))])
    assert c == (F(1), F(1))


def test_slide_idempotent_on_hyperplane():
    p0 = (F(0), F(0))
    pts = [(F(1), F(2)), (F(-2), F(4))]
    c = slide_functional(p0, pts)
    once = slide_to_hyperplane(p0, pts, c)
    twice = slide_to_hyperplane(p0, once, c)
    assert once == twice


def test_slide_degenerate_point():
    with pytest.raises(DegeneratePoint):
        slide_functional((F(0),), [(F(0),)])
    with pytest.raises(DegeneratePoint):
        slide_to_hyperplane((F(0),), [(F(0),)], functional=(F(1),))


def test_rationality_preserved():
    fw = fw_collinear_with_offline()
    known = KnownSet.of([0, 1], [0, 1])
    p0, proj_p, _ = project_out_known_set(fw, known)
    for pt in [p0] + proj_p:
        assert all(isinstance(c, F) for c in pt)
    slid = slide_to_hyperplane(p0, proj_p)
    assert all(isinstance(c, F) for pt in slid for c in pt)


def test_affine_closure_absorbs_line_point():
    fw = BipartiteFramework.from_lists(1, [[0], [2], [5]], [[1], [3]])
    known = KnownSet.of([0, 1], [0, 1])
    closed = affine_closure(fw, known)
    assert closed.p_indices == (0, 1, 2)


def test_affine_closure_leaves_offline_vertex():
    fw = fw_collinear_with_offline()
    known = KnownSet.of([0, 1], [0, 1])
    closed = affine_closure(fw, known)
    assert closed == KnownSet.of([0, 1], [0, 1])


def test_affine_closure_idempotent_and_monotone(rng):
    from conftest import random_framework

    for _ in range(20):
        fw = random_framework(rng, d_max=2, nm_max=7)
        known = KnownSet.of(
            [i for i in range(fw.n) if rng.random() < 0.5] or [0],
            [j for j in range(fw.m) if rng.random() < 0.5],
        )
        closed = affine_closure(fw, known)
        assert set(known.p_indices) <= set(closed.p_indices)
        assert set(known.q_indices) <= set(closed.q_indices)
        assert affine_closure(fw, closed) == closed


def test_closure_certifies_center_vertex():
    # Hexagon on a circle spans the plane; a center vertex joins by closure.
    from bipartite_rigidity.fixtures import fixture

    fw = fixture("k43_center").framework
    known = KnownSet.of([0, 1, 2], [0, 1, 2])
    closed = affine_closure(fw, known)
    assert closed.p_indices == (0, 1, 2, 3)


def test_span_invariant():
    fw = fw_collinear_with_offline()
    assert span_invariant_holds(fw, KnownSet.of([0, 1], [0, 1]))
    assert not span_invariant_holds(fw, KnownSet.of([0, 2], [0]))
    assert span_invariant_holds(fw, KnownSet.empty())


def test_cone_over_alternating_line_is_rigid():
    base = BipartiteFramework.from_lists(1, [[0], [2]], [[1], [3]])
    coned = cone_over(base, (0, 1))
    assert coned.dimension == 2
    assert coned.n == 3 and coned.m == 3
    verdict, _ = rigidity_test(coned)
    assert verdict is Verdict.UNIVERSALLY_RIGID


def test_cone_over_single_point_is_bar():
    base = BipartiteFramework.from_lists(1, [[5]], [])
    coned = cone_over(base, (0, 1))
    assert coned.n == 1 and coned.m == 1
    verdict, _ = rigidity_test(coned)
    assert verdict is Verdict.UNIVERSALLY_RIGID


def test_cone_preserves_dimensional_flexibility():
    # The coned copy of a strictly separated pair stays not dimensionally
    # rigid: coning preserves dimensional rigidity in both directions.
    base = BipartiteFramework.from_lists(1, [[0], [1]], [[2], [3]])
    coned = cone_over(base, (0, 1))
    verdict, _ = rigidity_test(coned)
    assert verdict is Verdict.NOT_DIMENSIONALLY_RIGID


def test_cone_apex_must_leave_hyperplane():
    base = BipartiteFramework.from_lists(1, [[0], [2]], [[1], [3]])
    with pytest.raises(ApexInSpan):
        cone_over(base, (5, 0))


def test_reduced_framework_spans():
    # Projection then sliding of the two-stage space example produces an
    # alternating line quadruple in the quotient.
    from bipartite_rigidity.fixtures import fixture

    fw = fixture("projection_k44").framework
    known = KnownSet.of([0, 1], [0, 1])
    p0, proj_p, proj_q = project_out_known_set(fw, known)
    c = slide_functional(p0, proj_p + proj_q)
    slid = slide_to_hyperplane(p0, proj_p + proj_q, c)
    assert affine_span_dim(slid) == 1
    xs = sorted(pt[0] for pt in slid)
    assert xs == [F(0), F(1), F(2), F(3)]
