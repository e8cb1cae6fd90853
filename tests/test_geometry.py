"""Lifts, spans, position predicates, and the direction-conic witness."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity.fixtures import fixture
from bipartite_rigidity.geometry import (
    BipartiteFramework,
    EmptyInput,
    SymmetricMatrix,
    _null_space_vector,
    affine_span_dim,
    conic_at_infinity_witness,
    in_affine_span,
    is_general_position,
    is_quadric_general_position,
    linear_rank,
    veronese,
)

# Small entries make rank-deficient matrices common.
RATIONALS = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def test_veronese_scalar():
    assert veronese([2]).rows() == [[F(4), F(2)], [F(2), F(1)]]


def test_veronese_origin():
    m = veronese([0, 0])
    assert m.order == 3
    assert m.rows() == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]


def test_veronese_plane_point():
    assert veronese([1, 2]).rows() == [
        [F(1), F(2), F(1)],
        [F(2), F(4), F(2)],
        [F(1), F(2), F(1)],
    ]


def test_veronese_rank_one_psd(rng):
    # Rank one with a positive trace entry: the lift of any point.
    for _ in range(30):
        d = rng.randint(1, 4)
        v = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
        m = veronese(v)
        hat = v + [F(1)]
        rows = m.rows()
        for i in range(d + 1):
            for j in range(d + 1):
                assert rows[i][j] == hat[i] * hat[j]
        lifted = [list(row) for row in rows]
        assert linear_rank(lifted) == 1
        assert m.entry(d, d) == 1


@st.composite
def matrices(draw):
    """A column count and up to five rows of that width."""
    cols = draw(st.integers(1, 5))
    row = st.lists(RATIONALS, min_size=cols, max_size=cols)
    return cols, draw(st.lists(row, max_size=5))


@given(matrices())
def test_rank_and_null_vector(matrix):
    cols, rows = matrix
    rank = linear_rank(rows)
    assert rank == linear_rank([list(col) for col in zip(*rows)])
    x = _null_space_vector(rows, cols)
    assert (x is None) == (rank == cols)
    if x is not None:
        assert any(x)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


def test_affine_span_dims():
    assert affine_span_dim([(F(5),)]) == 0
    assert affine_span_dim([(F(0),), (F(1),), (F(2),)]) == 1
    cube = [
        (F(a), F(b), F(c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ]
    assert affine_span_dim(cube) == 3
    with pytest.raises(EmptyInput):
        affine_span_dim([])


def test_in_affine_span():
    assert in_affine_span((F(3),), [(F(0),), (F(1),)])
    assert not in_affine_span((F(0), F(1)), [(F(0), F(0)), (F(2), F(0))])
    even = [(F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(1), F(0), F(1)), (F(0), F(1), F(1))]
    assert in_affine_span((F(1), F(1), F(1)), even)


def test_affine_span_invariance_under_affine_maps(rng):
    for _ in range(25):
        d = rng.randint(1, 3)
        pts = [
            tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
            for _ in range(rng.randint(1, 6))
        ]
        base = affine_span_dim(pts)
        shift = tuple(F(rng.randint(-4, 4)) for _ in range(d))
        translated = [tuple(a + s for a, s in zip(p, shift)) for p in pts]
        assert affine_span_dim(translated) == base
        # Random invertible map: unit triangular times unit triangular.
        lower = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j < i else F(0)) for j in range(d)] for i in range(d)]
        upper = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(d)] for i in range(d)]
        def apply(mat, v):
            return tuple(sum(mat[i][j] * v[j] for j in range(d)) for i in range(d))
        mapped = [apply(lower, apply(upper, p)) for p in pts]
        assert affine_span_dim(mapped) == base


def test_in_affine_span_order_independent(rng):
    for _ in range(20):
        d = rng.randint(1, 3)
        pts = [
            tuple(F(rng.randint(-4, 4)) for _ in range(d))
            for _ in range(rng.randint(2, 5))
        ]
        v = tuple(F(rng.randint(-4, 4)) for _ in range(d))
        expected = in_affine_span(v, pts)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert in_affine_span(v, shuffled) == expected


def test_general_position_plane():
    assert is_general_position([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], 2)
    assert not is_general_position([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))], 2)


def test_quadric_general_position_line():
    pts = [(F(0),), (F(1),), (F(2),)]
    assert is_quadric_general_position(pts, 1)
    assert not is_quadric_general_position([(F(0),), (F(1),), (F(1),)], 1)


def test_six_points_on_conic_not_quadric_general():
    def circle(t):
        t = F(t)
        return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))

    pts = [circle(t) for t in (0, 1, 2, 3, F(1, 2), -1)]
    assert not is_quadric_general_position(pts, 2)


def test_k65_fixture_position_predicates():
    fw = fixture("k65").framework
    pts = fw.all_points()
    assert not is_general_position(pts, 3)
    assert is_quadric_general_position(pts, 3)


def test_conic_witness_single_direction():
    w = conic_at_infinity_witness([(F(1), F(0))])
    assert w is not None and not w.is_zero()
    assert w.quadratic_form((F(1), F(0))) == 0


def test_conic_witness_absent_on_line():
    assert conic_at_infinity_witness([(F(1),)]) is None


def test_conic_witness_absent_for_coned_line_quadrilateral():
    # Edge directions of the alternating line quadrilateral coned from
    # (0, 1): four bar directions plus the cone edges; only the zero
    # matrix is orthogonal to all of them.
    base = [F(0), F(2), F(1), F(3)]
    directions = [(F(1), F(0))]
    directions += [(x - F(0), F(0) - F(1)) for x in base]
    assert conic_at_infinity_witness(directions) is None


def test_conic_witness_validates_input():
    with pytest.raises(EmptyInput):
        conic_at_infinity_witness([])
    with pytest.raises(ValueError):
        conic_at_infinity_witness([(F(0), F(0))])


def test_symmetric_matrix_round_trip():
    m = SymmetricMatrix.from_rows([[1, 2], [2, 5]])
    assert m.entry(0, 1) == 2
    assert m.evaluate_point((F(1),)) == 1 + 2 + 2 + 5
    with pytest.raises(ValueError):
        SymmetricMatrix.from_rows([[1, 2], [3, 5]])


def test_framework_validation():
    with pytest.raises(ValueError):
        BipartiteFramework(1, (), ((F(0),),))
    with pytest.raises(ValueError):
        BipartiteFramework(2, ((F(0),),), ())
    fw = BipartiteFramework.from_lists(1, [[0]], [])
    assert fw.n == 1 and fw.m == 0
