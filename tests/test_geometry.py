"""Lifts, exact ranks and affine spans, symmetric matrices, frameworks."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bipartite_rigidity.fixtures import fixture
from bipartite_rigidity.geometry import (
    BipartiteFramework,
    EmptyInput,
    SymmetricMatrix,
    _int_rows,
    _reduce_ints,
    affine_span_dim,
    in_affine_span,
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
    # Each non-pivot column of the reduced form gives a null vector, so
    # the null space has dimension ``cols - rank``.
    reduced = _int_rows(rows)
    pivots, den = _reduce_ints(reduced)
    assert len(pivots) == rank
    # True reduced row echelon form on integers over ``den``: ``den`` at
    # each pivot, zeros before it and elsewhere in its column, zero rows
    # last, and every entry an int.
    assert type(den) is int and den > 0
    assert pivots == sorted(set(pivots))
    assert all(type(v) is int for row in reduced for v in row)
    for r, c in enumerate(pivots):
        assert not any(reduced[r][:c]) and reduced[r][c] == den
        assert all(row[c] == 0 for k, row in enumerate(reduced) if k != r)
    assert not any(v for row in reduced[rank:] for v in row)
    for free in (c for c in range(cols) if c not in pivots):
        x = [0] * cols
        x[free] = den
        for r, c in enumerate(pivots):
            x[c] = -reduced[r][free]
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


def test_k65_fixture_position_predicates():
    # The fixture is in quadric general position (every ten of its eleven
    # lifted points are affinely independent) but not in general position:
    # three of its points are collinear.
    fw = fixture("k65").framework
    pts = fw.all_points()
    lifted = [veronese(p).upper for p in pts]
    cap = (fw.dimension + 1) * (fw.dimension + 2) // 2
    size = min(len(lifted), cap)
    assert all(affine_span_dim(sub) == size - 1 for sub in combinations(lifted, size))
    assert any(affine_span_dim(triple) == 1 for triple in combinations(pts, 3))


def test_symmetric_matrix_round_trip():
    m = SymmetricMatrix.from_upper(2, [1, 2, 5])
    assert m.entry(0, 1) == m.entry(1, 0) == 2
    assert m.rows() == [[1, 2], [2, 5]]
    assert m.evaluate_point((F(1),)) == 1 + 2 + 2 + 5
    with pytest.raises(ValueError):
        SymmetricMatrix.from_upper(2, [1, 2])


def test_framework_validation():
    with pytest.raises(ValueError):
        BipartiteFramework(1, (), ((F(0),),))
    with pytest.raises(ValueError):
        BipartiteFramework(2, ((F(0),),), ())
    fw = BipartiteFramework.from_lists(1, [[0]], [])
    assert fw.n == 1 and fw.m == 0
