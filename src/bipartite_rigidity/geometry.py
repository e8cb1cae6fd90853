"""Configurations, the Veronese lift, and exact affine-span utilities.

Points are tuples of ``Fraction``; every rank, span and null-space
computation here runs on the shared exact Gauss-Jordan kernel
(:func:`row_reduce` over :func:`~.lp.pivot_rows`), so dimension comparisons
are exact.  The Veronese lift sends a point ``v`` of d-space to the rank-one
symmetric matrix ``v^ v^T`` (with a trailing 1 appended to ``v``), turning
questions about separating quadrics into questions about separating
hyperplanes in the space of symmetric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .lp import ZERO, ONE, _frac, pivot_rows

Point = tuple[Fraction, ...]


class EmptyInput(ValueError):
    """An operation that needs at least one point received none."""


def as_point(coords: Iterable) -> Point:
    return tuple(_frac(c) for c in coords)


@dataclass(frozen=True)
class BipartiteFramework:
    """A complete bipartite bar framework: two point classes in d-space.

    Every vertex of one class is joined by a bar to every vertex of the
    other class; there are no bars within a class.
    """

    dimension: int
    points_p: tuple[Point, ...]
    points_q: tuple[Point, ...]

    def __post_init__(self):
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.points_p) < 1:
            raise ValueError("the first class must contain at least one point")
        for pt in self.points_p + self.points_q:
            if len(pt) != self.dimension:
                raise ValueError("point does not match the ambient dimension")

    @classmethod
    def from_lists(cls, dimension: int, p: Iterable, q: Iterable) -> "BipartiteFramework":
        return cls(
            dimension=dimension,
            points_p=tuple(as_point(v) for v in p),
            points_q=tuple(as_point(v) for v in q),
        )

    @property
    def n(self) -> int:
        return len(self.points_p)

    @property
    def m(self) -> int:
        return len(self.points_q)

    def all_points(self) -> tuple[Point, ...]:
        return self.points_p + self.points_q

    def subframework(self, p_idx: Sequence[int], q_idx: Sequence[int]) -> "BipartiteFramework":
        return BipartiteFramework(
            dimension=self.dimension,
            points_p=tuple(self.points_p[i] for i in p_idx),
            points_q=tuple(self.points_q[j] for j in q_idx),
        )


@dataclass(frozen=True)
class SymmetricMatrix:
    """A square symmetric matrix stored as its upper triangle (row-major).

    Entries are exact rationals; symmetry is structural, not checked per
    access.  Used for lifted points, separating quadrics and direction
    conics.
    """

    order: int
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.upper) != self.order * (self.order + 1) // 2:
            raise ValueError("upper triangle length does not match order")

    @classmethod
    def zeros(cls, order: int) -> "SymmetricMatrix":
        return cls(order, (ZERO,) * (order * (order + 1) // 2))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SymmetricMatrix":
        order = len(rows)
        data = []
        for i in range(order):
            if len(rows[i]) != order:
                raise ValueError("matrix is not square")
            for j in range(i, order):
                a = _frac(rows[i][j])
                if _frac(rows[j][i]) != a:
                    raise ValueError("matrix is not symmetric")
                data.append(a)
        return cls(order, tuple(data))

    @classmethod
    def from_upper(cls, order: int, upper: Iterable) -> "SymmetricMatrix":
        return cls(order, tuple(_frac(v) for v in upper))

    def _pos(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.order - i * (i - 1) // 2 + (j - i)

    def entry(self, i: int, j: int) -> Fraction:
        return self.upper[self._pos(i, j)]

    def rows(self) -> list[list[Fraction]]:
        return [[self.entry(i, j) for j in range(self.order)] for i in range(self.order)]

    def inner(self, other: "SymmetricMatrix") -> Fraction:
        """Trace inner product; off-diagonal entries count twice."""
        if other.order != self.order:
            raise ValueError("order mismatch")
        acc = ZERO
        k = 0
        for i in range(self.order):
            for j in range(i, self.order):
                term = self.upper[k] * other.upper[k]
                acc += term if i == j else 2 * term
                k += 1
        return acc

    def quadratic_form(self, vec: Sequence[Fraction]) -> Fraction:
        if len(vec) != self.order:
            raise ValueError("vector length mismatch")
        acc = ZERO
        for i in range(self.order):
            vi = vec[i]
            if not vi:
                continue
            for j in range(self.order):
                vj = vec[j]
                if vj:
                    acc += vi * self.entry(i, j) * vj
        return acc

    def evaluate_point(self, point: Sequence[Fraction]) -> Fraction:
        """Value of the quadric form at a point of (order-1)-space."""
        return self.quadratic_form(tuple(point) + (ONE,))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.upper)

    def scaled(self, factor) -> "SymmetricMatrix":
        f = _frac(factor)
        return SymmetricMatrix(self.order, tuple(f * v for v in self.upper))

    def to_array(self) -> np.ndarray:
        return np.array([[float(self.entry(i, j)) for j in range(self.order)]
                         for i in range(self.order)])


def veronese(v: Sequence) -> SymmetricMatrix:
    """Lift a point of d-space to the rank-one symmetric matrix of order d+1."""
    hat = tuple(_frac(c) for c in v) + (ONE,)
    k = len(hat)
    data = []
    for i in range(k):
        for j in range(i, k):
            data.append(hat[i] * hat[j])
    return SymmetricMatrix(k, tuple(data))


def lift_coordinates(v: Sequence) -> tuple[Fraction, ...]:
    """The lifted point flattened to its upper-triangle coordinate vector."""
    return veronese(v).upper


# -- exact elimination -------------------------------------------------------


def row_reduce(rows: list[list[Fraction]]) -> list[int]:
    """Bring ``rows`` to reduced row echelon form in place.

    Returns the pivot columns: row ``k`` has its leading one in column
    ``pivots[k]`` and every row past ``len(pivots)`` is zero.
    """
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        src = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        pivot_rows(rows, rank, col)
        pivots.append(col)
    return pivots


def linear_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Exact linear rank of a list of rational vectors."""
    return len(row_reduce([list(v) for v in vectors]))


def affine_span_dim(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine span, computed exactly."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    base = points[0]
    diffs = [[a - b for a, b in zip(pt, base)] for pt in points[1:]]
    return linear_rank(diffs)


def in_affine_span(v: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test that ``v`` lies in the affine span of ``points``."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    if len(v) != len(points[0]):
        raise ValueError("dimension mismatch")
    base = points[0]
    diffs = [[a - b for a, b in zip(pt, base)] for pt in points[1:]]
    r = linear_rank(diffs)
    diffs.append([a - b for a, b in zip(v, base)])
    return linear_rank(diffs) == r


def affine_spans_equal(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact equality of two affine hulls.

    The hulls agree iff they have the same dimension and their union spans
    nothing more.
    """
    if not a and not b:
        return True
    if not a or not b:
        return False
    da = affine_span_dim(a)
    db = affine_span_dim(b)
    if da != db:
        return False
    return affine_span_dim(list(a) + list(b)) == da


def is_general_position(points: Sequence[Sequence[Fraction]], d: int) -> bool:
    """Every k+1 points span a k-dimensional affine subspace, k up to d.

    Equivalent to every subset of size ``min(len(points), d+1)`` being
    affinely independent; subsets of an affinely independent set are again
    affinely independent.
    """
    pts = list(points)
    size = min(len(pts), d + 1)
    if size <= 1:
        return True
    for subset in combinations(pts, size):
        if affine_span_dim(subset) != size - 1:
            return False
    return True


def is_quadric_general_position(points: Sequence[Sequence[Fraction]], d: int) -> bool:
    """General position of the lifted points in symmetric-matrix space.

    When there are at least (d+1)(d+2)/2 points this says no
    (d+1)(d+2)/2 of them lie on a common quadric.
    """
    lifted = [lift_coordinates(p) for p in points]
    cap = (d + 1) * (d + 2) // 2
    size = min(len(lifted), cap)
    if size <= 1:
        return True
    for subset in combinations(lifted, size):
        if affine_span_dim(subset) != size - 1:
            return False
    return True


def conic_at_infinity_witness(
    directions: Sequence[Sequence[Fraction]],
) -> Optional[SymmetricMatrix]:
    """A nonzero symmetric Q with ``v^T Q v = 0`` for every direction, or None.

    Each direction contributes one linear equation on the upper-triangle
    entries of Q; the witness is any nonzero exact null vector of that
    system.
    """
    if not directions:
        raise EmptyInput("no directions given")
    d = len(directions[0])
    for v in directions:
        if len(v) != d:
            raise ValueError("direction dimension mismatch")
        if all(c == 0 for c in v):
            raise ValueError("directions must be nonzero")
    n_unknowns = d * (d + 1) // 2
    rows = []
    for v in directions:
        row = []
        for i in range(d):
            for j in range(i, d):
                row.append(v[i] * v[j] if i == j else 2 * v[i] * v[j])
        rows.append(row)
    sol = _null_space_vector(rows, n_unknowns)
    if sol is None:
        return None
    return SymmetricMatrix.from_upper(d, sol)


def _null_space_vector(
    rows: list[list[Fraction]], n_unknowns: int
) -> Optional[list[Fraction]]:
    """One nonzero solution of ``rows @ x = 0``, or None if only x = 0."""
    work = [list(r) for r in rows]
    pivots = row_reduce(work)
    free_col = next((c for c in range(n_unknowns) if c not in pivots), None)
    if free_col is None:
        return None
    sol = [ZERO] * n_unknowns
    sol[free_col] = ONE
    for r, c in enumerate(pivots):
        sol[c] = -work[r][free_col]
    return sol
