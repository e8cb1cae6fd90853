"""Configurations, the Veronese lift, and exact affine-span utilities.

Points are tuples of ``Fraction``.  Ranks and spans are computed on cleared
integer coordinates: a point set is multiplied by the common denominator
``c`` of its coordinates once per call (:func:`_cleared`, the package's
one clear :func:`~.lp._clear` over all its coordinates), which is an
invertible affine map and keeps every span dimension, and the integer
difference rows are reduced by the shared fraction-free Gauss-Jordan
kernel (:func:`~.lp._reduce_ints` over :func:`~.lp.pivot_rows`), reading only
the pivots.  So dimension comparisons are exact and no ``Fraction`` is
built on the way.  Callers that need the reduced rows themselves (the
projection in :mod:`.reduction`, the stress cross block) read them off
:func:`_reduce_ints` as integers over its denominator.  The Veronese lift
sends a point ``v`` of d-space to the rank-one symmetric matrix
``v^ v^T`` (with a trailing 1 appended to ``v``), turning questions about
separating quadrics into questions about separating hyperplanes in the
space of symmetric matrices.
Lifts, quadrics and Grams share one layout, the row-major upper triangle
that :class:`SymmetricMatrix` stores, built only here: :func:`_lift` (of a
hatted point) and :func:`_diagonal` (which entries are diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence

from .lp import ZERO, ONE, _clear, _frac, _reduce_ints

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
    access.  Used for lifted points and separating quadrics.
    """

    order: int
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.upper) != self.order * (self.order + 1) // 2:
            raise ValueError("upper triangle length does not match order")

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

    def evaluate_point(self, point: Sequence[Fraction]) -> Fraction:
        """Value of the quadric form at a point of (order-1)-space."""
        lift = _lift((*point, ONE))
        if len(lift) != len(self.upper):
            raise ValueError("vector length mismatch")
        pairs = zip(self.upper, _diagonal(self.order), lift)
        return sum((v * x if diag else 2 * v * x for v, diag, x in pairs), ZERO)


def _lift(h: Sequence, g: Optional[Sequence] = None) -> list:
    """The upper triangle of ``h g^T`` in :class:`SymmetricMatrix` order; ``g`` defaults to ``h``.

    ``_lift(h)`` lifts a hatted point, ``_lift(-h, h)`` negates that lift.
    """
    g = h if g is None else g
    return [a * b for i, a in enumerate(h) for b in g[i:]]


def _diagonal(order: int) -> list[bool]:
    """Which entries of the upper-triangle layout of ``order`` lie on the diagonal."""
    return [i == j for i in range(order) for j in range(i, order)]


def veronese(v: Sequence) -> SymmetricMatrix:
    """Lift a point of d-space to the rank-one symmetric matrix of order d+1."""
    hat = (*(_frac(c) for c in v), ONE)
    return SymmetricMatrix(len(hat), tuple(_lift(hat)))


# -- exact elimination -------------------------------------------------------


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row cleared by its least common denominator; the row space stays."""
    return [_clear(row)[0] for row in rows]


def _cleared(points: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer coordinates ``c * p`` of ``points`` and their common denominator ``c``."""
    flat, c = _clear([v for pt in points for v in pt])
    it = iter(flat)
    return [list(islice(it, len(pt))) for pt in points], c


def _hats(points: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The cleared hatted points ``(c * p, c) = c * p^`` and their factor ``c``."""
    ints, c = _cleared(points)
    return [x + [c] for x in ints], c


def _gram(hats: Sequence[Sequence[int]], weights: Sequence[int], order: int) -> list[int]:
    """The upper triangle (:func:`_lift`) of the Gram ``sum_k weights[k] hats[k] hats[k]^T``."""
    lifts = [_lift(h, [a * v for v in h]) for h, a in zip(hats, weights) if a]
    return [sum(col) for col in zip(*lifts)] if lifts else _lift([0] * order)


def _span_dim(ints: Sequence[Sequence[int]]) -> int:
    """Affine span dimension of nonempty integer points: the rank of their differences."""
    base = ints[0]
    return len(_reduce_ints([[a - b for a, b in zip(pt, base)] for pt in ints[1:]])[0])


def linear_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Exact linear rank of a list of rational vectors."""
    return len(_reduce_ints(_int_rows(vectors))[0])


def affine_span_dim(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine span, computed exactly on cleared integers."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    return _span_dim(_cleared(points)[0])


def _affine_members(
    points: Sequence[Sequence[Fraction]], candidates: Sequence[Sequence[Fraction]]
) -> list[bool]:
    """Whether each candidate lies in the affine span of nonempty ``points``.

    The points and the candidates are cleared by one common denominator,
    the hull's integer difference rows are reduced once, and each
    ``candidate - points[0]`` is cleared against their pivots on integers
    (scaled by the kernel's denominator at each step); it lies in their
    span iff nothing is left.
    """
    ints, _ = _cleared([*points, *candidates])
    base = ints[0]
    rows = [[a - b for a, b in zip(pt, base)] for pt in ints[1 : len(points)]]
    pivots, den = _reduce_ints(rows)
    members = []
    for x in ints[len(points) :]:
        rest = [a - b for a, b in zip(x, base)]
        for row, c in zip(rows, pivots):
            f = rest[c]
            if f:
                rest = [den * a - f * b for a, b in zip(rest, row)]
        members.append(not any(rest))
    return members


def in_affine_span(v: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test that ``v`` lies in the affine span of ``points``, on cleared integers."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    if len(v) != len(points[0]):
        raise ValueError("dimension mismatch")
    return _affine_members(points, [v])[0]


def affine_spans_equal(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact equality of two affine hulls.

    The hulls agree iff they have the same dimension and their union spans
    nothing more.  Both are cleared by one common denominator first.
    """
    if not a and not b:
        return True
    if not a or not b:
        return False
    ints, _ = _cleared([*a, *b])
    da = _span_dim(ints[: len(a)])
    if da != _span_dim(ints[len(a) :]):
        return False
    return _span_dim(ints) == da
