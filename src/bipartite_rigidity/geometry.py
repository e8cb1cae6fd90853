"""Configurations, the Veronese lift, and exact affine-span utilities.

Points are tuples of ``Fraction``.  Every exact check reads them as
integer hats: each point ``p`` is cleared by its own common denominator
``c`` (:func:`~.lp._clear`) to ``h = (X, c) = c p^``, scale last.  Points
become hats in :func:`_hats` alone, apart from the slide
(:func:`~.reduction.slide_to_hyperplane`), which builds each slid point
from integers and hands on exactly its hat.  A hat does not depend on the
other points of a check, so decide and replay clear the input points into
one table per call and their checks index it; each public check here
clears its own input and runs the same hat-taking core (:func:`_span_dim`,
:func:`_spans_equal`).  No check takes a shared scale; each is unchanged
when each hat is rescaled by its own positive factor.  Span dimensions
and membership are ranks of the offset rows
``c_b X - c X_b = c_b c (p - p_b)`` (:func:`_differences`), reduced by the
shared fraction-free Gauss-Jordan kernel (:func:`~.lp._reduce_ints` over
:func:`~.lp.pivot_rows`), reading only the pivots; the projection in
:mod:`.reduction` reads the reduced rows themselves.  Since
``h h^T = c^2 p^ p^^T``, coefficients balance the lifted classes iff two
integer Grams with weights ``W coeff / c^2`` agree (:func:`_balance`).  So
no ``Fraction`` is built on the way.  Zero coefficients add nothing to
either, so a balance cut down to the positive support is that support's
own balance (:func:`_restricted`), and replay computes one per record.
The Veronese lift sends a point ``v`` of d-space to the rank-one
symmetric matrix ``v^ v^T`` (with a trailing 1 appended to ``v``),
turning questions about separating quadrics into questions about
separating hyperplanes in the space of symmetric matrices.
Lifts, quadrics and Grams share one layout, the row-major upper triangle
that :class:`SymmetricMatrix` stores, built only here: :func:`_lift` (of a
hatted point) and :func:`_diagonal` (which entries are diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        """A framework from coordinate lists of ``int`` or ``Fraction`` values.

        Any other value raises ``TypeError``; text is read by
        :func:`~.docio.parse_framework`.
        """
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


def _hats(points: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each point cleared by its own common denominator: the hat ``(X, c) = c * p^``."""
    return [[*ints, c] for ints, c in map(_clear, points)]


def _differences(hats: Sequence[Sequence[int]], base: Sequence[int]) -> list[list[int]]:
    """The offset rows ``c_b X - c X_b = c_b c (p - p_b)`` of ``hats`` from the hat ``base``."""
    *xb, cb = base
    return [[cb * x - h[-1] * y for x, y in zip(h, xb)] for h in hats]


def _gram(hats: Sequence[Sequence[int]], weights: Sequence[int], order: int) -> list[int]:
    """The upper triangle (:func:`_lift`) of the Gram ``sum_k weights[k] hats[k] hats[k]^T``."""
    lifts = [_lift(h, [a * v for v in h]) for h, a in zip(hats, weights) if a]
    return [sum(col) for col in zip(*lifts)] if lifts else _lift([0] * order)


#: What :func:`_balance` gives: hats, integer weights, ``W`` and the Gram.
_Balance = tuple[list[list[int]], list[int], int, list[int]]


def _balance(
    hats: Sequence[Sequence[int]], n: int, lambdas: Sequence[Fraction], mus: Sequence[Fraction]
) -> Optional[_Balance]:
    """Hats, integer weights ``a_k = W coeff_k / c_k^2``, ``W`` and the Gram; None unless balanced.

    ``hats`` are the points' hats, the first ``n`` of class P.
    ``sum a_k h_k h_k^T = W sum coeff_k p^_k p^_k^T`` on each side.  The
    coefficients are cleared first, so each ``Fraction`` is built from ints.
    """
    order = len(hats[0])
    ints, w = _clear((*lambdas, *mus))
    weights, s = _clear([Fraction(v, h[-1] * h[-1]) for v, h in zip(ints, hats)])
    upper = _gram(hats[:n], weights[:n], order)
    balanced = upper == _gram(hats[n:], weights[n:], order)
    return (hats, weights, w * s, upper) if balanced else None


def _restricted(
    balanced: _Balance, n: int, p_idx: Sequence[int], q_idx: Sequence[int]
) -> _Balance:
    """A :func:`_balance` cut down to the P points ``p_idx`` and the Q points ``q_idx``.

    When every other coefficient is zero this is exactly :func:`_balance`
    of those points and coefficients: a zero coefficient has denominator
    one, so it changes neither clear (nor ``W``), and it adds nothing to
    either Gram.
    """
    hats, weights, w, upper = balanced
    keep = [*p_idx, *(n + j for j in q_idx)]
    return [hats[k] for k in keep], [weights[k] for k in keep], w, upper


def linear_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Exact linear rank of a list of rational vectors, each cleared as a hat without its scale."""
    return len(_reduce_ints([h[:-1] for h in _hats(vectors)])[0])


def affine_span_dim(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine span: the rank of the hats' offset rows."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    return _span_dim(_hats(points))


def _span_dim(hats: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine span of the nonempty ``hats``."""
    base, *rest = hats
    return len(_reduce_ints(_differences(rest, base))[0])


def _affine_members(
    hull: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]]
) -> list[bool]:
    """Whether each candidate hat lies in the affine span of the nonempty ``hull`` hats.

    The hull's offset rows are reduced once, and each candidate's offset
    row is cleared against their pivots on integers (scaled by the
    kernel's denominator at each step); it lies in their span iff nothing
    is left.
    """
    base, *rest = hull
    rows = _differences(rest, base)
    pivots, den = _reduce_ints(rows)
    members = []
    for left in _differences(candidates, base):
        for row, c in zip(rows, pivots):
            f = left[c]
            if f:
                left = [den * a - f * b for a, b in zip(left, row)]
        members.append(not any(left))
    return members


def in_affine_span(v: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test that ``v`` lies in the affine span of ``points``, on cleared integers."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    if len(v) != len(points[0]):
        raise ValueError("dimension mismatch")
    return _affine_members(_hats(points), _hats([v]))[0]


def affine_spans_equal(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact equality of two affine hulls: each lies in the other, each cleared once."""
    return _spans_equal(_hats(a), _hats(b))


def _spans_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Exact equality of the affine hulls of two lists of hats."""
    if not a or not b:
        return not a and not b
    return all(_affine_members(a, b)) and all(_affine_members(b, a))
