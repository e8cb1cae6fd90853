"""Geometric reduction operators for the decision loop.

Once a subset of vertices is certified rigid, the remaining vertices are
examined in a quotient: project orthogonally along the directions of the
certified set's affine hull (collapsing it to a single cone point), then
rescale every remaining vertex along its ray from the cone point into a
common affine hyperplane.  Both operations are computed exactly in ambient
rational coordinates; no irrational re-coordinatization is ever needed.
The projection runs on the coordinates cleared by one common denominator
and the shared fraction-free reduction (:func:`~.geometry._reduce_ints`);
its images come out as integers over one denominator, and each coordinate
becomes one ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import Iterable, Sequence

from .geometry import (
    BipartiteFramework,
    Point,
    affine_spans_equal,
    in_affine_span,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    linear_rank,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    _affine_members,
    _cleared,
    _reduce_ints,
)
from .lp import ZERO


class ClosureViolated(ValueError):
    """A complement vertex lies in the affine hull of the certified set."""


class DegeneratePoint(ValueError):
    """A vertex coincides with the cone point; it cannot be slid."""


@dataclass(frozen=True)
class KnownSet:
    """Indices of vertices already certified, per class.

    The decision loop maintains the exact invariant that the affine hull
    of the marked P vertices equals the affine hull of the marked Q
    vertices.
    """

    p_indices: tuple[int, ...]
    q_indices: tuple[int, ...]

    @classmethod
    def empty(cls) -> "KnownSet":
        return cls((), ())

    @classmethod
    def of(cls, p_indices: Iterable[int], q_indices: Iterable[int]) -> "KnownSet":
        return cls(tuple(sorted(set(p_indices))), tuple(sorted(set(q_indices))))

    @property
    def size(self) -> int:
        return len(self.p_indices) + len(self.q_indices)

    def is_empty(self) -> bool:
        return not self.p_indices and not self.q_indices

    def union(self, p_indices: Iterable[int], q_indices: Iterable[int]) -> "KnownSet":
        return KnownSet.of(self.p_indices + tuple(p_indices), self.q_indices + tuple(q_indices))

    def points(self, fw: BipartiteFramework) -> list[Point]:
        return [fw.points_p[i] for i in self.p_indices] + [
            fw.points_q[j] for j in self.q_indices
        ]


def span_invariant_holds(fw: BipartiteFramework, known: KnownSet) -> bool:
    """Exact check that both marked classes span the same affine hull."""
    if known.is_empty():
        return True
    a = [fw.points_p[i] for i in known.p_indices]
    b = [fw.points_q[j] for j in known.q_indices]
    return affine_spans_equal(a, b)


def project_out_known_set(
    fw: BipartiteFramework, known: KnownSet
) -> tuple[Point, list[Point], list[Point]]:
    """Collapse the certified set to a single cone point, exactly.

    Returns the cone point (the image of the first certified vertex) and
    the projected complement vertices of each class (in increasing index
    order).  The projection along the certified hull's directions is
    ``x - B^T (B B^T)^{-1} B x`` for any basis ``B`` of them, so it runs on
    the points cleared by one common denominator ``c``: ``B`` is the
    nonzero rows of the reduced integer difference rows, one fraction-free
    reduction of ``[B B^T | B X]`` over ``den`` gives ``(B B^T)^{-1} B X``
    for every cleared point ``X`` at once, and each image coordinate is one
    ``Fraction`` over ``den * c``.  Requires that no complement vertex lies
    in the certified set's affine hull, which the closure step guarantees.
    """
    if known.is_empty():
        raise ValueError("cannot project out an empty certified set")
    anchors = known.points(fw)
    comp = [("P", i, pt) for i, pt in enumerate(fw.points_p) if i not in known.p_indices]
    n_p = len(comp)
    comp += [("Q", j, pt) for j, pt in enumerate(fw.points_q) if j not in known.q_indices]
    ints, c = _cleared(anchors + [pt for _, _, pt in comp])
    base = ints[0]
    basis = [[a - b for a, b in zip(pt, base)] for pt in ints[1 : len(anchors)]]
    basis = basis[: len(_reduce_ints(basis)[0])]
    targets = [base] + ints[len(anchors) :]
    system = [[sum(a * b for a, b in zip(u, v)) for v in basis + targets] for u in basis]
    _, den = _reduce_ints(system)
    k = len(basis)
    nums = [
        [den * v - sum(b[j] * row[k + t] for b, row in zip(basis, system))
         for j, v in enumerate(x)]
        for t, x in enumerate(targets)
    ]
    for (cls, idx, _), num in zip(comp, nums[1:]):
        if num == nums[0]:
            raise ClosureViolated(f"class-{cls} vertex {idx} projects onto the cone point")
    scale = den * c
    images = [tuple(Fraction(v, scale) for v in num) for num in nums]
    return images[0], images[1 : 1 + n_p], images[1 + n_p :]


def slide_functional(p0: Point, points: Sequence[Point]) -> tuple[Fraction, ...]:
    """A rational linear functional nonzero on every ray from the cone point.

    Deterministic search: the coordinate functionals first, then all
    vectors with entries in {0..k} (largest entry exactly k) in
    lexicographic order for k = 1, 2, ...  The first functional that is
    nonzero on every difference wins.  It wins by the shell ``k = r`` for
    ``r`` rays: each ray's zero set ``c . v = 0`` fixes one coordinate of
    ``c``, so at most ``r (k+1)^(d-1)`` of the ``(k+1)^d`` vectors in
    ``{0..k}^d`` vanish on some ray.  In 0-space every point coincides
    with the cone point, so with no points the functional is empty.
    """
    d = len(p0)
    diffs = []
    for v in points:
        diff = tuple(a - b for a, b in zip(v, p0))
        if all(c == 0 for c in diff):
            raise DegeneratePoint("a vertex coincides with the cone point")
        diffs.append(diff)
    if d == 0:  # no ray: a point of 0-space coincides with the cone point
        return ()

    def works(c: Sequence[int]) -> bool:
        return all(
            sum((ci * vi for ci, vi in zip(c, diff) if ci and vi), ZERO) != 0
            for diff in diffs
        )

    for axis in range(d):
        c = [0] * d
        c[axis] = 1
        if works(c):
            return tuple(Fraction(v) for v in c)
    for k in count(1):  # returns by k = len(diffs) (docstring)
        for combo in product(range(k + 1), repeat=d):
            if max(combo) != k or not any(combo):
                continue
            if works(combo):
                return tuple(Fraction(v) for v in combo)


def slide_to_hyperplane(
    p0: Point, points: Sequence[Point], functional: Sequence[Fraction]
) -> list[Point]:
    """Rescale each vertex along its ray from the cone point.

    Every output satisfies ``functional . (output - p0) == 1``, so the slid
    vertices lie in a common affine hyperplane missing the cone point.
    Coincident outputs are permitted; rescaling along rays preserves both
    rigidity notions being decided.
    """
    c = tuple(functional)
    out = []
    for v in points:
        diff = tuple(a - b for a, b in zip(v, p0))
        if all(x == 0 for x in diff):
            raise DegeneratePoint("a vertex coincides with the cone point")
        value = sum((ci * vi for ci, vi in zip(c, diff) if ci and vi), ZERO)
        if value == 0:
            raise ValueError("functional vanishes on a ray; search it first")
        out.append(tuple(b + x / value for b, x in zip(p0, diff)))
    return out


def affine_closure(fw: BipartiteFramework, known: KnownSet) -> KnownSet:
    """Absorb every unmarked vertex lying in the certified affine hull.

    One round suffices: an absorbed vertex already lies in the hull, so the
    hull does not grow.  Exact membership tests make the result independent
    of processing order; the hull and the unmarked vertices are cleared
    together and the hull is reduced once for all of them
    (:func:`~.geometry._affine_members`).
    """
    if known.is_empty():
        return known
    rest_p = [i for i in range(fw.n) if i not in known.p_indices]
    rest_q = [j for j in range(fw.m) if j not in known.q_indices]
    inside = _affine_members(
        known.points(fw),
        [fw.points_p[i] for i in rest_p] + [fw.points_q[j] for j in rest_q],
    )
    return known.union(
        [i for i, absorbed in zip(rest_p, inside) if absorbed],
        [j for j, absorbed in zip(rest_q, inside[len(rest_p) :]) if absorbed],
    )
