"""Geometric reduction operators for the decision loop.

Once a subset of vertices is certified rigid, the remaining vertices are
examined in a quotient: project orthogonally along the directions of the
certified set's affine hull (collapsing it to a single cone point), then
rescale every remaining vertex along its ray from the cone point into a
common affine hyperplane.  Both operations are computed exactly in ambient
rational coordinates; no irrational re-coordinatization is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from .geometry import (
    BipartiteFramework,
    Point,
    affine_spans_equal,
    in_affine_span,
    linear_rank,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    row_reduce,
)
from .lp import ZERO, ONE


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


def orthogonal_projector(points: Sequence[Point]) -> list[list[Fraction]]:
    """The exact matrix projecting along the affine hull's directions.

    With ``B`` the nonzero rows of the reduced echelon form of the hull's
    difference vectors, the projector is ``I - B^T (B B^T)^{-1} B``; the
    product ``(B B^T)^{-1} B`` is solved by row reducing ``[B B^T | B]``.
    For a single point the hull has no directions and the projector is the
    identity.
    """
    d = len(points[0])
    base = points[0]
    diffs = [[a - b for a, b in zip(pt, base)] for pt in points[1:]]
    basis = diffs[: len(row_reduce(diffs))]
    system = [
        [sum((a * b for a, b in zip(u, v) if a and b), ZERO) for v in basis] + u
        for u in basis
    ]
    row_reduce(system)
    k = len(basis)
    return [
        [
            (ONE if i == j else ZERO)
            - sum((basis[a][i] * system[a][k + j] for a in range(k) if basis[a][i]), ZERO)
            for j in range(d)
        ]
        for i in range(d)
    ]


def _apply(matrix: Sequence[Sequence[Fraction]], v: Point) -> Point:
    return tuple(
        sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in matrix
    )


def project_out_known_set(
    fw: BipartiteFramework, known: KnownSet
) -> tuple[Point, list[Point], list[Point]]:
    """Collapse the certified set to a single cone point, exactly.

    Returns the cone point and the projected complement vertices of each
    class (in increasing index order).  Requires that no complement vertex
    lies in the certified set's affine hull, which the closure step
    guarantees.
    """
    if known.is_empty():
        raise ValueError("cannot project out an empty certified set")
    anchor_pts = known.points(fw)
    proj = orthogonal_projector(anchor_pts)
    p0 = _apply(proj, anchor_pts[0])
    for pt in anchor_pts[1:]:
        if _apply(proj, pt) != p0:
            raise AssertionError("projector must collapse the certified hull")
    marked_p = set(known.p_indices)
    marked_q = set(known.q_indices)
    out_p: list[Point] = []
    out_q: list[Point] = []
    for i, pt in enumerate(fw.points_p):
        if i in marked_p:
            continue
        image = _apply(proj, pt)
        if image == p0:
            raise ClosureViolated(f"class-P vertex {i} projects onto the cone point")
        out_p.append(image)
    for j, pt in enumerate(fw.points_q):
        if j in marked_q:
            continue
        image = _apply(proj, pt)
        if image == p0:
            raise ClosureViolated(f"class-Q vertex {j} projects onto the cone point")
        out_q.append(image)
    return p0, out_p, out_q


def slide_functional(p0: Point, points: Sequence[Point]) -> tuple[Fraction, ...]:
    """A rational linear functional nonzero on every ray from the cone point.

    Deterministic search: the coordinate functionals first, then all
    vectors with entries in {0..k} (largest entry exactly k) in
    lexicographic order for k = 1, 2, ...  The first functional that is
    nonzero on every difference wins.
    """
    d = len(p0)
    diffs = []
    for v in points:
        diff = tuple(a - b for a, b in zip(v, p0))
        if all(c == 0 for c in diff):
            raise DegeneratePoint("a vertex coincides with the cone point")
        diffs.append(diff)

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
    for k in range(1, 65):
        for combo in product(range(k + 1), repeat=d):
            if max(combo) != k or not any(combo):
                continue
            if works(combo):
                return tuple(Fraction(v) for v in combo)
    raise AssertionError("functional search exhausted; input beyond supported scale")


def slide_to_hyperplane(
    p0: Point, points: Sequence[Point], functional: Optional[Sequence[Fraction]] = None
) -> list[Point]:
    """Rescale each vertex along its ray from the cone point.

    Every output satisfies ``functional . (output - p0) == 1``, so the slid
    vertices lie in a common affine hyperplane missing the cone point.
    Coincident outputs are permitted; rescaling along rays preserves both
    rigidity notions being decided.
    """
    c = tuple(functional) if functional is not None else slide_functional(p0, points)
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
    of processing order.
    """
    if known.is_empty():
        return known
    hull = known.points(fw)
    return known.union(
        [i for i in range(fw.n)
         if i not in known.p_indices and in_affine_span(fw.points_p[i], hull)],
        [j for j in range(fw.m)
         if j not in known.q_indices and in_affine_span(fw.points_q[j], hull)],
    )
