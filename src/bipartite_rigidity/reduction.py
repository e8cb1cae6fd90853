"""Geometric reduction operators for the decision loop.

Once a subset of vertices is certified rigid, the remaining vertices are
examined in a quotient: project orthogonally along the directions of the
certified set's affine hull (collapsing it to a single cone point), then
rescale every remaining vertex along its ray from the cone point into a
common affine hyperplane.  Both operations are computed exactly in ambient
rational coordinates; no irrational re-coordinatization is ever needed.
The projection reduces the offset rows of the points' hats
(:func:`~.geometry._differences`) fraction-free, so it yields integer
rays from the cone point, each a positive multiple of its image's offset;
the slide, which no positive rescaling of a ray changes, searches its
functional on integer dot products and builds each slid coordinate as
one ``Fraction``, handing on each slid point's hat as well.  The
projection, the closure and the span invariant read the input points'
hats off one table of ``fw.all_points()`` (P, then Q), which their caller
clears once (:func:`~.geometry._hats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, product
from math import gcd
from typing import Iterable, Sequence

from .geometry import (
    BipartiteFramework,
    Point,
    affine_spans_equal,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    in_affine_span,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    linear_rank,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    _affine_members,
    _differences,
    _reduce_ints,
    _spans_equal,
)
from .lp import _clear


class ClosureViolated(ValueError):
    """A complement vertex lies in the affine hull of the certified set."""


class DegeneratePoint(ValueError):
    """A vertex coincides with the cone point; it cannot be slid."""


@dataclass(frozen=True)
class KnownSet:
    """Indices of vertices already certified, per class, or of the rest (:meth:`complement`).

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

    def complement(self, fw: BipartiteFramework) -> "KnownSet":
        """The unmarked vertices of ``fw``, per class.

        Its :meth:`points` list the uncertified vertices in the order every
        pass uses: class P, then Q, each by increasing index.
        """
        return KnownSet(
            tuple(i for i in range(fw.n) if i not in self.p_indices),
            tuple(j for j in range(fw.m) if j not in self.q_indices),
        )


def _rows(
    hats: Sequence[Sequence[int]], fw: BipartiteFramework, marked: KnownSet
) -> list[Sequence[int]]:
    """The hats of ``marked.points(fw)``, read off the table ``hats`` of ``fw.all_points()``."""
    return [hats[i] for i in marked.p_indices] + [hats[fw.n + j] for j in marked.q_indices]


def span_invariant_holds(
    fw: BipartiteFramework, known: KnownSet, hats: Sequence[Sequence[int]]
) -> bool:
    """Exact check that both marked classes span the same affine hull.

    ``hats`` is the table of ``fw.all_points()`` (P, then Q), as
    :func:`~.geometry._hats` clears them.
    """
    a = [hats[i] for i in known.p_indices]
    b = [hats[fw.n + j] for j in known.q_indices]
    return _spans_equal(a, b)


def project_out_known_set(
    fw: BipartiteFramework, known: KnownSet, hats: Sequence[Sequence[int]]
) -> tuple[Point, list[list[int]]]:
    """Collapse the certified set to a single cone point, exactly.

    Returns the cone point (the image of the first certified vertex) and
    the integer ray ``N - N_0`` of each complement vertex (class P, then
    Q, in increasing index order): its image minus the cone point, as
    numerators over one denominator.  The projection along the certified
    hull's directions is ``x - B^T (B B^T)^{-1} B x`` for any basis ``B``
    of them, and it is linear, so it runs on the hats, read off the table
    ``hats`` of ``fw.all_points()`` (P, then Q): ``B`` is the nonzero
    reduced offset rows of the certified hull, and one fraction-free
    reduction of ``[B B^T | B Y]`` over ``den`` maps ``X_0`` (over
    ``den c_0``) and every complement offset row at once.  A zero ray, a
    complement vertex in the certified hull, raises
    :class:`ClosureViolated`; the closure step rules it out.
    """
    if known.is_empty():
        raise ValueError("cannot project out an empty certified set")
    comp = known.complement(fw)
    base, *anchors = _rows(hats, fw, known)
    basis = _differences(anchors, base)
    basis = basis[: len(_reduce_ints(basis)[0])]
    targets = [base[:-1]] + _differences(_rows(hats, fw, comp), base)
    system = [[sum(a * b for a, b in zip(u, v)) for v in basis + targets] for u in basis]
    _, den = _reduce_ints(system)
    k = len(basis)
    cone, *rays = [
        [den * v - sum(b[j] * row[k + t] for b, row in zip(basis, system))
         for j, v in enumerate(x)]
        for t, x in enumerate(targets)
    ]
    labels = [("P", i) for i in comp.p_indices] + [("Q", j) for j in comp.q_indices]
    for (cls, idx), ray in zip(labels, rays):
        if not any(ray):
            raise ClosureViolated(f"class-{cls} vertex {idx} projects onto the cone point")
    scale = den * base[-1]
    return tuple(Fraction(v, scale) for v in cone), rays


def slide_functional(rays: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """A functional with small nonnegative integer entries, nonzero on every ray.

    Deterministic search on integer dot products, whose signs no positive
    rescaling of a ray changes: the coordinate functionals first, then all
    vectors with entries in {0..k} (largest entry exactly k) in
    lexicographic order for k = 1, 2, ...  The first one nonzero on every
    ray wins, by the shell ``k = r`` for ``r`` rays: each ray's zero set
    ``c . v = 0`` fixes one coordinate of ``c``, so at most
    ``r (k+1)^(d-1)`` of the ``(k+1)^d`` vectors in ``{0..k}^d`` vanish on
    some ray.  With no ray the functional is empty.
    """
    if not rays:
        return ()
    if not all(any(ray) for ray in rays):
        raise DegeneratePoint("a vertex coincides with the cone point")
    d = len(rays[0])
    axes = (tuple(int(i == axis) for i in range(d)) for axis in range(d))
    shells = (c for k in count(1) for c in product(range(k + 1), repeat=d) if max(c) == k)
    for c in chain(axes, shells):  # returns by k = len(rays) (docstring)
        if all(sum(a * b for a, b in zip(c, ray)) for ray in rays):
            return tuple(Fraction(v) for v in c)


def slide_to_hyperplane(
    p0: Point, rays: Sequence[Sequence[int]], functional: Sequence[Fraction]
) -> tuple[list[Point], list[list[int]]]:
    """Slide each vertex along its ray onto ``functional . (x - p0) = 1``.

    Each output is ``p0 + r / (functional . r)``, the same for any positive
    multiple of ``r``; with ``p0`` and the functional cleared once, each
    output is integers over one denominator, ``(x0 s + r fs c0) / (c0 s)``.
    Returns the outputs, each coordinate one ``Fraction``, and their hats:
    those integers with the denominator made positive and all divided by
    their gcd, which is exactly :func:`~.geometry._hats` of the output.
    Coincident outputs are permitted; rescaling along rays preserves both
    rigidity notions.
    """
    f, fs = _clear(functional)
    x0, c0 = _clear(p0)
    points, hats = [], []
    for ray in rays:
        s = sum(a * b for a, b in zip(f, ray))
        if s == 0:
            raise ValueError("functional vanishes on a ray; search it first")
        den = c0 * s
        hat = [a * s + b * fs * c0 for a, b in zip(x0, ray)] + [den]
        g = gcd(*hat) if den > 0 else -gcd(*hat)
        hat = [v // g for v in hat]
        points.append(tuple(Fraction(v, hat[-1]) for v in hat[:-1]))
        hats.append(hat)
    return points, hats


def affine_closure(
    fw: BipartiteFramework, known: KnownSet, hats: Sequence[Sequence[int]]
) -> KnownSet:
    """Absorb every unmarked vertex lying in the certified affine hull.

    One round suffices: an absorbed vertex already lies in the hull, so the
    hull does not grow.  Exact membership tests make the result independent
    of processing order; the hull is reduced once for all the unmarked
    vertices (:func:`~.geometry._affine_members`), on hats read off the
    table ``hats`` of ``fw.all_points()``.
    """
    if known.is_empty():
        return known
    rest = known.complement(fw)
    inside = _affine_members(_rows(hats, fw, known), _rows(hats, fw, rest))
    return known.union(
        [i for i, absorbed in zip(rest.p_indices, inside) if absorbed],
        [j for j, absorbed in zip(rest.q_indices, inside[len(rest.p_indices) :]) if absorbed],
    )
