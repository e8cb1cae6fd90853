"""Exact certificates for quadric separation of the two vertex classes.

For a framework with classes P and Q, exactly one of the following holds:

* the convex hulls of the lifted classes intersect, witnessed by
  nonnegative coefficients balancing the lifted points (a Radon-type
  certificate), or
* the classes are strictly separated by a quadric, witnessed by a
  symmetric matrix whose form is at least ``delta > 0`` on P and at most
  ``-delta`` on Q.

One exact LP decides which: the balance LP either has a solution, or its
Farkas vector, read as a quadratic form, is the separating quadric.  When
it has a solution, :func:`maximal_support_radon` reaches the unique maximal
support of the balance region by maximizing only the coordinates that are
zero in every point found so far, all from the feasibility solve's phase-1
basis.  Both witnesses re-verify with zero residual on each point's
integer hat ``(X_k, c_k) = c_k p^_k`` (:func:`~.geometry._hats`), which
also gives the LP its columns: balance is the equality of two integer
Grams with weights ``W coeff_k / c_k^2``, and a form at ``p_k`` is
compared with ``delta c_k^2``.  Lifts, quadrics and Grams use
:mod:`.geometry`'s layout.
:func:`max_margin_quadric` finds the separating quadric of largest margin
through the same duality: it solves the LP for the least weighted distance
between the lifted hulls and reads the quadric off that LP's dual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import lp
from .geometry import (
    BipartiteFramework,
    SymmetricMatrix,
    _Balance,
    _balance,
    _diagonal,
    _hats,
    _lift,
)
from .lp import LPProblem, LPStatus, _clear


class EmptySide(ValueError):
    """Quadric separation needs at least one point in each class."""


@dataclass(frozen=True)
class RadonCertificate:
    """Nonnegative coefficients balancing the lifted classes.

    ``sum_i lambdas[i] * lift(p_i) == sum_j mus[j] * lift(q_j)`` holds
    exactly, with ``sum(lambdas) == sum(mus) == 1``.  ``support_p`` and
    ``support_q`` list the indices with strictly positive coefficients.
    """

    lambdas: tuple[Fraction, ...]
    mus: tuple[Fraction, ...]

    @property
    def support_p(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.lambdas) if v > 0)

    @property
    def support_q(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.mus) if v > 0)


@dataclass(frozen=True)
class SeparationCertificate:
    """A strict separating quadric with an exact positive margin.

    The matrix has entries in [-1, 1]; the form is ``>= delta`` on every
    point of the first class and ``<= -delta`` on every point of the
    second.
    """

    matrix: SymmetricMatrix
    delta: Fraction


def _lift_columns(fw: BipartiteFramework) -> tuple[list[list[int]], list[int]]:
    """The balance columns of the points on integers, and their scales.

    Each point's hat ``h_j = (X_j, c_j) = c_j p^_j`` (:func:`~.geometry._hats`)
    gives the column ``h_j h_j^T = c_j^2 lift(p_j)`` as an upper triangle,
    negated for Q; a row's product with ``x_j / c_j^2`` is that entry of
    ``sum lambda lift(p) - sum mu lift(q)``.  ``c_j^2`` is the least common
    multiple of the lift's denominators (the diagonal entry ``p_a^2`` has
    denominator ``den_a^2``), so it is the column scale a rational problem
    would be cleared by (:meth:`~.lp.LPProblem.create`).
    """
    hats = _hats(fw.all_points())
    cols = [_lift(h if k < fw.n else [-v for v in h], h) for k, h in enumerate(hats)]
    return cols, [h[-1] * h[-1] for h in hats]


def _quadric(hat: int, y: Sequence[Fraction]) -> list[Fraction]:
    """The upper entries of the form whose value on a point is ``y . lift``.

    ``y`` holds one multiplier per balance row; off-diagonal entries are
    halved because each appears twice in the form.
    """
    return [v if diag else v / 2 for v, diag in zip(y, _diagonal(hat))]


def _radon_problem(fw: BipartiteFramework) -> LPProblem:
    """Feasibility LP: balance the lifted classes, normalize the P side.

    Variables are the n lambdas followed by the m mus, all nonnegative.
    The balance rows (one per entry of :func:`_lift_columns`) plus the
    normalization row ``sum lambda = 1``, which rules out the all-zero
    solution; built cleared, with no ``Fraction`` on the way.
    """
    cols, scales = _lift_columns(fw)
    rows = [*zip(*cols), (*scales[: fw.n], *[0] * fw.m)]
    return LPProblem(
        rows=tuple(rows),
        rhs=(0,) * (len(rows) - 1) + (1,),
        n_vars=fw.n + fw.m,
        objective=None,
        col_scale=tuple(scales),
        rhs_scale=1,
    )


def _farkas_quadric(d: int, y: Sequence[Fraction]) -> SeparationCertificate:
    """The separating quadric read off a Farkas vector of the balance LP.

    ``y`` refutes :func:`_radon_problem`: ``y^T A <= 0`` and
    ``y^T b = y_norm > 0``, where ``y_norm`` is the multiplier of the
    normalization row.  Read as a form (:func:`_quadric`), the entries
    before it are ``<= -y_norm`` on P and ``>= 0`` on Q.  Negating them and
    taking ``y_norm/2`` off the constant (corner) entry gives a form
    ``>= y_norm/2`` on P and ``<= -y_norm/2`` on Q, which is then scaled
    into the [-1, 1] box.

    This runs on the integer numerators ``N = L y`` (``L`` the common
    denominator of ``y``): ``2L`` times that form has upper entries
    ``U_k = -2 N_k`` on the diagonal and ``-N_k`` off it, with ``N_norm``
    taken off the corner, so the entries are ``U_k / max|U|`` and
    ``delta = N_norm / max|U|``.
    """
    order = d + 1
    nums, _ = _clear(y)
    upper = [-2 * v if diag else -v for v, diag in zip(nums, _diagonal(order))]
    norm = nums[len(upper)]
    upper[-1] -= norm
    scale = max(abs(v) for v in upper)
    return SeparationCertificate(
        matrix=SymmetricMatrix(order, tuple(Fraction(v, scale) for v in upper)),
        delta=Fraction(norm, scale),
    )


def maximal_support_radon(
    fw: BipartiteFramework,
) -> Union[RadonCertificate, SeparationCertificate]:
    """A Radon certificate with the unique maximal support, or a separation.

    When the balance LP is infeasible its Farkas vector yields the strict
    separating quadric (:func:`_farkas_quadric`); no further LP runs.  The
    support of a relative-interior point of the feasible region is
    found by maximizing, in index order, every coordinate that is zero in
    all points so far (the first feasible point and each maximizer with a
    positive optimum), and averaging those points with positive weights.
    A coordinate already positive in some point is in the support, so it
    needs no LP; one whose maximum is exactly zero is zero across the whole
    region and stays outside the support.  The maximal support is unique,
    so the skipped solves change only the averaged coefficients.  Every
    maximization starts from the feasibility solve's phase-1 basis
    (``lp.maximize(start=...)``), so phase 1 runs once per call however
    many coordinates are zero.  Only a Farkas vector is read off a balance
    solve; no optimum's dual is.

    Each point is weighted by the multiple ``den * ceil(top / den)`` of its
    common denominator ``den`` (``top`` the largest of them), so every
    weighted point is integral, the weights stay within a factor two of
    each other, and the weighted sums run on ints, with one division by
    the sum of the weights per coordinate, which keeps the coefficients
    short.
    """
    if fw.n < 1 or fw.m < 1:
        raise EmptySide("both classes must be nonempty")
    base = _radon_problem(fw)
    outcome = lp.solve_feasibility(base)
    if outcome.status is not LPStatus.FEASIBLE:
        return _farkas_quadric(fw.dimension, outcome.dual)
    points = [outcome.point]
    total = fw.n + fw.m
    for coord in range(total):
        if any(pt[coord] for pt in points):
            continue
        obj = [0] * total
        obj[coord] = 1
        best = lp.maximize(replace(base, objective=tuple(obj)), start=outcome)
        if best.status is not LPStatus.OPTIMAL:
            raise AssertionError("the balance region is nonempty and bounded")
        if best.value > 0:
            points.append(best.point)
    cleared = [_clear(pt) for pt in points]
    top = max(den for _, den in cleared)
    nums = [0] * total
    total_weight = 0
    for ints, den in cleared:
        f = -(-top // den)
        total_weight += den * f
        nums = [a + f * b for a, b in zip(nums, ints)]
    avg = [Fraction(num, total_weight) for num in nums]
    return RadonCertificate(lambdas=tuple(avg[: fw.n]), mus=tuple(avg[fw.n :]))


def verify_radon(fw: BipartiteFramework, cert: RadonCertificate) -> bool:
    """Exact re-verification of a Radon certificate (zero residual).

    The points are cleared here (:func:`~.geometry._hats`) and the
    certificate is checked by :func:`_radon_balance`.
    """
    return _radon_balance(fw, _hats(fw.all_points()), cert) is not None


def _radon_balance(
    fw: BipartiteFramework, hats: Sequence[Sequence[int]], cert: RadonCertificate
) -> Optional[_Balance]:
    """The balance of a verified Radon certificate on ``fw``, or None.

    ``hats`` are the hats of ``fw.all_points()``.  The coefficients must
    fit the classes and be nonnegative; balance is checked by
    :func:`~.geometry._balance`, and each side's coefficients sum to one
    iff its ``sum a_k c_k^2`` is ``W``.
    """
    n = fw.n
    if len(cert.lambdas) != n or len(cert.mus) != fw.m:
        return None
    if any(v < 0 for v in (*cert.lambdas, *cert.mus)):
        return None
    balanced = _balance(hats, n, cert.lambdas, cert.mus)
    if balanced is None:
        return None
    _, weights, w, _ = balanced
    sums = [a * h[-1] * h[-1] for a, h in zip(weights, hats)]
    return balanced if sum(sums[:n]) == w == sum(sums[n:]) else None


def _distance_problem(fw: BipartiteFramework) -> LPProblem:
    """The distance LP of :func:`max_margin_quadric`, built cleared.

    Columns are the lambdas and mus (:func:`_lift_columns`), then ``r+`` and
    ``r-``, one each per balance row, whose entries ``-1`` and ``+1`` need
    no scale; the last row is ``sum lambda + sum mu = 1``.  The objective
    is minus the weighted L1 norm of the residual.
    """
    weights = [1 if diag else 2 for diag in _diagonal(fw.dimension + 1)]
    k_entries = len(weights)
    n_lm = fw.n + fw.m
    cols, scales = _lift_columns(fw)
    rows = []
    for k, row in enumerate(zip(*cols)):
        slack = [0] * (2 * k_entries)
        slack[k], slack[k_entries + k] = -1, 1
        rows.append((*row, *slack))
    rows.append((*scales, *[0] * (2 * k_entries)))
    return LPProblem(
        rows=tuple(rows),
        rhs=(0,) * k_entries + (1,),
        n_vars=n_lm + 2 * k_entries,
        objective=(0,) * n_lm + tuple(-w for w in weights) * 2,
        col_scale=(*scales, *[1] * (2 * k_entries)),
        rhs_scale=1,
    )


def max_margin_quadric(fw: BipartiteFramework) -> tuple[SymmetricMatrix, Fraction]:
    """The exact max-margin separating quadric for the two classes.

    The largest ``delta`` for which some form with every matrix entry in
    [-1, 1] is ``>= delta`` on the first class and ``<= -delta`` on the
    second equals, by LP duality, the least weighted L1 norm of
    ``sum lambda lift(p) - sum mu lift(q)`` over ``lambda, mu >= 0`` with
    ``sum lambda + sum mu = 1`` (diagonal entries weigh 1, off-diagonal
    ones 2).  That distance LP is solved with the residual split into
    nonnegative columns ``r+`` and ``r-``; its dual on the balance rows,
    read as a form (:func:`_quadric`), is a quadric of largest margin.  The
    optimum is zero exactly when the lifted hulls intersect; a positive
    optimum yields a strict separation certificate.
    """
    if fw.n < 1 or fw.m < 1:
        raise EmptySide("both classes must be nonempty")
    outcome = lp.maximize(_distance_problem(fw))
    if outcome.status is not LPStatus.OPTIMAL:
        raise AssertionError("the distance LP is feasible and bounded")
    hat = fw.dimension + 1
    return SymmetricMatrix.from_upper(hat, _quadric(hat, outcome.dual)), -outcome.value


def verify_separation(cert: SeparationCertificate, fw: BipartiteFramework) -> bool:
    """Exact evaluation of all quadratic forms against the stated margin.

    With ``D`` the common denominator of the matrix entries and ``delta``,
    and each point's hat ``(X, c) = c p^``, the integer form
    ``(X, c)^T (D S) (X, c)`` is ``D c^2`` times the form's value at ``p``; it
    is compared with ``D delta c^2``.
    """
    matrix, delta = cert.matrix, cert.delta
    if delta <= 0:
        return False
    if matrix.order != fw.dimension + 1:
        return False
    if any(abs(v) > 1 for v in matrix.upper):
        return False
    ints, _ = _clear((*matrix.upper, delta))
    # Off-diagonal entries appear twice in the form.
    weights = [v if diag else 2 * v for v, diag in zip(ints, _diagonal(matrix.order))]
    margin = ints[-1]

    def form(h: list[int]) -> int:
        return sum(s * x for s, x in zip(weights, _lift(h)) if s)

    hats = _hats(fw.all_points())
    return all(form(h) >= margin * h[-1] * h[-1] for h in hats[: fw.n]) and all(
        form(h) <= -margin * h[-1] * h[-1] for h in hats[fw.n :]
    )
