"""Exact certificates for quadric separation of the two vertex classes.

For a framework with classes P and Q, exactly one of the following holds:

* the convex hulls of the lifted classes intersect, witnessed by
  nonnegative coefficients balancing the lifted points (a Radon-type
  certificate), or
* the classes are strictly separated by a quadric, witnessed by a
  symmetric matrix whose form is at least ``delta > 0`` on P and at most
  ``-delta`` on Q.

One exact LP decides which: the balance LP either has a solution, or its
Farkas vector, read as a quadratic form, is the separating quadric.  Both
witnesses re-verify with zero residual.  :func:`max_margin_quadric` solves
a separate, wider LP for the separating quadric of largest margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import lp
from .geometry import BipartiteFramework, SymmetricMatrix, veronese
from .lp import LPProblem, LPStatus, ONE, ZERO


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


def _radon_problem(fw: BipartiteFramework) -> LPProblem:
    """Feasibility LP: balance the lifted classes, normalize the P side.

    Variables are the n lambdas followed by the m mus, all nonnegative.
    One equation per upper-triangle entry of the lifted matrices plus the
    normalization row (which rules out the all-zero solution).
    """
    lifts_p = [veronese(p).upper for p in fw.points_p]
    lifts_q = [veronese(q).upper for q in fw.points_q]
    n, m = fw.n, fw.m
    n_entries = (fw.dimension + 1) * (fw.dimension + 2) // 2
    rows = []
    rhs = []
    for k in range(n_entries):
        rows.append([lifts_p[i][k] for i in range(n)] + [-lifts_q[j][k] for j in range(m)])
        rhs.append(ZERO)
    rows.append([ONE] * n + [ZERO] * m)
    rhs.append(ONE)
    return LPProblem.create(rows, rhs, n + m)


def _farkas_quadric(d: int, y: Sequence[Fraction]) -> SeparationCertificate:
    """The separating quadric read off a Farkas vector of the balance LP.

    ``y`` refutes :func:`_radon_problem`: ``y^T A <= 0`` and
    ``y^T b = y_norm > 0``, where ``y_norm`` is the multiplier of the
    normalization row.  Read as a form (off-diagonal entries halved), the
    entries before it are ``<= -y_norm`` on P and ``>= 0`` on Q.  Negating
    them and taking ``y_norm/2`` off the constant (corner) entry gives a form
    ``>= y_norm/2`` on P and ``<= -y_norm/2`` on Q, which is then scaled
    into the [-1, 1] box.
    """
    hat = d + 1
    pairs = [(i, j) for i in range(hat) for j in range(i, hat)]
    upper = [-y[k] if i == j else -y[k] / 2 for k, (i, j) in enumerate(pairs)]
    y_norm = y[len(upper)]
    upper[-1] -= y_norm / 2
    scale = max(abs(v) for v in upper)
    return SeparationCertificate(
        matrix=SymmetricMatrix.from_upper(hat, tuple(v / scale for v in upper)),
        delta=y_norm / (2 * scale),
    )


def maximal_support_radon(
    fw: BipartiteFramework,
) -> Union[RadonCertificate, SeparationCertificate]:
    """A Radon certificate with the unique maximal support, or a separation.

    When the balance LP is infeasible its Farkas vector yields the strict
    separating quadric (:func:`_farkas_quadric`); no further LP runs.  The
    support of a relative-interior point of the feasible region is
    found by maximizing every coordinate that the first feasible point
    leaves at zero and averaging all resulting feasible points with equal
    positive weights.  A coordinate whose maximum is exactly zero is zero
    across the whole region and stays outside the support.
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
        if outcome.point[coord] > 0:
            continue
        obj = [ZERO] * total
        obj[coord] = ONE
        lifted = LPProblem(
            rows=base.rows,
            rhs=base.rhs,
            nonnegative=base.nonnegative,
            upper=base.upper,
            objective=tuple(obj),
        )
        best = lp.maximize(lifted)
        assert best.status is LPStatus.OPTIMAL, "region is nonempty and bounded"
        if best.value > 0:
            points.append(best.point)
    weight = Fraction(1, len(points))
    avg = tuple(sum((pt[k] for pt in points), ZERO) * weight for k in range(total))
    return RadonCertificate(lambdas=avg[: fw.n], mus=avg[fw.n :])


def verify_radon(fw: BipartiteFramework, cert: RadonCertificate) -> bool:
    """Exact re-verification of a Radon certificate (zero residual)."""
    if len(cert.lambdas) != fw.n or len(cert.mus) != fw.m:
        return False
    if any(v < 0 for v in cert.lambdas) or any(v < 0 for v in cert.mus):
        return False
    if sum(cert.lambdas) != 1 or sum(cert.mus) != 1:
        return False
    n_entries = (fw.dimension + 1) * (fw.dimension + 2) // 2
    acc = [ZERO] * n_entries
    for coef, point in zip(cert.lambdas, fw.points_p):
        if coef:
            for k, v in enumerate(veronese(point).upper):
                acc[k] += coef * v
    for coef, point in zip(cert.mus, fw.points_q):
        if coef:
            for k, v in enumerate(veronese(point).upper):
                acc[k] -= coef * v
    return all(v == 0 for v in acc)


def max_margin_quadric(fw: BipartiteFramework) -> tuple[SymmetricMatrix, Fraction]:
    """The exact max-margin separating quadric for the two classes.

    Maximizes ``delta`` subject to the form being ``>= delta`` on the first
    class, ``<= -delta`` on the second, with every matrix entry in
    [-1, 1].  The optimum is zero exactly when the lifted hulls intersect;
    a positive optimum yields a strict separation certificate.

    Matrix entries are modeled as differences of two [0, 1]-bounded
    variables so the box normalization costs no extra constraint rows.
    """
    if fw.n < 1 or fw.m < 1:
        raise EmptySide("both classes must be nonempty")
    d = fw.dimension
    k_entries = (d + 1) * (d + 2) // 2
    lifts_p = [veronese(p).upper for p in fw.points_p]
    lifts_q = [veronese(q).upper for q in fw.points_q]
    hat = d + 1
    weights = []
    for i in range(hat):
        for j in range(i, hat):
            weights.append(ONE if i == j else Fraction(2))
    # Columns: a_plus (k), a_minus (k), delta, slacks (n + m).
    n_slacks = fw.n + fw.m
    n_vars = 2 * k_entries + 1 + n_slacks
    delta_col = 2 * k_entries
    rows = []
    rhs = []
    for s, lift in enumerate(lifts_p + lifts_q):
        # P rows:  <A, lift> - delta - slack = 0   (form >= delta)
        # Q rows: -<A, lift> - delta - slack = 0   (form <= -delta)
        sign = 1 if s < fw.n else -1
        row = [ZERO] * n_vars
        for k in range(k_entries):
            coef = weights[k] * lift[k]
            row[k] = sign * coef
            row[k_entries + k] = -sign * coef
        row[delta_col] = -ONE
        row[delta_col + 1 + s] = -ONE
        rows.append(row)
        rhs.append(ZERO)
    upper = {k: ONE for k in range(2 * k_entries)}
    objective = [ZERO] * n_vars
    objective[delta_col] = ONE
    prob = LPProblem.create(rows, rhs, n_vars, upper=upper, objective=objective)
    outcome = lp.maximize(prob)
    assert outcome.status is LPStatus.OPTIMAL, "margin LP is feasible and bounded"
    point = outcome.point
    entries = tuple(point[k] - point[k_entries + k] for k in range(k_entries))
    return SymmetricMatrix.from_upper(hat, entries), outcome.value


def verify_separation(cert: SeparationCertificate, fw: BipartiteFramework) -> bool:
    """Exact evaluation of all quadratic forms against the stated margin."""
    if cert.delta <= 0:
        return False
    if cert.matrix.order != fw.dimension + 1:
        return False
    if any(abs(v) > 1 for v in cert.matrix.upper):
        return False
    for p in fw.points_p:
        if cert.matrix.evaluate_point(p) < cert.delta:
            return False
    for q in fw.points_q:
        if cert.matrix.evaluate_point(q) > -cert.delta:
            return False
    return True
