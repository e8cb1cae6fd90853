"""Exact linear programming over the rationals.

A dense two-phase simplex solver using Bland's anti-cycling rule.  All
arithmetic is carried out with :class:`fractions.Fraction`, so outcomes are
exact: feasible points satisfy every constraint with zero residual, optima
are exact rational values, and infeasible problems come with a Farkas vector
that refutes them identically.

Problems are stated in equality form ``A x = b`` over nonnegative
variables and nothing else: a bound or an inequality is a row with a
slack column.

Running the solver twice on the same problem produces the identical outcome:
entering and leaving variables are chosen by Bland's smallest-index rule and
no randomization is used anywhere.

Phase 1 never reads the objective, so every problem with the same rows and
rhs ends phase 1 in the same basis.  A FEASIBLE outcome of
:func:`solve_feasibility` keeps that state, and :func:`maximize` can start
from a copy of it (``start=``): it then runs phase 2 only, takes exactly the
pivots a cold solve would take after phase 1, and returns the identical
outcome.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class MalformedProblem(ValueError):
    """Constraint widths or objective are inconsistent."""


class LPStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class LPProblem:
    """An equality-form LP: ``rows @ x = rhs`` with ``0 <= x``.

    ``n_vars`` is the width of every row.  ``objective`` is an optional row
    of the same width, read as "maximize" by :func:`maximize`.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    n_vars: int
    objective: Optional[tuple[Fraction, ...]]

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise MalformedProblem("row count does not match rhs count")
        for row in self.rows:
            if len(row) != self.n_vars:
                raise MalformedProblem("constraint row width mismatch")
        if self.objective is not None and len(self.objective) != self.n_vars:
            raise MalformedProblem("objective width mismatch")

    @classmethod
    def create(
        cls,
        rows: Iterable[Sequence],
        rhs: Iterable,
        n_vars: int,
        *,
        objective: Optional[Sequence] = None,
    ) -> "LPProblem":
        return cls(
            rows=tuple(tuple(_frac(v) for v in row) for row in rows),
            rhs=tuple(_frac(v) for v in rhs),
            n_vars=n_vars,
            objective=None
            if objective is None
            else tuple(_frac(v) for v in objective),
        )


@dataclass(frozen=True)
class LPOutcome:
    """Solver result.

    ``point`` is an exact solution for FEASIBLE/OPTIMAL.  ``dual`` holds the
    equality-row multipliers ``y`` at an optimum (``y^T b`` is the optimal
    value and ``y^T A_j >= c_j`` on every column), or for INFEASIBLE a
    Farkas vector ``y`` with ``y^T A <= 0`` and ``y^T b > 0``.  ``value`` is
    the exact optimal objective value for OPTIMAL.  A FEASIBLE outcome of
    :func:`solve_feasibility` also carries its phase-1 state, which
    :func:`maximize` accepts as ``start``; it takes no part in comparisons.
    """

    status: LPStatus
    point: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    phase_one: Optional[_PhaseOne] = field(default=None, compare=False, repr=False)


def pivot_rows(rows: list[list[Fraction]], r: int, c: int) -> None:
    """Gauss-Jordan pivot on entry ``(r, c)``, in place.

    Scales row ``r`` so that its entry ``c`` is one, then subtracts
    multiples of it from every other row so that column ``c`` is zero
    outside row ``r``.  Zero entries are skipped, which keeps sparse rows
    cheap.  The entry ``rows[r][c]`` must be nonzero.  This is the one row
    operation behind the simplex, ranks, null spaces and projectors.
    """
    pivot = rows[r]
    piv = pivot[c]
    if piv != 1:
        inv = ONE / piv
        rows[r] = pivot = [v * inv if v else v for v in pivot]
    for k, row in enumerate(rows):
        if k != r:
            f = row[c]
            if f:
                rows[k] = [a - f * b if b else a for a, b in zip(row, pivot)]


class _Simplex:
    """Tableau simplex over Fractions for ``A x = b, x >= 0`` (internal).

    ``T`` holds the ``m`` constraint rows followed by the reduced-cost row,
    so one :func:`pivot_rows` call updates both.  Columns ``nx`` onwards
    are the artificials of phase 1.  Exact arithmetic keeps every basic
    column a unit column with reduced cost zero, so no per-variable status
    is stored: a column with a negative reduced cost, or with a nonzero
    entry in another basic variable's row, is nonbasic.
    """

    def __init__(self, rows, rhs, nx: int):
        self.m = len(rows)
        self.nx = nx
        self.flip: list[int] = []
        T: list[list[Fraction]] = []
        xB: list[Fraction] = []
        for i in range(self.m):
            r = list(rows[i])
            b = rhs[i]
            if b < 0:
                r = [-v for v in r]
                b = -b
                self.flip.append(-1)
            else:
                self.flip.append(1)
            art = [ZERO] * self.m
            art[i] = ONE
            T.append(r + art)
            xB.append(b)
        T.append([ZERO] * (nx + self.m))
        self.T = T
        self.xB = xB
        self.basis = [nx + i for i in range(self.m)]

    # -- pivoting core ---------------------------------------------------

    def _artificials_positive(self) -> bool:
        return any(x for x, b in zip(self.xB, self.basis) if b >= self.nx)

    def _run(self, stop_at_zero: bool = False) -> str:
        T, xB, basis = self.T, self.xB, self.basis
        while True:
            if stop_at_zero and not self._artificials_positive():
                return "optimal"
            rc = T[-1]
            j = next((j for j in range(self.nx) if rc[j] < 0), -1)
            if j < 0:
                return "optimal"
            best_t: Optional[Fraction] = None
            best_row = -1
            for i in range(self.m):
                coef = T[i][j]
                if coef > 0:
                    t = xB[i] / coef
                    if best_t is None or t < best_t or (
                        t == best_t and basis[i] < basis[best_row]
                    ):
                        best_t, best_row = t, i
            if best_t is None:
                return "unbounded"
            if best_t:
                for i in range(self.m):
                    c = T[i][j]
                    if c:
                        xB[i] -= c * best_t
            self._pivot(best_row, j, best_t)

    def copy(self) -> "_Simplex":
        """An independent copy: no pivot on it changes this tableau."""
        dup = copy.copy(self)
        dup.T = [row[:] for row in self.T]
        dup.xB = list(self.xB)
        dup.basis = list(self.basis)
        return dup

    def _pivot(self, i: int, j: int, value) -> None:
        self.basis[i] = j
        self.xB[i] = value
        pivot_rows(self.T, i, j)

    # -- phases ----------------------------------------------------------

    def phase1(self) -> bool:
        rc = []
        for j in range(self.nx):
            rc.append(-sum((self.T[i][j] for i in range(self.m)), ZERO))
        rc.extend([ZERO] * self.m)
        self.T[-1] = rc
        # The artificial sum is bounded below by zero, so hitting zero is
        # already optimal; this skips degenerate pivots on homogeneous rows.
        outcome = self._run(stop_at_zero=True)
        if outcome != "optimal":  # pragma: no cover - sum of artificials >= 0
            raise AssertionError("phase-1 simplex cannot be unbounded")
        if self._artificials_positive():
            return False
        self._drive_out_artificials()
        return True

    def farkas(self) -> tuple[Fraction, ...]:
        # Phase-1 duals read off the artificial columns: rc = 1 - y_i.
        return tuple(
            (ONE - self.T[-1][self.nx + i]) * self.flip[i] for i in range(self.m)
        )

    def _drive_out_artificials(self) -> None:
        # An artificial left basic sits on a row that is zero in every
        # structural column, so no later pivot moves it off zero.
        for i in range(self.m):
            if self.basis[i] < self.nx:
                continue
            j = next((j for j in range(self.nx) if self.T[i][j]), -1)
            if j >= 0:
                self._pivot(i, j, ZERO)

    def phase2(self, cost: Sequence[Fraction]) -> str:
        c = list(cost) + [ZERO] * self.m
        cb = [c[b] for b in self.basis]
        rc = []
        for j in range(self.nx + self.m):
            acc = c[j]
            for i in range(self.m):
                ci = cb[i]
                if ci:
                    v = self.T[i][j]
                    if v:
                        acc -= ci * v
            rc.append(acc)
        self.T[-1] = rc
        return self._run()

    def duals(self) -> tuple[Fraction, ...]:
        # rc of artificial column i is -y_i once its phase-2 cost is zero.
        return tuple(-self.T[-1][self.nx + i] * self.flip[i] for i in range(self.m))

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.nx
        for b, v in zip(self.basis, self.xB):
            if b < self.nx:
                x[b] = v
        return x


class _PhaseOne(NamedTuple):
    """A problem's tableau after phase 1 (internal)."""

    constraints: tuple  # (rows, rhs, n_vars) of the problem
    splx: _Simplex
    feasible: bool


def _constraints(prob: LPProblem) -> tuple:
    return (prob.rows, prob.rhs, prob.n_vars)


def _phase_one(prob: LPProblem) -> _PhaseOne:
    """Run phase 1 on ``prob``; the objective is not read."""
    splx = _Simplex(prob.rows, prob.rhs, prob.n_vars)
    feasible = splx.phase1()
    return _PhaseOne(_constraints(prob), splx, feasible)


def solve_feasibility(prob: LPProblem) -> LPOutcome:
    """Decide ``A x = b, x >= 0`` exactly.

    Returns FEASIBLE with an exact basic solution, or INFEASIBLE with a
    Farkas vector ``y``: ``y^T A <= 0`` and ``y^T b > 0``.  Deterministic for a fixed input.
    A FEASIBLE outcome can be passed to :func:`maximize` as ``start``.
    """
    if prob.objective is not None:
        raise MalformedProblem("feasibility problem must not carry an objective")
    state = _phase_one(prob)
    if not state.feasible:
        return LPOutcome(status=LPStatus.INFEASIBLE, dual=state.splx.farkas())
    point = tuple(state.splx.solution())
    return LPOutcome(status=LPStatus.FEASIBLE, point=point, phase_one=state)


def maximize(prob: LPProblem, start: Optional[LPOutcome] = None) -> LPOutcome:
    """Maximize the objective over the problem's feasible region, exactly.

    An OPTIMAL outcome carries the optimal point, its value and a dual
    ``y`` with ``y^T b`` equal to the value and ``y^T A_j >= c_j`` on every
    column ``j``; an INFEASIBLE one carries a Farkas vector.

    ``start`` may be a FEASIBLE outcome of :func:`solve_feasibility` on a
    problem with the same rows and rhs as ``prob``.  Phase 1 never
    reads the objective and is deterministic, so it would end in exactly the
    basis that outcome holds; the solve copies that tableau and runs phase 2
    only.  The outcome is identical to a solve without ``start``, which is
    never modified and can start any number of solves.  Any other ``start``
    raises :class:`MalformedProblem`.
    """
    if prob.objective is None:
        raise MalformedProblem("maximize requires an objective")
    if start is None:
        state = _phase_one(prob)
        if not state.feasible:
            return LPOutcome(status=LPStatus.INFEASIBLE, dual=state.splx.farkas())
        splx = state.splx
    else:
        state = start.phase_one
        if state is None or state.constraints != _constraints(prob):
            raise MalformedProblem(
                "start is not a feasible outcome of this problem's constraints"
            )
        splx = state.splx.copy()
    outcome = splx.phase2([-v for v in prob.objective])
    if outcome == "unbounded":
        return LPOutcome(status=LPStatus.UNBOUNDED)
    point = tuple(splx.solution())
    value = sum(
        (c * x for c, x in zip(prob.objective, point) if c), ZERO
    )
    dual = tuple(-y for y in splx.duals())
    return LPOutcome(status=LPStatus.OPTIMAL, point=point, value=value, dual=dual)
