"""Exact linear programming over the rationals.

A dense two-phase simplex solver using Bland's anti-cycling rule.  All
arithmetic is carried out with :class:`fractions.Fraction`, so outcomes are
exact: feasible points satisfy every constraint with zero residual, optima
are exact rational values, and infeasible problems come with a Farkas vector
that refutes them identically.

Problems are stated in equality form ``A x = b`` over variables that are
either nonnegative or free, with optional finite upper bounds on the
nonnegative ones.  Free variables are split internally into differences of
two nonnegative variables.  Upper bounds are handled natively by the
bounded-variable ratio test (nonbasic variables may sit at either bound),
which keeps the tableau small for box-constrained problems.

Running the solver twice on the same problem produces the identical outcome:
entering and leaving variables are chosen by Bland's smallest-index rule and
no randomization is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class MalformedProblem(ValueError):
    """Constraint widths, bounds or objective are inconsistent."""


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
    """An equality-form LP: ``rows @ x = rhs`` with per-variable bounds.

    ``nonnegative[j]`` selects the lower bound of variable ``j``: ``True``
    means ``x_j >= 0``, ``False`` means ``x_j`` is free.  ``upper[j]`` is an
    optional finite upper bound and is only allowed on nonnegative
    variables.  ``objective`` is an optional row of the same width, read as
    "maximize" by :func:`maximize`.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    nonnegative: tuple[bool, ...]
    upper: tuple[Optional[Fraction], ...]
    objective: Optional[tuple[Fraction, ...]]

    def __post_init__(self):
        width = len(self.nonnegative)
        if len(self.upper) != width:
            raise MalformedProblem("bound vectors disagree on variable count")
        if len(self.rows) != len(self.rhs):
            raise MalformedProblem("row count does not match rhs count")
        for row in self.rows:
            if len(row) != width:
                raise MalformedProblem("constraint row width mismatch")
        if self.objective is not None and len(self.objective) != width:
            raise MalformedProblem("objective width mismatch")
        for j, u in enumerate(self.upper):
            if u is None:
                continue
            if not self.nonnegative[j]:
                raise MalformedProblem("upper bound on a free variable")
            if u < 0:
                raise MalformedProblem("negative upper bound")

    @classmethod
    def create(
        cls,
        rows: Iterable[Sequence],
        rhs: Iterable,
        n_vars: int,
        *,
        free: Iterable[int] = (),
        upper: Optional[dict] = None,
        objective: Optional[Sequence] = None,
    ) -> "LPProblem":
        free_set = set(free)
        ups: list[Optional[Fraction]] = [None] * n_vars
        for j, u in (upper or {}).items():
            ups[j] = _frac(u)
        return cls(
            rows=tuple(tuple(_frac(v) for v in row) for row in rows),
            rhs=tuple(_frac(v) for v in rhs),
            nonnegative=tuple(j not in free_set for j in range(n_vars)),
            upper=tuple(ups),
            objective=None
            if objective is None
            else tuple(_frac(v) for v in objective),
        )

    @property
    def n_vars(self) -> int:
        return len(self.nonnegative)


@dataclass(frozen=True)
class LPOutcome:
    """Solver result.

    ``point`` is an exact solution for FEASIBLE/OPTIMAL.  ``dual`` holds the
    Farkas vector for INFEASIBLE (see :func:`farkas_refutes`) or the
    equality-row multipliers at an optimum.  ``value`` is the exact optimal
    objective value for OPTIMAL.
    """

    status: LPStatus
    point: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None


def farkas_refutes(prob: LPProblem, y: Sequence[Fraction]) -> bool:
    """Check a Farkas vector exactly.

    For problems without upper bounds this is the classic test
    ``y^T A <= 0`` componentwise and ``y^T b > 0``.  With upper bounds the
    certificate generalizes: columns may have positive weight ``y^T A_j``
    provided the bound caps their contribution, and infeasibility follows
    from ``y^T b - sum_j u_j * max(y^T A_j, 0) > 0``.
    """
    n = prob.n_vars
    cap = ZERO
    for j in range(n):
        col = sum((row[j] * y[i] for i, row in enumerate(prob.rows)), ZERO)
        if not prob.nonnegative[j]:
            if col != 0:
                return False
            continue
        if col > 0:
            if prob.upper[j] is None:
                return False
            cap += prob.upper[j] * col
    lhs = sum((b * y[i] for i, b in enumerate(prob.rhs)), ZERO)
    return lhs - cap > 0


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


_BASIC, _LOWER, _UPPER = 0, 1, 2


class _Simplex:
    """Bounded-variable tableau simplex over Fractions (internal).

    ``T`` holds the ``m`` constraint rows followed by the reduced-cost row,
    so one :func:`pivot_rows` call updates both.
    """

    def __init__(self, rows, rhs, upper):
        self.m = len(rows)
        self.nx = len(upper)
        self.n = self.nx + self.m
        self.upper: list[Optional[Fraction]] = list(upper) + [None] * self.m
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
        T.append([ZERO] * self.n)
        self.T = T
        self.xB = xB
        self.basis = [self.nx + i for i in range(self.m)]
        self.status = [_LOWER] * self.nx + [_BASIC] * self.m
        self.obj = ZERO

    # -- pivoting core ---------------------------------------------------

    def _run(self, stop_at_zero: bool = False) -> str:
        T, xB = self.T, self.xB
        status, basis, upper = self.status, self.basis, self.upper
        m, limit = self.m, self.nx
        while True:
            rc = T[-1]
            if stop_at_zero and not self.obj:
                return "optimal"
            enter = -1
            direction = 0
            for j in range(limit):
                s = status[j]
                if s == _LOWER:
                    if rc[j] < 0:
                        enter, direction = j, 1
                        break
                elif s == _UPPER:
                    if rc[j] > 0:
                        enter, direction = j, -1
                        break
            if enter < 0:
                return "optimal"
            j = enter
            best_t: Optional[Fraction] = None
            best_var = -1
            best_row = -1
            best_side = _LOWER
            uj = upper[j]
            if uj is not None:
                best_t, best_var = uj, j
            for i in range(m):
                coef = T[i][j]
                if direction < 0:
                    coef = -coef
                if coef > 0:
                    t = xB[i] / coef
                    side = _LOWER
                else:
                    if coef == 0:
                        continue
                    ub = upper[basis[i]]
                    if ub is None:
                        continue
                    t = (ub - xB[i]) / (-coef)
                    side = _UPPER
                bv = basis[i]
                if best_t is None or t < best_t or (t == best_t and bv < best_var):
                    best_t, best_var, best_row, best_side = t, bv, i, side
            if best_t is None:
                return "unbounded"
            delta = best_t if direction > 0 else -best_t
            self.obj += rc[j] * delta
            if delta:
                for i in range(m):
                    c = T[i][j]
                    if c:
                        xB[i] -= c * delta
            if best_row < 0:
                status[j] = _UPPER if direction > 0 else _LOWER
                continue
            i = best_row
            start = ZERO if direction > 0 else upper[j]
            self._pivot(i, j, start + delta, best_side)

    def _pivot(self, i: int, j: int, value, leave_side: int) -> None:
        leave = self.basis[i]
        self.status[leave] = leave_side
        self.basis[i] = j
        self.status[j] = _BASIC
        self.xB[i] = value
        pivot_rows(self.T, i, j)

    # -- phases ----------------------------------------------------------

    def phase1(self) -> bool:
        rc = []
        for j in range(self.nx):
            rc.append(-sum((self.T[i][j] for i in range(self.m)), ZERO))
        rc.extend([ZERO] * self.m)
        self.T[-1] = rc
        self.obj = sum(self.xB, ZERO)
        # The artificial sum is bounded below by zero, so hitting zero is
        # already optimal; this skips degenerate pivots on homogeneous rows.
        outcome = self._run(stop_at_zero=True)
        if outcome != "optimal":  # pragma: no cover - sum of artificials >= 0
            raise AssertionError("phase-1 simplex cannot be unbounded")
        if self.obj > 0:
            return False
        for k in range(self.nx, self.n):
            self.upper[k] = ZERO
        self._drive_out_artificials()
        return True

    def farkas(self) -> tuple[Fraction, ...]:
        # Phase-1 duals read off the artificial columns: rc = 1 - y_i.
        return tuple(
            (ONE - self.T[-1][self.nx + i]) * self.flip[i] for i in range(self.m)
        )

    def _drive_out_artificials(self) -> None:
        for i in range(self.m):
            if self.basis[i] < self.nx:
                continue
            for j in range(self.nx):
                if self.status[j] == _LOWER and self.T[i][j] != 0:
                    self._pivot(i, j, ZERO, _LOWER)
                    break

    def phase2(self, cost: Sequence[Fraction]) -> str:
        c = list(cost) + [ZERO] * self.m
        cb = [c[b] for b in self.basis]
        rc = []
        for j in range(self.n):
            acc = c[j]
            for i in range(self.m):
                ci = cb[i]
                if ci:
                    v = self.T[i][j]
                    if v:
                        acc -= ci * v
            rc.append(acc)
        self.T[-1] = rc
        obj = ZERO
        for i in range(self.m):
            if cb[i]:
                obj += cb[i] * self.xB[i]
        for j in range(self.nx):
            if self.status[j] == _UPPER and c[j]:
                obj += c[j] * self.upper[j]
        self.obj = obj
        return self._run()

    def duals(self) -> tuple[Fraction, ...]:
        # rc of artificial column i is -y_i once its phase-2 cost is zero.
        return tuple(-self.T[-1][self.nx + i] * self.flip[i] for i in range(self.m))

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.nx
        for j in range(self.nx):
            if self.status[j] == _UPPER:
                x[j] = self.upper[j]
        for i in range(self.m):
            b = self.basis[i]
            if b < self.nx:
                x[b] = self.xB[i]
        return x


def _standardize(prob: LPProblem):
    """Split free variables; return (columns map, std rows, std uppers)."""
    col_plus: list[int] = []
    col_minus: list[Optional[int]] = []
    uppers: list[Optional[Fraction]] = []
    for j in range(prob.n_vars):
        col_plus.append(len(uppers))
        if prob.nonnegative[j]:
            col_minus.append(None)
            uppers.append(prob.upper[j])
        else:
            uppers.append(None)
            col_minus.append(len(uppers))
            uppers.append(None)
    nx = len(uppers)
    std_rows = []
    for row in prob.rows:
        r = [ZERO] * nx
        for j, v in enumerate(row):
            if not v:
                continue
            r[col_plus[j]] = v
            cm = col_minus[j]
            if cm is not None:
                r[cm] = -v
        std_rows.append(r)
    return col_plus, col_minus, std_rows, uppers


def _recover(prob: LPProblem, col_plus, col_minus, x_std) -> tuple[Fraction, ...]:
    out = []
    for j in range(prob.n_vars):
        v = x_std[col_plus[j]]
        cm = col_minus[j]
        if cm is not None:
            v = v - x_std[cm]
        out.append(v)
    return tuple(out)


def solve_feasibility(prob: LPProblem) -> LPOutcome:
    """Decide ``A x = b`` with the problem's bounds, exactly.

    Returns FEASIBLE with an exact basic solution, or INFEASIBLE with a
    Farkas vector for the equality rows.  Deterministic for a fixed input.
    """
    if prob.objective is not None:
        raise MalformedProblem("feasibility problem must not carry an objective")
    col_plus, col_minus, std_rows, uppers = _standardize(prob)
    splx = _Simplex(std_rows, list(prob.rhs), uppers)
    if not splx.phase1():
        return LPOutcome(status=LPStatus.INFEASIBLE, dual=splx.farkas())
    point = _recover(prob, col_plus, col_minus, splx.solution())
    return LPOutcome(status=LPStatus.FEASIBLE, point=point)


def maximize(prob: LPProblem) -> LPOutcome:
    """Maximize the objective over the problem's feasible region, exactly."""
    if prob.objective is None:
        raise MalformedProblem("maximize requires an objective")
    col_plus, col_minus, std_rows, uppers = _standardize(prob)
    splx = _Simplex(std_rows, list(prob.rhs), uppers)
    if not splx.phase1():
        return LPOutcome(status=LPStatus.INFEASIBLE, dual=splx.farkas())
    cost = [ZERO] * len(uppers)
    for j, v in enumerate(prob.objective):
        if not v:
            continue
        cost[col_plus[j]] = -v
        cm = col_minus[j]
        if cm is not None:
            cost[cm] = v
    outcome = splx.phase2(cost)
    if outcome == "unbounded":
        return LPOutcome(status=LPStatus.UNBOUNDED)
    point = _recover(prob, col_plus, col_minus, splx.solution())
    value = sum(
        (c * x for c, x in zip(prob.objective, point) if c), ZERO
    )
    dual = tuple(-y for y in splx.duals())
    return LPOutcome(status=LPStatus.OPTIMAL, point=point, value=value, dual=dual)


def check_feasible_point(prob: LPProblem, x: Sequence[Fraction]) -> bool:
    """Exact re-verification that ``x`` satisfies all constraints and bounds."""
    if len(x) != prob.n_vars:
        return False
    for j in range(prob.n_vars):
        if prob.nonnegative[j] and x[j] < 0:
            return False
        u = prob.upper[j]
        if u is not None and x[j] > u:
            return False
    for row, b in zip(prob.rows, prob.rhs):
        if sum((c * v for c, v in zip(row, x) if c), ZERO) != b:
            return False
    return True
