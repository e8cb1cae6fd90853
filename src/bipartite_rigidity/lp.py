"""Exact linear programming over the rationals.

A dense two-phase simplex solver using Bland's anti-cycling rule.  Problems
reach the tableau already cleared to integers: :class:`LPProblem` holds its
rows and rhs as Python ints, each column scaled by a positive int, and
:meth:`LPProblem.create` is the thin step that clears a rational problem
onto that form through :func:`_clear`, the package's one clear of a
rational vector.  The tableau holds ints over one common denominator and is
pivoted fraction-free (:func:`pivot_rows`), so every division is exact.
Outcomes are stated in :class:`fractions.Fraction` and are exact: feasible
points satisfy every constraint with zero residual, optima are exact
rational values, and infeasible problems come with a Farkas vector that
refutes them identically.

Problems are stated in equality form ``A x = b`` over nonnegative
variables and nothing else: a bound or an inequality is a row with a
slack column.

Running the solver twice on the same problem produces the identical outcome:
entering and leaving variables are chosen by Bland's smallest-index rule and
no randomization is used anywhere.

The tableau holds the structural columns and the rhs only.  Phase 1 starts
from the artificial basis, but no artificial column is ever stored: the
Farkas vector and the optimal duals, the only values read off those
columns, are solved from the final basis (``y^T B = c_B``) the first time
an outcome's ``dual`` is read, and an outcome whose dual is never read
never pays for it.

Phase 1 never reads the objective, so every problem with the same rows and
rhs ends phase 1 in the same basis.  A FEASIBLE outcome of
:func:`solve_feasibility` keeps that tableau, and :func:`maximize` can start
from a copy of it (``start=``): it then runs phase 2 only, takes exactly the
pivots a cold solve would take after phase 1, and returns the identical
outcome.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

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
    """An ``int`` or ``Fraction`` as a ``Fraction``; any other type raises ``TypeError``.

    Text is read as a rational only by :mod:`.docio`, which bounds its size.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class LPProblem:
    """An equality-form LP ``A x = b`` with ``0 <= x``, cleared to integers.

    ``rows`` and ``rhs`` hold ints: column ``j`` of ``rows`` is
    ``col_scale[j] * A_j`` and ``rhs`` is ``rhs_scale * b``, every scale a
    positive int.  A positive column scale keeps the sign of every reduced
    cost and the order of every ratio, so the simplex pivots as it would on
    ``A`` itself, and points, values and duals are those of ``A x = b``.
    ``n_vars`` is the width of every row.  ``objective`` is an optional
    rational row of the same width, in the variables ``x``, read as
    "maximize" by :func:`maximize`.  :meth:`create` clears a rational
    problem onto this form.
    """

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    n_vars: int
    objective: Optional[tuple[Fraction, ...]]
    col_scale: tuple[int, ...]
    rhs_scale: int

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise MalformedProblem("row count does not match rhs count")
        for row in self.rows:
            if len(row) != self.n_vars:
                raise MalformedProblem("constraint row width mismatch")
        if len(self.col_scale) != self.n_vars:
            raise MalformedProblem("column scale width mismatch")
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
        """Clear the rational problem ``rows @ x = rhs`` of ``int`` or ``Fraction`` entries.

        Each column is scaled by the least common multiple of its
        denominators and the rhs by that of its own, so the problem is
        integral with the smallest scales.
        """
        rows = [[_frac(v) for v in row] for row in rows]
        if any(len(row) != n_vars for row in rows):
            raise MalformedProblem("constraint row width mismatch")
        cols = [_clear(col) for col in zip(*rows)]
        rhs, rhs_scale = _clear([_frac(v) for v in rhs])
        return cls(
            rows=tuple(tuple(ints[i] for ints, _ in cols) for i in range(len(rows))),
            rhs=tuple(rhs),
            n_vars=n_vars,
            objective=None
            if objective is None
            else tuple(_frac(v) for v in objective),
            col_scale=tuple(s for _, s in cols) if rows else (1,) * n_vars,
            rhs_scale=rhs_scale,
        )


@dataclass(frozen=True, eq=False)
class LPOutcome:
    """Solver result.

    ``point`` is an exact solution for FEASIBLE/OPTIMAL.  ``dual`` holds the
    equality-row multipliers ``y`` at an optimum (``y^T b`` is the optimal
    value and ``y^T A_j >= c_j`` on every column), or for INFEASIBLE a
    Farkas vector ``y`` with ``y^T A <= 0`` and ``y^T b > 0``; it is
    ``None`` otherwise.  The solver leaves it unsolved: ``solve_dual``
    solves it from the final basis the first time ``dual`` is read, and the
    result is kept.  ``value`` is the exact optimal objective value for
    OPTIMAL.  A FEASIBLE outcome of :func:`solve_feasibility` also carries
    its tableau after phase 1 (``phase_one``), which :func:`maximize`
    accepts as ``start``.  Outcomes compare by status, point, value and dual.
    """

    status: LPStatus
    point: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    phase_one: Optional[_Simplex] = field(default=None, repr=False)
    solve_dual: Optional[Callable[[], tuple[Fraction, ...]]] = field(default=None, repr=False)

    @cached_property
    def dual(self) -> Optional[tuple[Fraction, ...]]:
        return None if self.solve_dual is None else self.solve_dual()

    def __eq__(self, other):
        if not isinstance(other, LPOutcome):
            return NotImplemented
        return (self.status, self.point, self.value, self.dual) == (
            other.status, other.point, other.value, other.dual)


def pivot_rows(rows: list[list[int]], r: int, c: int, den: int) -> int:
    """Fraction-free Gauss-Jordan pivot on entry ``(r, c)``, in place.

    The integer ``rows`` stand for ``rows / den``.  With ``p = rows[r][c]``
    every other row becomes ``(p * row - row[c] * rows[r]) // den``, or
    ``row * p // den`` where ``row[c]`` is zero; row ``r`` stays, and ``p``
    is returned as the new denominator (row ``r`` and ``p`` are negated
    first if ``p`` is negative).  Started from integers with ``den = 1``,
    every entry is a minor of the starting matrix up to sign (Edmonds 1967;
    Bareiss 1968), so every division is exact.  ``rows[r][c]`` must be
    nonzero.  This is the one row operation behind the simplex, ranks,
    null spaces, the stress cross block and the projection of a certified
    set.
    """
    pivot = rows[r]
    p = pivot[c]
    if p < 0:
        rows[r] = pivot = [-v for v in pivot]
        p = -p
    for k, row in enumerate(rows):
        if k != r:
            f = row[c]
            if f:
                rows[k] = [(p * a - f * b) // den for a, b in zip(row, pivot)]
            elif p != den:
                rows[k] = [a * p // den for a in row]
    return p


def _reduce_ints(rows: list[list[int]]) -> tuple[list[int], int]:
    """Reduced row echelon form of integer ``rows``, in place, fraction-free.

    Returns the pivot columns and the positive common denominator ``den``:
    the rows then stand for ``rows / den``, row ``k`` holds ``den`` in
    column ``pivots[k]`` and zeros in the other pivot columns, and every row
    past ``len(pivots)`` is zero.  Every entry stays an ``int``.
    """
    pivots: list[int] = []
    den = 1
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        src = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        den = pivot_rows(rows, rank, col, den)
        pivots.append(col)
    return pivots, den


def _clear(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(ints, s)`` with ``ints[k] == values[k] * s``, ``s`` the least such positive int."""
    dens = [v.denominator for v in values]
    s = lcm(*dens)
    return [v.numerator * (s // d) for v, d in zip(values, dens)], s


def _basis_duals(
    rows: Sequence[Sequence[int]],
    flip: Sequence[int],
    basis: Sequence[int],
    cost: Sequence[int],
    art: int,
    scale: int,
) -> tuple[Fraction, ...]:
    """The multipliers ``y = c_B B^-1`` of a final basis, for the stated problem.

    ``rows`` are the sign-flipped integer rows a tableau started from and
    ``B`` their columns in ``basis``, where an artificial ``nx + i`` (``nx``
    the width of ``cost``) stands for the unit column of row ``i``.  A
    structural column ``j`` costs ``cost[j]`` and every artificial costs
    ``art``.  ``y`` solves ``y^T B = c_B``: an artificial basic in row ``i``
    fixes ``y_i = art``, and the other ``k`` multipliers solve the ``k x k``
    system of the basic structural columns on the remaining rows, which is
    nonsingular because ``B`` is, by one fraction-free reduction over one
    denominator.  Undoing the row flips and dividing by ``scale`` states
    ``y`` for the problem.  The reduced cost of artificial ``i`` is
    ``art - y_i``, so these are the multipliers a tableau that kept the
    artificial columns would show.
    """
    nx = len(cost)
    fixed = {b - nx for b in basis if b >= nx}
    free = [i for i in range(len(rows)) if i not in fixed]
    system = [
        [rows[i][j] for i in free] + [cost[j] - art * sum(rows[i][j] for i in fixed)]
        for j in basis
        if j < nx
    ]
    _, den = _reduce_ints(system)
    y = [art * den] * len(rows)
    for i, row in zip(free, system):
        y[i] = row[-1]
    den *= scale
    return tuple(Fraction(v * f, den) for v, f in zip(y, flip))


class _Simplex:
    """Integer tableau simplex for ``A x = b, x >= 0`` (internal).

    ``T`` holds the ``m`` constraint rows followed by the reduced-cost row,
    all over the one positive denominator ``den``, so one
    :func:`pivot_rows` call updates them all.  Each row has the ``nx``
    structural columns and then the rhs, which is the basic solution.
    Phase 1 starts from the basis of artificials, artificial ``i`` (index
    ``nx + i`` in ``basis``) being the unit column of row ``i``, but no
    artificial column is stored: a row operation never mixes columns, so
    the structural entries are those a tableau with the artificial block
    would hold, and the Farkas vector and the duals, which that block would
    show, are solved from the final basis instead (:meth:`farkas`,
    :meth:`duals`).  Exact arithmetic keeps every basic column a unit
    column with reduced cost zero, so no per-variable status is stored: a
    column with a negative reduced cost, or with a nonzero entry in another
    basic variable's row, is nonbasic.

    The problem arrives cleared (:class:`LPProblem`), so the tableau is
    integral from the start and the constructor reads only ints.  The
    sign-flipped starting rows (``rows``, with ``flip``) and the column and
    rhs scales are kept: :meth:`solution` and :meth:`duals` undo the
    scales, and the Farkas vector does not see them.  A warm start must
    match ``constraints``, the problem's ``(rows, rhs, col_scale, rhs_scale)``.
    """

    def __init__(self, prob: LPProblem):
        self.constraints = (prob.rows, prob.rhs, prob.col_scale, prob.rhs_scale)
        self.m = len(prob.rows)
        self.nx = nx = prob.n_vars
        self.den = 1
        self.col_scale = prob.col_scale
        self.rhs_scale = prob.rhs_scale
        self.cost: list[int] = []
        self.cost_scale = 1
        self.flip = [-1 if b < 0 else 1 for b in prob.rhs]
        self.rows = [
            row if f > 0 else tuple(-v for v in row) for row, f in zip(prob.rows, self.flip)
        ]
        T = [[*row, b * f] for row, b, f in zip(self.rows, prob.rhs, self.flip)]
        T.append([0] * (nx + 1))
        self.T = T
        self.basis = [nx + i for i in range(self.m)]

    # -- pivoting core ---------------------------------------------------

    def _artificials_positive(self) -> bool:
        return any(row[-1] for row, b in zip(self.T, self.basis) if b >= self.nx)

    def _run(self, stop_at_zero: bool = False) -> str:
        T, basis = self.T, self.basis
        while True:
            if stop_at_zero and not self._artificials_positive():
                return "optimal"
            rc = T[-1]
            j = next((j for j in range(self.nx) if rc[j] < 0), -1)
            if j < 0:
                return "optimal"
            # Smallest ratio rhs_i / T_ij over T_ij > 0, compared by
            # cross-multiplication; ties go to the smallest basic index.
            best = -1
            for i in range(self.m):
                coef = T[i][j]
                if coef > 0:
                    if best < 0:
                        best = i
                        continue
                    left = T[i][-1] * T[best][j]
                    right = T[best][-1] * coef
                    if left < right or (left == right and basis[i] < basis[best]):
                        best = i
            if best < 0:
                return "unbounded"
            self._pivot(best, j)

    def copy(self) -> "_Simplex":
        """An independent copy: no pivot on it changes this tableau."""
        dup = copy.copy(self)
        dup.T = [row[:] for row in self.T]
        dup.basis = list(self.basis)
        return dup

    def _pivot(self, i: int, j: int) -> None:
        self.basis[i] = j
        self.den = pivot_rows(self.T, i, j, self.den)

    # -- phases ----------------------------------------------------------

    def phase1(self) -> bool:
        # Reduced costs of the artificial sum: minus each column sum.
        if self.m:
            self.T[-1] = [-sum(col) for col in zip(*self.T[: self.m])]
        # The artificial sum is bounded below by zero, so hitting zero is
        # already optimal; this skips degenerate pivots on homogeneous rows.
        outcome = self._run(stop_at_zero=True)
        if outcome != "optimal":  # pragma: no cover - sum of artificials >= 0
            raise AssertionError("phase-1 simplex cannot be unbounded")
        if self._artificials_positive():
            return False
        self._drive_out_artificials()
        return True

    def farkas(self) -> Callable[[], tuple[Fraction, ...]]:
        """The solve of the phase-1 duals, a Farkas vector once phase 1 fails.

        Phase 1 prices every artificial at 1 and every structural column at 0.
        """
        return partial(_basis_duals, self.rows, self.flip, list(self.basis),
                       [0] * self.nx, 1, 1)

    def _drive_out_artificials(self) -> None:
        # An artificial left basic sits on a row that is zero in every
        # structural column, so no later pivot moves it off zero.
        for i in range(self.m):
            if self.basis[i] < self.nx:
                continue
            j = next((j for j in range(self.nx) if self.T[i][j]), -1)
            if j >= 0:
                self._pivot(i, j)

    def phase2(self, cost: Sequence[Fraction]) -> str:
        self.cost, self.cost_scale = _clear([v * s for v, s in zip(cost, self.col_scale)])
        c = self.cost
        priced = [(c[b], row) for b, row in zip(self.basis, self.T) if b < self.nx and c[b]]
        self.T[-1] = [
            (c[j] * self.den if j < self.nx else 0) - sum(ci * row[j] for ci, row in priced)
            for j in range(self.nx + 1)
        ]
        return self._run()

    def duals(self) -> Callable[[], tuple[Fraction, ...]]:
        """The solve of the optimal duals ``y`` of the maximization.

        Phase 2 minimized ``cost``, the negated objective, so ``y`` prices
        the columns at ``-cost``; the artificials cost 0 there.
        """
        return partial(_basis_duals, self.rows, self.flip, list(self.basis),
                       [-v for v in self.cost], 0, self.cost_scale)

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.nx
        den = self.den * self.rhs_scale
        for row, b in zip(self.T, self.basis):
            if b < self.nx:
                x[b] = Fraction(row[-1] * self.col_scale[b], den)
        return x


def solve_feasibility(prob: LPProblem) -> LPOutcome:
    """Decide ``A x = b, x >= 0`` exactly.

    Returns FEASIBLE with an exact basic solution, or INFEASIBLE with a
    Farkas vector ``y``: ``y^T A <= 0`` and ``y^T b > 0``.  Deterministic for a fixed input.
    A FEASIBLE outcome can be passed to :func:`maximize` as ``start``.
    """
    if prob.objective is not None:
        raise MalformedProblem("feasibility problem must not carry an objective")
    splx = _Simplex(prob)
    if not splx.phase1():
        return LPOutcome(status=LPStatus.INFEASIBLE, solve_dual=splx.farkas())
    return LPOutcome(status=LPStatus.FEASIBLE, point=tuple(splx.solution()), phase_one=splx)


def maximize(prob: LPProblem, start: Optional[LPOutcome] = None) -> LPOutcome:
    """Maximize the objective over the problem's feasible region, exactly.

    An OPTIMAL outcome carries the optimal point, its value and a dual
    ``y`` with ``y^T b`` equal to the value and ``y^T A_j >= c_j`` on every
    column ``j``; an INFEASIBLE one carries a Farkas vector.

    ``start`` may be a FEASIBLE outcome of :func:`solve_feasibility` on a
    problem with the same rows, rhs and scales as ``prob``.  Phase 1 never
    reads the objective and is deterministic, so it would end in exactly the
    basis that outcome holds; the solve copies that tableau and runs phase 2
    only.  The outcome is identical to a solve without ``start``, which is
    never modified and can start any number of solves.  Any other ``start``
    raises :class:`MalformedProblem`.
    """
    if prob.objective is None:
        raise MalformedProblem("maximize requires an objective")
    if start is None:
        splx = _Simplex(prob)
        if not splx.phase1():
            return LPOutcome(status=LPStatus.INFEASIBLE, solve_dual=splx.farkas())
    else:
        splx = start.phase_one
        constraints = (prob.rows, prob.rhs, prob.col_scale, prob.rhs_scale)
        if splx is None or splx.constraints != constraints:
            raise MalformedProblem("start is not a feasible outcome of this problem's constraints")
        splx = splx.copy()
    outcome = splx.phase2([-v for v in prob.objective])
    if outcome == "unbounded":
        return LPOutcome(status=LPStatus.UNBOUNDED)
    point = tuple(splx.solution())
    value = sum(
        (c * x for c, x in zip(prob.objective, point) if c), ZERO
    )
    return LPOutcome(status=LPStatus.OPTIMAL, point=point, value=value,
                     solve_dual=splx.duals())
