"""Maximum-rank PSD equilibrium stress matrices for bipartite frameworks.

Given strictly positive coefficients ``(lambdas, mus)`` that balance the
lifted classes exactly, the two weighted Gram matrices agree:
``G = P^ L P^^T = Q^ M Q^^T``, where ``P^``/``Q^`` are the configuration
matrices with a row of ones appended and ``L``/``M`` the diagonal
coefficient matrices.  The stress matrix has the coefficients on its
diagonal and the closed-form cross block

    omega = [[L, B], [B^T, M]],    B = -L P^^T G^- Q^ M,

for any generalized inverse ``G^-``.  The columns of ``Q^ M`` lie in the
range of ``G`` and ``P^^T`` vanishes on the kernel of ``G``, so every
solution ``X`` of ``G X = Q^ M`` gives the same ``B = -L P^^T X``.
Equilibrium then holds exactly (``P^ L + Q^ B^T = 0`` and
``P^ B + Q^ M = 0``), and the Schur complement ``M^{1/2} (I - Pi) M^{1/2}``,
with ``Pi`` the orthogonal projector onto the row space of ``Q^ M^{1/2}``,
makes omega PSD of rank ``n + m - d' - 1`` (``d'`` the span dimension).

``B`` is built on integers.  It is affine invariant: an invertible affine
map of the coordinates acts on every hatted point by one invertible matrix
``T``, which turns ``G`` into ``T G T^T`` and ``G^-`` into
``T^-T G^- T^-1``, and the factors cancel.  It is also homogeneous of
degree one in the coefficients jointly: scaling ``L`` and ``M`` by ``w``
scales ``G`` and ``Q^ M`` by ``w`` and leaves ``X`` alone.  So the hatted
points are multiplied by the common denominator ``c`` of the coordinates,
``(X, c) = c p^`` (``T = c I``, so ``B`` does not change), and the
coefficients by theirs, ``w``; the two integer Grams are compared to check
balance, ``[G | Q^ M]`` is reduced on integers over one common denominator
``den``, and ``B`` comes out as integer numerators over ``w * den``.  Each
entry is converted to floating point by one correctly rounded integer
division.  Thin, flat or large configurations therefore need no rescaling
before the build.

The floating quantities (recorded equilibrium residual, balance of
read-back diagonals, coupling directions) read the prescaled coordinates
``X / 2**k`` (:func:`prescale`): the integer copy ``X`` shifted so its
largest magnitude is at most :data:`COORD_CAP`.  Each is one correctly
rounded integer division, the same float as converting the exact rational.

An optional diagonal coupling ``C`` generalizes the construction: with
``N_P`` and ``N_Q`` orthonormal null bases of ``P^ L^{1/2}`` and
``Q^ M^{1/2}`` (trailing right singular directions, taken in floating
point), the cross block gains ``L^{1/2} N_P C N_Q^T M^{1/2}``.  The result
stays PSD while every coupling value has magnitude at most one, and the
rank drops by one for each value of magnitude exactly one.

A certificate is verified by recomputing it.  With every coefficient
strictly positive, exact balance makes ``range(G)`` the span of the hatted
P points and also of the hatted Q points, so the class spans are equal and
``rank G = d' + 1``; the closed form is then PSD of rank
``n + m - rank G`` (super stability, Connelly 2005).  So ``omega`` must
equal the correctly rounded closed form bit for bit and ``rank`` the exact
``n + m - rank G``, with no eigenvalue, residual or tolerance.  Verdicts in
the decision engine never depend on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    BipartiteFramework,
    affine_span_dim,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    affine_spans_equal,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    _cleared,
    _gram,
    _hats,
    _reduce_ints,
)

#: Relative eigenvalue threshold for the numerical rank of a coupled stress.
RANK_TOL = 1e-8

#: Tolerance for the floating balance of diagonals read back from a matrix.
RESIDUAL_TOL = 1e-8

#: Coordinates are rescaled so the largest magnitude is at most this.
COORD_CAP = 64


class DegenerateInput(ValueError):
    """Coefficients must be strictly positive and balance exactly."""


class ShapeMismatch(ValueError):
    """A matrix or coupling block has the wrong dimensions."""


class PatternViolation(ValueError):
    """The stress matrix violates the bipartite zero pattern."""


@dataclass(frozen=True)
class StressCertificate:
    """A floating PSD equilibrium stress matrix plus its measured data.

    ``omega`` is the full (n+m) x (n+m) symmetric matrix.  Off-diagonal
    entries inside the P block and inside the Q block are structurally
    zero.  ``lambdas`` and ``mus`` are the exact rational diagonals the
    certificate was built from.
    """

    omega: np.ndarray
    rank: int
    min_eigenvalue: float
    residual: float
    lambdas: tuple[Fraction, ...]
    mus: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return self.omega.shape[0]

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.omega, 2))


def _prescaled(fw: BipartiteFramework) -> tuple[list[list[int]], int, int]:
    """The cleared integer coordinates ``X = c p`` of every point, ``c`` and a shift.

    The shift ``k`` is the least one with every ``|X| / 2**k`` at most
    ``COORD_CAP``; the prescaled coordinates are ``X / 2**k``.
    """
    ints, c = _cleared(fw.all_points())
    peak = max((abs(v) for pt in ints for v in pt), default=0)
    shift = (-(-peak // COORD_CAP) - 1).bit_length() if peak > COORD_CAP else 0
    return ints, c, shift


def prescale(fw: BipartiteFramework) -> BipartiteFramework:
    """Rescale coordinates for floating conversion, exactly.

    Clears the common denominator ``c`` and then divides by the least power
    of two that brings the largest coordinate magnitude to at most
    ``COORD_CAP``.  Scaling the configuration leaves equilibrium kernels and
    balance certificates untouched, so the floating checks and the coupling
    directions read the scaled coordinates (:func:`_hatted` takes them
    straight from the integer copy).
    """
    ints, c, shift = _prescaled(fw)
    if c == 1 << shift:
        return fw
    scaled = [tuple(Fraction(v, 1 << shift) for v in pt) for pt in ints]
    return BipartiteFramework(fw.dimension, tuple(scaled[: fw.n]), tuple(scaled[fw.n :]))


def _hatted(fw: BipartiteFramework) -> np.ndarray:
    """The (d+1) x (n+m) prescaled configuration matrix with a row of ones.

    Each coordinate is one correctly rounded division ``X / 2**k`` of the
    integer copy, so it equals ``float`` of the prescaled rational.
    """
    ints, _, shift = _prescaled(fw)
    den = 1 << shift
    return np.array([[v / den for v in pt] + [1.0] for pt in ints]).T


def _cross_block(fw: BipartiteFramework, lambdas, mus) -> tuple[list[list[int]], int, int]:
    """The cross block ``B = -L P^^T X`` as integer numerators over one denominator.

    Hatted points and coefficients are cleared to integers (module
    docstring), the two integer Grams are compared, and ``[G | Q^ M]`` is
    row reduced on integers; ``X`` takes the reduced right side in its
    pivot rows and zeros elsewhere.  Exact balance puts every column of
    ``Q^ M`` in the range of ``G``, so no pivot lands on the right side.
    Returns the numerators, their positive denominator and ``rank G`` (the
    pivot count).
    """
    hat = fw.dimension + 1
    hats, _ = _hats(fw.all_points())
    p_hats, q_hats = hats[: fw.n], hats[fw.n :]
    w = lcm(*(v.denominator for v in (*lambdas, *mus)))
    a = [v.numerator * (w // v.denominator) for v in lambdas]
    b = [v.numerator * (w // v.denominator) for v in mus]
    gram = _gram(p_hats, a, hat)
    if gram != _gram(q_hats, b, hat):
        raise DegenerateInput("coefficients do not balance the lifted classes")
    system = [gram[i] + [bj * q[i] for q, bj in zip(q_hats, b)] for i in range(hat)]
    pivots, den = _reduce_ints(system)
    x = [[0] * fw.m for _ in range(hat)]
    for row, col in zip(system, pivots):
        x[col] = row[hat:]
    nums = [
        [-ai * sum(c * x[k][j] for k, c in enumerate(p)) for j in range(fw.m)]
        for p, ai in zip(p_hats, a)
    ]
    return nums, w * den, len(pivots)


def _exact_stress(
    fw: BipartiteFramework, lambdas: Sequence[Fraction], mus: Sequence[Fraction]
) -> tuple[np.ndarray, int]:
    """The correctly rounded closed-form stress matrix and its exact rank.

    The diagonal holds ``float`` of each coefficient and the cross block
    ``nums / den`` from :func:`_cross_block`; the rank is
    ``n + m - rank G``.  Raises :class:`ShapeMismatch` or
    :class:`DegenerateInput` unless the coefficients fit the classes, are
    strictly positive and balance exactly, and ``OverflowError`` when an
    entry exceeds the floating range.
    """
    n, m = fw.n, fw.m
    if len(lambdas) != n or len(mus) != m:
        raise ShapeMismatch("coefficient lengths must match the class sizes")
    if any(v <= 0 for v in lambdas) or any(v <= 0 for v in mus):
        raise DegenerateInput("all coefficients must be strictly positive")
    nums, den, rank_g = _cross_block(fw, lambdas, mus)
    cross = np.array([[v / den for v in row] for row in nums])
    omega = np.zeros((n + m, n + m))
    omega[np.arange(n), np.arange(n)] = [float(v) for v in lambdas]
    omega[np.arange(n, n + m), np.arange(n, n + m)] = [float(v) for v in mus]
    omega[:n, n:] = cross
    omega[n:, :n] = cross.T
    return omega, n + m - rank_g


def _null_basis(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal columns spanning the null space of a rank-``rank`` matrix."""
    _, _, vt = np.linalg.svd(matrix, full_matrices=True)
    return vt[rank:].T


def _certificate(
    fw: BipartiteFramework,
    omega: np.ndarray,
    lambdas: Sequence[Fraction],
    mus: Sequence[Fraction],
    rank: Optional[int] = None,
) -> StressCertificate:
    """Record ``omega`` with its least eigenvalue and equilibrium residual.

    Without a ``rank``, the numerical rank counts eigenvalues above
    ``RANK_TOL`` relative to the spectral norm (or to one, when the norm is
    smaller).
    """
    evals = np.linalg.eigvalsh(omega)
    if rank is None:
        spectral = float(np.max(np.abs(evals)))
        rank = int(np.sum(evals > RANK_TOL * max(spectral, 1.0)))
    return StressCertificate(
        omega=omega,
        rank=rank,
        min_eigenvalue=float(evals[0]),
        residual=equilibrium_residual(omega, fw),
        lambdas=tuple(lambdas),
        mus=tuple(mus),
    )


def build_super_stable_stress(
    fw: BipartiteFramework, lambdas: Sequence[Fraction], mus: Sequence[Fraction]
) -> StressCertificate:
    """Build the maximum-rank PSD equilibrium stress for balanced coefficients.

    Requires every coefficient strictly positive and the exact balance of
    the lifted classes.  The resulting matrix is PSD of rank
    ``n + m - d' - 1`` (``d'`` the combined span dimension), recorded
    exactly; it has the coefficients on its diagonal and annihilates the
    hatted configuration matrix up to floating round-off.
    """
    omega, rank = _exact_stress(fw, lambdas, mus)
    return _certificate(fw, omega, lambdas, mus, rank)


def generalized_stress(
    fw: BipartiteFramework,
    lambdas: Sequence[Fraction],
    mus: Sequence[Fraction],
    coupling: Sequence[float],
) -> StressCertificate:
    """The coupling-augmented stress family.

    ``coupling`` supplies the diagonal of the block pairing the trailing
    right directions of the two sides.  The zero coupling reproduces
    :func:`build_super_stable_stress`; values of magnitude above one break
    positive semidefiniteness, and each value of magnitude exactly one
    drops the rank by one, so the rank recorded here is numerical.
    """
    omega, rank = _exact_stress(fw, lambdas, mus)
    n, m = fw.n, fw.m
    r = n + m - rank  # rank G, one more than the span dimension
    pairs = min(n - r, m - r)
    if len(coupling) != pairs:
        raise ShapeMismatch(f"coupling expects {pairs} diagonal values, got {len(coupling)}")
    if pairs:
        hatted = _hatted(fw)
        sqrt_l = np.sqrt([float(v) for v in lambdas])
        sqrt_m = np.sqrt([float(v) for v in mus])
        null_p = _null_basis(hatted[:, :n] * sqrt_l, r)[:, :pairs]
        null_q = _null_basis(hatted[:, n:] * sqrt_m, r)[:, :pairs]
        values = np.array([float(v) for v in coupling])
        omega[:n, n:] += (sqrt_l[:, None] * null_p * values) @ (sqrt_m[:, None] * null_q).T
        omega[n:, :n] = omega[:n, n:].T
    return _certificate(fw, omega, lambdas, mus)


def equilibrium_residual(omega: np.ndarray, fw: BipartiteFramework) -> float:
    """Max-norm equilibrium defect of a stress matrix for a framework.

    Evaluates the hatted configuration matrix (of the canonically rescaled
    framework) times the stress matrix; a row of ones is included, so zero
    row sums are part of the check.  Returns the largest absolute entry.
    """
    total = fw.n + fw.m
    if omega.shape != (total, total):
        raise ShapeMismatch("stress order does not match the vertex count")
    return float(np.max(np.abs(_hatted(fw) @ omega)))


def extract_balanced_diagonals(
    omega: np.ndarray, fw: BipartiteFramework, tol: float = RESIDUAL_TOL
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Read the diagonal coefficient blocks back out of a stress matrix.

    The matrix must carry the bipartite zero pattern exactly (any nonzero
    off-diagonal entry inside a class block raises
    :class:`PatternViolation`).  Returns the two diagonals and whether
    they balance the lifted classes within ``tol`` in floating point.
    """
    total = fw.n + fw.m
    if omega.shape != (total, total):
        raise ShapeMismatch("stress order does not match the vertex count")
    blocks = (omega[: fw.n, : fw.n], omega[fw.n :, fw.n :])
    if any(np.any(block != np.diag(np.diag(block))) for block in blocks):
        raise PatternViolation("class blocks must be diagonal")
    lambdas, mus = (np.diag(block).copy() for block in blocks)
    hatted = _hatted(fw)
    hp, hq = hatted[:, : fw.n], hatted[:, fw.n :]
    gap = hp @ np.diag(lambdas) @ hp.T - hq @ np.diag(mus) @ hq.T
    return lambdas, mus, bool(np.max(np.abs(gap)) <= tol)


def verify_super_stable_certificate(fw: BipartiteFramework, cert: StressCertificate) -> bool:
    """Exact check of a super-stability certificate, by recomputation.

    True iff the coefficients match the class sizes, are strictly positive
    and balance the lifted classes exactly, ``cert.rank`` equals the exact
    ``n + m - rank G``, and ``cert.omega`` equals the correctly rounded
    closed form bit for bit, which also makes it finite and symmetric with
    diagonal class blocks.  Given those premises the matrix is PSD of that
    rank (module docstring), so no eigensolver, residual or tolerance is
    consulted.  Returns False rather than raising, also for coefficients
    too large for a double.
    """
    try:
        omega, rank = _exact_stress(fw, cert.lambdas, cert.mus)
    except (ShapeMismatch, DegenerateInput, OverflowError):
        return False
    return cert.rank == rank and np.array_equal(cert.omega, omega)
