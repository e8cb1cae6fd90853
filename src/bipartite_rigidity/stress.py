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

``B`` is built on integers, on each point's hat ``h_k = c_k p^_k``
(:func:`~.geometry._hats`, ``c_k`` its own denominator).  A hat rescaled
by its own factor changes nothing once its coefficient absorbs it:
``coeff_k p^_k p^_k^T = (coeff_k / c_k^2) h_k h_k^T`` and
``mu_j q^_j = (mu_j / c_j^2) c_j h_j``.  With the weights
``a_k = W coeff_k / c_k^2`` cleared to integers
(:func:`~.geometry._balance`), both sides' integer Grams are ``W G``
under balance, ``[W G | W Q^ M]`` reduced on integers over ``den`` gives
``X``, and ``B`` comes out as integer numerators over ``W den``, each
converted to floating point by one correctly rounded integer division.

``omega`` is held as a tuple of float rows, so building and verifying a
certificate needs no ``numpy``.  The floating extras import it inside the
functions that compute them and take tuple rows or arrays alike: the least
eigenvalue and equilibrium residual a certificate reports (measured the
first time either is read), read-back diagonals, the coupled family and
the spectral norm.  They need one uniform scale, so they read
``X / 2**k`` (:func:`_hatted`), with ``X = c p`` all points cleared by
one common denominator (:func:`_prescaled`) and ``k`` the least shift
that brings every magnitude to at most :data:`COORD_CAP`; each is one
correctly rounded integer division.  Scaling the configuration leaves
equilibrium kernels and balance certificates untouched.

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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Sequence

from .geometry import (
    BipartiteFramework,
    SymmetricMatrix,
    affine_span_dim,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    affine_spans_equal,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    _balance,
    _reduce_ints,
)
from .lp import _clear

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


#: A stress matrix as a tuple of float rows.
Rows = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class StressCertificate:
    """A floating PSD equilibrium stress matrix plus its measured data.

    ``omega`` is the full (n+m) x (n+m) symmetric matrix as a tuple of
    float rows.  Off-diagonal entries inside the P block and inside the Q
    block are structurally zero.  ``rank`` is the matrix rank (exact for
    :func:`build_super_stable_stress`).  ``lambdas`` and ``mus`` are the
    exact rational diagonals the certificate was built from.

    ``min_eigenvalue`` and ``residual`` (the equilibrium residual) are
    floating measurements that no verdict or verification reads.
    ``_measure`` gives the pair the first time either is read, and the
    result is kept.  A built certificate's ``_measure`` runs ``eigvalsh``
    and :func:`equilibrium_residual` on the matrix it was built with; a
    parsed one's returns the recorded pair.  Certificates compare by
    ``omega``, ``rank`` and the coefficients.
    """

    omega: Rows
    rank: int
    lambdas: tuple[Fraction, ...]
    mus: tuple[Fraction, ...]
    _measure: Callable[[], tuple[float, float]] = field(repr=False, compare=False)

    @cached_property
    def measured(self) -> tuple[float, float]:
        """``(min_eigenvalue, residual)``, measured on first read."""
        return self._measure()

    @property
    def min_eigenvalue(self) -> float:
        return self.measured[0]

    @property
    def residual(self) -> float:
        return self.measured[1]

    @property
    def order(self) -> int:
        return len(self.omega)

    def spectral_norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(np.array(self.omega), 2))


def _prescaled(fw: BipartiteFramework) -> tuple[list[list[int]], int, int]:
    """All points cleared by one common denominator ``c`` to ``X = c p``, ``c`` and the shift.

    The shift ``k`` is the least one with every ``|X| / 2**k`` at most
    ``COORD_CAP``.
    """
    d = fw.dimension
    flat, c = _clear([v for pt in fw.all_points() for v in pt])
    ints = [flat[k * d : k * d + d] for k in range(fw.n + fw.m)]
    peak = max(map(abs, flat), default=0)
    shift = (-(-peak // COORD_CAP) - 1).bit_length() if peak > COORD_CAP else 0
    return ints, c, shift


def _hatted(fw: BipartiteFramework) -> Any:
    """The (d+1) x (n+m) prescaled configuration matrix with a row of ones.

    Each coordinate is one correctly rounded division ``X / 2**k`` of the
    integer copy, so it equals ``float`` of the prescaled rational.
    """
    import numpy as np

    ints, _, shift = _prescaled(fw)
    den = 1 << shift
    return np.array([[v / den for v in pt] + [1.0] for pt in ints]).T


def _cross_block(fw: BipartiteFramework, lambdas, mus) -> tuple[list[list[int]], int, int]:
    """The cross block ``B = -L P^^T X`` as integer numerators over one denominator.

    On the hats and weights of :func:`~.geometry._balance`, ``a_k c_k h_k``
    is ``W coeff_k p^_k``; ``[W G | W Q^ M]`` is row reduced on integers, and
    ``X`` takes the reduced right side in its pivot rows and zeros
    elsewhere (balance keeps every pivot off the right side).  Returns the
    numerators ``-a_i c_i h_i^T X_j``, their denominator ``W den`` and
    ``rank G`` (the pivot count).
    """
    hat, n = fw.dimension + 1, fw.n
    balanced = _balance(fw, lambdas, mus)
    if balanced is None:
        raise DegenerateInput("coefficients do not balance the lifted classes")
    hats, weights, w, upper = balanced
    rhs = [[b * q[-1] * v for v in q] for q, b in zip(hats[n:], weights[n:])]
    gram = SymmetricMatrix(hat, tuple(upper)).rows()
    system = [row + [q[i] for q in rhs] for i, row in enumerate(gram)]
    pivots, den = _reduce_ints(system)
    x = [[0] * fw.m for _ in range(hat)]
    for row, col in zip(system, pivots):
        x[col] = row[hat:]
    nums = [
        [-a * p[-1] * sum(c * x[k][j] for k, c in enumerate(p)) for j in range(fw.m)]
        for p, a in zip(hats[:n], weights)
    ]
    return nums, w * den, len(pivots)


def _exact_stress(
    fw: BipartiteFramework, lambdas: Sequence[Fraction], mus: Sequence[Fraction]
) -> tuple[Rows, int]:
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
    cross = [[v / den for v in row] for row in nums]
    rows = []
    for i, (lam, row) in enumerate(zip(lambdas, cross)):
        head = [0.0] * n
        head[i] = float(lam)
        rows.append(tuple(head + row))
    for j, mu in enumerate(mus):
        tail = [0.0] * m
        tail[j] = float(mu)
        rows.append(tuple([row[j] for row in cross] + tail))
    return tuple(rows), n + m - rank_g


def _null_basis(matrix: Any, rank: int) -> Any:
    """Orthonormal columns spanning the null space of a rank-``rank`` matrix."""
    import numpy as np

    _, _, vt = np.linalg.svd(matrix, full_matrices=True)
    return vt[rank:].T


def _certificate(
    fw: BipartiteFramework,
    omega: Rows,
    lambdas: Sequence[Fraction],
    mus: Sequence[Fraction],
    rank: int,
) -> StressCertificate:
    """Record ``omega``; its least eigenvalue and residual wait for a read."""

    def measure() -> tuple[float, float]:
        import numpy as np

        matrix = np.array(omega)
        return float(np.linalg.eigvalsh(matrix)[0]), equilibrium_residual(matrix, fw)

    return StressCertificate(omega, rank, tuple(lambdas), tuple(mus), measure)


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
    drops the rank by one, so the rank recorded here is numerical: it
    counts eigenvalues above ``RANK_TOL`` relative to the spectral norm (or
    to one, when the norm is smaller).
    """
    import numpy as np

    rows, rank = _exact_stress(fw, lambdas, mus)
    n, m = fw.n, fw.m
    r = n + m - rank  # rank G, one more than the span dimension
    pairs = min(n - r, m - r)
    if len(coupling) != pairs:
        raise ShapeMismatch(f"coupling expects {pairs} diagonal values, got {len(coupling)}")
    omega = np.array(rows)
    if pairs:
        hatted = _hatted(fw)
        sqrt_l = np.sqrt([float(v) for v in lambdas])
        sqrt_m = np.sqrt([float(v) for v in mus])
        null_p = _null_basis(hatted[:, :n] * sqrt_l, r)[:, :pairs]
        null_q = _null_basis(hatted[:, n:] * sqrt_m, r)[:, :pairs]
        values = np.array([float(v) for v in coupling])
        omega[:n, n:] += (sqrt_l[:, None] * null_p * values) @ (sqrt_m[:, None] * null_q).T
        omega[n:, :n] = omega[:n, n:].T
    evals = np.linalg.eigvalsh(omega)
    spectral = float(np.max(np.abs(evals)))
    rank = int(np.sum(evals > RANK_TOL * max(spectral, 1.0)))
    return _certificate(fw, tuple(map(tuple, omega.tolist())), lambdas, mus, rank)


def equilibrium_residual(omega: Any, fw: BipartiteFramework) -> float:
    """Max-norm equilibrium defect of a stress matrix for a framework.

    ``omega`` is tuple rows or an array.  Evaluates the hatted
    configuration matrix (of the canonically rescaled framework) times the
    stress matrix; a row of ones is included, so zero row sums are part of
    the check.  Returns the largest absolute entry.
    """
    import numpy as np

    omega = np.asarray(omega, dtype=float)
    total = fw.n + fw.m
    if omega.shape != (total, total):
        raise ShapeMismatch("stress order does not match the vertex count")
    return float(np.max(np.abs(_hatted(fw) @ omega)))


def extract_balanced_diagonals(
    omega: Any, fw: BipartiteFramework, tol: float = RESIDUAL_TOL
) -> tuple[Any, Any, bool]:
    """Read the diagonal coefficient blocks back out of a stress matrix.

    ``omega`` is tuple rows or an array.  The matrix must carry the
    bipartite zero pattern exactly (any nonzero off-diagonal entry inside
    a class block raises :class:`PatternViolation`).  Returns the two
    diagonals as arrays and whether they balance the lifted classes within
    ``tol`` in floating point.
    """
    import numpy as np

    omega = np.asarray(omega, dtype=float)
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
    too large for a double and for an ``omega`` that is not a tuple of
    tuple rows.  Row comparison by ``==`` takes ``-0.0`` for ``0.0``, and
    a NaN equals nothing.
    """
    if not isinstance(cert.omega, tuple) or not all(
        isinstance(row, tuple) for row in cert.omega
    ):
        return False
    try:
        omega, rank = _exact_stress(fw, cert.lambdas, cert.mus)
    except (ShapeMismatch, DegenerateInput, OverflowError):
        return False
    return cert.rank == rank and cert.omega == omega
