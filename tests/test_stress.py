"""Stress construction: PSD rank, equilibrium, diagonals, coupling sweep."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from bipartite_rigidity import engine, stress
from bipartite_rigidity.engine import rigidity_test, verify_chain
from bipartite_rigidity.fixtures import all_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework, _balance, _hats, affine_span_dim
from bipartite_rigidity.lp import ONE
from bipartite_rigidity.separation import RadonCertificate, maximal_support_radon
from bipartite_rigidity.stress import (
    RANK_TOL,
    DegenerateInput,
    PatternViolation,
    ShapeMismatch,
    StressCertificate,
    _cross_block,
    _hatted,
    build_super_stable_stress,
    equilibrium_residual,
    extract_balanced_diagonals,
    generalized_stress,
    verify_super_stable_certificate,
)
from conftest import flag, fraction_rref, k10x10, thin_image

ALTERNATING = BipartiteFramework.from_lists(1, [[0], [2]], [[1], [3]])
ALT_LAMBDAS = (F(1, 4), F(3, 4))
ALT_MUS = (F(3, 4), F(1, 4))


def alt_cert() -> StressCertificate:
    return build_super_stable_stress(ALTERNATING, ALT_LAMBDAS, ALT_MUS)


def as_rows(matrix) -> tuple:
    """A matrix as the tuple of float rows a certificate holds."""
    return tuple(map(tuple, np.asarray(matrix, dtype=float).tolist()))


def test_alternating_line_certificate():
    cert = alt_cert()
    assert cert.order == 4
    assert cert.rank == 2  # 2 + 2 - 1 - 1
    assert np.allclose(np.diag(cert.omega), [0.25, 0.75, 0.75, 0.25], atol=1e-12)
    assert cert.min_eigenvalue >= -1e-9
    assert cert.residual <= 1e-12
    # independent eigendecomposition confirms PSD and rank
    evals = np.linalg.eigvalsh(cert.omega)
    assert evals[0] >= -1e-12
    assert np.sum(evals > 1e-8) == 2


def test_cube_certificate_rank():
    fw = fixture("cube_k44").framework
    cert = build_super_stable_stress(fw, (F(1, 4),) * 4, (F(1, 4),) * 4)
    assert cert.rank == 4  # 8 - 3 - 1
    assert verify_super_stable_certificate(fw, cert)


def test_zero_coefficient_rejected():
    with pytest.raises(DegenerateInput):
        build_super_stable_stress(ALTERNATING, (F(0), F(1)), ALT_MUS)


def test_unbalanced_coefficients_rejected():
    with pytest.raises(DegenerateInput):
        build_super_stable_stress(ALTERNATING, (F(1, 2), F(1, 2)), ALT_MUS)


def test_diagonal_matches_input_exactly():
    omega = np.array(alt_cert().omega)
    expected = [float(v) for v in ALT_LAMBDAS + ALT_MUS]
    assert np.max(np.abs(np.diag(omega) - expected)) <= 1e-12 * max(expected)
    # class blocks are structurally diagonal
    assert np.all(omega[:2, :2] == np.diag(np.diag(omega[:2, :2])))
    assert np.all(omega[2:, 2:] == np.diag(np.diag(omega[2:, 2:])))


def test_kernel_contains_configuration_rows():
    cert = alt_cert()
    assert np.max(np.abs(_hatted(ALTERNATING) @ cert.omega)) <= 1e-12


def test_scaling_homogeneity():
    cert = alt_cert()
    t = F(4)
    scaled = build_super_stable_stress(
        ALTERNATING, tuple(t * v for v in ALT_LAMBDAS), tuple(t * v for v in ALT_MUS)
    )
    assert np.allclose(scaled.omega, 4.0 * np.array(cert.omega), atol=1e-12)


def test_equilibrium_residual_zero_matrix():
    assert equilibrium_residual(np.zeros((4, 4)), ALTERNATING) == 0.0


def test_equilibrium_residual_perturbation():
    cert = alt_cert()
    assert cert.residual <= 1e-12
    bumped = np.array(cert.omega)
    bumped[0, 2] += 1.0
    assert equilibrium_residual(bumped, ALTERNATING) >= F(1, 3)


def test_equilibrium_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        equilibrium_residual(np.zeros((3, 3)), ALTERNATING)


def test_extract_diagonals_round_trip():
    cert = alt_cert()
    lambdas, mus, ok = extract_balanced_diagonals(cert.omega, ALTERNATING)
    assert ok
    assert np.allclose(lambdas, [0.25, 0.75], atol=1e-10)
    assert np.allclose(mus, [0.75, 0.25], atol=1e-10)


def test_extract_zero_matrix():
    lambdas, mus, ok = extract_balanced_diagonals(np.zeros((4, 4)), ALTERNATING)
    assert ok and not lambdas.any() and not mus.any()


def test_extract_rejects_unbalanced_or_patterned():
    split = BipartiteFramework.from_lists(1, [[0], [1]], [[2], [3]])
    omega = np.eye(4)
    omega[0, 2] = omega[2, 0] = 0.5
    lambdas, mus, ok = extract_balanced_diagonals(omega, split)
    assert not ok  # identity diagonals cannot balance a separated pair
    bad = np.eye(4)
    bad[0, 1] = bad[1, 0] = 0.25  # inside the P block
    with pytest.raises(PatternViolation):
        extract_balanced_diagonals(bad, split)


def test_verify_certificate_checks():
    cert = alt_cert()
    assert verify_super_stable_certificate(ALTERNATING, cert)
    translated = BipartiteFramework.from_lists(1, [[7], [9]], [[8], [10]])
    assert verify_super_stable_certificate(translated, cert)
    wrong_rank = dataclasses.replace(cert, rank=cert.rank + 1)
    assert not verify_super_stable_certificate(ALTERNATING, wrong_rank)


def test_verify_rejects_non_finite_entries():
    # NaN or an infinity on either side of the diagonal is a rejection, not
    # an eigensolver error and not an acceptance; so are balanced
    # coefficients too large for a double.
    fw = fixture("cube_k44").framework
    cert = build_super_stable_stress(fw, (F(1, 4),) * 4, (F(1, 4),) * 4)
    for value in (np.nan, np.inf, -np.inf):
        for entry in ((0, 0), (0, 5), (5, 0)):
            omega = np.array(cert.omega)
            omega[entry] = value
            bad = dataclasses.replace(cert, omega=as_rows(omega))
            assert verify_super_stable_certificate(fw, bad) is False, (value, entry)
    huge = dataclasses.replace(cert, lambdas=(F(10**400),) * 4, mus=(F(10**400),) * 4)
    assert verify_super_stable_certificate(fw, huge) is False


def test_verify_rejects_edited_certificates():
    # On cube_k44, p0 + p1 - q0 - q1 = 0 on the hatted points, so adding a
    # multiple of z to a column leaves the equilibrium residual at zero.
    # An edit above the diagonal is invisible to a one-triangle eigensolver,
    # and z z^T keeps the matrix PSD of the same rank while it puts an entry
    # inside the P block; neither is a bipartite stress.  A cross-block pair
    # moved by one ulp or by 1e-10 stays within any float tolerance, and
    # coefficients that no longer match omega, or that are negative, leave
    # omega itself untouched; none of them is the exact certificate.
    fw = fixture("cube_k44").framework
    _, chain = rigidity_test(fw)
    rec = chain.records[0]
    assert rec.kind == "balanced" and (rec.support_p, rec.support_q) == ((0, 1, 2, 3),) * 2
    assert verify_chain(fw, chain)
    cert = rec.stress
    exact = np.array(cert.omega)
    z = np.array([1.0, 1, 0, 0, -1, -1, 0, 0])
    upper = exact.copy()
    upper[:, 7] += 5 * z
    for omega in (upper, exact + np.outer(z, z)):
        assert equilibrium_residual(omega, fw) == 0
    ulp = exact.copy()
    ulp[0, 5] = ulp[5, 0] = np.nextafter(ulp[0, 5], np.inf)
    nudged = exact.copy()
    nudged[0, 5] = nudged[5, 0] = nudged[0, 5] + 1e-10
    edits = [
        dataclasses.replace(cert, omega=as_rows(omega))
        for omega in (upper, exact + np.outer(z, z), ulp, nudged)
    ] + [
        dataclasses.replace(
            cert,
            lambdas=tuple(2 * v for v in cert.lambdas),
            mus=tuple(2 * v for v in cert.mus),
        ),
        dataclasses.replace(cert, mus=cert.mus[:-1]),
        dataclasses.replace(
            cert, lambdas=tuple(-v for v in cert.lambdas), mus=tuple(-v for v in cert.mus)
        ),
    ]
    for k, bad in enumerate(edits):
        assert verify_super_stable_certificate(fw, bad) is False, k
        edited = dataclasses.replace(rec, stress=bad)
        assert not verify_chain(fw, dataclasses.replace(chain, records=(edited,) + chain.records[1:]))


def test_verify_rejects_omega_of_another_shape():
    # Only a tuple of tuple rows can equal the closed form: an array, lists
    # or ragged rows are a rejection, not an error.
    fw = fixture("cube_k44").framework
    cert = build_super_stable_stress(fw, (F(1, 4),) * 4, (F(1, 4),) * 4)
    assert verify_super_stable_certificate(fw, cert)
    rows = cert.omega
    for omega in (
        np.array(rows),
        [list(row) for row in rows],
        list(rows),
        tuple(np.array(row) for row in rows),
        rows[:-1],
        rows[:-1] + (rows[-1][:-1],),
        rows[:-1] + (rows[-1] + (0.0,),),
    ):
        bad = dataclasses.replace(cert, omega=omega)
        assert verify_super_stable_certificate(fw, bad) is False, type(omega)


def test_measurements_wait_for_a_read_and_match_eager_ones(monkeypatch):
    # Deciding runs no eigensolver and no residual; the first read of
    # min_eigenvalue or residual gives exactly what computing them on the
    # built matrix gives, and a second read computes nothing.
    built = []
    original = engine.build_super_stable_stress

    def recording(fw, lambdas, mus):
        cert = original(fw, lambdas, mus)
        built.append((fw, cert))
        return cert

    def boom(*args, **kwargs):
        raise AssertionError("measured before a read")

    monkeypatch.setattr(engine, "build_super_stable_stress", recording)
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "eigvalsh", boom)
        patched.setattr(stress, "equilibrium_residual", boom)
        for fw in (
            [fx.framework for fx in all_fixtures().values()]
            + [k10x10(seed) for seed in (1, 2, 3)]
            + [flag(seed) for seed in range(1, 6)]
        ):
            rigidity_test(fw)
    assert len(built) >= 20
    for fw, cert in built:
        matrix = np.array(cert.omega)
        assert cert.min_eigenvalue == float(np.linalg.eigvalsh(matrix)[0])
        assert cert.residual == equilibrium_residual(matrix, fw)
        assert (cert.min_eigenvalue, cert.residual) == cert.measured
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    assert all(cert.min_eigenvalue is cert.measured[0] for _, cert in built)


def test_generalized_zero_coupling_matches_base():
    fw = fixture("k65").framework
    cert = maximal_support_radon(fw)
    base = build_super_stable_stress(fw, cert.lambdas, cert.mus)
    general = generalized_stress(fw, cert.lambdas, cert.mus, [0])
    assert np.allclose(base.omega, general.omega, atol=1e-12)


def test_generalized_coupling_must_fit():
    fw = fixture("k65").framework
    cert = maximal_support_radon(fw)
    with pytest.raises(ShapeMismatch):
        generalized_stress(fw, cert.lambdas, cert.mus, [0, 0])


def test_alternating_line_has_empty_coupling():
    cert = maximal_support_radon(ALTERNATING)
    general = generalized_stress(ALTERNATING, cert.lambdas, cert.mus, [])
    base = alt_cert()
    assert np.allclose(base.omega, general.omega, atol=1e-15)


def test_coupling_sweep_psd_and_rank():
    fw = fixture("k65").framework
    cert = maximal_support_radon(fw)
    flags = []
    ranks = []
    for c in (-2, -1, F(-1, 2), 0, F(1, 2), 1, 2):
        stress = generalized_stress(fw, cert.lambdas, cert.mus, [c])
        spectral = stress.spectral_norm()
        flags.append(stress.min_eigenvalue >= -RANK_TOL * max(spectral, 1.0))
        ranks.append(stress.rank)
    assert flags == [False, True, True, True, True, True, False]
    assert ranks[1] == ranks[3] - 1  # rank drops by one at coupling -1
    assert ranks[5] == ranks[3] - 1  # and at +1
    assert ranks[3] == 11 - 3 - 1


def balanced_supports():
    """Every balanced fixture's maximal-support subframework and coefficients."""
    for fx in all_fixtures().values():
        if fx.framework.m == 0:
            continue
        cert = maximal_support_radon(fx.framework)
        if not isinstance(cert, RadonCertificate):
            continue
        fw = fx.framework.subframework(cert.support_p, cert.support_q)
        lambdas = [cert.lambdas[i] for i in cert.support_p]
        mus = [cert.mus[j] for j in cert.support_q]
        yield fw, lambdas, mus


def cross_block(fw, lambdas, mus):
    """:func:`_cross_block` of the coefficients' balance on the points of ``fw``."""
    return _cross_block(_balance(_hats(fw.all_points()), fw.n, lambdas, mus), fw.n)


def test_cross_block_exact_equilibrium():
    # lambda_i p^_i + sum_j B_ij q^_j = 0 and sum_i B_ij p^_i + mu_j q^_j = 0,
    # in rationals, on the balanced support of every balanced fixture.
    balanced = 0
    for fw, lambdas, mus in balanced_supports():
        balanced += 1
        nums, den, _ = cross_block(fw, lambdas, mus)
        cross = [[F(v, den) for v in row] for row in nums]
        p_hat = [tuple(p) + (ONE,) for p in fw.points_p]
        q_hat = [tuple(q) + (ONE,) for q in fw.points_q]
        for k in range(fw.dimension + 1):
            for i in range(fw.n):
                assert lambdas[i] * p_hat[i][k] + sum(
                    cross[i][j] * q_hat[j][k] for j in range(fw.m)
                ) == 0
            for j in range(fw.m):
                assert sum(
                    cross[i][j] * p_hat[i][k] for i in range(fw.n)
                ) + mus[j] * q_hat[j][k] == 0
    assert balanced >= 10


def fraction_cross_block(fw, lambdas, mus):
    """``B = -L P^^T X`` with ``X`` read off the ``Fraction`` RREF of ``[G | Q^ M]`` (conftest)."""
    hat = fw.dimension + 1
    p_hats = [tuple(p) + (ONE,) for p in fw.points_p]
    q_hats = [tuple(q) + (ONE,) for q in fw.points_q]
    system = [
        [sum(lam * p[i] * p[j] for p, lam in zip(p_hats, lambdas)) for j in range(hat)]
        + [mu * q[i] for q, mu in zip(q_hats, mus)]
        for i in range(hat)
    ]
    x = [[F(0)] * fw.m for _ in range(hat)]
    for row, col in zip(system, fraction_rref(system)):
        assert col < hat  # balance keeps every pivot off the right side
        x[col] = row[hat:]
    return [
        [-lam * sum(p[k] * x[k][j] for k in range(hat)) for j in range(fw.m)]
        for p, lam in zip(p_hats, lambdas)
    ]


def test_cross_block_integers_match_fraction_reference():
    # Clearing coordinates (an affine map) and coefficients (degree one)
    # leaves B exactly as the rational construction gives it, on thin
    # images and on coordinates with a new common denominator too; each
    # float conversion is the correctly rounded one.  Positive balance
    # makes the pivot count rank G = d' + 1.
    def shrink(fw, factor=F(1, 7)):
        return BipartiteFramework(
            fw.dimension,
            tuple(tuple(c * factor for c in p) for p in fw.points_p),
            tuple(tuple(c * factor for c in q) for q in fw.points_q),
        )

    checked = 0
    for fw, lambdas, mus in balanced_supports():
        for image in (fw, thin_image(fw), shrink(fw)):
            nums, den, rank_g = cross_block(image, lambdas, mus)
            assert den > 0
            assert rank_g == affine_span_dim(image.all_points()) + 1
            reference = fraction_cross_block(image, lambdas, mus)
            assert [[F(v, den) for v in row] for row in nums] == reference
            for row in nums:
                for v in row:
                    assert v / den == float(F(v, den))
            checked += 1
    assert checked >= 30


def test_cross_block_runs_on_ints():
    # K(10,10) seed 1 balances on its first pass; its cross block is built
    # without a single Fraction.
    fw = k10x10(1)
    cert = maximal_support_radon(fw)
    assert isinstance(cert, RadonCertificate)
    sub = fw.subframework(cert.support_p, cert.support_q)
    nums, den, _ = cross_block(
        sub, [cert.lambdas[i] for i in cert.support_p], [cert.mus[j] for j in cert.support_q]
    )
    assert type(den) is int and den > 0
    assert len(nums) == sub.n and all(len(row) == sub.m for row in nums)
    assert all(type(v) is int for row in nums for v in row)
