"""Balance certificates, max-margin quadrics, and the dichotomy between them."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from bipartite_rigidity.geometry import BipartiteFramework, SymmetricMatrix, veronese
from bipartite_rigidity.lp import ZERO
from bipartite_rigidity.separation import (
    EmptySide,
    RadonCertificate,
    SeparationCertificate,
    max_margin_quadric,
    maximal_support_radon,
    verify_radon,
    verify_separation,
)
from conftest import random_framework


def line_fw(p_vals, q_vals):
    return BipartiteFramework.from_lists(1, [[v] for v in p_vals], [[v] for v in q_vals])


ALTERNATING = line_fw([0, 2], [1, 3])
SPLIT = line_fw([0, 1], [2, 3])


def test_margin_positive_for_split_line():
    matrix, delta = max_margin_quadric(SPLIT)
    assert delta >= F(1, 3)
    cert = SeparationCertificate(matrix=matrix, delta=delta)
    assert verify_separation(cert, SPLIT)


def test_margin_zero_for_alternating_line():
    _, delta = max_margin_quadric(ALTERNATING)
    assert delta == 0


def test_explicit_line_separator():
    # The quadric 1 - 2x/3 takes values (1, 1/3, -1/3, -1) on 0..3.
    matrix = SymmetricMatrix.from_rows([[0, F(-1, 3)], [F(-1, 3), 1]])
    cert = SeparationCertificate(matrix=matrix, delta=F(1, 3))
    assert verify_separation(cert, SPLIT)
    assert not verify_separation(cert, ALTERNATING)


def test_zero_matrix_never_separates():
    cert = SeparationCertificate(matrix=SymmetricMatrix.zeros(2), delta=ZERO)
    assert not verify_separation(cert, SPLIT)


def test_conic_two_lines_separates_plane_classes():
    # Classes on the unit circle split by a pair of horizontal lines.
    def circle(t):
        t = F(t)
        return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]

    fw = BipartiteFramework.from_lists(
        2,
        [circle(1), circle(-1), circle(3)],
        [circle(0), circle(F(1, 5)), circle(F(-1, 5))],
    )
    matrix, delta = max_margin_quadric(fw)
    assert delta > 0
    assert verify_separation(SeparationCertificate(matrix=matrix, delta=delta), fw)


def test_radon_alternating_line_exact_values():
    cert = maximal_support_radon(ALTERNATING)
    assert isinstance(cert, RadonCertificate)
    assert cert.lambdas == (F(1, 4), F(3, 4))
    assert cert.mus == (F(3, 4), F(1, 4))
    assert verify_radon(ALTERNATING, cert)
    # both sides equal [[3, 3/2], [3/2, 1]]
    acc = [ZERO] * 3
    for coef, pt in zip(cert.lambdas, ALTERNATING.points_p):
        for k, v in enumerate(veronese(pt).upper):
            acc[k] += coef * v
    assert acc == [F(3), F(3, 2), F(1)]


def test_radon_absent_for_split_line():
    cert = maximal_support_radon(SPLIT)
    assert isinstance(cert, SeparationCertificate)
    assert verify_separation(cert, SPLIT)
    _, delta = max_margin_quadric(SPLIT)
    assert cert.delta <= delta


def test_radon_absent_for_distinct_pair():
    fw = BipartiteFramework.from_lists(2, [[0, 0]], [[1, 0]])
    cert = maximal_support_radon(fw)
    assert isinstance(cert, SeparationCertificate)
    assert verify_separation(cert, fw)


def test_maximal_support_full_on_alternating_line():
    cert = maximal_support_radon(ALTERNATING)
    assert cert.support_p == (0, 1)
    assert cert.support_q == (0, 1)


def test_maximal_support_omits_conic_center():
    def circle(t):
        t = F(t)
        return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]

    fw = BipartiteFramework.from_lists(
        2,
        [circle(0), circle(1), circle(3), [0, 0]],
        [circle(F(1, 2)), circle(2), circle(-1)],
    )
    cert = maximal_support_radon(fw)
    assert isinstance(cert, RadonCertificate)
    assert cert.support_p == (0, 1, 2)  # the center vertex carries nothing
    assert cert.support_q == (0, 1, 2)
    assert verify_radon(fw, cert)


def test_support_maximality_is_exact(rng):
    # Every index outside the returned support has LP-max exactly zero
    # over the feasible region.  Exercised on fixtures with forced-zero
    # coefficients plus a handful of random instances.
    from bipartite_rigidity import lp
    from bipartite_rigidity.fixtures import fixture
    from bipartite_rigidity.separation import _radon_problem

    cases = [
        fixture("k43_center").framework,
        BipartiteFramework.from_lists(
            2, [[0, 0], [2, 0], [1, 1], [1, -1]], [[1, 0], [3, 0]]
        ),
    ]
    cases += [random_framework(rng, d_max=2, nm_max=8) for _ in range(15)]
    checked = 0
    for fw in cases:
        cert = maximal_support_radon(fw)
        if isinstance(cert, SeparationCertificate):
            assert verify_separation(cert, fw)
            continue
        base = _radon_problem(fw)
        values = cert.lambdas + cert.mus
        for coord, val in enumerate(values):
            if val > 0:
                continue
            obj = [ZERO] * (fw.n + fw.m)
            obj[coord] = F(1)
            prob = lp.LPProblem(
                rows=base.rows,
                rhs=base.rhs,
                nonnegative=base.nonnegative,
                upper=base.upper,
                objective=tuple(obj),
            )
            out = lp.maximize(prob)
            assert out.status is lp.LPStatus.OPTIMAL
            assert out.value == 0
            checked += 1
    assert checked >= 2  # the center vertex and an off-line vertex at least


def test_dichotomy_random(rng):
    for _ in range(120):
        fw = random_framework(rng, d_max=3, nm_max=9)
        cert = maximal_support_radon(fw)
        matrix, delta = max_margin_quadric(fw)
        assert isinstance(cert, SeparationCertificate) == (delta > 0)
        if isinstance(cert, SeparationCertificate):
            assert verify_separation(cert, fw)
            assert cert.delta <= delta
            assert verify_separation(
                SeparationCertificate(matrix=matrix, delta=delta), fw
            )
        else:
            assert verify_radon(fw, cert)


def test_certificate_existence_affine_invariant(rng):
    for _ in range(25):
        fw = random_framework(rng, d_max=2, nm_max=7)
        d = fw.dimension
        shift = tuple(F(rng.randint(-3, 3)) for _ in range(d))
        lower = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j < i else F(0)) for j in range(d)] for i in range(d)]
        upper = [[F(1) if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(d)] for i in range(d)]

        def apply(v):
            w = tuple(sum(upper[i][j] * v[j] for j in range(d)) for i in range(d))
            w = tuple(sum(lower[i][j] * w[j] for j in range(d)) for i in range(d))
            return tuple(a + s for a, s in zip(w, shift))

        mapped = BipartiteFramework(
            d,
            tuple(apply(p) for p in fw.points_p),
            tuple(apply(q) for q in fw.points_q),
        )
        assert isinstance(maximal_support_radon(fw), SeparationCertificate) == (
            isinstance(maximal_support_radon(mapped), SeparationCertificate)
        )


def test_empty_side_rejected():
    fw = BipartiteFramework.from_lists(1, [[0]], [])
    with pytest.raises(EmptySide):
        max_margin_quadric(fw)
    with pytest.raises(EmptySide):
        maximal_support_radon(fw)


def test_verify_radon_rejects_corruption():
    cert = maximal_support_radon(ALTERNATING)
    bad = RadonCertificate(lambdas=(-cert.lambdas[0], cert.lambdas[1]), mus=cert.mus)
    assert not verify_radon(ALTERNATING, bad)
    bad2 = RadonCertificate(lambdas=cert.mus, mus=cert.lambdas)
    assert not verify_radon(ALTERNATING, bad2)
