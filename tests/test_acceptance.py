"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from fractions import Fraction as F

import numpy as np

from bipartite_rigidity.engine import Verdict, _reduce, rigidity_test, verify_chain
from bipartite_rigidity.fixtures import fixture
from bipartite_rigidity.geometry import BipartiteFramework, affine_span_dim
from bipartite_rigidity.reduction import KnownSet
from bipartite_rigidity.separation import (
    RadonCertificate,
    SeparationCertificate,
    max_margin_quadric,
    maximal_support_radon,
    verify_radon,
    verify_separation,
)
from bipartite_rigidity.stress import (
    RANK_TOL,
    extract_balanced_diagonals,
    generalized_stress,
)
from conftest import line_strictly_separable, random_framework, random_line_framework


def _report(number: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not problems, "; ".join(problems)


def _balanced_subframeworks(fw: BipartiteFramework, chain):
    """Yield (record, support subframework in reduced coordinates)."""
    for rec in chain.records:
        if rec.kind != "balanced":
            continue
        known = KnownSet.of(rec.known_p, rec.known_q)
        _, _, red_p, red_q = _reduce(fw, known, known.complement(fw))
        sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
        yield rec, sub.subframework(rec.radon.support_p, rec.radon.support_q)


FIXTURE_VERDICTS = [
    ("k11", Verdict.UNIVERSALLY_RIGID),
    ("k22_line", Verdict.UNIVERSALLY_RIGID),
    ("separated_line", Verdict.NOT_DIMENSIONALLY_RIGID),
    ("k33_conic", Verdict.UNIVERSALLY_RIGID),
    ("k33_split", Verdict.NOT_DIMENSIONALLY_RIGID),
    ("k43_center", Verdict.UNIVERSALLY_RIGID),
    ("cube_k44", Verdict.UNIVERSALLY_RIGID),
    ("flexible_k42", Verdict.NOT_DIMENSIONALLY_RIGID),
    ("projection_k44", Verdict.UNIVERSALLY_RIGID),
    ("triangle_k21", Verdict.DIMENSIONALLY_RIGID_ONLY),
]


def test_criterion_1_fixture_verdicts():
    problems = []
    start = time.time()
    chains = {}
    for name, expected in FIXTURE_VERDICTS:
        fw = fixture(name).framework
        verdict, chain = rigidity_test(fw)
        chains[name] = (fw, chain)
        if verdict is not expected:
            problems.append(f"{name}: {verdict.value} != {expected.value}")
    elapsed = time.time() - start
    # the two-stage space example resolves in exactly two balance passes
    fw, chain = chains["projection_k44"]
    balanced = [r for r in chain.records if r.kind == "balanced"]
    if len(balanced) != 2:
        problems.append(f"projection_k44 used {len(balanced)} balance passes")
    for name, (fw, chain) in chains.items():
        for rec, sub in _balanced_subframeworks(fw, chain):
            from bipartite_rigidity.stress import verify_super_stable_certificate

            if not verify_super_stable_certificate(sub, rec.stress):
                problems.append(f"{name}: stress certificate failed exact check")
    if elapsed >= 1.0:
        problems.append(f"suite took {elapsed:.2f}s (budget 1s)")
    _report(1, "fixture verdict suite", problems)


def test_criterion_2_dichotomy():
    rng = random.Random(20240201)
    problems = []
    start = time.time()
    for k in range(1000):
        fw = random_framework(rng, d_max=3, nm_max=12, coord_bound=16)
        cert = maximal_support_radon(fw)
        matrix, delta = max_margin_quadric(fw)
        balanced = isinstance(cert, RadonCertificate)
        separated = delta > 0
        if balanced == separated:
            problems.append(f"instance {k}: balanced={balanced} separated={separated}")
            break
        if balanced and not verify_radon(fw, cert):
            problems.append(f"instance {k}: balance certificate failed")
            break
        if separated and not verify_separation(
            SeparationCertificate(matrix=matrix, delta=delta), fw
        ):
            problems.append(f"instance {k}: separation certificate failed")
            break
        if separated and not (verify_separation(cert, fw) and cert.delta <= delta):
            problems.append(f"instance {k}: Farkas separation certificate failed")
            break
    elapsed = time.time() - start
    if elapsed >= 60:
        problems.append(f"dichotomy sweep took {elapsed:.0f}s (budget 60s)")
    _report(2, "dichotomy on 1000 random frameworks", problems)


def test_criterion_3_line_oracle():
    rng = random.Random(20240301)
    problems = []
    for k in range(500):
        fw = random_line_framework(rng)
        verdict, _ = rigidity_test(fw)
        expect_ur = not line_strictly_separable(fw)
        if (verdict is Verdict.UNIVERSALLY_RIGID) != expect_ur:
            problems.append(f"instance {k}: verdict {verdict.value}, oracle {expect_ur}")
            break
    _report(3, "cut-pair oracle on 500 line frameworks", problems)


def test_criterion_4_stress_invariants():
    rng = random.Random(20240401)
    problems = []
    cases = [fixture(name).framework for name, v in FIXTURE_VERDICTS
             if v is Verdict.UNIVERSALLY_RIGID]
    cases += [fixture(n).framework for n in ("k65", "k64", "k55", "pinned_k32")]
    cases += [random_framework(rng, d_max=3, nm_max=9) for _ in range(60)]
    checked = 0
    for fw in cases:
        verdict, chain = rigidity_test(fw)
        if verdict is not Verdict.UNIVERSALLY_RIGID:
            continue
        for rec, sub in _balanced_subframeworks(fw, chain):
            omega = rec.stress.omega
            coeffs = [float(v) for v in rec.stress.lambdas + rec.stress.mus]
            diag = np.diag(omega)
            rel = np.max(np.abs(diag - coeffs) / np.maximum(np.abs(coeffs), 1e-300))
            if rel > 1e-12:
                problems.append(f"diagonal drift {rel:.2e}")
            if rec.stress.residual > 1e-8:
                problems.append(f"equilibrium residual {rec.stress.residual:.2e}")
            evals = np.linalg.eigvalsh(omega)
            spectral = float(np.max(np.abs(evals)))
            if evals[0] < -1e-8 * spectral:
                problems.append(f"negative eigenvalue {evals[0]:.2e}")
            expected_rank = sub.n + sub.m - affine_span_dim(sub.all_points()) - 1
            rank = int(np.sum(evals > 1e-8 * max(spectral, 1.0)))
            if rank != expected_rank or rec.stress.rank != expected_rank:
                problems.append(f"rank {rank} != {expected_rank}")
            checked += 1
    if checked < 10:
        problems.append(f"only {checked} certificates exercised")
    _report(4, "chained stress certificate invariants", problems)


def test_criterion_5_coupling_sweep():
    problems = []
    fw = fixture("k65").framework
    cert = maximal_support_radon(fw)
    if not isinstance(cert, RadonCertificate) or len(cert.support_p) != 6 or len(cert.support_q) != 5:
        problems.append("space fixture lost its full support")
    else:
        flags = []
        ranks = []
        for c in (-2, -1, F(-1, 2), 0, F(1, 2), 1, 2):
            stress = generalized_stress(fw, cert.lambdas, cert.mus, [c])
            spectral = stress.spectral_norm()
            flags.append(stress.min_eigenvalue >= -RANK_TOL * max(spectral, 1.0))
            ranks.append(stress.rank)
        if flags != [False, True, True, True, True, True, False]:
            problems.append(f"psd flags {flags}")
        base = 11 - 3 - 1
        if ranks[3] != base or ranks[1] != base - 1 or ranks[5] != base - 1:
            problems.append(f"ranks {ranks}")
    _report(5, "coupling sweep on the space fixture", problems)


def test_criterion_6_termination_and_speed():
    rng = random.Random(20240601)
    problems = []
    for _ in range(80):
        fw = random_framework(rng, d_max=3, nm_max=10)
        _, chain = rigidity_test(fw)
        if len(chain.records) > fw.n + fw.m:
            problems.append(f"{len(chain.records)} records for n+m={fw.n + fw.m}")
            break
    times = []
    for _ in range(7):
        def pt():
            return tuple(F(rng.randint(-16, 16), rng.randint(1, 16)) for _ in range(3))
        fw = BipartiteFramework(3, tuple(pt() for _ in range(10)), tuple(pt() for _ in range(10)))
        t0 = time.time()
        _, chain = rigidity_test(fw)
        times.append(time.time() - t0)
        if len(chain.records) > 20:
            problems.append("termination bound violated on a 20-vertex run")
    median = statistics.median(times)
    if median >= 5.0:
        problems.append(f"median {median:.2f}s for K(10,10) (budget 5s)")
    _report(6, "termination bound and desk-scale speed", problems)


def test_criterion_7_balance_round_trip():
    problems = []
    for name, expected in FIXTURE_VERDICTS + [("k65", Verdict.UNIVERSALLY_RIGID),
                                              ("k64", Verdict.UNIVERSALLY_RIGID),
                                              ("k55", Verdict.UNIVERSALLY_RIGID),
                                              ("pinned_k32", Verdict.UNIVERSALLY_RIGID)]:
        if expected is not Verdict.UNIVERSALLY_RIGID:
            continue
        fw = fixture(name).framework
        _, chain = rigidity_test(fw)
        for rec, sub in _balanced_subframeworks(fw, chain):
            lambdas, mus, ok = extract_balanced_diagonals(rec.stress.omega, sub, tol=1e-8)
            if not ok:
                problems.append(f"{name}: balance identity above 1e-8")
            want = [float(v) for v in rec.stress.lambdas + rec.stress.mus]
            got = list(lambdas) + list(mus)
            if np.max(np.abs(np.array(got) - want)) > 1e-10:
                problems.append(f"{name}: recovered coefficients drifted")
    _report(7, "diagonal extraction round trip", problems)


def test_criterion_8_chain_replay_and_mutation():
    problems = []
    rng = random.Random(20240801)
    cases = [fixture(name).framework for name, _ in FIXTURE_VERDICTS]
    cases += [random_framework(rng, d_max=2, nm_max=8) for _ in range(25)]
    for idx, fw in enumerate(cases):
        verdict, chain = rigidity_test(fw)
        if not verify_chain(fw, chain):
            problems.append(f"case {idx}: fresh chain rejected")
            continue
        rec = chain.records[0]
        mutants = []
        if rec.radon is not None:
            # negate the first strictly positive coefficient
            pos = rec.radon.support_p[0]
            lams = list(rec.radon.lambdas)
            lams[pos] = -lams[pos]
            flipped = dataclasses.replace(rec.radon, lambdas=tuple(lams))
            mutants.append(dataclasses.replace(rec, radon=flipped))
        if rec.support_p:
            # repoint a support index at a different vertex
            spare = next(
                (i for i in range(fw.n) if i not in rec.support_p), None
            )
            if spare is not None:
                swapped = (spare,) + rec.support_p[1:]
                mutants.append(dataclasses.replace(rec, support_p=swapped))
        for mutant in mutants:
            bad = dataclasses.replace(
                chain, records=(mutant,) + chain.records[1:]
            )
            if verify_chain(fw, bad):
                problems.append(f"case {idx}: mutated record accepted")
        # coordinate edit in the echoed input
        moved = BipartiteFramework(
            fw.dimension,
            (tuple(c + 1 for c in fw.points_p[0]),) + fw.points_p[1:],
            fw.points_q,
        )
        bad = dataclasses.replace(chain, framework=moved)
        if verify_chain(fw, bad):
            problems.append(f"case {idx}: edited echo accepted")
    _report(8, "chain replay and mutation rejection", problems)
