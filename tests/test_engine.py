"""Decision loop verdicts, chain replay, batch isolation, and invariants."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

from bipartite_rigidity import stress
from bipartite_rigidity.engine import (
    InvalidInput,
    Verdict,
    rigidity_test,
    rigidity_test_batch,
    verify_chain,
)
from bipartite_rigidity.fixtures import all_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework
from bipartite_rigidity.stress import verify_super_stable_certificate
from conftest import (
    k10x10,
    line_strictly_separable,
    random_framework,
    random_line_framework,
    thin_image,
)


def line_fw(p_vals, q_vals):
    return BipartiteFramework.from_lists(1, [[v] for v in p_vals], [[v] for v in q_vals])


def test_alternating_line_one_pass():
    fw = line_fw([0, 2], [1, 3])
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.UNIVERSALLY_RIGID
    balanced = [r for r in chain.records if r.kind == "balanced"]
    assert len(balanced) == 1
    assert balanced[0].support_p == (0, 1) and balanced[0].support_q == (0, 1)
    assert verify_chain(fw, chain)


def test_separated_line_not_dimensionally_rigid():
    fw = line_fw([0, 1], [2, 3])
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.NOT_DIMENSIONALLY_RIGID
    assert chain.records[-1].kind == "separated"
    assert chain.records[-1].separation is not None
    assert verify_chain(fw, chain)


def test_single_offline_vertex_is_pinned():
    # A certified line core plus one vertex off the line: the vertex is
    # held up to an isometry fixing the core, so the framework is rigid.
    fw = BipartiteFramework.from_lists(2, [[0, 0], [2, 0], [1, 1]], [[1, 0], [3, 0]])
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.UNIVERSALLY_RIGID
    assert [r.kind for r in chain.records] == ["balanced", "exit"]
    assert verify_chain(fw, chain)


def test_two_offline_vertices_flex():
    fw = BipartiteFramework.from_lists(
        2, [[0, 0], [2, 0], [1, 1], [1, -1]], [[1, 0], [3, 0]]
    )
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.NOT_DIMENSIONALLY_RIGID
    assert [r.kind for r in chain.records] == ["balanced", "one-sided"]
    assert verify_chain(fw, chain)


def test_hinge_is_dimensionally_rigid_only():
    fw = BipartiteFramework.from_lists(2, [[0, 0], [2, 0]], [[1, 1]])
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.DIMENSIONALLY_RIGID_ONLY
    assert chain.records[-1].kind == "dimspan"
    assert verify_chain(fw, chain)


def test_cube_parity_split():
    fw = BipartiteFramework.from_lists(
        3,
        [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    )
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.UNIVERSALLY_RIGID
    assert verify_chain(fw, chain)


TWO_PASS = BipartiteFramework.from_lists(
    3,
    [[0, 0, 0], [0, 0, 2], [0, 2, 1], [4, 2, -1]],
    [[0, 0, 1], [0, 0, 3], [3, 3, 2], [3, 1, 0]],
)


def test_two_pass_projection_example():
    fw = TWO_PASS
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.UNIVERSALLY_RIGID
    assert [r.kind for r in chain.records] == ["balanced", "balanced", "exit"]
    # the second pass reduces through a cone point and a slide functional
    assert chain.records[1].cone_point is not None
    assert chain.records[1].functional is not None
    assert verify_chain(fw, chain)


def test_tiny_inputs():
    assert rigidity_test(line_fw([0], [1]))[0] is Verdict.UNIVERSALLY_RIGID
    assert rigidity_test(line_fw([0], []))[0] is Verdict.UNIVERSALLY_RIGID
    # two loose distinct vertices of one class: rigid in dimension only
    assert rigidity_test(line_fw([0, 1], []))[0] is Verdict.DIMENSIONALLY_RIGID_ONLY
    # two coincident loose vertices can spread into a longer span
    fw = BipartiteFramework.from_lists(1, [[0], [0]], [])
    assert rigidity_test(fw)[0] is Verdict.NOT_DIMENSIONALLY_RIGID


def test_invalid_input():
    with pytest.raises((InvalidInput, ValueError)):
        rigidity_test(BipartiteFramework.from_lists(1, [], []))
    with pytest.raises(InvalidInput):
        rigidity_test("not a framework")


def test_chain_rejects_wrong_framework():
    fw = line_fw([0, 2], [1, 3])
    other = line_fw([0, 1], [2, 3])
    _, chain = rigidity_test(fw)
    assert verify_chain(fw, chain)
    assert not verify_chain(other, chain)


def test_chain_rejects_mutations():
    fw = line_fw([0, 2], [1, 3])
    _, chain = rigidity_test(fw)
    rec = chain.records[0]
    # sign flip on a balance coefficient
    bad_radon = dataclasses.replace(
        rec.radon, lambdas=(-rec.radon.lambdas[0],) + rec.radon.lambdas[1:]
    )
    mutated = dataclasses.replace(rec, radon=bad_radon)
    bad_chain = dataclasses.replace(chain, records=(mutated,) + chain.records[1:])
    assert not verify_chain(fw, bad_chain)
    # support index swapped to a different vertex
    mutated = dataclasses.replace(rec, support_p=(0, 0))
    bad_chain = dataclasses.replace(chain, records=(mutated,) + chain.records[1:])
    assert not verify_chain(fw, bad_chain)
    # stress matrix corrupted
    bad_omega = rec.stress.omega.copy()
    bad_omega[0, 2] += 0.5
    bad_stress = dataclasses.replace(rec.stress, omega=bad_omega)
    mutated = dataclasses.replace(rec, stress=bad_stress)
    bad_chain = dataclasses.replace(chain, records=(mutated,) + chain.records[1:])
    assert not verify_chain(fw, bad_chain)
    # verdict swapped
    bad_chain = dataclasses.replace(chain, verdict=Verdict.NOT_DIMENSIONALLY_RIGID)
    assert not verify_chain(fw, bad_chain)


def test_chain_rejects_edited_terminal_and_reduction():
    # Every decided chain: the terminal record relabelled (to each other
    # kind, under each verdict), dropped, or followed by another record, or
    # the chain given another verdict.
    kinds = ("balanced", "separated", "exit", "dimspan", "one-sided")
    for name, fx in all_fixtures().items():
        fw = fx.framework
        _, chain = rigidity_test(fw)
        assert verify_chain(fw, chain)
        *head, last = chain.records
        edits = [
            dataclasses.replace(
                chain, records=(*head, dataclasses.replace(last, kind=kind)), verdict=verdict
            )
            for kind in kinds
            if kind != last.kind
            for verdict in Verdict
        ]
        edits += [dataclasses.replace(chain, verdict=v) for v in Verdict if v is not chain.verdict]
        edits.append(dataclasses.replace(chain, records=tuple(head)))
        extra = dataclasses.replace(last, index=last.index + 1)
        edits.append(dataclasses.replace(chain, records=chain.records + (extra,)))
        assert not any(verify_chain(fw, edited) for edited in edits), name
    # The second pass of a two-pass chain with its reduction data cleared.
    _, chain = rigidity_test(TWO_PASS)
    for cleared in ({"cone_point": None}, {"functional": None},
                    {"cone_point": None, "functional": None}):
        rec = dataclasses.replace(chain.records[1], **cleared)
        records = chain.records[:1] + (rec,) + chain.records[2:]
        assert not verify_chain(TWO_PASS, dataclasses.replace(chain, records=records))


def test_batch_matches_individual_and_isolates_errors():
    frameworks = [
        line_fw([0], [1]),
        line_fw([0, 1], [2, 3]),
        line_fw([0, 2], [1, 3]),
    ]
    results = rigidity_test_batch(frameworks)
    assert [r[0] for r in results] == [
        Verdict.UNIVERSALLY_RIGID,
        Verdict.NOT_DIMENSIONALLY_RIGID,
        Verdict.UNIVERSALLY_RIGID,
    ]
    assert rigidity_test_batch([]) == []


def test_batch_deterministic_and_order_preserving(rng):
    def k43():
        def pt():
            return tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))

        return BipartiteFramework(2, tuple(pt() for _ in range(4)), tuple(pt() for _ in range(3)))

    frameworks = [k43() for _ in range(50)]
    batch = {id(fw): r[0] for fw, r in zip(frameworks, rigidity_test_batch(frameworks))}
    shuffled = frameworks[:]
    rng.shuffle(shuffled)
    reshuffled = {id(fw): r[0] for fw, r in zip(shuffled, rigidity_test_batch(shuffled))}
    assert batch == reshuffled
    sample = frameworks[::10]
    assert [batch[id(fw)] for fw in sample] == [rigidity_test(fw)[0] for fw in sample]


def test_termination_bound(rng):
    for _ in range(40):
        fw = random_framework(rng, d_max=3, nm_max=9)
        _, chain = rigidity_test(fw)
        assert len(chain.records) <= fw.n + fw.m


def test_verdict_invariance(rng):
    # translation, class-internal permutation, uniform positive scaling
    for _ in range(15):
        fw = random_framework(rng, d_max=2, nm_max=7)
        base, _ = rigidity_test(fw)
        d = fw.dimension
        shift = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
        translated = BipartiteFramework(
            d,
            tuple(tuple(a + s for a, s in zip(p, shift)) for p in fw.points_p),
            tuple(tuple(a + s for a, s in zip(q, shift)) for q in fw.points_q),
        )
        assert rigidity_test(translated)[0] is base
        perm_p = list(range(fw.n))
        perm_q = list(range(fw.m))
        rng.shuffle(perm_p)
        rng.shuffle(perm_q)
        permuted = BipartiteFramework(
            d,
            tuple(fw.points_p[i] for i in perm_p),
            tuple(fw.points_q[j] for j in perm_q),
        )
        assert rigidity_test(permuted)[0] is base
        scale = F(rng.randint(1, 5), rng.randint(1, 5))
        scaled = BipartiteFramework(
            d,
            tuple(tuple(scale * a for a in p) for p in fw.points_p),
            tuple(tuple(scale * a for a in q) for q in fw.points_q),
        )
        assert rigidity_test(scaled)[0] is base


def test_line_oracle_small(rng):
    for _ in range(80):
        fw = random_line_framework(rng)
        verdict, chain = rigidity_test(fw)
        separable = line_strictly_separable(fw)
        assert (verdict is Verdict.UNIVERSALLY_RIGID) == (not separable)
        assert verify_chain(fw, chain)


def test_consistency_of_chained_certificates(rng):
    for _ in range(25):
        fw = random_framework(rng, d_max=2, nm_max=8)
        verdict, chain = rigidity_test(fw)
        if verdict is Verdict.UNIVERSALLY_RIGID:
            for rec in chain.records:
                if rec.kind != "balanced":
                    continue
                comp_p = [i for i in range(fw.n) if i not in rec.known_p]
                comp_q = [j for j in range(fw.m) if j not in rec.known_q]
                from bipartite_rigidity.engine import _reduce
                from bipartite_rigidity.reduction import KnownSet

                known = KnownSet.of(rec.known_p, rec.known_q)
                _, _, red_p, red_q = _reduce(fw, known, comp_p, comp_q)
                sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
                local_p = rec.radon.support_p
                local_q = rec.radon.support_q
                assert verify_super_stable_certificate(
                    sub.subframework(local_p, local_q), rec.stress
                )
        if verdict is Verdict.NOT_DIMENSIONALLY_RIGID:
            last = chain.records[-1]
            assert last.kind in ("separated", "one-sided")


def test_monotone_certainty(rng):
    for _ in range(20):
        fw = random_framework(rng, d_max=2, nm_max=7)
        verdict, chain = rigidity_test(fw)
        if verdict is not Verdict.UNIVERSALLY_RIGID:
            continue
        last = chain.records[-1]
        known_p = list(last.known_p) or list(range(fw.n))
        known_q = list(last.known_q)
        if not known_p or not known_q:
            continue
        sub = fw.subframework(known_p, known_q)
        assert rigidity_test(sub)[0] is Verdict.UNIVERSALLY_RIGID


def test_replay_runs_no_eigensolver(monkeypatch):
    # Stress certificates are verified by exact recomputation, so replay
    # needs neither eigenvalues nor an equilibrium residual.
    rng = random.Random(7)
    frameworks = [fx.framework for fx in all_fixtures().values()]
    frameworks += [random_framework(rng) for _ in range(30)]
    decided = [(fw, rigidity_test(fw)[1]) for fw in frameworks]
    assert any(rec.stress for _, chain in decided for rec in chain.records)

    def boom(*args, **kwargs):
        raise AssertionError("replay reached a floating check")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    monkeypatch.setattr(stress, "equilibrium_residual", boom)
    assert [verify_chain(fw, chain) for fw, chain in decided] == [True] * len(decided)


@pytest.mark.parametrize("name", ["k33_conic", "cube_k44", "k65", "k55"])
def test_thin_affine_image_stays_rigid(name):
    # Universal rigidity is affine invariant; squashing one axis by 10^-5
    # must not cost the verdict or its certificate.
    fw = thin_image(fixture(name).framework)
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.UNIVERSALLY_RIGID
    assert verify_chain(fw, chain)


def test_balance_coefficients_stay_short():
    # K(10,10) in d=3 with the coordinates of acceptance 6; the seeds give
    # rigid instances whose balanced passes maximize several coordinates.
    def bits(x):
        return x.numerator.bit_length() + x.denominator.bit_length()

    for seed in (1, 2, 4):
        verdict, chain = rigidity_test(k10x10(seed))
        assert verdict is Verdict.UNIVERSALLY_RIGID
        coefficients = [
            v for rec in chain.records if rec.radon for v in rec.radon.lambdas + rec.radon.mus
        ]
        assert coefficients and max(map(bits, coefficients)) <= 600
