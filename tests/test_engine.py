"""Decision loop verdicts, chain replay, batch isolation, and invariants."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bipartite_rigidity import engine, geometry, lp, reduction, separation, stress
from bipartite_rigidity.engine import (
    InvalidInput,
    Verdict,
    chain_rejection,
    rigidity_test,
    rigidity_test_batch,
    verify_chain,
)
from bipartite_rigidity.fixtures import all_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework, _hats, affine_span_dim
from bipartite_rigidity.reduction import KnownSet
from bipartite_rigidity.stress import verify_super_stable_certificate
from conftest import (
    flag,
    fraction_rref,
    huge_k44,
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
    # Each edit is rejected, and the rejection names the record and check.
    fw = line_fw([0, 2], [1, 3])
    _, chain = rigidity_test(fw)
    assert [rec.kind for rec in chain.records] == ["balanced", "exit"]
    assert chain_rejection(fw, chain) is None
    rec = chain.records[0]

    def with_first(mutated):
        return dataclasses.replace(chain, records=(mutated,) + chain.records[1:])

    # sign flip on a balance coefficient
    bad_radon = dataclasses.replace(
        rec.radon, lambdas=(-rec.radon.lambdas[0],) + rec.radon.lambdas[1:]
    )
    bad_balance = with_first(dataclasses.replace(rec, radon=bad_radon))
    # support index swapped to a different vertex
    bad_support = with_first(dataclasses.replace(rec, support_p=(0, 0)))
    # stress matrix corrupted
    rows = rec.stress.omega
    bad_row = rows[0][:2] + (rows[0][2] + 0.5,) + rows[0][3:]
    bad_stress = dataclasses.replace(rec.stress, omega=(bad_row,) + rows[1:])
    bad_omega = with_first(dataclasses.replace(rec, stress=bad_stress))
    # verdict swapped
    bad_verdict = dataclasses.replace(chain, verdict=Verdict.NOT_DIMENSIONALLY_RIGID)
    # stress coefficients off the Radon restriction by one part in their denominator
    lam = rec.stress.lambdas[0]
    bad_lambdas = [
        with_first(dataclasses.replace(rec, stress=dataclasses.replace(
            rec.stress, lambdas=(lam + step,) + rec.stress.lambdas[1:])))
        for step in (F(1, lam.denominator), F(-1, lam.denominator))
    ]
    # Radon coefficients doubled: still balanced, but each side sums to two
    bad_sums = with_first(dataclasses.replace(rec, radon=dataclasses.replace(
        rec.radon,
        lambdas=tuple(2 * v for v in rec.radon.lambdas),
        mus=tuple(2 * v for v in rec.radon.mus),
    )))
    for bad, named in (
        (bad_balance, (0, "balance")),
        (bad_support, (0, "support")),
        (bad_omega, (0, "stress")),
        (bad_verdict, (1, "verdict")),
        *((bad, (0, "stress")) for bad in bad_lambdas),
        (bad_sums, (0, "balance")),
    ):
        assert not verify_chain(fw, bad)
        assert chain_rejection(fw, bad) == named
    # A Radon coefficient outside the support made positive: the off-line
    # vertex of a certified line core.
    pinned = BipartiteFramework.from_lists(2, [[0, 0], [2, 0], [1, 1]], [[1, 0], [3, 0]])
    _, chain = rigidity_test(pinned)
    rec = chain.records[0]
    assert rec.radon.lambdas[2] == 0
    radon = dataclasses.replace(rec.radon, lambdas=rec.radon.lambdas[:2] + (F(1, 8),))
    bad = dataclasses.replace(
        chain, records=(dataclasses.replace(rec, radon=radon),) + chain.records[1:])
    assert not verify_chain(pinned, bad)
    assert chain_rejection(pinned, bad) in {(0, "support"), (0, "balance")}


def test_rejections_name_their_check():
    fw = line_fw([0, 2], [1, 3])
    _, chain = rigidity_test(fw)
    first, last = chain.records
    cases = (
        (chain, line_fw([0, 1], [2, 3]), (0, "input")),
        (dataclasses.replace(chain, records=()), fw, (0, "kind")),
        (dataclasses.replace(chain, records=(first,)), fw, (0, "kind")),
        (dataclasses.replace(chain, records=(dataclasses.replace(first, index=3), last)), fw,
         (0, "index")),
        (dataclasses.replace(chain, records=(first, dataclasses.replace(last, known_p=()))), fw,
         (1, "known-set")),
        (dataclasses.replace(chain, records=(first, dataclasses.replace(last, kind="dimspan"))),
         fw, (1, "kind")),
        (dataclasses.replace(chain, records=(dataclasses.replace(first, stress=None), last)), fw,
         (0, "stress")),
        (dataclasses.replace(chain, records=(first, dataclasses.replace(last, radon=first.radon))),
         fw, (1, "balance")),
    )
    for bad, framework, named in cases:
        assert chain_rejection(framework, bad) == named


def test_unusable_record_is_named(monkeypatch):
    # A documented rejection raised inside replay names the record it hit.
    fw = line_fw([0, 2], [1, 3])
    _, chain = rigidity_test(fw)

    def unusable(*args, **kwargs):
        raise ValueError("shape does not fit")

    monkeypatch.setattr(engine, "_radon_balance", unusable)
    assert chain_rejection(fw, chain) == (0, "unusable record")
    assert not verify_chain(fw, chain)


def test_benchmark_mutation_names_its_check(monkeypatch):
    # The edit the benchmark's gate makes: a negated balance coefficient,
    # or a moved input point when the chain has no balanced pass.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    named = set()
    for fx in all_fixtures().values():
        _, chain = rigidity_test(fx.framework)
        first = next((pos for pos, rec in enumerate(chain.records)
                      if rec.radon is not None and rec.radon.support_p), None)
        expected = (0, "input") if first is None else (first, "balance")
        assert chain_rejection(fx.framework, workloads.mutate(chain)) == expected
        named.add(expected[1])
    assert named == {"input", "balance"}


def test_verifier_faults_propagate(monkeypatch):
    # Only the documented rejections (ValueError, ArithmeticError) read as
    # an invalid chain; any other error inside replay is a fault and is raised.
    fw = line_fw([0, 2], [1, 3])
    _, chain = rigidity_test(fw)

    def broken(*args, **kwargs):
        raise RuntimeError("verifier fault")

    monkeypatch.setattr(engine, "_radon_balance", broken)
    with pytest.raises(RuntimeError, match="verifier fault"):
        verify_chain(fw, chain)


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


def moved(fw, f, swap=False):
    """``fw`` with every point mapped by ``f``, its classes exchanged if ``swap``."""
    p, q = tuple(map(f, fw.points_p)), tuple(map(f, fw.points_q))
    return BipartiteFramework(len(p[0]), *((q, p) if swap else (p, q)))


def affine(matrix, shift):
    """The map ``x -> matrix x + shift``."""

    def image(pt):
        return tuple(sum((a * x for a, x in zip(row, pt)), s) for row, s in zip(matrix, shift))

    return image


def rational_similarity(rng, d):
    """A uniform positive scaling of a rational orthogonal matrix.

    A signed permutation, then a rotation by the angle with cosine 3/5 in
    two coordinates when there are two.
    """
    perm = rng.sample(range(d), d)
    rows = [[F(rng.choice((-1, 1))) if j == perm[i] else F(0) for j in range(d)] for i in range(d)]
    if d >= 2:
        a, b = rng.sample(range(d), 2)
        c, s = F(3, 5), F(4, 5)
        rows[a], rows[b] = (
            [c * x - s * y for x, y in zip(rows[a], rows[b])],
            [s * x + c * y for x, y in zip(rows[a], rows[b])],
        )
    scale = F(rng.randint(1, 9), rng.randint(1, 9))
    return [[scale * v for v in row] for row in rows]


def nonsingular(rng, d):
    """A random rational matrix of rank ``d``."""
    while True:
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)]
        if len(fraction_rref([list(row) for row in rows])) == d:
            return rows


def chain_shape(chain, p_map=None, q_map=None, swap=False):
    """Each record's kind, known sets and supports, relabelled by the maps.

    ``p_map[i]`` is the new index of P vertex ``i`` (identity when None),
    and ``swap`` exchanges the classes after relabelling.
    """

    def side(idx, mapping):
        return tuple(sorted(mapping[i] for i in idx)) if mapping else idx

    shape = []
    for rec in chain.records:
        sides = [(side(rec.known_p, p_map), side(rec.support_p, p_map)),
                 (side(rec.known_q, q_map), side(rec.support_q, q_map))]
        (kp, sp), (kq, sq) = sides[::-1] if swap else sides
        shape.append((rec.kind, kp, kq, sp, sq))
    return shape


def shuffled(rng, fw):
    """``fw`` with each class shuffled, and the maps from old to new indices."""
    perm_p, perm_q = rng.sample(range(fw.n), fw.n), rng.sample(range(fw.m), fw.m)
    image = BipartiteFramework(
        fw.dimension,
        tuple(fw.points_p[i] for i in perm_p),
        tuple(fw.points_q[j] for j in perm_q),
    )
    return image, {i: k for k, i in enumerate(perm_p)}, {j: k for k, j in enumerate(perm_q)}


def assert_equivariant(fw, transforms):
    """Each transformed framework decides the same verdict with the mapped chain shape."""
    verdict, chain = rigidity_test(fw)
    for image, p_map, q_map, swap in transforms:
        moved_verdict, moved_chain = rigidity_test(image)
        assert moved_verdict is verdict
        assert verify_chain(image, moved_chain)
        assert chain_shape(moved_chain) == chain_shape(chain, p_map, q_map, swap)


def test_verdict_invariance(rng):
    # Decide is equivariant: shuffling each class, exchanging P and Q,
    # appending a zero coordinate, a rational similarity and a nonsingular
    # rational affine map keep the verdict, and the record kinds, known
    # sets and supports map over (relabelled, exchanged under the swap);
    # every transformed chain verifies.  On the fixtures, flag seeds 1-5,
    # K(10,10) seeds 1-2 and random draws; huge_k44 seed 0 is only
    # shuffled, since its decide takes most of a second.
    cases = [fx.framework for fx in all_fixtures().values()]
    cases += [flag(seed) for seed in range(1, 6)] + [k10x10(seed) for seed in (1, 2)]
    cases += [random_framework(rng, d_max=3, nm_max=9) for _ in range(20)]
    for fw in cases:
        d = fw.dimension
        shift = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        transforms = [
            (*shuffled(rng, fw), False),
            (moved(fw, lambda pt: (*pt, F(0))), None, None, False),
            (moved(fw, affine(rational_similarity(rng, d), shift)), None, None, False),
            (moved(fw, affine(nonsingular(rng, d), shift)), None, None, False),
        ]
        if fw.m:
            transforms.append((moved(fw, tuple, swap=True), None, None, True))
        assert_equivariant(fw, transforms)
    fw = huge_k44(0)
    assert_equivariant(fw, [(*shuffled(rng, fw), False)])


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
                from bipartite_rigidity.engine import _reduce
                from bipartite_rigidity.reduction import KnownSet

                known = KnownSet.of(rec.known_p, rec.known_q)
                table = _hats(fw.all_points())
                _, _, red_p, red_q, _ = _reduce(fw, known, known.complement(fw), table)
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


def counting_cases():
    """The fixtures, flag seeds 1-5 and K(10,10) seed 1, with their decided chains."""
    frameworks = [fx.framework for fx in all_fixtures().values()]
    frameworks += [flag(seed) for seed in range(1, 6)] + [k10x10(1)]
    return [(fw, rigidity_test(fw)[1]) for fw in frameworks]


def count_calls(monkeypatch, name, modules):
    """Record the arguments of every call of ``name``, in each module that looks it up."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def input_point_clears(calls, fw):
    """Per input point object, the ``_clear`` calls on it and its copies in ``fw``."""
    cleared = Counter(id(args[0]) for args in calls)
    held = Counter(id(pt) for pt in fw.all_points())
    return [(cleared[key], times) for key, times in held.items()]


CLEAR_LOOKUPS = (lp, geometry, reduction, separation, stress)


def test_replay_clears_each_input_point_once(monkeypatch):
    # One table per call: no check clears an input point again.
    for fw, chain in counting_cases():
        calls = count_calls(monkeypatch, "_clear", CLEAR_LOOKUPS)
        assert chain_rejection(fw, chain) is None
        assert all(cleared <= times for cleared, times in input_point_clears(calls, fw))


def test_replay_balances_each_balanced_record_once(monkeypatch):
    # The Radon check's balance, restricted to the support, is the stress's.
    for fw, chain in counting_cases():
        calls = count_calls(monkeypatch, "_balance", (geometry, separation, stress))
        assert chain_rejection(fw, chain) is None
        assert len(calls) == sum(rec.kind == "balanced" for rec in chain.records)


def test_decide_clears_each_input_point_at_most_four_times(monkeypatch):
    # Once for each of the first pass's affine rank, balance LP and stress,
    # which clear their own input, and once into the table; later passes
    # read the table and the slid points' hats.
    for fw, _ in counting_cases():
        calls = count_calls(monkeypatch, "_clear", CLEAR_LOOKUPS)
        rigidity_test(fw)
        assert all(cleared <= 4 * times for cleared, times in input_point_clears(calls, fw))


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


def ref_pass(fw, known, table):
    """The pass step with the affine rank of the reduced points always taken, kept as a reference."""
    comp_p = tuple(i for i in range(fw.n) if i not in known.p_indices)
    comp_q = tuple(j for j in range(fw.m) if j not in known.q_indices)
    if len(comp_p) <= 1 and len(comp_q) <= 1:
        return engine._Step(comp_p, comp_q, forced="exit")
    cone_point, functional, red_p, red_q, hats = engine._reduce(
        fw, known, KnownSet(comp_p, comp_q), table)
    reduced_all = red_p + red_q
    if affine_span_dim(reduced_all) == len(reduced_all) - 1:
        return engine._Step(comp_p, comp_q, cone_point, functional, forced="dimspan")
    if not red_p or not red_q:
        return engine._Step(comp_p, comp_q, cone_point, functional, forced="one-sided")
    sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
    return engine._Step(comp_p, comp_q, cone_point, functional, sub, hats=hats)


def assert_passes_match(fw):
    """``_pass`` equals the reference on every certified set the decision meets."""
    _, chain = rigidity_test(fw)
    table = _hats(fw.all_points())
    for rec in chain.records:
        known = KnownSet(rec.known_p, rec.known_q)
        assert engine._pass(fw, known, table) == ref_pass(fw, known, table)
    return [rec.kind for rec in chain.records]


@st.composite
def pass_frameworks(draw):
    """d = 0..3 with 2..10 points: repeated points, collinear points and free points."""
    d = draw(st.integers(0, 3))
    coord = st.integers(-2, 2).map(F)
    point = st.tuples(*[coord] * d)
    a, b = draw(point), draw(point)
    on_line = st.fractions(-2, 2, max_denominator=2).map(
        lambda t: tuple(x + t * (y - x) for x, y in zip(a, b)))
    vertex = st.one_of(st.sampled_from([a, b]), on_line, point)
    p = draw(st.lists(vertex, min_size=1, max_size=5))
    q = draw(st.lists(vertex, min_size=1, max_size=5))
    return BipartiteFramework(d, tuple(p), tuple(q))


def test_pass_skips_the_affine_rank_only_when_the_count_decides():
    # Past d + 1 points the reduced set is never affinely independent; at or
    # below it the rank decides, as in the dimspan fixture.
    kinds = {name: assert_passes_match(fx.framework) for name, fx in all_fixtures().items()}
    assert kinds["triangle_k21"] == ["dimspan"]
    cases = [
        (BipartiteFramework.from_lists(2, [[0, 0], [2, 0]], [[0, 1]]), ["dimspan"]),
        (BipartiteFramework.from_lists(2, [[0, 0], [2, 2]], [[1, 1]]), ["separated"]),
        (BipartiteFramework.from_lists(1, [[0], [0]], [[1]]), ["separated"]),
        (BipartiteFramework.from_lists(0, [[], []], [[]]), ["balanced", "exit"]),
        (line_fw([0, 2, 4], [1, 3]), ["balanced", "exit"]),
    ]
    for fw, expected in cases:
        assert assert_passes_match(fw) == expected


@settings(max_examples=150, deadline=None)
@given(pass_frameworks())
def test_pass_matches_the_always_ranked_reference(fw):
    assert_passes_match(fw)
