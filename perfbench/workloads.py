"""The benchmark's seeded workloads and their correctness gate.

Each workload is a closed loop: one client in one process issues its next
operation only after the previous one returns.  Inputs come from the seed
alone, and the package sees only the generated frameworks.

* ``k10x10_d3``: one ``rigidity_test`` per operation on K(10,10) in d=3,
  coordinates num/den with num in [-16, 16] and den in [1, 16] (the shape of
  acceptance 6).  The largest LPs; ``maximal_support_radon`` dominates.
* ``mixed_sweep``: one ``rigidity_test_batch`` per operation, on batches of
  ``nproc`` instances from the acceptance-2 generator (d 1..3, n+m <= 12,
  coordinate bound 16).  Most instances end in a separated pass, so
  ``max_margin_quadric`` and the batch pool dominate.
* ``replay``: set-up decides a corpus (the fixtures plus seeded mixed,
  K(10,10) and multi-pass "flag" instances); one operation is
  ``serialize_chain`` -> ``parse_chain`` -> ``verify_chain`` on one chain.
  No LP runs in the timed loop.

Every package call goes through the module attribute (``engine.rigidity_test``
and not a name imported once), so the traced run's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import os
import random
from fractions import Fraction

import numpy as np

from bipartite_rigidity import docio, engine, fixtures
from bipartite_rigidity.geometry import BipartiteFramework

ZERO = Fraction(0)


def batch_size() -> int:
    """Instances per ``mixed_sweep`` batch: the CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


# -- generators ----------------------------------------------------------------


def _rat(rng: random.Random, bound: int = 16) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def k10x10(rng: random.Random) -> BipartiteFramework:
    """K(10,10) in d=3 with the coordinates of acceptance 6."""

    def pt():
        return tuple(_rat(rng) for _ in range(3))

    return BipartiteFramework(3, tuple(pt() for _ in range(10)), tuple(pt() for _ in range(10)))


def mixed(rng: random.Random) -> BipartiteFramework:
    """The acceptance-2 generator: d in 1..3, both classes nonempty, n+m <= 12."""
    d = rng.randint(1, 3)
    n = rng.randint(1, 11)
    m = rng.randint(1, 12 - n)

    def pt():
        return tuple(_rat(rng) for _ in range(d))

    return BipartiteFramework(d, tuple(pt() for _ in range(n)), tuple(pt() for _ in range(m)))


def flag(rng: random.Random) -> BipartiteFramework:
    """A multi-pass instance in d=3: a line core, then a plane, then space.

    The classes alternate along distinct points of the x-axis, so the
    first balanced pass certifies the line; further points of both classes
    lie in the plane z=0 through it and then in general space.  These take
    two or three balanced passes, so they are what exercises ``reduction``.
    """
    xs: set[Fraction] = set()
    size = rng.randint(4, 6)
    while len(xs) < size:
        xs.add(_rat(rng))
    p: list[tuple] = []
    q: list[tuple] = []
    for k, x in enumerate(sorted(xs)):
        (p if k % 2 == 0 else q).append((x, ZERO, ZERO))
    for _ in range(rng.randint(2, 4)):
        p.append((_rat(rng), _rat(rng), ZERO))
        q.append((_rat(rng), _rat(rng), ZERO))
    for _ in range(rng.randint(1, 3)):
        p.append((_rat(rng), _rat(rng), _rat(rng)))
        q.append((_rat(rng), _rat(rng), _rat(rng)))
    return BipartiteFramework(3, tuple(p), tuple(q))


# -- the gate ------------------------------------------------------------------


class Gate:
    """Attempted operations and checks, and the ones that missed.

    Checks run outside the timed window.  A miss is an operation that
    raised, a chain ``verify_chain`` rejects, a wrong fixture verdict or an
    accepted mutant.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)

    def fixtures(self, decided: dict) -> None:
        """``decided`` maps each fixture name to its (verdict, chain) or error."""
        for name, fx in fixtures.all_fixtures().items():
            result = decided[name]
            self.check(not isinstance(result, Exception) and result[0] is fx.expected
                       and engine.verify_chain(fx.framework, result[1]),
                       f"fixture {name}: got {result!r:.200}, expected {fx.expected.value}")


def _decide_fixtures() -> dict:
    decided = {}
    for name, fx in fixtures.all_fixtures().items():
        try:
            decided[name] = engine.rigidity_test(fx.framework)
        except Exception as exc:  # Gate.fixtures counts it as a miss
            decided[name] = exc
    return decided


def mutate(chain):
    """One edit the verifier must reject, as acceptance 8 makes them.

    Negates the first strictly positive balance coefficient when the chain
    has one, and otherwise moves the first input point in the framework
    echo.
    """
    for pos, rec in enumerate(chain.records):
        if rec.radon is not None and rec.radon.support_p:
            lams = list(rec.radon.lambdas)
            lams[rec.radon.support_p[0]] = -lams[rec.radon.support_p[0]]
            bad = dataclasses.replace(rec, radon=dataclasses.replace(rec.radon, lambdas=tuple(lams)))
            return dataclasses.replace(
                chain, records=chain.records[:pos] + (bad,) + chain.records[pos + 1:])
    fw = chain.framework
    moved = (tuple(c + 1 for c in fw.points_p[0]),) + fw.points_p[1:]
    return dataclasses.replace(chain, framework=dataclasses.replace(fw, points_p=moved))


# -- workloads -----------------------------------------------------------------


class Workload:
    """Set-up happens in ``__init__``; then operations ``0, 1, 2, ...``.

    ``item(i)`` makes operation i's input (in order of i), ``call(item)`` is
    the only timed part, and ``check(item, result, gate)`` verifies the
    result outside the timed window and keeps nothing but its size, so
    memory does not grow with the run.  Operations with one ``key`` repeat
    the same work.
    """

    name = ""
    #: Report names of one operation's latency and of the throughput.
    op_name = rate_name = ""
    #: Operations in each pass of the traced run.  Fixed, not timed, so the
    #: traced counts repeat exactly for a seed.
    trace_ops = 0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.chains = 0
        self.chain_bytes = 0

    def key(self, i: int) -> int:
        return i

    def item(self, i: int):
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def count(self, item) -> int:
        """Decisions or replays one operation completes."""
        return 1

    def check(self, item, result, gate: Gate) -> None:
        raise NotImplementedError

    def final_checks(self, gate: Gate) -> None:
        gate.fixtures(_decide_fixtures())

    def _decision(self, fw: BipartiteFramework, result, gate: Gate) -> None:
        chain = result[1]
        gate.check(engine.verify_chain(fw, chain), "decided chain rejected by verify_chain")
        self._measure(chain)

    def _measure(self, chain) -> None:
        self.chains += 1
        self.chain_bytes += len(docio.serialize_chain(chain))


def separable(fw: BipartiteFramework) -> bool:
    """Whether the lifted classes fail to balance, by a floating-point LP.

    Used only to choose inputs (the mix of ``k10x10_d3``, the quotas of
    ``replay``); the package decides every input exactly and the gate
    verifies its chains.  SciPy is imported here, not at the top, so
    ``mixed_sweep`` pays neither its import time nor its memory.
    """
    from scipy.optimize import linprog

    def lift(pt, sign):
        v = [float(c) for c in pt] + [1.0]
        return [sign * v[i] * v[j] for i in range(len(v)) for j in range(i, len(v))]

    columns = [lift(pt, 1) for pt in fw.points_p] + [lift(pt, -1) for pt in fw.points_q]
    a_eq = np.vstack([np.array(columns).T, np.r_[np.ones(fw.n), np.zeros(fw.m)]])
    b_eq = np.r_[np.zeros(a_eq.shape[0] - 1), 1.0]
    res = linprog(np.zeros(fw.n + fw.m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status != 0


class K10x10(Workload):
    """K(10,10) inputs in a fixed mix of separated and rigid instances.

    A separated instance takes about half as long as a rigid one, so with
    some 50 decisions a run, the share of each kind drawn would move the
    throughput more than most changes do.  Operation i therefore takes the
    next generated instance of the kind a fixed schedule names, so every
    prefix of the run holds ``SEPARATED`` of separated instances; within a
    kind, instances come in generated order.
    """

    name = "k10x10_d3"
    op_name, rate_name = "decide_ms", "decisions_per_s"
    trace_ops = 6
    #: Share of separated instances from the generator: 66 of 150 drawn.
    SEPARATED = 0.44

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.waiting: dict[bool, list[BipartiteFramework]] = {True: [], False: []}

    def item(self, i: int) -> BipartiteFramework:
        want = int((i + 1) * self.SEPARATED) > int(i * self.SEPARATED)
        while not self.waiting[want]:
            fw = k10x10(self.rng)
            self.waiting[separable(fw)].append(fw)
        return self.waiting[want].pop(0)

    def call(self, fw: BipartiteFramework):
        return engine.rigidity_test(fw)

    def check(self, fw, result, gate: Gate) -> None:
        self._decision(fw, result, gate)


class MixedSweep(Workload):
    name = "mixed_sweep"
    op_name, rate_name = "batch_ms", "decisions_per_s"
    trace_ops = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.batch = batch_size()

    def item(self, i: int) -> list[BipartiteFramework]:
        return [mixed(self.rng) for _ in range(self.batch)]

    def count(self, frameworks) -> int:
        return len(frameworks)

    def call(self, frameworks):
        return engine.rigidity_test_batch(frameworks)

    def check(self, frameworks, results, gate: Gate) -> None:
        for fw, result in zip(frameworks, results):
            if isinstance(result, Exception):
                gate.check(False, f"batch item raised {result!r}")
            else:
                self._decision(fw, result, gate)


def _fill(rng: random.Random, generate, quota: dict[str, int]) -> list[tuple]:
    """Decide generated instances until ``quota`` chains of each terminal kind.

    :func:`separable` screens each draw, so set-up decides almost only the
    instances it keeps, and its time does not hang on how many draws a
    quota takes.
    """
    left = dict(quota)
    out = []
    for _ in range(50 * sum(quota.values())):
        if not any(left.values()):
            return out
        fw = generate(rng)
        if not left.get("separated" if separable(fw) else "exit"):
            continue
        chain = engine.rigidity_test(fw)[1]
        kind = chain.records[-1].kind
        if left.get(kind, 0) > 0:
            left[kind] -= 1
            out.append((fw, chain))
    raise RuntimeError(f"{generate.__name__} did not fill {quota} in 50 draws per chain")


class Replay(Workload):
    name = "replay"
    op_name, rate_name = "replay_ms", "replays_per_s"
    #: Chains per generator and terminal record kind.  Fixed counts keep the
    #: corpus's mix, and with it the cost of a replay, the same for every
    #: seed; "exit" chains are the rigid ones, which carry stresses.
    quotas = (
        (mixed, {"separated": 12, "exit": 6}),
        (k10x10, {"exit": 1}),
        (flag, {"exit": 6}),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.fixture_results = _decide_fixtures()
        self.corpus = [(fixtures.fixture(name).framework, result[1])
                       for name, result in self.fixture_results.items()
                       if not isinstance(result, Exception)]
        for generate, quota in self.quotas:
            self.corpus += _fill(self.rng, generate, quota)
        self.rng.shuffle(self.corpus)
        self.trace_ops = 5 * len(self.corpus)

    def key(self, i: int) -> int:
        return i % len(self.corpus)

    def item(self, i: int) -> tuple:
        return self.corpus[self.key(i)]

    def call(self, item) -> bool:
        fw, chain = item
        return engine.verify_chain(fw, docio.parse_chain(docio.serialize_chain(chain)))

    def check(self, item, accepted: bool, gate: Gate) -> None:
        gate.check(accepted, "corpus chain rejected after a round trip")

    def final_checks(self, gate: Gate) -> None:
        gate.fixtures(self.fixture_results)
        for fw, chain in self.corpus:
            self._measure(chain)
            gate.check(engine.verify_chain(fw, chain), "corpus chain rejected by verify_chain")
            gate.check(not engine.verify_chain(fw, mutate(chain)), "mutated chain accepted")


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (K10x10, MixedSweep, Replay)}
