"""The rigidity decision loop and its independent chain verifier.

The test maintains a set of vertices already certified rigid.  Each pass:

1. exits with a rigid verdict when at most one vertex per class remains
   uncertified (the leftovers are pinned up to an isometry fixing the
   certified set);
2. collapses the certified set to a cone point by exact orthogonal
   projection and slides the remaining vertices into a hyperplane;
3. declares the framework dimensionally rigid but not universally rigid
   when the reduced vertices are affinely independent;
4. solves the exact balance LP on the reduced vertices: infeasibility
   (witnessed by the strict separating quadric read off that LP's Farkas
   vector, or trivially by a one-sided complement) means not dimensionally
   rigid, while a solution adds its maximal positive support to the
   certified set;
5. absorbs every vertex lying in the certified set's affine hull and
   repeats, always restarting the geometry from the original input
   coordinates so rational bit lengths cannot cascade.

Progress is guaranteed, so the loop runs at most n + m passes.  Every pass
is recorded; the verdict can be replayed from the records alone by
:func:`verify_chain`, and :func:`chain_rejection` names the record and the
check a rejected chain fails.  Replay walks the same pass step as the
decision (steps 1-3 and the one-sided case of step 4 come from one helper,
given the certified set), then re-checks every certificate exactly:
rational ones directly, and stress certificates by recomputing their
correctly rounded entries and exact rank.  Neither decide nor replay
imports ``numpy``.

Both clear the input points into one table of hats per call
(:func:`~.geometry._hats`), built only once a pass is balanced, and the
projection, closure and span invariant index it; the slide hands on the
hats of the points it builds.  Replay computes each balanced record's
exact balance once: the Radon check yields it, and the stress is checked
on its restriction to the support.  The public verifiers clear their own
input and share those cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import (
    BipartiteFramework,
    Point,
    affine_span_dim,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    _hats,
    _restricted,
    _span_dim,
)
from .reduction import (
    KnownSet,
    affine_closure,
    project_out_known_set,
    slide_functional,
    slide_to_hyperplane,
    span_invariant_holds,
)
from .separation import (
    RadonCertificate,
    SeparationCertificate,
    max_margin_quadric,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    maximal_support_radon,
    verify_radon,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    verify_separation,
    _radon_balance,
)
from .stress import (
    StressCertificate,
    build_super_stable_stress,
    verify_super_stable_certificate,  # unused here; kept so perfbench/spans.py HOOKS can rebind it
    _stress_holds,
)


class InvalidInput(ValueError):
    """The input framework is malformed."""


class Verdict(Enum):
    UNIVERSALLY_RIGID = "universally-rigid"
    DIMENSIONALLY_RIGID_ONLY = "dimensionally-rigid"
    NOT_DIMENSIONALLY_RIGID = "not-dimensionally-rigid"


#: Record kinds.  "balanced" passes extend the certified set; the rest are
#: terminal: "exit" (few leftovers), "dimspan" (affinely independent
#: complement), "separated" (strict quadric), "one-sided" (empty class).
RecordKind = str


@dataclass(frozen=True)
class IterationRecord:
    """One pass of the loop, with everything needed to replay it."""

    index: int
    kind: RecordKind
    known_p: tuple[int, ...]
    known_q: tuple[int, ...]
    cone_point: Optional[Point] = None
    functional: Optional[tuple[Fraction, ...]] = None
    support_p: tuple[int, ...] = ()
    support_q: tuple[int, ...] = ()
    radon: Optional[RadonCertificate] = None
    separation: Optional[SeparationCertificate] = None
    stress: Optional[StressCertificate] = None


@dataclass(frozen=True)
class CertificateChain:
    framework: BipartiteFramework
    records: tuple[IterationRecord, ...]
    verdict: Verdict


#: The verdict each terminal record kind ends the chain with.
_VERDICT = {
    "exit": Verdict.UNIVERSALLY_RIGID,
    "dimspan": Verdict.DIMENSIONALLY_RIGID_ONLY,
    "separated": Verdict.NOT_DIMENSIONALLY_RIGID,
    "one-sided": Verdict.NOT_DIMENSIONALLY_RIGID,
}


#: The hats of a list of points (:func:`~.geometry._hats`), one per point.
_Hats = list[list[int]]


def _reduce(
    fw: BipartiteFramework, known: KnownSet, comp: KnownSet, table: Optional[_Hats]
) -> tuple[
    Optional[Point], Optional[tuple[Fraction, ...]], list[Point], list[Point], Optional[_Hats]
]:
    """Project out the certified set and slide; identity on the first pass.

    ``table`` holds the hats of ``fw.all_points()`` (P, then Q); it may be
    None only on the first pass.  The reduced points come in the order of
    ``comp.points(fw)``, so the first ``len(comp.p_indices)`` are class P;
    their hats come last (on the first pass, ``table`` itself).
    """
    if known.is_empty():
        cone_point, functional, reduced, hats = None, None, comp.points(fw), table
    else:
        cone_point, rays = project_out_known_set(fw, known, table)
        functional = slide_functional(rays)
        reduced, hats = slide_to_hyperplane(cone_point, rays, functional)
    n = len(comp.p_indices)
    return cone_point, functional, reduced[:n], reduced[n:], hats


class _Step(NamedTuple):
    """What the certified set alone fixes about a pass.

    ``forced`` is the terminal kind the exit, dimspan or one-sided rule
    forces; when it is None the balance LP on ``sub`` decides the pass.
    ``hats`` are the hats of ``sub``'s points, P then Q; they are None only
    on a first pass given no table.
    """

    comp_p: tuple[int, ...]
    comp_q: tuple[int, ...]
    cone_point: Optional[Point] = None
    functional: Optional[tuple[Fraction, ...]] = None
    sub: Optional[BipartiteFramework] = None
    forced: Optional[RecordKind] = None
    hats: Optional[_Hats] = None


def _pass(fw: BipartiteFramework, known: KnownSet, table: Optional[_Hats]) -> _Step:
    """Steps 1-3 and the one-sided rule of one pass, for decide and replay.

    ``table`` is as in :func:`_reduce`.
    """
    comp = known.complement(fw)
    comp_p, comp_q = comp.p_indices, comp.q_indices
    if len(comp_p) <= 1 and len(comp_q) <= 1:
        return _Step(comp_p, comp_q, forced="exit")
    cone_point, functional, red_p, red_q, hats = _reduce(fw, known, comp, table)
    reduced_all = red_p + red_q
    # More than d + 1 points of d-space are never affinely independent.
    count = len(reduced_all)
    if count <= fw.dimension + 1 and _span_dim(hats or _hats(reduced_all)) == count - 1:
        return _Step(comp_p, comp_q, cone_point, functional, forced="dimspan")
    if not red_p or not red_q:
        return _Step(comp_p, comp_q, cone_point, functional, forced="one-sided")
    sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
    return _Step(comp_p, comp_q, cone_point, functional, sub, hats=hats)


def rigidity_test(fw: BipartiteFramework) -> tuple[Verdict, CertificateChain]:
    """Decide the rigidity class of a complete bipartite framework.

    Returns the verdict together with a replayable certificate chain.  The
    verdict is driven entirely by exact LP outcomes.
    """
    if not isinstance(fw, BipartiteFramework):
        raise InvalidInput("expected a BipartiteFramework")
    known = KnownSet.empty()
    table = None  # the hats of fw.all_points(), cleared once a pass is balanced
    records: list[IterationRecord] = []
    for _ in range(fw.n + fw.m + 1):
        step = _pass(fw, known, table)
        header = dict(
            index=len(records),
            known_p=known.p_indices,
            known_q=known.q_indices,
            cone_point=step.cone_point,
            functional=step.functional,
        )
        cert = None if step.forced else maximal_support_radon(step.sub)
        if not isinstance(cert, RadonCertificate):
            kind = step.forced or "separated"
            records.append(IterationRecord(kind=kind, separation=cert, **header))
            verdict = _VERDICT[kind]
            return verdict, CertificateChain(fw, tuple(records), verdict)
        local_p = cert.support_p
        local_q = cert.support_q
        stress = build_super_stable_stress(
            step.sub.subframework(local_p, local_q),
            [cert.lambdas[i] for i in local_p],
            [cert.mus[j] for j in local_q],
        )
        support_p = tuple(step.comp_p[i] for i in local_p)
        support_q = tuple(step.comp_q[j] for j in local_q)
        records.append(
            IterationRecord(
                kind="balanced",
                support_p=support_p,
                support_q=support_q,
                radon=cert,
                stress=stress,
                **header,
            )
        )
        if table is None:
            table = _hats(fw.all_points())
        known = affine_closure(fw, known.union(support_p, support_q), table)
        if not span_invariant_holds(fw, known, table):  # pragma: no cover - theory guard
            raise AssertionError("certified classes stopped sharing their hull")
    raise AssertionError("loop exceeded its progress bound")  # pragma: no cover


def verify_chain(fw: BipartiteFramework, chain: CertificateChain) -> bool:
    """Replay a chain against a framework; True iff every record checks out.

    The same replay as :func:`chain_rejection`, which also says what failed.
    """
    return chain_rejection(fw, chain) is None


def chain_rejection(
    fw: BipartiteFramework, chain: CertificateChain
) -> Optional[tuple[int, str]]:
    """Replay a chain against a framework; None if every record checks out.

    A rejected chain gives the index of the first record that fails and the
    name of the failed check: ``input`` (the chain decides another
    framework), ``index``, ``known-set`` (the certified set before the
    pass), ``kind`` (a terminal record before the end, none at the end, or
    another kind than the pass forces), ``cone/functional`` (the
    reduction), ``separation``, ``verdict``, ``balance``, ``support``,
    ``stress`` or ``closure`` (the certified set does not grow, or its
    classes stop sharing their hull).

    Rational evidence (balance certificates, separating quadrics, known-set
    growth, span invariants, reduction geometry) is re-verified exactly;
    each stress certificate must equal its exact recomputation (bit-equal
    ``omega``, exact rank), with no tolerance.

    A record the replay cannot use (a shape that does not fit, a degenerate
    reduction, a value too large to convert) raises ``ValueError`` or
    ``ArithmeticError`` and fails the check ``unusable record``; any other
    exception is a fault of the verifier and propagates.
    """
    if chain.framework != fw:
        return 0, "input"
    known = KnownSet.empty()
    table = None  # the hats of fw.all_points(), cleared for the first balanced record
    for pos, rec in enumerate(chain.records):
        if table is None and rec.kind == "balanced":
            table = _hats(fw.all_points())
        try:
            outcome = _replay(fw, chain, pos, known, table)
        except (ValueError, ArithmeticError):
            outcome = "unusable record"
        if isinstance(outcome, str):
            return pos, outcome
        known = outcome
    return None if chain.records else (0, "kind")


def _replay(
    fw: BipartiteFramework,
    chain: CertificateChain,
    pos: int,
    known: KnownSet,
    table: Optional[_Hats],
) -> Union[str, KnownSet]:
    """Check record ``pos`` given the certified set before it.

    ``table`` holds the hats of ``fw.all_points()``; it is None only while
    no record so far is balanced.  Returns the name of the failed check, or
    the certified set after the record when it holds.  A balanced record's
    exact balance is computed once, on the reduced points' hats: the Radon
    check yields it, and the stress is checked on its restriction to the
    support, which is exactly the balance of the support alone
    (:func:`~.geometry._restricted`).
    """
    rec = chain.records[pos]
    if rec.index != pos:
        return "index"
    if (rec.known_p, rec.known_q) != (known.p_indices, known.q_indices):
        return "known-set"
    terminal = rec.kind != "balanced"
    # Only the last record is terminal, and only a separated one carries a quadric.
    if terminal != (pos == len(chain.records) - 1):
        return "kind"
    if (rec.kind == "separated") == (rec.separation is None):
        return "separation"
    step = _pass(fw, known, table)
    if (rec.cone_point, rec.functional) != (step.cone_point, step.functional):
        return "cone/functional"
    if terminal:
        if rec.support_p or rec.support_q:
            return "support"
        if rec.radon:
            return "balance"
        if rec.stress:
            return "stress"
        if rec.kind != (step.forced or "separated"):
            return "kind"
        if chain.verdict is not _VERDICT[rec.kind]:
            return "verdict"
        if step.forced is None and not verify_separation(rec.separation, step.sub):
            return "separation"
        return known
    if step.forced:
        return "kind"
    cert = rec.radon
    balanced = None if cert is None else _radon_balance(step.sub, step.hats, cert)
    if balanced is None:
        return "balance"
    local_p = cert.support_p
    local_q = cert.support_q
    if (
        not local_p
        or not local_q
        or rec.support_p != tuple(step.comp_p[i] for i in local_p)
        or rec.support_q != tuple(step.comp_q[j] for j in local_q)
    ):
        return "support"
    if (
        rec.stress is None
        or tuple(rec.stress.lambdas) != tuple(cert.lambdas[i] for i in local_p)
        or tuple(rec.stress.mus) != tuple(cert.mus[j] for j in local_q)
        or not _stress_holds(
            rec.stress,
            len(local_p),
            len(local_q),
            _restricted(balanced, step.sub.n, local_p, local_q),
        )
    ):
        return "stress"
    grown = known.union(rec.support_p, rec.support_q)
    if grown.size <= known.size:
        return "closure"
    known = affine_closure(fw, grown, table)
    if not span_invariant_holds(fw, known, table):
        return "closure"
    return known


BatchResult = Union[tuple[Verdict, CertificateChain], Exception]


def rigidity_test_batch(frameworks: Sequence[BipartiteFramework]) -> list[BatchResult]:
    """Elementwise :func:`rigidity_test`, order preserving.

    Items run one after another in the calling thread (the exact arithmetic
    holds the interpreter lock, so threads would only add overhead); a
    per-item :class:`ValueError` (:class:`InvalidInput` among them) is
    returned in place of that item's result instead of aborting the batch.
    """

    def one(fw: BipartiteFramework) -> BatchResult:
        try:
            return rigidity_test(fw)
        except ValueError as exc:
            return exc

    return [one(fw) for fw in frameworks]
