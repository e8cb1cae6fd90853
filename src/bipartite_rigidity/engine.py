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
:func:`verify_chain`.  Replay walks the same pass step as the decision
(steps 1-3 and the one-sided case of step 4 come from one helper, given the
certified set), then re-checks every certificate exactly: rational ones
directly, and stress certificates by recomputing their correctly rounded
entries and exact rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import BipartiteFramework, Point, affine_span_dim
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
    verify_radon,
    verify_separation,
)
from .stress import StressCertificate, build_super_stable_stress, verify_super_stable_certificate


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


def _reduce(
    fw: BipartiteFramework, known: KnownSet, comp_p: Sequence[int], comp_q: Sequence[int]
) -> tuple[Optional[Point], Optional[tuple[Fraction, ...]], list[Point], list[Point]]:
    """Project out the certified set and slide; identity on the first pass."""
    if known.is_empty():
        return (
            None,
            None,
            [fw.points_p[i] for i in comp_p],
            [fw.points_q[j] for j in comp_q],
        )
    p0, proj_p, proj_q = project_out_known_set(fw, known)
    functional = slide_functional(p0, proj_p + proj_q)
    slid = slide_to_hyperplane(p0, proj_p + proj_q, functional)
    return p0, functional, slid[: len(proj_p)], slid[len(proj_p) :]


class _Step(NamedTuple):
    """What the certified set alone fixes about a pass.

    ``forced`` is the terminal kind the exit, dimspan or one-sided rule
    forces; when it is None the balance LP on ``sub`` decides the pass.
    """

    comp_p: list[int]
    comp_q: list[int]
    cone_point: Optional[Point] = None
    functional: Optional[tuple[Fraction, ...]] = None
    sub: Optional[BipartiteFramework] = None
    forced: Optional[RecordKind] = None


def _pass(fw: BipartiteFramework, known: KnownSet) -> _Step:
    """Steps 1-3 and the one-sided rule of one pass, for decide and replay."""
    comp_p = [i for i in range(fw.n) if i not in known.p_indices]
    comp_q = [j for j in range(fw.m) if j not in known.q_indices]
    if len(comp_p) <= 1 and len(comp_q) <= 1:
        return _Step(comp_p, comp_q, forced="exit")
    cone_point, functional, red_p, red_q = _reduce(fw, known, comp_p, comp_q)
    reduced_all = red_p + red_q
    if affine_span_dim(reduced_all) == len(reduced_all) - 1:
        return _Step(comp_p, comp_q, cone_point, functional, forced="dimspan")
    if not red_p or not red_q:
        return _Step(comp_p, comp_q, cone_point, functional, forced="one-sided")
    sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
    return _Step(comp_p, comp_q, cone_point, functional, sub)


def rigidity_test(fw: BipartiteFramework) -> tuple[Verdict, CertificateChain]:
    """Decide the rigidity class of a complete bipartite framework.

    Returns the verdict together with a replayable certificate chain.  The
    verdict is driven entirely by exact LP outcomes.
    """
    if not isinstance(fw, BipartiteFramework):
        raise InvalidInput("expected a BipartiteFramework")
    known = KnownSet.empty()
    records: list[IterationRecord] = []
    for _ in range(fw.n + fw.m + 1):
        step = _pass(fw, known)
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
        known = affine_closure(fw, known.union(support_p, support_q))
        if not span_invariant_holds(fw, known):  # pragma: no cover - theory guard
            raise AssertionError("certified classes stopped sharing their hull")
    raise AssertionError("loop exceeded its progress bound")  # pragma: no cover


def verify_chain(fw: BipartiteFramework, chain: CertificateChain) -> bool:
    """Replay a chain against a framework; True iff every record checks out.

    Rational evidence (balance certificates, separating quadrics, known-set
    growth, span invariants, reduction geometry) is re-verified exactly;
    each stress certificate must equal its exact recomputation (bit-equal
    ``omega``, exact rank), with no tolerance.
    """
    try:
        return _verify_chain(fw, chain)
    except Exception:
        return False


def _verify_chain(fw: BipartiteFramework, chain: CertificateChain) -> bool:
    if chain.framework != fw or not chain.records:
        return False
    known = KnownSet.empty()
    last = len(chain.records) - 1
    for pos, rec in enumerate(chain.records):
        if rec.index != pos or (rec.known_p, rec.known_q) != (known.p_indices, known.q_indices):
            return False
        terminal = rec.kind != "balanced"
        # Only the last record is terminal, and only a separated one carries a quadric.
        if terminal != (pos == last) or (rec.kind == "separated") == (rec.separation is None):
            return False
        step = _pass(fw, known)
        if (rec.cone_point, rec.functional) != (step.cone_point, step.functional):
            return False
        if terminal:
            return (
                not (rec.support_p or rec.support_q or rec.radon or rec.stress)
                and rec.kind == (step.forced or "separated")
                and chain.verdict is _VERDICT[rec.kind]
                and (step.forced is not None or verify_separation(rec.separation, step.sub))
            )
        cert = rec.radon
        if step.forced or cert is None or not verify_radon(step.sub, cert):
            return False
        local_p = cert.support_p
        local_q = cert.support_q
        if not local_p or not local_q:
            return False
        if rec.support_p != tuple(step.comp_p[i] for i in local_p):
            return False
        if rec.support_q != tuple(step.comp_q[j] for j in local_q):
            return False
        if rec.stress is None:
            return False
        sub_support = step.sub.subframework(local_p, local_q)
        if tuple(rec.stress.lambdas) != tuple(cert.lambdas[i] for i in local_p):
            return False
        if tuple(rec.stress.mus) != tuple(cert.mus[j] for j in local_q):
            return False
        if not verify_super_stable_certificate(sub_support, rec.stress):
            return False
        grown = known.union(rec.support_p, rec.support_q)
        if grown.size <= known.size:
            return False
        known = affine_closure(fw, grown)
        if not span_invariant_holds(fw, known):
            return False
    return False  # chain ended without a terminal record


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
