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
:func:`verify_chain`, which re-checks all rational certificates exactly and
all floating stress certificates at their declared tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

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
from .stress import (
    NumericalFailure,
    StressCertificate,
    build_super_stable_stress,
    verify_super_stable_certificate,
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
    cone_point: Optional[Point]
    functional: Optional[tuple[Fraction, ...]]
    support_p: tuple[int, ...]
    support_q: tuple[int, ...]
    radon: Optional[RadonCertificate]
    separation: Optional[SeparationCertificate]
    stress: Optional[StressCertificate]


@dataclass(frozen=True)
class CertificateChain:
    framework: BipartiteFramework
    records: tuple[IterationRecord, ...]
    verdict: Verdict


def _validate(fw: BipartiteFramework) -> None:
    if not isinstance(fw, BipartiteFramework):
        raise InvalidInput("expected a BipartiteFramework")
    if fw.n < 1:
        raise InvalidInput("the first class must be nonempty")
    for pt in fw.all_points():
        if len(pt) != fw.dimension:
            raise InvalidInput("point dimension mismatch")


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


def rigidity_test(fw: BipartiteFramework) -> tuple[Verdict, CertificateChain]:
    """Decide the rigidity class of a complete bipartite framework.

    Returns the verdict together with a replayable certificate chain.  The
    verdict is driven entirely by exact LP outcomes.
    """
    _validate(fw)
    known = KnownSet.empty()
    records: list[IterationRecord] = []

    def record(kind: RecordKind, **kw) -> None:
        records.append(
            IterationRecord(
                index=len(records),
                kind=kind,
                known_p=known.p_indices,
                known_q=known.q_indices,
                cone_point=kw.get("cone_point"),
                functional=kw.get("functional"),
                support_p=kw.get("support_p", ()),
                support_q=kw.get("support_q", ()),
                radon=kw.get("radon"),
                separation=kw.get("separation"),
                stress=kw.get("stress"),
            )
        )

    def finish(verdict: Verdict) -> tuple[Verdict, CertificateChain]:
        return verdict, CertificateChain(
            framework=fw, records=tuple(records), verdict=verdict
        )

    for _ in range(fw.n + fw.m + 1):
        comp_p = [i for i in range(fw.n) if i not in known.p_indices]
        comp_q = [j for j in range(fw.m) if j not in known.q_indices]
        if len(comp_p) <= 1 and len(comp_q) <= 1:
            record("exit")
            return finish(Verdict.UNIVERSALLY_RIGID)
        cone_point, functional, red_p, red_q = _reduce(fw, known, comp_p, comp_q)
        reduced_all = red_p + red_q
        if affine_span_dim(reduced_all) == len(reduced_all) - 1:
            record("dimspan", cone_point=cone_point, functional=functional)
            return finish(Verdict.DIMENSIONALLY_RIGID_ONLY)
        if not red_p or not red_q:
            record("one-sided", cone_point=cone_point, functional=functional)
            return finish(Verdict.NOT_DIMENSIONALLY_RIGID)
        sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
        cert = maximal_support_radon(sub)
        if isinstance(cert, SeparationCertificate):
            record(
                "separated",
                cone_point=cone_point,
                functional=functional,
                separation=cert,
            )
            return finish(Verdict.NOT_DIMENSIONALLY_RIGID)
        local_p = cert.support_p
        local_q = cert.support_q
        stress = build_super_stable_stress(
            sub.subframework(local_p, local_q),
            [cert.lambdas[i] for i in local_p],
            [cert.mus[j] for j in local_q],
        )
        support_p = tuple(comp_p[i] for i in local_p)
        support_q = tuple(comp_q[j] for j in local_q)
        record(
            "balanced",
            cone_point=cone_point,
            functional=functional,
            support_p=support_p,
            support_q=support_q,
            radon=cert,
            stress=stress,
        )
        known = affine_closure(fw, known.union(support_p, support_q))
        if not span_invariant_holds(fw, known):  # pragma: no cover - theory guard
            raise AssertionError("certified classes stopped sharing their hull")
    raise AssertionError("loop exceeded its progress bound")  # pragma: no cover


def verify_chain(
    fw: BipartiteFramework, chain: CertificateChain, tol: float = 1e-8
) -> bool:
    """Replay a chain against a framework; True iff every record checks out.

    Rational evidence (balance certificates, separating quadrics, known-set
    growth, span invariants, reduction geometry) is re-verified exactly;
    stress certificates are re-verified numerically at ``tol``.
    """
    try:
        return _verify_chain(fw, chain, tol)
    except Exception:
        return False


def _verify_chain(fw: BipartiteFramework, chain: CertificateChain, tol: float) -> bool:
    if chain.framework != fw:
        return False
    if not chain.records:
        return False
    known = KnownSet.empty()
    last = len(chain.records) - 1
    for pos, rec in enumerate(chain.records):
        if rec.index != pos:
            return False
        if rec.known_p != known.p_indices or rec.known_q != known.q_indices:
            return False
        comp_p = [i for i in range(fw.n) if i not in known.p_indices]
        comp_q = [j for j in range(fw.m) if j not in known.q_indices]
        terminal = rec.kind != "balanced"
        if terminal != (pos == last):
            return False
        if terminal and (rec.support_p or rec.support_q or rec.radon or rec.stress):
            return False
        if rec.kind != "separated" and rec.separation is not None:
            return False
        if rec.kind == "exit":
            return (
                len(comp_p) <= 1
                and len(comp_q) <= 1
                and rec.cone_point is None
                and rec.functional is None
                and chain.verdict is Verdict.UNIVERSALLY_RIGID
            )
        if len(comp_p) <= 1 and len(comp_q) <= 1:
            return False
        cone_point, functional, red_p, red_q = _reduce(fw, known, comp_p, comp_q)
        if rec.cone_point != cone_point or rec.functional != functional:
            return False
        reduced_all = red_p + red_q
        independent = affine_span_dim(reduced_all) == len(reduced_all) - 1
        if rec.kind == "dimspan":
            return independent and chain.verdict is Verdict.DIMENSIONALLY_RIGID_ONLY
        if independent:
            return False
        if rec.kind == "one-sided":
            return (not red_p or not red_q) and (
                chain.verdict is Verdict.NOT_DIMENSIONALLY_RIGID
            )
        if not red_p or not red_q:
            return False
        sub = BipartiteFramework(fw.dimension, tuple(red_p), tuple(red_q))
        if rec.kind == "separated":
            if rec.separation is None or not verify_separation(rec.separation, sub):
                return False
            return chain.verdict is Verdict.NOT_DIMENSIONALLY_RIGID
        if rec.kind != "balanced":
            return False
        cert = rec.radon
        if cert is None or not verify_radon(sub, cert):
            return False
        local_p = cert.support_p
        local_q = cert.support_q
        if not local_p or not local_q:
            return False
        if rec.support_p != tuple(comp_p[i] for i in local_p):
            return False
        if rec.support_q != tuple(comp_q[j] for j in local_q):
            return False
        if rec.stress is None:
            return False
        sub_support = sub.subframework(local_p, local_q)
        if tuple(rec.stress.lambdas) != tuple(cert.lambdas[i] for i in local_p):
            return False
        if tuple(rec.stress.mus) != tuple(cert.mus[j] for j in local_q):
            return False
        if not verify_super_stable_certificate(sub_support, rec.stress, tol):
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
    per-item :class:`InvalidInput` or :class:`NumericalFailure` is returned
    in place of that item's result instead of aborting the batch.
    """

    def one(fw: BipartiteFramework) -> BatchResult:
        try:
            return rigidity_test(fw)
        except (InvalidInput, NumericalFailure, ValueError) as exc:
            return exc

    return [one(fw) for fw in frameworks]
