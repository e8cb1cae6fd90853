"""A pinned SHA-256 over the exact fields of decided chains.

Performance changes claim that chains stay byte-identical; this test checks
that claim.  The digest covers the verdict and, per record, the kind, known
sets, supports, cone point, functional, balance coefficients, separating
quadric, the stress ``rank`` (exact) and ``omega`` (bit-exact, as float
hex).  It leaves out ``residual`` and ``min_eigenvalue``, which depend on
the BLAS build.  The inputs are the fixtures, 30 seed-7 instances of the
acceptance-2 generator and K(10,10) seeds 1-2, whose balanced passes
maximize coordinates with a positive optimum.

A change that moves a certificate on purpose (a new pivot rule, a new
format) must update ``DIGEST`` and say so.

``TEXT_DIGEST`` pins the bytes of ``serialize_chain`` over the same corpus
plus a K(4,4) whose quadric entries run past the interpreter's digit limit,
so a change to the writer cannot move a byte unnoticed.  Each stress's
measured ``min_eigenvalue`` and ``residual`` are replaced first by values
read off its ``omega``, which keeps the digest independent of the BLAS build.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from bipartite_rigidity.docio import serialize_chain
from bipartite_rigidity.engine import rigidity_test
from bipartite_rigidity.fixtures import all_fixtures
from conftest import flag, huge_k44, k10x10, random_framework

DIGEST = "3122e36eebf1c2d92a9d311a41772fd71893a98913e900a53e73477e40acac6a"
TEXT_DIGEST = "40400b4b5d769d2cd8e9ceabe8d465be185f6b1a9c5434fa92deb55985316b6d"


def _rats(values):
    return None if values is None else [str(v) for v in values]


def chain_fields(verdict, chain) -> list:
    """The exact, platform-independent content of one decided chain."""
    records = []
    for rec in chain.records:
        records.append([
            rec.kind,
            list(rec.known_p),
            list(rec.known_q),
            list(rec.support_p),
            list(rec.support_q),
            _rats(rec.cone_point),
            _rats(rec.functional),
            None if rec.radon is None else [_rats(rec.radon.lambdas), _rats(rec.radon.mus)],
            None
            if rec.separation is None
            else [_rats(rec.separation.matrix.upper), str(rec.separation.delta)],
            None
            if rec.stress is None
            else [rec.stress.rank, [v.hex() for row in rec.stress.omega for v in row]],
        ])
    return [verdict.value, records]


def corpus():
    frameworks = [fx.framework for fx in all_fixtures().values()]
    rng = random.Random(7)
    return (
        frameworks
        + [random_framework(rng) for _ in range(30)]
        + [k10x10(1), k10x10(2)]
        + [flag(seed) for seed in range(1, 11)]
    )


def test_chain_digest_is_pinned():
    digest = hashlib.sha256()
    for fw in corpus():
        verdict, chain = rigidity_test(fw)
        digest.update(json.dumps(chain_fields(verdict, chain)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DIGEST


def measured_from_omega(chain):
    """``chain`` with each stress's measurements read off its ``omega`` instead."""

    def fixed(stress):
        omega = stress.omega
        return dataclasses.replace(stress, _measure=lambda: (-omega[0][0] / 3, omega[-1][-1] / 7))

    records = tuple(
        rec if rec.stress is None else dataclasses.replace(rec, stress=fixed(rec.stress))
        for rec in chain.records
    )
    return dataclasses.replace(chain, records=records)


def test_chain_text_digest_is_pinned():
    digest = hashlib.sha256()
    for fw in corpus() + [huge_k44(0)]:
        verdict, chain = rigidity_test(fw)
        digest.update(verdict.value.encode() + b"\n")
        digest.update(serialize_chain(measured_from_omega(chain)).encode())
    assert digest.hexdigest() == TEXT_DIGEST
