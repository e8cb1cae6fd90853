"""A pinned SHA-256 over the exact fields of decided chains.

Performance changes claim that chains stay byte-identical; this test checks
that claim.  The digest covers the verdict and, per record, the kind, known
sets, supports, cone point, functional, balance coefficients, separating
quadric, the stress ``rank`` (exact) and ``omega`` (bit-exact, as float
hex).  It leaves out ``residual`` and ``min_eigenvalue``, which depend on
the BLAS build.  The inputs are the fixtures plus 30 seed-7 instances of
the acceptance-2 generator.

A change that moves a certificate on purpose (a new pivot rule, a new
format) must update ``DIGEST`` and say so.
"""

from __future__ import annotations

import hashlib
import json
import random

from bipartite_rigidity.engine import rigidity_test
from bipartite_rigidity.fixtures import all_fixtures
from conftest import random_framework

DIGEST = "80974c817b143d3601876434bcc4af1d57d567ec89260c25d0d130fee5223804"


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
            else [rec.stress.rank, [v.hex() for v in rec.stress.omega.ravel().tolist()]],
        ])
    return [verdict.value, records]


def corpus():
    frameworks = [fx.framework for fx in all_fixtures().values()]
    rng = random.Random(7)
    return frameworks + [random_framework(rng) for _ in range(30)]


def test_chain_digest_is_pinned():
    digest = hashlib.sha256()
    for fw in corpus():
        verdict, chain = rigidity_test(fw)
        digest.update(json.dumps(chain_fields(verdict, chain)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DIGEST
