"""A pinned SHA-256 over the Farkas vectors and optimal duals the solver returns.

The solver reads no certificate off the tableau: a Farkas vector or a set of
optimal duals is solved from the final basis when an outcome's ``dual`` is
read.  This test checks that those are the very rationals an earlier
solver read off its artificial columns.  The digest covers the status and
``dual`` of:

* the seeded problems of ``tests/test_lp.py`` (the feasibility solves of
  ``test_feasible_points_reverify_exactly`` and the maximizations of
  ``test_status_matches_vertex_enumeration_oracle`` and
  ``test_optimal_dual_matches_value``, drawn alike);
* the balance LP (:func:`_radon_problem`) of the fixtures and K(10,10)
  seeds 1-3: its feasibility solve and, from that solve's basis, the
  maximization of every coordinate zero in the first point;
* the distance LP (:func:`_distance_problem`) of the same frameworks.

A change that moves a dual on purpose (a new pivot rule) must update
``DIGEST`` and say so.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

from bipartite_rigidity.fixtures import all_fixtures
from bipartite_rigidity.lp import LPProblem, LPStatus, maximize, solve_feasibility
from bipartite_rigidity.separation import _distance_problem, _radon_problem
from conftest import k10x10

DIGEST = "c5d96521dac1d3e63377dd417da54c088df930ae8e3498e5069a89d95c0c6e58"

#: The seed of the ``rng`` fixture in ``tests/conftest.py``.
SEED = 20240817


def seeded_problems():
    """The problems of the seeded tests in ``tests/test_lp.py``, in their order."""
    for count, n_max, m_max, with_objective in ((300, 6, 4, False), (250, 6, 4, True),
                                                (120, 5, 3, True)):
        rng = random.Random(SEED)
        for _ in range(count):
            n = rng.randint(1, n_max)
            m = rng.randint(1, m_max)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-3, 3) for _ in range(m)]
            objective = [rng.randint(-3, 3) for _ in range(n)] if with_objective else None
            yield LPProblem.create(rows, rhs, n, objective=objective)


def framework_outcomes(fw):
    """The balance LP solves ``maximal_support_radon`` may make, then the distance LP."""
    base = _radon_problem(fw)
    start = solve_feasibility(base)
    yield start
    if start.status is LPStatus.FEASIBLE:
        total = fw.n + fw.m
        for j in range(total):
            if start.point[j] == 0:
                objective = tuple(int(k == j) for k in range(total))
                yield maximize(replace(base, objective=objective), start=start)
    yield maximize(_distance_problem(fw))


def outcomes():
    for prob in seeded_problems():
        yield maximize(prob) if prob.objective is not None else solve_feasibility(prob)
    frameworks = [fx.framework for fx in all_fixtures().values()]
    for fw in frameworks + [k10x10(seed) for seed in (1, 2, 3)]:
        yield from framework_outcomes(fw)


def test_dual_digest_is_pinned():
    digest = hashlib.sha256()
    for out in outcomes():
        dual = None if out.dual is None else [str(v) for v in out.dual]
        digest.update(json.dumps([out.status.value, dual]).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DIGEST
