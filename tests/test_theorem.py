"""Verdicts against the dichotomy theorem, through an LP that is not the engine's.

The frameworks kept here are in general position by this test's own
predicate, which is not claimed to be the source paper's hypothesis: the
points are distinct and every ``min(d + 1, n + m)`` of them are affinely
independent (for ``n + m >= d + 1``: every ``d + 1`` of them).  On such a
framework the verdict is predicted with no engine code, by these rules in
order:

* ``n <= 1`` and ``m <= 1``: universally rigid;
* otherwise ``n + m <= d + 1``: dimensionally rigid only;
* otherwise universally rigid if the lifted classes balance, that is some
  ``lambda, mu >= 0`` with ``sum lambda = 1`` have
  ``sum lambda_i p^_i p^_i^T = sum mu_j q^_j q^_j^T`` (``v^ = (v, 1)``),
  as decided by the brute-force ``conftest.oracle_lp`` on a system built
  here in ``Fraction``s; not dimensionally rigid if they do not.

``oracle_lp`` enumerates supports, so its cost grows fast with ``n + m``:
at ``n + m = 8`` it took about 0.1 s per instance at d = 2 and 0.17 s at
d = 3 (Python 3.11, one x86 core), and both classes together stay at
eight points at most.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings

from bipartite_rigidity.engine import Verdict, rigidity_test, verify_chain
from bipartite_rigidity.geometry import BipartiteFramework
from conftest import drawn_frameworks, fraction_rref, oracle_lp, random_framework

NM_MAX = 8


def in_general_position(fw: BipartiteFramework) -> bool:
    """Distinct points, every ``min(d + 1, n + m)`` of them affinely independent."""
    points = fw.all_points()
    if len(set(points)) < len(points):
        return False
    size = min(fw.dimension + 1, len(points))
    for subset in combinations(points, size):
        base, *rest = subset
        offsets = [[x - y for x, y in zip(pt, base)] for pt in rest]
        if len(fraction_rref(offsets)) < size - 1:
            return False
    return True


def lifted_balance_system(fw: BipartiteFramework):
    """``(rows, rhs)`` of the balance of the lifted classes, normalized by ``sum lambda = 1``.

    One row per entry ``a <= b`` of ``v^ v^T``: ``p^_a p^_b`` in the column
    of each P point and ``-q^_a q^_b`` in that of each Q point, rhs zero.
    """
    hats = [(*pt, F(1)) for pt in fw.all_points()]
    signs = [1] * fw.n + [-1] * fw.m
    order = fw.dimension + 1
    rows = [
        [s * h[a] * h[b] for h, s in zip(hats, signs)]
        for a in range(order)
        for b in range(a, order)
    ]
    rows.append([F(1)] * fw.n + [F(0)] * fw.m)
    return rows, [F(0)] * (len(rows) - 1) + [F(1)]


def predicted_verdict(fw: BipartiteFramework) -> Verdict:
    if fw.n <= 1 and fw.m <= 1:
        return Verdict.UNIVERSALLY_RIGID
    if fw.n + fw.m <= fw.dimension + 1:
        return Verdict.DIMENSIONALLY_RIGID_ONLY
    if oracle_lp(*lifted_balance_system(fw)) == "feasible":
        return Verdict.UNIVERSALLY_RIGID
    return Verdict.NOT_DIMENSIONALLY_RIGID


def assert_theorem_holds(fw: BipartiteFramework) -> Verdict:
    expected = predicted_verdict(fw)
    verdict, chain = rigidity_test(fw)
    assert verdict is expected
    assert verify_chain(fw, chain)
    return verdict


def test_general_position_predicate():
    make = BipartiteFramework.from_lists
    assert in_general_position(make(2, [[0, 0], [1, 0]], [[0, 1], [2, 3]]))
    assert not in_general_position(make(2, [[0, 0], [1, 1]], [[2, 2]]))  # collinear
    assert not in_general_position(make(1, [[0], [1]], [[1]]))  # repeated
    assert not in_general_position(make(3, [[0, 0, 0], [1, 1, 1]], [[2, 2, 2]]))
    assert in_general_position(make(3, [[0, 0, 0], [1, 0, 0]], [[0, 1, 0]]))


def test_theorem_on_seeded_draws():
    rng = random.Random(12)
    draws = [random_framework(rng, d_max=3, nm_max=NM_MAX) for _ in range(32)]
    kept = [fw for fw in draws if in_general_position(fw)]
    verdicts = Counter(assert_theorem_holds(fw) for fw in kept)
    # Most draws are kept and every rule is exercised, so the oracle is not vacuous.
    assert len(kept) >= 24 and set(verdicts) == set(Verdict)


@settings(max_examples=25, deadline=None)
@given(drawn_frameworks(nm_max=NM_MAX).filter(in_general_position))
def test_theorem_on_drawn_frameworks(fw):
    assert_theorem_holds(fw)
