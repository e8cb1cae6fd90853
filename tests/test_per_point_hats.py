"""Per-point hats against the joint clear they replaced.

Every exact check reads a point ``p`` as its hat ``(X, c) = c p^``, cleared
by its own denominator (``geometry._hats``).  Each ``joint_*`` function
below is the same check on the older integer format: the whole point set
cleared by one common denominator.  Both are exact, so the property tests
demand equal answers (the projection's rays up to a positive factor) on
d = 0..3, repeated and collinear points and denominators up to 10**400.
Replay clears the input points once per call and computes one balance per
balanced record; the hats the slide hands on and the balance restricted to
the support are checked here against fresh clears and the joint clear.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bipartite_rigidity import engine, geometry
from bipartite_rigidity.fixtures import all_fixtures
from bipartite_rigidity.geometry import (
    BipartiteFramework,
    SymmetricMatrix,
    _affine_members,
    _balance,
    _diagonal,
    _gram,
    _hats,
    _lift,
    _reduce_ints,
    _restricted,
    affine_span_dim,
    affine_spans_equal,
)
from bipartite_rigidity.lp import _clear
from bipartite_rigidity.reduction import ClosureViolated, KnownSet, project_out_known_set
from bipartite_rigidity.separation import (
    RadonCertificate,
    SeparationCertificate,
    _radon_balance,
    verify_radon,
    verify_separation,
)
from bipartite_rigidity.stress import DegenerateInput, _cross_block
from conftest import huge_k44
from test_integer_geometry import (
    ENTRIES,
    POSITIVE,
    RATIONALS,
    SMALL,
    TINY,
    assert_positive_multiple,
    frameworks,
    point_sets,
    split,
)
from test_stress import cross_block

SETTINGS = settings(max_examples=60, deadline=None)

# -- the joint clear -------------------------------------------------------------


def joint_ints(points) -> tuple[list[list[int]], int]:
    """Integer coordinates ``c p`` of every point and their common denominator ``c``."""
    flat, c = _clear([v for pt in points for v in pt])
    d = len(points[0]) if points else 0
    return [flat[k * d : k * d + d] for k in range(len(points))], c


def joint_hats(points) -> list[list[int]]:
    ints, c = joint_ints(points)
    return [x + [c] for x in ints]


def joint_span_dim(ints) -> int:
    base = ints[0]
    return len(_reduce_ints([[a - b for a, b in zip(pt, base)] for pt in ints[1:]])[0])


def joint_members(points, candidates) -> list[bool]:
    ints, _ = joint_ints([*points, *candidates])
    dim = joint_span_dim(ints[: len(points)])
    return [joint_span_dim(ints[: len(points)] + [x]) == dim for x in ints[len(points) :]]


def joint_spans_equal(a, b) -> bool:
    if not a or not b:
        return not a and not b
    ints, _ = joint_ints([*a, *b])
    da = joint_span_dim(ints[: len(a)])
    return da == joint_span_dim(ints[len(a) :]) == joint_span_dim(ints)


def joint_verify_radon(fw, cert) -> bool:
    n = fw.n
    coeffs = (*cert.lambdas, *cert.mus)
    if len(cert.lambdas) != n or len(cert.mus) != fw.m or any(v < 0 for v in coeffs):
        return False
    ints, w = _clear(coeffs)
    if sum(ints[:n]) != w or sum(ints[n:]) != w:
        return False
    hats, order = joint_hats(fw.all_points()), fw.dimension + 1
    return _gram(hats[:n], ints[:n], order) == _gram(hats[n:], ints[n:], order)


def joint_verify_separation(cert, fw) -> bool:
    matrix, delta = cert.matrix, cert.delta
    if delta <= 0 or matrix.order != fw.dimension + 1 or any(abs(v) > 1 for v in matrix.upper):
        return False
    ints, _ = _clear((*matrix.upper, delta))
    weights = [v if diag else 2 * v for v, diag in zip(ints, _diagonal(matrix.order))]
    _, c = joint_ints(fw.all_points())
    hats = joint_hats(fw.all_points())
    bound = ints[-1] * c * c

    def form(h):
        return sum(s * x for s, x in zip(weights, _lift(h)))

    return all(form(h) >= bound for h in hats[: fw.n]) and all(
        form(h) <= -bound for h in hats[fw.n :]
    )


def joint_cross_block(fw, lambdas, mus):
    """``B`` over the jointly cleared hats and the jointly cleared coefficients."""
    hat = fw.dimension + 1
    hats = joint_hats(fw.all_points())
    p_hats, q_hats = hats[: fw.n], hats[fw.n :]
    coeffs, w = _clear((*lambdas, *mus))
    a, b = coeffs[: fw.n], coeffs[fw.n :]
    upper = _gram(p_hats, a, hat)
    if upper != _gram(q_hats, b, hat):
        raise DegenerateInput("coefficients do not balance the lifted classes")
    gram = SymmetricMatrix(hat, tuple(upper)).rows()
    system = [gram[i] + [bj * q[i] for q, bj in zip(q_hats, b)] for i in range(hat)]
    pivots, den = _reduce_ints(system)
    x = [[0] * fw.m for _ in range(hat)]
    for row, col in zip(system, pivots):
        x[col] = row[hat:]
    nums = [
        [-ai * sum(c * x[k][j] for k, c in enumerate(p)) for j in range(fw.m)]
        for p, ai in zip(p_hats, a)
    ]
    return nums, w * den, len(pivots)


def joint_project_out(fw, known):
    """The cone point and the integer ray of each complement vertex, on the joint clear."""
    anchors = known.points(fw)
    comp = [("P", i, pt) for i, pt in enumerate(fw.points_p) if i not in known.p_indices]
    comp += [("Q", j, pt) for j, pt in enumerate(fw.points_q) if j not in known.q_indices]
    ints, c = joint_ints(anchors + [pt for _, _, pt in comp])
    base = ints[0]
    diffs = [[a - b for a, b in zip(pt, base)] for pt in ints[1:]]
    basis = diffs[: len(anchors) - 1]
    basis = basis[: len(_reduce_ints(basis)[0])]
    targets = [base] + diffs[len(anchors) - 1 :]
    system = [[sum(a * b for a, b in zip(u, v)) for v in basis + targets] for u in basis]
    _, den = _reduce_ints(system)
    k = len(basis)
    cone, *rays = [
        [den * v - sum(b[j] * row[k + t] for b, row in zip(basis, system))
         for j, v in enumerate(x)]
        for t, x in enumerate(targets)
    ]
    for (cls, idx, _), ray in zip(comp, rays):
        if not any(ray):
            raise ClosureViolated(f"class-{cls} vertex {idx} projects onto the cone point")
    return tuple(F(v, den * c) for v in cone), rays


# -- spans -----------------------------------------------------------------------


def span_points(draw, points, count):
    """``count`` points of the affine span of ``points`` or anywhere, with repeats."""
    out = []
    for _ in range(count):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            out.append(draw(st.sampled_from(points)))
        elif kind == 1:
            base, a, b = (draw(st.sampled_from(points)) for _ in range(3))
            s, t = draw(RATIONALS), draw(SMALL)
            out.append(tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(base, a, b)))
        else:
            out.append(draw(st.tuples(*[RATIONALS] * len(points[0]))))
    return out


@SETTINGS
@given(point_sets())
def test_affine_span_dim_matches_joint_clear(points):
    assert affine_span_dim(points) == joint_span_dim(joint_ints(points)[0])


@SETTINGS
@given(st.data())
def test_affine_members_match_joint_clear(data):
    points = data.draw(point_sets())
    candidates = span_points(data.draw, points, data.draw(st.integers(0, 5)))
    assert _affine_members(_hats(points), _hats(candidates)) == joint_members(points, candidates)


@SETTINGS
@given(st.data())
def test_affine_spans_equal_matches_joint_clear(data):
    # ``b`` is drawn from the span of ``a`` or anywhere, so equal and
    # unequal hulls of equal dimension both come up.
    a = data.draw(point_sets())
    b = span_points(data.draw, a, data.draw(st.integers(0, 6)))
    a = data.draw(st.sampled_from([a, []])) if not b else a
    assert affine_spans_equal(a, b) == joint_spans_equal(a, b)
    assert affine_spans_equal(b, a) == joint_spans_equal(b, a)


@pytest.mark.parametrize(
    "a, b",
    [
        ([(F(1, 3),), (F(-2, 7),)], [(F(5, 9),), (F(1, 3),), (F(4),)]),
        (
            [(F(0), F(0), F(1, 2)), (F(1), F(0), F(1, 2)), (F(0), F(1, 5), F(1, 2))],
            [(F(3, 4), F(-1), F(1, 2)), (F(-2, 3), F(7, 9), F(1, 2)), (F(1, 8), F(2), F(1, 2))],
        ),
        (
            [(F(0), F(0)), (F(1, 6), F(0)), (F(0), F(2, 3)), (F(5, 7), F(1, 11))],
            [(F(1), F(1)), (F(-1, 2), F(3)), (F(2), F(-5, 13))],
        ),
    ],
)
def test_affine_spans_equal_clears_each_point_once(monkeypatch, a, b):
    # Equal hulls, so both membership tests run to the end; each point of
    # ``a`` and of ``b`` is cleared exactly once.
    calls = []
    clear = geometry._clear

    def counted(values):
        calls.append(values)
        return clear(values)

    monkeypatch.setattr(geometry, "_clear", counted)
    assert affine_spans_equal(a, b)
    assert len(calls) == len(a) + len(b)


# -- certificates ----------------------------------------------------------------


@st.composite
def balanced(draw):
    """A framework whose Q side repeats its P side shuffled, with balancing weights.

    Then an affine image, singular ones included, with huge denominators:
    balance survives any affine map of the hats.
    """
    d = draw(st.integers(0, 3))
    points = draw(point_sets(d=d, min_size=1, max_size=6, coords=SMALL))
    weights = draw(st.lists(POSITIVE, min_size=len(points), max_size=len(points)))
    weights = [w / sum(weights) for w in weights]
    order = draw(st.permutations(range(len(points))))
    matrix = [draw(st.tuples(*[RATIONALS] * d)) for _ in range(d)]
    shift = draw(st.tuples(*[RATIONALS] * d))

    def image(pt):
        return tuple(sum((a * x for a, x in zip(row, pt)), s) for row, s in zip(matrix, shift))

    mapped = [image(pt) for pt in points]
    fw = BipartiteFramework(d, tuple(mapped), tuple(mapped[k] for k in order))
    return fw, weights, [weights[k] for k in order]


@SETTINGS
@given(balanced(), st.sampled_from(["none", "tiny", "scale", "swap"]), TINY)
def test_cross_block_matches_joint_clear(case, edit, eps):
    # Equal B as rationals and equal rank G, or the same refusal.
    fw, lambdas, mus = case
    if edit == "tiny":
        mus = [mus[0] + eps, *mus[1:]]
    elif edit == "scale":
        lambdas, mus = [3 * v for v in lambdas], [3 * v for v in mus]
    elif edit == "swap":
        mus = mus[::-1]
    try:
        nums, den, rank = joint_cross_block(fw, lambdas, mus)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            cross_block(fw, lambdas, mus)
        return
    got_nums, got_den, got_rank = cross_block(fw, lambdas, mus)
    assert got_den > 0 and got_rank == rank
    assert [[F(v, got_den) for v in row] for row in got_nums] == [
        [F(v, den) for v in row] for row in nums
    ]


@SETTINGS
@given(balanced(), st.sampled_from(["none", "tiny", "double", "swap", "negate", "short"]), TINY)
def test_verify_radon_matches_joint_clear(case, edit, eps):
    fw, lambdas, mus = case
    if edit == "tiny" and len(lambdas) > 1:
        lambdas = [lambdas[0] + eps, *lambdas[1:-1], lambdas[-1] - eps]
    elif edit == "double":
        lambdas, mus = [2 * v for v in lambdas], [2 * v for v in mus]
    elif edit == "swap":
        mus = mus[::-1]
    elif edit == "negate":
        lambdas = [-lambdas[0], *lambdas[1:]]
    elif edit == "short":
        mus = mus[:-1]
    cert = RadonCertificate(tuple(lambdas), tuple(mus))
    assert verify_radon(fw, cert) == joint_verify_radon(fw, cert)
    if edit == "none":
        assert verify_radon(fw, cert)


@SETTINGS
@given(st.data())
def test_verify_separation_matches_joint_clear(data):
    # A random form splits the points by sign; delta is its exact margin,
    # a tiny rational off it, or anything.
    points = data.draw(point_sets())
    d = len(points[0])
    size = (d + 1) * (d + 2) // 2
    matrix = SymmetricMatrix.from_upper(
        d + 1, data.draw(st.lists(ENTRIES, min_size=size, max_size=size))
    )
    values = [matrix.evaluate_point(pt) for pt in points]
    fw = BipartiteFramework(
        d,
        tuple(pt for pt, v in zip(points, values) if v > 0) or tuple(points),
        tuple(pt for pt, v in zip(points, values) if v < 0),
    )
    margin = min(
        [matrix.evaluate_point(p) for p in fw.points_p]
        + [-matrix.evaluate_point(q) for q in fw.points_q]
    )
    eps = data.draw(TINY)
    for delta in (margin, margin + eps, margin - eps, data.draw(RATIONALS)):
        cert = SeparationCertificate(matrix, delta)
        assert verify_separation(cert, fw) == joint_verify_separation(cert, fw)


# -- projection ------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_project_out_matches_joint_clear(data):
    # The same cone point, and each ray a positive multiple of the joint
    # clear's ray; or the same refusal.
    points = data.draw(point_sets(min_size=2, max_size=8))
    fw = split(data.draw, points)
    known = KnownSet.of(
        data.draw(st.lists(st.integers(0, fw.n - 1), min_size=1, max_size=fw.n)),
        data.draw(st.lists(st.integers(0, fw.m - 1), max_size=fw.m)) if fw.m else [],
    )
    table = _hats(fw.all_points())
    try:
        cone, rays = joint_project_out(fw, known)
    except ClosureViolated as err:
        with pytest.raises(ClosureViolated) as raised:
            project_out_known_set(fw, known, table)
        assert str(raised.value) == str(err)
        return
    got_cone, got_rays = project_out_known_set(fw, known, table)
    assert got_cone == cone
    assert len(got_rays) == len(rays)
    for got, ray in zip(got_rays, rays):
        assert_positive_multiple(got, ray)


# -- one clear and one balance per replayed record --------------------------------


def assert_replay_inputs_match(fw):
    """Each pass of ``fw``'s chain that solved a balance LP, as replay reads it.

    The hats the slide hands on (the table's on a first pass) are the
    slid points' own hats.  On a balanced pass, the record's balance
    restricted to its support is the support's own balance, and the cross
    block built on it is the joint clear's.
    """
    _, chain = engine.rigidity_test(fw)
    table = _hats(fw.all_points())
    for rec in chain.records:
        step = engine._pass(fw, KnownSet(rec.known_p, rec.known_q), table)
        if step.sub is None:
            continue
        assert step.hats == _hats(step.sub.all_points())
        if rec.kind != "balanced":
            continue
        cert = rec.radon
        local_p, local_q = cert.support_p, cert.support_q
        support = step.sub.subframework(local_p, local_q)
        lambdas = [cert.lambdas[i] for i in local_p]
        mus = [cert.mus[j] for j in local_q]
        restricted = _restricted(
            _radon_balance(step.sub, step.hats, cert), step.sub.n, local_p, local_q
        )
        assert restricted == _balance(_hats(support.all_points()), support.n, lambdas, mus)
        nums, den, rank = _cross_block(restricted, support.n)
        ref_nums, ref_den, ref_rank = joint_cross_block(support, lambdas, mus)
        assert rank == ref_rank
        assert [[F(v, den) for v in row] for row in nums] == [
            [F(v, ref_den) for v in row] for row in ref_nums
        ]
    return chain


def huge_two_pass() -> BipartiteFramework:
    """``huge_k44(3)`` with its first two Q points moved onto the first two P points.

    The shared pair balances on a line, so a second pass projects it out
    and slides the rest, on coordinates of up to 400 digits.
    """
    fw = huge_k44(3)
    return BipartiteFramework(3, fw.points_p, fw.points_p[:2] + fw.points_q[2:])


@pytest.mark.parametrize("name", sorted(all_fixtures()))
def test_replay_inputs_match_fresh_clears_on_fixtures(name):
    fw = all_fixtures()[name].framework
    assert engine.verify_chain(fw, assert_replay_inputs_match(fw))


def test_replay_inputs_match_fresh_clears_on_huge_coordinates():
    fw = huge_two_pass()
    chain = assert_replay_inputs_match(fw)
    assert [rec.kind for rec in chain.records] == ["balanced", "separated"]
    assert chain.records[1].cone_point is not None  # the second pass slides
    assert engine.verify_chain(fw, chain)


@settings(max_examples=40, deadline=None)
@given(frameworks())
def test_replay_inputs_match_fresh_clears(fw):
    assert_replay_inputs_match(fw)
