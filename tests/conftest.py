"""Shared helpers: random framework generators and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import strategies as st

from bipartite_rigidity.geometry import BipartiteFramework
from bipartite_rigidity.lp import ZERO, ONE


def random_framework(
    rng: random.Random,
    d_max: int = 3,
    nm_max: int = 12,
    coord_bound: int = 16,
) -> BipartiteFramework:
    """A random rational framework with both classes nonempty."""
    d = rng.randint(1, d_max)
    n = rng.randint(1, nm_max - 1)
    m = rng.randint(1, nm_max - n)

    def pt():
        return tuple(
            F(rng.randint(-coord_bound, coord_bound), rng.randint(1, coord_bound))
            for _ in range(d)
        )

    return BipartiteFramework(d, tuple(pt() for _ in range(n)), tuple(pt() for _ in range(m)))


@st.composite
def drawn_frameworks(draw, nm_max: int = 8) -> BipartiteFramework:
    """:func:`random_framework` drawn by Hypothesis: d = 1..3, ``n + m <= nm_max``, bound 16."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, nm_max - 1))
    m = draw(st.integers(1, nm_max - n))
    coord = st.builds(F, st.integers(-16, 16), st.integers(1, 16))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=n + m, max_size=n + m))
    return BipartiteFramework(d, tuple(points[:n]), tuple(points[n:]))


def k10x10(seed: int) -> BipartiteFramework:
    """K(10,10) in d=3 with the coordinates of acceptance 6, from ``random.Random(seed)``."""
    rng = random.Random(seed)

    def pt():
        return tuple(F(rng.randint(-16, 16), rng.randint(1, 16)) for _ in range(3))

    return BipartiteFramework(3, tuple(pt() for _ in range(10)), tuple(pt() for _ in range(10)))


def huge_k44(seed: int) -> BipartiteFramework:
    """K(4,4) in d=3 with coordinates ``a/b``, ``|a|, b <= 10**400``, from ``random.Random(seed)``.

    Seeds 0 and 3 decide "not dimensionally rigid" in about a second, with
    separating quadrics whose entries run past 7000 digits.
    """
    rng = random.Random(seed)
    bound = 10**400

    def pt():
        return tuple(F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(3))

    return BipartiteFramework(3, tuple(pt() for _ in range(4)), tuple(pt() for _ in range(4)))


def flag(seed: int) -> BipartiteFramework:
    """A multi-pass instance in d=3 from ``random.Random(seed)``: a line, a plane, then space.

    The classes alternate along distinct points of the x-axis, so the first
    balanced pass certifies the line; further points of both classes lie in
    the plane z=0 and then in general space, so later passes project out a
    certified set and record a cone point.
    """
    rng = random.Random(seed)

    def rat():
        return F(rng.randint(-16, 16), rng.randint(1, 16))

    xs: set[F] = set()
    size = rng.randint(4, 6)
    while len(xs) < size:
        xs.add(rat())
    p: list[tuple] = []
    q: list[tuple] = []
    for k, x in enumerate(sorted(xs)):
        (p if k % 2 == 0 else q).append((x, F(0), F(0)))
    for _ in range(rng.randint(2, 4)):
        p.append((rat(), rat(), F(0)))
        q.append((rat(), rat(), F(0)))
    for _ in range(rng.randint(1, 3)):
        p.append((rat(), rat(), rat()))
        q.append((rat(), rat(), rat()))
    return BipartiteFramework(3, tuple(p), tuple(q))


def thin_image(fw: BipartiteFramework, factor=F(1, 10**5)) -> BipartiteFramework:
    """The affine image of ``fw`` with its last coordinate multiplied by ``factor``."""

    def squash(pt):
        return pt[:-1] + (pt[-1] * factor,)

    return BipartiteFramework(
        fw.dimension, tuple(map(squash, fw.points_p)), tuple(map(squash, fw.points_q))
    )


def random_line_framework(rng: random.Random, n_max: int = 5) -> BipartiteFramework:
    """Distinct-point line framework with at least two vertices per class."""
    n = rng.randint(2, n_max)
    m = rng.randint(2, n_max)
    vals = rng.sample(range(-40, 41), n + m)
    return BipartiteFramework(
        1,
        tuple((F(v),) for v in vals[:n]),
        tuple((F(v),) for v in vals[n:]),
    )


def line_strictly_separable(fw: BipartiteFramework) -> bool:
    """Cut-pair oracle on the line: is one class inside an open interval
    that excludes the other class?  Candidate endpoints are midpoints of
    consecutive points plus sentinels beyond the extremes, so half-line
    splits are covered.
    """
    p_vals = [pt[0] for pt in fw.points_p]
    q_vals = [pt[0] for pt in fw.points_q]
    all_vals = sorted(p_vals + q_vals)
    cuts = [all_vals[0] - 1]
    cuts += [(a + b) / 2 for a, b in zip(all_vals, all_vals[1:])]
    cuts += [all_vals[-1] + 1]
    for i, j in combinations(range(len(cuts)), 2):
        a, b = cuts[i], cuts[j]
        if all(a < v < b for v in p_vals) and all(v < a or b < v for v in q_vals):
            return True
        if all(a < v < b for v in q_vals) and all(v < a or b < v for v in p_vals):
            return True
    return False


# -- Fraction Gauss-Jordan reference ------------------------------------------


def fraction_pivot(rows, r: int, c: int) -> None:
    """One Gauss-Jordan step on ``Fraction`` rows, in place.

    Row ``r`` is divided by its entry in column ``c``, and that multiple of
    it is subtracted from every other row with a nonzero entry there.
    """
    rows[r] = pivot = [v / rows[r][c] for v in rows[r]]
    for k, row in enumerate(rows):
        f = row[c]
        if k != r and f:
            rows[k] = [a - f * b for a, b in zip(row, pivot)]


def fraction_rref(rows) -> list[int]:
    """Reduced row echelon form of ``Fraction`` rows, in place; returns the pivot columns."""
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        src = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        fraction_pivot(rows, rank, col)
        pivots.append(col)
    return pivots


# -- brute-force LP oracle (vertex and ray enumeration) ----------------------


def _solve_support(rows, rhs, support):
    """Exact solution of the square-ish system restricted to a support.

    Returns the coefficient vector on the support when the columns are
    independent and the system is consistent, else None.
    """
    m = len(rows)
    k = len(support)
    aug = [[rows[i][j] for j in support] + [rhs[i]] for i in range(m)]
    rank = 0
    pivots = []
    for col in range(k):
        piv = next((r for r in range(rank, m) if aug[r][col] != 0), None)
        if piv is None:
            return None  # dependent columns: skip, smaller support covers it
        aug[rank], aug[piv] = aug[piv], aug[rank]
        fraction_pivot(aug, rank, col)
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, m):
        if aug[r][k] != 0:
            return None  # inconsistent
    sol = [ZERO] * k
    for r, c in pivots:
        sol[c] = aug[r][k]
    return sol


def _null_on_support(rows, support):
    """A nonzero null vector of the support columns when nullity is one."""
    m = len(rows)
    k = len(support)
    work = [[rows[i][j] for j in support] for i in range(m)]
    pivots = fraction_rref(work)
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [ZERO] * k
    vec[free[0]] = ONE
    for r, c in enumerate(pivots):
        vec[c] = -work[r][free[0]]
    return vec


def oracle_lp(rows, rhs, objective=None):
    """Brute-force LP oracle for ``A x = b, x >= 0`` by enumeration.

    Feasibility comes from enumerating candidate extreme-point supports
    (independent columns, size at most the row count); unboundedness from
    enumerating candidate extreme rays of the recession cone.  Returns
    'infeasible', 'feasible', 'unbounded', or ('optimal', value).
    """
    m = len(rows)
    n = len(rows[0]) if rows else (len(objective) if objective else 0)
    rows = [[F(v) for v in row] for row in rows]
    rhs = [F(v) for v in rhs]
    best = None
    feasible = False
    if all(v == 0 for v in rhs):
        feasible = True
        best = ZERO if objective else None
    for size in range(1, m + 1):
        for support in combinations(range(n), size):
            sol = _solve_support(rows, rhs, support)
            if sol is None or any(v < 0 for v in sol):
                continue
            feasible = True
            if objective is not None:
                value = sum(
                    (F(objective[j]) * sol[k] for k, j in enumerate(support)),
                    ZERO,
                )
                if best is None or value > best:
                    best = value
    if not feasible:
        return "infeasible"
    if objective is None:
        return "feasible"
    for size in range(1, m + 2):
        for support in combinations(range(n), size):
            ray = _null_on_support(rows, support)
            if ray is None:
                continue
            if all(v <= 0 for v in ray):
                ray = [-v for v in ray]
            if any(v < 0 for v in ray) or all(v == 0 for v in ray):
                continue
            gain = sum(
                (F(objective[j]) * ray[k] for k, j in enumerate(support)), ZERO
            )
            if gain > 0:
                return "unbounded"
    return ("optimal", best)


@pytest.fixture
def fraction_products(monkeypatch):
    """A list that grows by the operator's name per ``Fraction`` product, quotient, sum or difference."""
    seen = []
    names = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
             "__add__", "__radd__", "__sub__", "__rsub__")
    for name in names:
        original = getattr(F, name)

        def counted(self, other, _original=original, _name=name):
            seen.append(_name)
            return _original(self, other)

        monkeypatch.setattr(F, name, counted)
    return seen


@pytest.fixture
def rng():
    return random.Random(20240817)
