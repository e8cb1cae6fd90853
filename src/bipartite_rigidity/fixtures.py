"""Named example frameworks with annotated expected verdicts.

The corpus collects the standard small cases: the alternating line
quadrilateral, strictly separated line configurations, hexagons on a
conic, the parity-split cube, a two-stage projection example, and
quadric-general space realizations.  Constructions that are classically
presented with irrational symmetry (the space frameworks on a sphere and
the minimal quadric-general K(6,5)) are replaced by rational realizations;
their verdicts are established by the engine's own exactly re-verifiable
certificates, as flagged in the manifest.
"""

from __future__ import annotations

from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple

from .docio import canonical_json, framework_to_document
from .engine import Verdict
from .geometry import BipartiteFramework


class Fixture(NamedTuple):
    framework: BipartiteFramework
    expected: Verdict
    verdict_established_by: str  # "construction" or "engine"
    note: str


def _circle(t) -> list[F]:
    """A rational point of the unit circle from the slope parameter."""
    t = F(t)
    return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]


def _fw(d, p, q) -> BipartiteFramework:
    return BipartiteFramework.from_lists(d, p, q)


def k11() -> Fixture:
    return Fixture(
        _fw(1, [[0]], [[1]]),
        Verdict.UNIVERSALLY_RIGID,
        "construction",
        "a single bar",
    )


def k22_line() -> Fixture:
    return Fixture(
        _fw(1, [[0], [2]], [[1], [3]]),
        Verdict.UNIVERSALLY_RIGID,
        "construction",
        "classes alternate along the line; the one-dimensional minimal core",
    )


def separated_line() -> Fixture:
    return Fixture(
        _fw(1, [[0], [1]], [[2], [3]]),
        Verdict.NOT_DIMENSIONALLY_RIGID,
        "construction",
        "classes occupy disjoint intervals, split by a two-point quadric",
    )


def k33_conic() -> Fixture:
    p = [_circle(0), _circle(1), _circle(3)]
    q = [_circle(F(1, 2)), _circle(2), _circle(-1)]
    return Fixture(
        _fw(2, p, q),
        Verdict.UNIVERSALLY_RIGID,
        "construction",
        "classes alternate around the unit circle; no conic can split them",
    )


def k33_split() -> Fixture:
    p = [_circle(1), _circle(-1), _circle(3)]
    q = [_circle(0), _circle(F(1, 5)), _circle(F(-1, 5))]
    return Fixture(
        _fw(2, p, q),
        Verdict.NOT_DIMENSIONALLY_RIGID,
        "construction",
        "all six on the circle, but a pair of horizontal lines splits the classes",
    )


def k43_center() -> Fixture:
    p = [_circle(0), _circle(1), _circle(3), [0, 0]]
    q = [_circle(F(1, 2)), _circle(2), _circle(-1)]
    return Fixture(
        _fw(2, p, q),
        Verdict.UNIVERSALLY_RIGID,
        "construction",
        "circle hexagon plus a center vertex; the center carries no stress and "
        "is absorbed by the affine closure",
    )


def cube_k44() -> Fixture:
    even = [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]]
    odd = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    return Fixture(
        _fw(3, even, odd),
        Verdict.UNIVERSALLY_RIGID,
        "construction",
        "cube vertices split by coordinate parity (each class a tetrahedron)",
    )


def flexible_k42() -> Fixture:
    return Fixture(
        _fw(2, [[0, 0], [2, 0], [1, 1], [1, -1]], [[1, 0], [3, 0]]),
        Verdict.NOT_DIMENSIONALLY_RIGID,
        "construction",
        "an alternating line core plus two off-line vertices of one class "
        "that swing freely once the core is pinned",
    )


def pinned_k32() -> Fixture:
    return Fixture(
        _fw(2, [[0, 0], [2, 0], [1, 1]], [[1, 0], [3, 0]]),
        Verdict.UNIVERSALLY_RIGID,
        "engine",
        "an alternating line core plus a single off-line vertex; the vertex "
        "is pinned up to an isometry fixing the line",
    )


def projection_k44() -> Fixture:
    p = [[0, 0, 0], [0, 0, 2], [0, 2, 1], [4, 2, -1]]
    q = [[0, 0, 1], [0, 0, 3], [3, 3, 2], [3, 1, 0]]
    return Fixture(
        _fw(3, p, q),
        Verdict.UNIVERSALLY_RIGID,
        "construction",
        "alternating core on the z-axis, then a second alternating core "
        "appears after projecting the axis out and sliding; two passes",
    )


def triangle_k21() -> Fixture:
    return Fixture(
        _fw(2, [[0, 0], [2, 0]], [[1, 1]]),
        Verdict.DIMENSIONALLY_RIGID_ONLY,
        "construction",
        "an affinely independent triple: a hinge, rigid in dimension only",
    )


def k65() -> Fixture:
    p = [
        [-3, 5, -1],
        [4, -1, -2],
        [5, F(-5, 3), F(1, 3)],
        [-2, F(-7, 3), -1],
        [F(5, 2), 2, 3],
        [F(-1, 4), F(-1, 2), F(-9, 2)],
    ]
    q = [
        [2, F(4, 3), -7],
        [F(-5, 2), F(-7, 3), -2],
        [5, -5, F(-7, 3)],
        [-3, -1, F(-5, 3)],
        [1, -1, -1],
    ]
    return Fixture(
        _fw(3, p, q),
        Verdict.UNIVERSALLY_RIGID,
        "engine",
        "minimal quadric-general space realization (contains a collinear "
        "triple, so it is not in general position); full positive support",
    )


def k64() -> Fixture:
    p = [
        [F(-12, 13), F(3, 13), F(4, 13)],
        [F(24, 65), F(-4, 13), F(57, 65)],
        [F(108, 121), F(24, 121), F(49, 121)],
        [F(15, 89), F(36, 89), F(80, 89)],
        [F(-6, 23), F(-3, 23), F(22, 23)],
        [F(6, 19), F(6, 19), F(17, 19)],
    ]
    q = [
        [F(6, 91), F(54, 91), F(73, 91)],
        [F(-18, 35), F(-3, 7), F(26, 35)],
        [F(4, 21), F(8, 21), F(19, 21)],
        [F(3, 7), F(2, 7), F(6, 7)],
    ]
    return Fixture(
        _fw(3, p, q),
        Verdict.UNIVERSALLY_RIGID,
        "engine",
        "ten rational points of the unit sphere whose unique lifted "
        "dependence splits six against four",
    )


def k55() -> Fixture:
    p = [
        [F(-15, 89), F(36, 89), F(80, 89)],
        [F(-20, 33), F(-8, 33), F(25, 33)],
        [F(5, 31), F(-6, 31), F(30, 31)],
        [F(36, 109), F(-96, 109), F(37, 109)],
        [F(18, 23), F(3, 23), F(14, 23)],
    ]
    q = [
        [0, 0, -1],
        [F(2, 3), F(-1, 3), F(2, 3)],
        [0, F(-8, 17), F(15, 17)],
        [F(-1, 19), F(6, 19), F(18, 19)],
        [0, F(-3, 5), F(4, 5)],
    ]
    return Fixture(
        _fw(3, p, q),
        Verdict.UNIVERSALLY_RIGID,
        "engine",
        "ten rational points of the unit sphere whose unique lifted "
        "dependence splits five against five",
    )


BUILDERS: dict[str, Callable[[], Fixture]] = {
    "k11": k11,
    "k22_line": k22_line,
    "separated_line": separated_line,
    "k33_conic": k33_conic,
    "k33_split": k33_split,
    "k43_center": k43_center,
    "cube_k44": cube_k44,
    "flexible_k42": flexible_k42,
    "pinned_k32": pinned_k32,
    "projection_k44": projection_k44,
    "triangle_k21": triangle_k21,
    "k65": k65,
    "k64": k64,
    "k55": k55,
}


def fixture(name: str) -> Fixture:
    return BUILDERS[name]()


def all_fixtures() -> dict[str, Fixture]:
    return {name: build() for name, build in BUILDERS.items()}


def emit_fixtures(out_dir) -> list[Path]:
    """Write every fixture plus a manifest; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    manifest = []
    for name in sorted(BUILDERS):
        fx = fixture(name)
        path = out / f"{name}.json"
        path.write_text(
            canonical_json(
                framework_to_document(
                    fx.framework, name=name, expected_verdict=fx.expected.value
                )
            ),
            encoding="utf-8",
        )
        written.append(path)
        manifest.append(
            {
                "name": name,
                "file": path.name,
                "expected_verdict": fx.expected.value,
                "verdict_established_by": fx.verdict_established_by,
                "note": fx.note,
            }
        )
    manifest_path = out / "manifest.json"
    manifest_path.write_text(canonical_json(manifest), encoding="utf-8")
    written.append(manifest_path)
    return written
