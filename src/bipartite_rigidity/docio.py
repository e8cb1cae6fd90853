"""Framework and certificate documents: exact JSON round-tripping.

Rational values serialize as canonical ``"a/b"`` strings (plain integers
when the denominator is one) so no floating-point parse ambiguity can creep
into coordinates or LP certificates.  Floating stress data serializes with
17 significant digits, which round-trips IEEE doubles bit-faithfully.

Canonical serialization sorts keys and indents consistently; parsing then
reserializing a canonical document reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .engine import CertificateChain, IterationRecord, Verdict
from .geometry import BipartiteFramework, Point
from .separation import RadonCertificate, SeparationCertificate, SymmetricMatrix
from .stress import StressCertificate

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed document; the message carries the field locus."""


class DimensionMismatch(ParseError):
    """Coordinates disagree with the declared dimension."""


# -- rational scalars --------------------------------------------------------


def _rat_to_str(v: Fraction) -> str:
    return str(v)


def _at(locus: str, index: Optional[int]) -> str:
    """``locus``, or its item ``locus[index]``; built only for an error message."""
    return locus if index is None else f"{locus}[{index}]"


def _plain_rational(text: str) -> Optional[Fraction]:
    """``text`` read as ``"a"`` or ``"a/b"`` in plain decimal digits, else ``None``.

    ``a`` may carry one leading ``-`` and ``b`` must be nonzero.  These are
    the canonical spellings, and for them this gives what ``Fraction(text)``
    gives, without its regular expression: the digit strings go to ``int``
    exactly as ``Fraction`` passes them, so a digit-count limit raises the
    same error.  Every other spelling returns ``None`` and is left to
    ``Fraction(text)``.
    """
    num, slash, den = text.partition("/")
    negative = num[:1] == "-"
    digits = num[1:] if negative else num
    if not (digits.isascii() and digits.isdigit()):
        return None
    if slash and not (den.isascii() and den.isdigit() and den.strip("0")):
        return None
    numerator = int(digits)
    return Fraction(-numerator if negative else numerator, int(den) if slash else 1)


def _rat_from(value: Any, locus: str, index: Optional[int] = None) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{_at(locus, index)}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            fast = _plain_rational(value)
            return Fraction(value) if fast is None else fast
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                f"{_at(locus, index)}: invalid rational {value!r} ({exc})"
            ) from None
    raise ParseError(f"{_at(locus, index)}: expected an integer or 'a/b' string")


def _float_to_str(v: float) -> str:
    return format(float(v), ".17g")


def _float_from(value: Any, locus: str) -> float:
    if isinstance(value, bool):
        raise ParseError(f"{locus}: expected a floating-point number, got a boolean")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{locus}: expected a floating-point number") from None
    if not math.isfinite(number):
        raise ParseError(f"{locus}: expected a finite number, got {value!r}")
    return number


def _int_from(value: Any, locus: str, index: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{_at(locus, index)}: expected an integer")
    return value


_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value: Any, shape: type, locus: str) -> Any:
    if not isinstance(value, shape):
        raise ParseError(f"{locus}: expected {_SHAPES[shape]}")
    return value


def _rats_from(value: Any, locus: str) -> tuple[Fraction, ...]:
    return tuple(
        _rat_from(v, locus, k) for k, v in enumerate(_typed(value, list, locus))
    )


def _ints_from(value: Any, locus: str) -> tuple[int, ...]:
    return tuple(
        _int_from(v, locus, k) for k, v in enumerate(_typed(value, list, locus))
    )


# -- framework documents -----------------------------------------------------


def framework_to_document(
    fw: BipartiteFramework,
    name: Optional[str] = None,
    expected_verdict: Optional[str] = None,
) -> dict:
    doc: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "d": fw.dimension,
        "P": [[_rat_to_str(c) for c in pt] for pt in fw.points_p],
        "Q": [[_rat_to_str(c) for c in pt] for pt in fw.points_q],
    }
    if name is not None:
        doc["name"] = name
    if expected_verdict is not None:
        doc["expected_verdict"] = expected_verdict
    return doc


def serialize_framework(
    fw: BipartiteFramework,
    name: Optional[str] = None,
    expected_verdict: Optional[str] = None,
) -> str:
    return canonical_json(framework_to_document(fw, name, expected_verdict))


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _points_from(doc: dict, key: str, d: int) -> tuple[Point, ...]:
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise ParseError(f"{key}: expected a list of coordinate lists")
    points = []
    for idx, coords in enumerate(raw):
        locus = f"{key}[{idx}]"
        if not isinstance(coords, list):
            raise ParseError(f"{locus}: expected a coordinate list")
        if len(coords) != d:
            raise DimensionMismatch(
                f"{locus}: got {len(coords)} coordinates in dimension {d}"
            )
        points.append(tuple(_rat_from(c, locus, k) for k, c in enumerate(coords)))
    return tuple(points)


def _framework_from(doc: dict) -> BipartiteFramework:
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ParseError("d: expected a nonnegative integer dimension")
    points_p = _points_from(doc, "P", d)
    points_q = _points_from(doc, "Q", d)
    if len(points_p) < 1:
        raise ParseError("P: must contain at least one point")
    return BipartiteFramework(dimension=d, points_p=points_p, points_q=points_q)


def parse_framework_document(text: str) -> tuple[BipartiteFramework, dict]:
    """Parse a framework document; returns the framework and its metadata."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    meta = {k: doc[k] for k in ("name", "expected_verdict") if k in doc}
    return _framework_from(doc), meta


def parse_framework(text: str) -> BipartiteFramework:
    return parse_framework_document(text)[0]


# -- certificate documents ---------------------------------------------------


def _matrix_to_doc(matrix: SymmetricMatrix) -> dict:
    return {
        "order": matrix.order,
        "upper": [_rat_to_str(v) for v in matrix.upper],
    }


def _matrix_from(doc: Any, locus: str) -> SymmetricMatrix:
    doc = _typed(doc, dict, locus)
    order = _int_from(doc.get("order"), f"{locus}.order")
    upper = _rats_from(doc.get("upper"), f"{locus}.upper")
    if order < 0 or len(upper) != order * (order + 1) // 2:
        raise ParseError(f"{locus}: {len(upper)} upper entries for order {order}")
    return SymmetricMatrix(order, upper)


def _record_to_doc(rec: IterationRecord) -> dict:
    doc: dict[str, Any] = {
        "index": rec.index,
        "kind": rec.kind,
        "known_p": list(rec.known_p),
        "known_q": list(rec.known_q),
        "support_p": list(rec.support_p),
        "support_q": list(rec.support_q),
    }
    if rec.cone_point is not None:
        doc["cone_point"] = [_rat_to_str(c) for c in rec.cone_point]
    if rec.functional is not None:
        doc["functional"] = [_rat_to_str(c) for c in rec.functional]
    if rec.radon is not None:
        doc["balance"] = {
            "lambdas": [_rat_to_str(v) for v in rec.radon.lambdas],
            "mus": [_rat_to_str(v) for v in rec.radon.mus],
        }
    if rec.separation is not None:
        doc["separation"] = {
            "matrix": _matrix_to_doc(rec.separation.matrix),
            "delta": _rat_to_str(rec.separation.delta),
        }
    if rec.stress is not None:
        doc["stress"] = {
            "omega": [
                [_float_to_str(v) for v in row] for row in rec.stress.omega.tolist()
            ],
            "rank": rec.stress.rank,
            "min_eigenvalue": _float_to_str(rec.stress.min_eigenvalue),
            "residual": _float_to_str(rec.stress.residual),
            "lambdas": [_rat_to_str(v) for v in rec.stress.lambdas],
            "mus": [_rat_to_str(v) for v in rec.stress.mus],
        }
    return doc


def _radon_from(doc: Any, locus: str) -> RadonCertificate:
    doc = _typed(doc, dict, locus)
    return RadonCertificate(
        lambdas=_rats_from(doc.get("lambdas", []), f"{locus}.lambdas"),
        mus=_rats_from(doc.get("mus", []), f"{locus}.mus"),
    )


def _separation_from(doc: Any, locus: str) -> SeparationCertificate:
    doc = _typed(doc, dict, locus)
    return SeparationCertificate(
        matrix=_matrix_from(doc.get("matrix", {}), f"{locus}.matrix"),
        delta=_rat_from(doc.get("delta"), f"{locus}.delta"),
    )


def _stress_from(doc: Any, locus: str) -> StressCertificate:
    doc = _typed(doc, dict, locus)
    rows = _typed(doc.get("omega"), list, f"{locus}.omega")
    if not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
        raise ParseError(f"{locus}.omega: expected a square matrix")
    values = [
        [_float_from(v, f"{locus}.omega[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return StressCertificate(
        omega=np.array(values).reshape(len(rows), len(rows)),
        rank=_int_from(doc.get("rank"), f"{locus}.rank"),
        min_eigenvalue=_float_from(doc.get("min_eigenvalue"), f"{locus}.min_eigenvalue"),
        residual=_float_from(doc.get("residual"), f"{locus}.residual"),
        lambdas=_rats_from(doc.get("lambdas", []), f"{locus}.lambdas"),
        mus=_rats_from(doc.get("mus", []), f"{locus}.mus"),
    )


def _record_from(doc: Any, locus: str) -> IterationRecord:
    doc = _typed(doc, dict, locus)

    def optional(key: str, parse):
        return parse(doc[key], f"{locus}.{key}") if key in doc else None

    return IterationRecord(
        index=_int_from(doc.get("index", -1), f"{locus}.index"),
        kind=_typed(doc.get("kind", ""), str, f"{locus}.kind"),
        known_p=_ints_from(doc.get("known_p", []), f"{locus}.known_p"),
        known_q=_ints_from(doc.get("known_q", []), f"{locus}.known_q"),
        cone_point=optional("cone_point", _rats_from),
        functional=optional("functional", _rats_from),
        support_p=_ints_from(doc.get("support_p", []), f"{locus}.support_p"),
        support_q=_ints_from(doc.get("support_q", []), f"{locus}.support_q"),
        radon=optional("balance", _radon_from),
        separation=optional("separation", _separation_from),
        stress=optional("stress", _stress_from),
    )


def chain_to_document(chain: CertificateChain) -> dict:
    return {
        "format": FORMAT_VERSION,
        "verdict": chain.verdict.value,
        "input": framework_to_document(chain.framework),
        "iterations": [_record_to_doc(rec) for rec in chain.records],
    }


def serialize_chain(chain: CertificateChain) -> str:
    return canonical_json(chain_to_document(chain))


def parse_chain(text: str) -> CertificateChain:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    if _int_from(doc.get("format"), "format") != FORMAT_VERSION:
        raise ParseError(f"format: unsupported version {doc['format']}")
    verdict_raw = doc.get("verdict")
    try:
        verdict = Verdict(verdict_raw)
    except ValueError:
        raise ParseError(f"verdict: unknown value {verdict_raw!r}") from None
    input_doc = doc.get("input")
    if not isinstance(input_doc, dict):
        raise ParseError("input: expected the framework echo")
    try:
        fw = _framework_from(input_doc)
    except ParseError as exc:
        raise type(exc)(f"input.{exc}") from None
    raw_records = doc.get("iterations")
    if not isinstance(raw_records, list):
        raise ParseError("iterations: expected a list")
    records = tuple(
        _record_from(rec, f"iterations[{k}]") for k, rec in enumerate(raw_records)
    )
    return CertificateChain(framework=fw, records=records, verdict=verdict)
