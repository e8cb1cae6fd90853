"""Framework and certificate documents: exact JSON round-tripping.

Rational values serialize as canonical ``"a/b"`` strings (plain integers
when the denominator is one) so no floating-point parse ambiguity can creep
into coordinates or LP certificates.  This module is the package's one
reader of rational text: the constructors elsewhere take ``int`` and
``Fraction`` values only.  Numerators and denominators past the
interpreter's limit on decimal conversion (4300 digits by default) are
written and read in chunks; the reader takes canonical ``"a/b"`` text with
up to :data:`MAX_DIGITS` digits in each part, and other spellings with a
decimal exponent up to that bound, and gives a located :class:`ParseError`
beyond that.  Floating stress data (``omega`` as rows) serializes with 17
significant digits, which round-trips IEEE doubles bit-faithfully;
writing, reading and verifying a chain needs no ``numpy``, except that
writing a built stress certificate measures its least eigenvalue and
residual.

Canonical serialization sorts keys and indents consistently; parsing then
reserializing a canonical document reproduces it byte for byte.  The
canonical text is ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
newline, and :func:`canonical_json` is the one function that writes it,
in one recursive pass of its own: with ``indent`` set, ``json.dumps``
before Python 3.13 takes the pure-Python encoder, which costs several
generator steps per value.  The readers take a whole list of rationals,
or a whole ``omega`` row, at once, and fall back to reading value by
value (and spelling out the locus of each value) only for a list that
the one-pass reading does not cover: a value that is not canonical, a
list longer than :data:`MAX_DIGITS` characters, or a part past the
interpreter's digit limit.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any, Optional

from .engine import CertificateChain, IterationRecord, Verdict
from .geometry import BipartiteFramework, Point
from .separation import RadonCertificate, SeparationCertificate, SymmetricMatrix
from .stress import StressCertificate

FORMAT_VERSION = 1

#: The most decimal digits the reader takes in one numerator or denominator
#: of a canonical ``"a/b"`` string.  Decimal conversion takes time quadratic
#: in the digit count (about 0.1 s at this bound), so the reader bounds it
#: in place of the interpreter's limit.  Other spellings are read by
#: ``Fraction``, under the interpreter's limit, and their decimal exponent
#: is bounded by the same number: ``Fraction`` computes ``10**exponent``.
MAX_DIGITS = 100_000

#: A decimal exponent as ``Fraction`` spells it (any script's digits).
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

#: Numbers of at most this many bits have fewer than 640 decimal digits,
#: so they convert under any limit the interpreter accepts.
_CHUNK_BITS = 1920

#: A string as JSON text, every non-ASCII character escaped: the quoting
#: ``json.dumps`` applies by default, in C.
_quote = json.encoder.encode_basestring_ascii


class ParseError(ValueError):
    """Malformed document; the message carries the field locus."""


class DimensionMismatch(ParseError):
    """Coordinates disagree with the declared dimension."""


# -- rational scalars --------------------------------------------------------


def _digits(v: int, width: int = 0) -> str:
    """Decimal digits of ``v >= 0``, zero-padded to ``width``, converted in chunks."""
    if v.bit_length() <= _CHUNK_BITS:
        return str(v).zfill(width)
    half = v.bit_length() * 3 // 20  # about half the digit count
    high, low = divmod(v, 10**half)
    return _digits(high, width - half) + _digits(low, half)


def _int_of(digits: str) -> int:
    """``int(digits)`` of ASCII decimal digits, in chunks past the interpreter's limit."""
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    try:
        return int(digits)
    except ValueError:  # past the limit: convert in chunks
        half = len(digits) // 2
        return _int_of(digits[:-half]) * 10**half + _int_of(digits[-half:])


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _excerpt(text: str) -> str:
    """``repr(text)``, or the repr of its start when it is very long."""
    return repr(text) if len(text) <= 1000 else f"{text[:40]!r}... ({len(text)} characters)"


def _rat_to_str(v: Fraction) -> str:
    """The canonical ``"a/b"`` (or ``"a"``) text of a rational, at any size."""
    try:
        return str(v)
    except ValueError:  # past the interpreter's digit limit: convert in chunks
        num = "-" + _digits(-v.numerator) if v < 0 else _digits(v.numerator)
        return num if v.denominator == 1 else f"{num}/{_digits(v.denominator)}"


def _at(locus: str, index: Optional[int]) -> str:
    """``locus``, or its item ``locus[index]``; built only for an error message."""
    return locus if index is None else f"{locus}[{index}]"


#: The canonical spelling of a rational: ``"a"`` or ``"a/b"`` in plain
#: ASCII digits, ``a`` with at most one leading ``-`` and ``b`` nonzero.
#: Group 1 is the signed numerator, group 2 its digits, group 3 the
#: denominator's digits (``None`` for ``"a"``).
_PLAIN = re.compile(r"(-?([0-9]+))(?:/(?!0+\Z)([0-9]+))?")


def _rat_list(items: list, locus: str, index: Optional[int] = None) -> tuple[Fraction, ...]:
    """The rationals of a list, read as :func:`_rat_from` reads each item.

    A list of canonical spellings (:data:`_PLAIN`) of at most
    :data:`MAX_DIGITS` characters in all is converted at once, so the bound
    holds whatever the interpreter's digit limit; any other list, or one
    with a part past that limit, goes value by value, so a refused value
    raises exactly the error :func:`_rat_from` raises for it.  The list is
    item ``index`` of ``locus``, which is spelled out only then.
    """
    try:
        matches = list(map(_PLAIN.fullmatch, items))
    except TypeError:  # an item that is not a string
        matches = None
    if matches is not None and all(matches) and len("".join(items)) <= MAX_DIGITS:
        try:
            return tuple([
                Fraction(int(match[1]), int(match[3])) if match[3] else Fraction(int(match[1]))
                for match in matches
            ])
        except ValueError:  # a part past the interpreter's digit limit
            pass
    where = _at(locus, index)
    return tuple(_rat_from(v, where, k) for k, v in enumerate(items))


def _rat_from(value: Any, locus: str, index: Optional[int] = None) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{_at(locus, index)}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            plain = _PLAIN.fullmatch(value)
            if plain:
                numerator = _int_of(plain[2])
                return Fraction(
                    -numerator if plain[1][0] == "-" else numerator,
                    _int_of(plain[3]) if plain[3] else 1,
                )
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > MAX_DIGITS:
                raise ValueError(f"exponent beyond {MAX_DIGITS}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                f"{_at(locus, index)}: invalid rational {_excerpt(value)} ({exc})"
            ) from None
    raise ParseError(f"{_at(locus, index)}: expected an integer or 'a/b' string")


#: The text of a float: 17 significant digits, which round-trip every double.
_float_to_str = "{:.17g}".format


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


def _floats_from(row: list, locus: str, index: int) -> tuple[float, ...]:
    """The floats of a list, read as :func:`_float_from` reads each item.

    The list is converted at once; only when some value is refused does it
    go value by value, so the locus of the refused value (item ``index`` of
    ``locus``, then its own item) is spelled out only for the error.
    """
    try:
        numbers = tuple(map(float, row))
    except (TypeError, ValueError, OverflowError):
        numbers = None
    if numbers is not None and bool not in map(type, row) and all(map(math.isfinite, numbers)):
        return numbers
    return tuple(_float_from(v, f"{locus}[{index}][{j}]") for j, v in enumerate(row))


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
    return _rat_list(_typed(value, list, locus), locus)


def _ints_from(value: Any, locus: str) -> tuple[int, ...]:
    items = _typed(value, list, locus)
    if set(map(type, items)) <= {int}:
        return tuple(items)
    return tuple(_int_from(v, locus, k) for k, v in enumerate(items))


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


def canonical_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, written in one pass.

    For a JSON value whose objects have string keys the text is the same,
    and so is the error for an integer past the interpreter's digit limit
    or a value JSON has no spelling for.  Strings and keys are quoted by
    ``json``'s own C quoting, a list of strings is joined at once, and only
    floats, booleans and ``None`` are handed to ``json.dumps``.
    """
    return _json_text(value, "\n") + "\n"


def _json_text(value: Any, newline: str) -> str:
    """The canonical text of ``value`` whose lines after the first begin with ``newline``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        body = None
        if isinstance(value[0], str):  # most likely a list of strings, quoted and joined in C
            try:
                body = ("," + inner).join(map(_quote, value))
            except TypeError:  # a later item that is not a string
                pass
        if body is None:
            body = ("," + inner).join([_json_text(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return (
            "{" + inner
            + ("," + inner).join(
                [
                    _quote(k) + ": " + (_quote(v) if type(v) is str else _json_text(v, inner))
                    for k, v in sorted(value.items())
                ]
            )
            + newline + "}"
        )
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return json.dumps(value)  # a float, a boolean or None


def _points_from(doc: dict, key: str, d: int) -> tuple[Point, ...]:
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise ParseError(f"{key}: expected a list of coordinate lists")
    points = []
    for idx, coords in enumerate(raw):
        if not isinstance(coords, list):
            raise ParseError(f"{key}[{idx}]: expected a coordinate list")
        if len(coords) != d:
            raise DimensionMismatch(
                f"{key}[{idx}]: got {len(coords)} coordinates in dimension {d}"
            )
        points.append(_rat_list(coords, key, idx))
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
    doc = _load_json(text)
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
            "omega": [list(map(_float_to_str, row)) for row in rec.stress.omega],
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
    where = f"{locus}.omega"
    omega = tuple(_floats_from(row, where, i) for i, row in enumerate(rows))
    rank = _int_from(doc.get("rank"), f"{locus}.rank")
    measured = (
        _float_from(doc.get("min_eigenvalue"), f"{locus}.min_eigenvalue"),
        _float_from(doc.get("residual"), f"{locus}.residual"),
    )
    return StressCertificate(
        omega,
        rank,
        _rats_from(doc.get("lambdas", []), f"{locus}.lambdas"),
        _rats_from(doc.get("mus", []), f"{locus}.mus"),
        lambda: measured,
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


def serialize_chain(chain: CertificateChain) -> str:
    return canonical_json({
        "format": FORMAT_VERSION,
        "verdict": chain.verdict.value,
        "input": framework_to_document(chain.framework),
        "iterations": [_record_to_doc(rec) for rec in chain.records],
    })


def parse_chain(text: str) -> CertificateChain:
    doc = _load_json(text)
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
