"""Command-line interface.

Subcommands:

* ``check <file>... [--certificate OUT] [--trace] [--dump-coords]``
  decides the input files with :func:`rigidity_test_batch` and prints
  each verdict (with several files, ``<path>: <verdict>``), or
  ``error: <message>`` for a framework the decision refuses, each after
  that file's iteration lines under ``--trace``; ``--dump-coords`` prints
  every file's coordinate tables first, and ``--certificate`` writes the
  chain of a single file.
* ``verify <framework> <certificate>`` replays a chain against a framework
  and prints ``valid``, or ``invalid: record <i>: <check>`` naming the
  first rejected record and the check it fails.
* ``separate <file>`` prints the balance coefficients or the max-margin
  quadric.
* ``stress <file>`` prints the constructed stress matrix.
* ``fixtures <dir>`` emits the example corpus.

Exit codes: 0 for a completed analysis (any verdict), 1 for a failed
verification, 2 for input errors and for a ``check`` whose decision of
some file fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import docio, fixtures
from .engine import chain_rejection, rigidity_test_batch
from .separation import EmptySide, RadonCertificate, max_margin_quadric, maximal_support_radon
from .stress import build_super_stable_stress

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise docio.ParseError(f"{path}: {exc}") from None


def _read_framework(path: str):
    return docio.parse_framework(_read_text(path))


def _dump_coords(fw, out) -> None:
    print("# vertex class x...", file=out)
    for i, pt in enumerate(fw.points_p):
        print(f"{i} P " + " ".join(map(docio._rat_to_str, pt)), file=out)
    for j, pt in enumerate(fw.points_q):
        print(f"{j} Q " + " ".join(map(docio._rat_to_str, pt)), file=out)
    print("# edges (P index, Q index)", file=out)
    for i in range(fw.n):
        for j in range(fw.m):
            print(f"{i} {j}", file=out)


def _cmd_check(args) -> int:
    if args.certificate and len(args.files) != 1:
        print("check: --certificate requires exactly one input file", file=sys.stderr)
        return EXIT_INPUT
    frameworks = [_read_framework(path) for path in args.files]
    if args.dump_coords:
        for fw in frameworks:
            _dump_coords(fw, sys.stdout)
    code = EXIT_OK
    for path, result in zip(args.files, rigidity_test_batch(frameworks)):
        prefix = f"{path}: " if len(frameworks) > 1 else ""
        if isinstance(result, Exception):
            print(f"{prefix}error: {result}")
            code = EXIT_INPUT
            continue
        verdict, chain = result
        if args.trace:
            for rec in chain.records:
                detail = ""
                if rec.kind == "balanced":
                    detail = f" support=P{list(rec.support_p)} Q{list(rec.support_q)}"
                elif rec.kind == "separated":
                    detail = f" margin={docio._rat_to_str(rec.separation.delta)}"
                print(f"iteration {rec.index}: {rec.kind}{detail}")
        if args.certificate:
            Path(args.certificate).write_text(
                docio.serialize_chain(chain), encoding="utf-8"
            )
        print(f"{prefix}{verdict.value}")
    return code


def _cmd_verify(args) -> int:
    fw = _read_framework(args.framework)
    rejection = chain_rejection(fw, docio.parse_chain(_read_text(args.certificate)))
    if rejection is None:
        print("valid")
        return EXIT_OK
    print("invalid: record {}: {}".format(*rejection))
    return EXIT_VERIFY_FAILED


def _cmd_separate(args) -> int:
    fw = _read_framework(args.file)
    cert = maximal_support_radon(fw)
    if isinstance(cert, RadonCertificate):
        print("balanced (lifted hulls intersect); coefficients:")
        for i, v in enumerate(cert.lambdas):
            print(f"  lambda[{i}] = {docio._rat_to_str(v)}")
        for j, v in enumerate(cert.mus):
            print(f"  mu[{j}] = {docio._rat_to_str(v)}")
        return EXIT_OK
    matrix, delta = max_margin_quadric(fw)
    print(f"separated; margin = {docio._rat_to_str(delta)}")
    for row in matrix.rows():
        print("  " + " ".join(map(docio._rat_to_str, row)))
    return EXIT_OK


def _cmd_stress(args) -> int:
    fw = _read_framework(args.file)
    cert = maximal_support_radon(fw)
    if not isinstance(cert, RadonCertificate):
        print("no positive stress: classes strictly separated "
              f"(margin {docio._rat_to_str(cert.delta)})")
        return EXIT_OK
    sub = fw.subframework(cert.support_p, cert.support_q)
    stress = build_super_stable_stress(
        sub,
        [cert.lambdas[i] for i in cert.support_p],
        [cert.mus[j] for j in cert.support_q],
    )
    print(f"support P: {list(cert.support_p)}  Q: {list(cert.support_q)}")
    print(f"rank {stress.rank}, min eigenvalue {stress.min_eigenvalue:.3e}, "
          f"equilibrium residual {stress.residual:.3e}")
    for row in stress.omega:
        print("  " + " ".join(format(v, ".17g") for v in row))
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    written = fixtures.emit_fixtures(args.dir)
    print(f"wrote {len(written)} files to {args.dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipartite-rigidity",
        description="Decide universal rigidity of complete bipartite frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a framework file")
    check.add_argument("files", nargs="+")
    check.add_argument("--certificate", help="write the certificate chain here")
    check.add_argument("--trace", action="store_true")
    check.add_argument("--dump-coords", action="store_true",
                       help="print plot-ready coordinate and edge tables")
    check.set_defaults(func=_cmd_check)

    verify = sub.add_parser("verify", help="replay a certificate chain")
    verify.add_argument("framework")
    verify.add_argument("certificate")
    verify.set_defaults(func=_cmd_verify)

    separate = sub.add_parser("separate", help="print balance or quadric evidence")
    separate.add_argument("file")
    separate.set_defaults(func=_cmd_separate)

    stress = sub.add_parser("stress", help="print the constructed stress matrix")
    stress.add_argument("file")
    stress.set_defaults(func=_cmd_stress)

    fx = sub.add_parser("fixtures", help="emit the example corpus")
    fx.add_argument("dir")
    fx.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (docio.ParseError, EmptySide, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
