"""Command line front end.

Subcommands: construct (build a certificate file), verify (recheck one),
class-group (reduced forms and h), hilbert (ramified places of a
quaternion algebra), brauer-split (does the certified field split it).

Exit codes: 0 success or pass, 1 usage error, 2 verification failure,
3 conductor search exhausted, 4 internal inconsistency.
"""

import argparse
import sys

from .arith import SearchExhausted, factor
from .classfield import DEFAULT_CAP, InternalInconsistency
from .constructor import Config, compose_for_n, construct, write_certificate
from .quadfield import RATIONAL, enumerate_class_group, quadratic_field
from .verifier import (
    MalformedCertificate,
    MismatchFound,
    QuaternionAlgebra,
    RamifiedPlaceOutOfRange,
    brauer_split_check,
    parse_certificate,
    ramified_places,
    verify,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_field(spec: str):
    if spec == "q":
        return RATIONAL
    if spec.startswith("disc="):
        try:
            disc = int(spec[5:])
        except ValueError:
            raise UsageError(f"field {spec!r}: discriminant must be an integer") from None
        try:
            return quadratic_field(disc)
        except ValueError as exc:
            raise UsageError(f"field {spec!r}: {exc}") from None
    raise UsageError(
        f"field {spec!r}: expected 'q' or 'disc=<negative fundamental discriminant>'"
    )


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None


def _field_name(fj) -> str:
    if fj["kind"] == "rational":
        return "Q"
    return f"disc {fj['disc']}"


def _format_prime(pr) -> str:
    p, b = pr
    return f"({p},{b if b is not None else '-'})"


def _ramified_name(rc) -> str:
    if rc is None:
        return "-"
    return "seed" if rc == 0 else f"piece {rc}"


def _print_table(rows):
    # rows: (prime string, then the remaining columns)
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())


def _print_summary(cert):
    doc = cert.get("composite", cert)
    if doc is cert:
        print(
            f"field {_field_name(cert['field'])}  n {cert['ell'] ** cert['r']} "
            f"(ell {cert['ell']}, r {cert['r']})  bound {cert['bound']}  "
            f"pieces {len(cert['pieces'])}"
        )
        if cert["pieces"]:
            print(
                "conductors "
                + " ".join(_format_prime((pc["p"], pc["b"])) for pc in cert["pieces"])
            )
        rows = [("prime", "degree", "ramified")]
        rows += [
            (_format_prime(r["prime"]), r["degree"], _ramified_name(r["ramified_component"]))
            for r in cert["table"]
        ]
    else:
        parts = " x ".join(str(c["ell"] ** c["r"]) for c in doc["components"])
        n, bound = doc["n"], doc["bound"]
        print(f"field {_field_name(doc['field'])}  n {n} = {parts}  bound {bound}")
        for i, c in enumerate(doc["components"], start=1):
            print(f"component {i}: ell {c['ell']} r {c['r']}, pieces {len(c['pieces'])}")
        rows = [("prime", "degree")]
        rows += [(_format_prime(row["prime"]), row["degree"]) for row in doc["table"]]
    _print_table(rows)
    if doc["real_place_degree"] is not None:
        print(f"real place degree {doc['real_place_degree']}")


def _print_report(report, verbosity: int = 0):
    # verify raises on any mismatch, so every degree is also the claim
    rows = [("prime", "degree")]
    rows += [(_format_prime(rec.prime), rec.degree) for rec in report.records]
    _print_table(rows)
    if report.real_place is not None:
        print(f"real place degree {report.real_place}")
    if verbosity:
        for i, sub in enumerate(report.component_reports, start=1):
            print(f"component {i}: {len(sub.records)} primes rechecked in {sub.elapsed:.3f}s")
    print(f"verdict pass  ({len(report.records)} primes, {report.elapsed:.3f}s)")


# ----------------------------------------------------------- subcommands


def _cmd_construct(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.bound < 2:
        raise UsageError("--bound must be at least 2")
    field = _parse_field(args.field)
    build = Config(cap=args.cap)
    powers = factor(args.n)
    if len(powers) == 1:
        ((ell, r),) = powers
        cert = construct(field, ell, r, args.bound, build)
    else:
        cert = compose_for_n(field, args.n, args.bound, build)
    _print_summary(cert)
    write_certificate(cert, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    cert = parse_certificate(_read_file(args.file))
    report = verify(cert, args.bound)
    _print_report(report, args.verbose)
    return 0


def _cmd_class_group(args) -> int:
    try:
        field = quadratic_field(args.disc)
    except ValueError as exc:
        raise UsageError(f"disc={args.disc}: {exc}") from None
    forms, h = enumerate_class_group(field)
    for a, b, c in forms:
        print(f"({a}, {b}, {c})")
    print(f"h = {h}")
    return 0


def _cmd_hilbert(args) -> int:
    places = ramified_places(args.a, args.b)
    shown = " ".join(str(v) for v in places) if places else "none"
    print(f"ramified places of ({args.a},{args.b}): {shown}")
    return 0


def _cmd_brauer(args) -> int:
    cert = parse_certificate(_read_file(args.file))
    split, places = brauer_split_check(cert, QuaternionAlgebra(args.a, args.b))
    shown = " ".join(str(v) for v in places) if places else "none"
    print(f"ramified places of ({args.a},{args.b}): {shown}")
    print(f"splits: {'yes' if split else 'no'}")
    return 0 if split else 2


# ------------------------------------------------------------ dispatch


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="constdeg",
        description="construct and recheck local-degree certificates",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="build a certificate and write it to a file")
    p.add_argument(
        "--field",
        required=True,
        help="q for the rationals, or disc=<negative fundamental discriminant>",
    )
    p.add_argument("--n", type=int, required=True, help="exponent, composite allowed")
    p.add_argument("--bound", type=int, required=True, help="cover primes of norm up to this")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="entries per conductor search")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="recheck a certificate file")
    p.add_argument("file")
    p.add_argument(
        "--bound",
        type=int,
        default=None,
        help="verify up to this bound (default: the certificate's own)",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("class-group", help="reduced forms and class number")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(handler=_cmd_class_group)

    p = sub.add_parser("hilbert", help="ramified places of a rational quaternion algebra")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("brauer-split", help="does the certified field split the algebra?")
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_brauer)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (UsageError, ValueError, RamifiedPlaceOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MalformedCertificate, MismatchFound) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
