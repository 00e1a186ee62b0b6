"""Command line front end.

Subcommands: construct (build a certificate file), verify (recheck one),
class-group (reduced forms and h), hilbert (ramified places of a
quaternion algebra), brauer-split (does the certified field split it).

Exit codes: 0 success or pass, 1 usage error, 2 verification failure,
3 conductor search exhausted, 4 internal inconsistency.
"""

import argparse
import os
import sys

from .arith import SearchExhausted, factor
from .classfield import DEFAULT_CAP, InternalInconsistency
from .constructor import Config, compose_for_n, construct, write_certificate
from .quadfield import RATIONAL, enumerate_class_group, quadratic_field
from .verifier import (
    InvalidRequest,
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
    """The document's text; bytes that are not UTF-8 make it malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedCertificate(f"not UTF-8: {exc}") from None


def _field_name(fj) -> str:
    if fj["kind"] == "rational":
        return "Q"
    return f"disc {fj['disc']}"


def _format_prime(pr) -> str:
    p, b = pr
    return f"({p},{b if b is not None else '-'})"


def _print_summary(cert):
    # the rows are in the file, and each says degree n
    doc = cert.get("composite", cert)
    rows = len(doc["table"])
    if doc is cert:
        print(
            f"field {_field_name(cert['field'])}  n {cert['ell'] ** cert['r']} "
            f"(ell {cert['ell']}, r {cert['r']})  bound {cert['bound']}  "
            f"rows {rows}  pieces {len(cert['pieces'])}"
        )
        if cert["pieces"]:
            print(
                "conductors "
                + " ".join(_format_prime((pc["p"], pc["b"])) for pc in cert["pieces"])
            )
    else:
        parts = " x ".join(str(c["ell"] ** c["r"]) for c in doc["components"])
        print(
            f"field {_field_name(doc['field'])}  n {doc['n']} = {parts}  "
            f"bound {doc['bound']}  rows {rows}"
        )
        for i, c in enumerate(doc["components"], start=1):
            print(f"component {i}: ell {c['ell']} r {c['r']}, pieces {len(c['pieces'])}")
    if doc["real_place_degree"] is not None:
        print(f"real place degree {doc['real_place_degree']}")


def _print_report(report, verbosity: int = 0):
    # verify raises unless every rechecked prime has degree n in its row
    if report.real_place is not None:
        print(f"real place degree {report.real_place}")
    if verbosity:
        for i, sub in enumerate(report.component_reports, start=1):
            print(f"component {i}: {len(sub.primes)} primes rechecked in {sub.elapsed:.3f}s")
    print(f"verdict pass  ({len(report.primes)} primes, {report.elapsed:.3f}s)")


def _print_places(a: int, b: int, places):
    shown = " ".join(str(v) for v in places) if places else "none"
    print(f"ramified places of ({a},{b}): {shown}")


# ----------------------------------------------------------- subcommands


def _cmd_construct(args) -> int:
    field = _parse_field(args.field)
    # an --out that is a directory, or a directory that cannot take --out,
    # fails now, not after the search; the file itself is made only once
    # there is a certificate to write
    if os.path.isdir(args.out):
        raise OSError(f"cannot write {args.out}: it is a directory")
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {args.out}: {folder} is not a writable directory")
    build = Config(cap=args.cap)
    # construct and compose_for_n own the n and bound rules
    powers = factor(args.n) if args.n > 1 else ()
    if len(powers) == 1:
        ((ell, r),) = powers
        cert = construct(field, ell, r, args.bound, build)
    else:
        cert = compose_for_n(field, args.n, args.bound, build)
    write_certificate(cert, args.out)
    _print_summary(cert)
    print(f"wrote {args.out}")
    return 0


def _checked(check, *args):
    """check(*args) for verify and brauer_split_check, where a ValueError
    other than InvalidRequest, the usage errors README names, is a defect
    of the check and exits 4, not 1."""
    try:
        return check(*args)
    except InvalidRequest:
        raise
    except ValueError as exc:
        raise InternalInconsistency(f"{check.__name__} raised ValueError: {exc}") from exc


def _cmd_verify(args) -> int:
    cert = parse_certificate(_read_file(args.file))
    report = _checked(verify, cert, args.bound)
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
    _print_places(args.a, args.b, ramified_places(args.a, args.b))
    return 0


def _cmd_brauer(args) -> int:
    cert = parse_certificate(_read_file(args.file))
    places = _checked(brauer_split_check, cert, QuaternionAlgebra(args.a, args.b))
    _print_places(args.a, args.b, places)
    print("splits: yes")  # the check answers only once verify has passed
    return 0


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
    except (UsageError, ValueError, RamifiedPlaceOutOfRange, OSError) as exc:
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
