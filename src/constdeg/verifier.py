"""Independent re-checking of certificates, plus the quaternion demo.

verify() trusts nothing but the parsed document: it rebuilds the class
group data, the seed piece, and the ray pieces from the recorded
conductors, recomputes every local degree with the rule the constructor
uses (classfield.local_degree), and compares with the claimed table.
Any disagreement raises MismatchFound carrying the offending place and
both values.

The n = 2 consequence is concrete: a quaternion algebra (a, b) over Q is
split by any field whose local degree is 2 at every place where the
algebra ramifies, and those places are computed with Hilbert symbols.
"""

import json
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .arith import PRIME_LIMIT, factor, is_prime, legendre
from .classfield import (
    InternalInconsistency,
    build_L0_rational,
    build_context,
    context_record,
    enumerate_field_primes,
    l0_local_degrees_above_ell,
    local_degree,
    make_ray_piece,
    real_place_degree,
)
from .quadfield import RATIONAL, factor_rational_prime, quadratic_field

REAL_PLACE = "inf"


class MalformedCertificate(Exception):
    """The document is not a structurally valid certificate."""


class MismatchFound(Exception):
    """A recomputed value disagrees with what the certificate claims."""

    def __init__(self, place, claimed, recomputed):
        self.place = place
        self.claimed = claimed
        self.recomputed = recomputed
        super().__init__(
            f"at {place}: certificate claims {claimed!r}, recomputed {recomputed!r}"
        )


class RamifiedPlaceOutOfRange(Exception):
    """The algebra ramifies at a place the certificate does not cover."""


# ------------------------------------------------------------ reports


@dataclass(frozen=True)
class PrimeRecord:
    prime: tuple  # (p, b)
    components: tuple  # local degree in the seed, then in each piece
    recomputed: int
    claimed: int


@dataclass(frozen=True)
class RealPlaceRecord:
    claimed: "int | None"
    recomputed: "int | None"


@dataclass
class VerificationReport:
    records: list
    real_place: RealPlaceRecord
    elapsed: float
    component_reports: list = dc_field(default_factory=list)


# --------------------------------------------------- structural checks

_PLAIN_KEYS = (
    "schema_version",
    "field",
    "ell",
    "r",
    "t",
    "class_data",
    "unit_gens",
    "l0",
    "deficiencies",
    "pieces",
    "bound",
    "table",
    "real_place_degree",
    "config",
)


def _need(cond, msg: str):
    if not cond:
        raise MalformedCertificate(msg)


def _check_prime_ref(v, what):
    _need(
        isinstance(v, list)
        and len(v) == 2
        and isinstance(v[0], int)
        and (v[1] is None or isinstance(v[1], int)),
        f"{what} must be a [p, b] pair",
    )


def _check_pair(v, what):
    _need(
        isinstance(v, list) and len(v) == 2 and all(isinstance(c, int) for c in v),
        f"{what} must be a coordinate pair",
    )


def _check_field(fj):
    _need(isinstance(fj, dict), "field must be an object")
    kind = fj.get("kind")
    if kind == "rational":
        return
    _need(kind == "imag_quadratic", f"unknown field kind {kind!r}")
    _need(
        isinstance(fj.get("disc"), int) and fj["disc"] < 0,
        "field needs a negative disc",
    )


def _check_plain(cert):
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    missing = [k for k in _PLAIN_KEYS if k not in cert]
    _need(not missing, "missing keys: " + ", ".join(missing))
    _need(cert["schema_version"] == 1, "unsupported schema_version")
    _check_field(cert["field"])
    for key in ("ell", "r", "t", "bound"):
        _need(isinstance(cert[key], int), f"{key} must be an integer")
    _need(cert["bound"] >= 2, "bound must be at least 2")
    _need(isinstance(cert["class_data"], list), "class_data must be a list")
    for row in cert["class_data"]:
        _need(isinstance(row, dict), "class_data rows must be objects")
        _check_prime_ref(row.get("gen_ideal"), "gen_ideal")
        _need(isinstance(row.get("order"), int), "class generator order must be an integer")
        _check_pair(row.get("alpha"), "alpha")
    _need(isinstance(cert["unit_gens"], list), "unit_gens must be a list")
    for u in cert["unit_gens"]:
        _check_pair(u, "unit generator")
    l0 = cert["l0"]
    _need(isinstance(l0, dict) and isinstance(l0.get("modulus"), int), "l0 needs a modulus")
    ch = l0.get("character")
    _need(
        isinstance(ch, dict) and isinstance(ch.get("order"), int) and ch.get("sign") in (1, -1),
        "l0 needs a character with order and sign",
    )
    _need(isinstance(cert["deficiencies"], list), "deficiencies must be a list")
    for row in cert["deficiencies"]:
        _need(isinstance(row, dict), "deficiency rows must be objects")
        _check_prime_ref(row.get("prime"), "deficiency prime")
        _need(
            isinstance(row.get("deficiency"), int) and row["deficiency"] >= 1,
            "deficiency must be a positive integer",
        )
    _need(isinstance(cert["pieces"], list), "pieces must be a list")
    for row in cert["pieces"]:
        _need(isinstance(row, dict), "piece rows must be objects")
        _need(isinstance(row.get("p"), int), "piece p must be an integer")
        _need(row.get("b") is None or isinstance(row["b"], int), "piece b must be an integer or null")
        _need(isinstance(row.get("norm"), int), "piece norm must be an integer")
    _need(isinstance(cert["table"], list) and cert["table"], "table must be a nonempty list")
    for row in cert["table"]:
        _need(isinstance(row, dict), "table rows must be objects")
        _check_prime_ref(row.get("prime"), "table prime")
        _need(
            isinstance(row.get("degree"), int) and row["degree"] >= 1,
            "table degree must be a positive integer",
        )
        rc = row.get("ramified_component", "missing")
        _need(rc is None or isinstance(rc, int), "ramified_component must be an index or null")
    rpd = cert["real_place_degree"]
    _need(rpd is None or isinstance(rpd, int), "real_place_degree must be an integer or null")
    _need(isinstance(cert["config"], dict), "config must be an object")


def _check_composite(cert):
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    _need(cert.get("schema_version") == 1, "unsupported schema_version")
    comp = cert.get("composite")
    _need(isinstance(comp, dict), "composite wrapper must be an object")
    missing = [
        k
        for k in ("n", "field", "bound", "components", "table", "real_place_degree")
        if k not in comp
    ]
    _need(not missing, "composite missing keys: " + ", ".join(missing))
    _need(isinstance(comp["n"], int) and comp["n"] >= 2, "composite n must be an integer >= 2")
    _check_field(comp["field"])
    _need(isinstance(comp["bound"], int) and comp["bound"] >= 2, "bound must be at least 2")
    _need(
        isinstance(comp["components"], list) and comp["components"],
        "components must be a nonempty list",
    )
    for sub in comp["components"]:
        _check_plain(sub)
    _need(isinstance(comp["table"], list) and comp["table"], "table must be a nonempty list")
    for row in comp["table"]:
        _need(isinstance(row, dict), "table rows must be objects")
        _check_prime_ref(row.get("prime"), "table prime")
        _need(isinstance(row.get("degree"), int), "table degree must be an integer")
    rpd = comp["real_place_degree"]
    _need(rpd is None or isinstance(rpd, int), "real_place_degree must be an integer or null")


def parse_certificate(text: str) -> dict:
    """Parse and structurally validate a certificate document."""
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"not valid JSON: {exc}") from None
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    if "composite" in cert:
        _check_composite(cert)
    else:
        _check_plain(cert)
    return cert


# ------------------------------------------------------- reconstruction


def _field_of(fj):
    if fj["kind"] == "rational":
        return RATIONAL
    try:
        return quadratic_field(fj["disc"])
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None


def _lookup_prime(field, p, b):
    _need(
        isinstance(p, int) and 2 <= p < PRIME_LIMIT and is_prime(p),
        f"{p} is not a prime below 2**64",
    )
    for cand in factor_rational_prime(field, p):
        if cand.b == b:
            return cand
    raise MalformedCertificate(f"no prime ({p},{b}) in the field")


def _match(what, claimed, recomputed):
    if claimed != recomputed:
        raise MismatchFound(what, claimed, recomputed)


def _rebuild(cert):
    """Context, seed, and pieces recomputed from the document alone."""
    field = _field_of(cert["field"])
    try:
        ctx = build_context(field, cert["ell"], cert["r"])
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None
    l0 = build_L0_rational(ctx.ell, ctx.r)
    rows = l0_local_degrees_above_ell(ctx, l0)
    for key, value in context_record(ctx, l0, rows).items():
        _match(key, cert[key], value)
    deficiencies = {P: a for P, _, a in rows}
    pieces = []
    seen = set()
    for row in cert["pieces"]:
        P = _lookup_prime(field, row["p"], row["b"])
        _need(
            row["norm"] == P.norm,
            f"piece ({row['p']},{row['b']}) has norm {P.norm}, not {row['norm']}",
        )
        _need(P not in seen, f"duplicate piece conductor ({P.p},{P.b})")
        seen.add(P)
        try:
            pieces.append(make_ray_piece(ctx, P))
        except ValueError:
            raise MismatchFound(
                f"piece conductor ({P.p},{P.b})", "member of S", "not a member of S"
            ) from None
    return ctx, l0, deficiencies, pieces


# ------------------------------------------------------- recomputation


def _effective_bound(cert_bound, requested):
    if requested is None:
        return cert_bound
    if requested > cert_bound:
        raise ValueError(
            f"requested bound {requested} exceeds the certificate bound {cert_bound}"
        )
    return requested


def _table_index(table):
    by_prime = {}
    for row in table:
        key = tuple(row["prime"])
        _need(key not in by_prime, f"duplicate table row for prime {list(key)}")
        by_prime[key] = row
    return by_prime


def _verify_plain(cert, bound):
    ctx, l0, deficiencies, pieces = _rebuild(cert)
    by_prime = _table_index(cert["table"])
    records = []
    for w in enumerate_field_primes(ctx.field, bound):
        row = by_prime.get((w.p, w.b))
        _need(row is not None, f"table has no row for prime ({w.p},{w.b})")
        parts, ram, total = local_degree(ctx, l0, deficiencies, pieces, w)
        if row["degree"] != total:
            raise MismatchFound(f"prime ({w.p},{w.b})", row["degree"], total)
        if row["ramified_component"] != ram:
            raise MismatchFound(
                f"ramified component at ({w.p},{w.b})", row["ramified_component"], ram
            )
        records.append(PrimeRecord((w.p, w.b), parts, total, row["degree"]))
    expected_real = real_place_degree(ctx.field, l0.degree)
    if expected_real == 2:
        # the seed character must be odd, or the real place degenerates
        sign = cert["l0"]["character"]["sign"]
        if sign != -1:
            raise MismatchFound("seed character sign", sign, -1)
    if cert["real_place_degree"] != expected_real:
        raise MismatchFound("real place", cert["real_place_degree"], expected_real)
    real = RealPlaceRecord(cert["real_place_degree"], expected_real)
    return records, real


def _verify_composite(comp, bound):
    b = _effective_bound(comp["bound"], bound)
    field = _field_of(comp["field"])
    ells = [sub["ell"] for sub in comp["components"]]
    _need(len(set(ells)) == len(ells), "components must use distinct primes ell")
    n = 1
    for sub in comp["components"]:
        n *= sub["ell"] ** sub["r"]
    _match("composite exponent n", comp["n"], n)
    subreports = []
    submaps = []
    for sub in comp["components"]:
        _match("component field", sub["field"], comp["field"])
        _need(sub["bound"] >= b, "component bound is smaller than the requested bound")
        rep = verify(sub, b)
        subreports.append(rep)
        submaps.append({rec.prime: rec.recomputed for rec in rep.records})
    by_prime = _table_index(comp["table"])
    records = []
    for w in enumerate_field_primes(field, b):
        row = by_prime.get((w.p, w.b))
        _need(row is not None, f"table has no row for prime ({w.p},{w.b})")
        parts = tuple(m[(w.p, w.b)] for m in submaps)
        total = 1
        for d in parts:
            total *= d
        if row["degree"] != total:
            raise MismatchFound(f"prime ({w.p},{w.b})", row["degree"], total)
        records.append(PrimeRecord((w.p, w.b), parts, total, row["degree"]))
    expected_real = real_place_degree(field, comp["n"])
    if comp["real_place_degree"] != expected_real:
        raise MismatchFound("real place", comp["real_place_degree"], expected_real)
    real = RealPlaceRecord(comp["real_place_degree"], expected_real)
    return records, real, subreports


def verify(cert: dict, bound: int = None) -> VerificationReport:
    """Recheck every claimed local degree up to bound (default: the
    certificate's own coverage bound, which the requested bound must not
    exceed).

    Raises MalformedCertificate for structural defects and MismatchFound
    as soon as a recomputed value disagrees with a claim, so a returned
    report always records a pass.
    """
    start = time.perf_counter()
    if isinstance(cert, dict) and "composite" in cert:
        _check_composite(cert)
        comp = cert["composite"]
        records, real, subreports = _verify_composite(comp, bound)
    else:
        _check_plain(cert)
        records, real = _verify_plain(cert, _effective_bound(cert["bound"], bound))
        subreports = []
    elapsed = time.perf_counter() - start
    return VerificationReport(records, real, elapsed, subreports)


# ------------------------------------------------------ hilbert symbols


def _split_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _symbol(a, b, place):
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    if p != 2:
        s = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
        if beta % 2:
            s *= legendre(u, p)
        if alpha % 2:
            s *= legendre(v, p)
        return s
    e = ((u - 1) // 2) * ((v - 1) // 2)
    e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
    return -1 if e % 2 else 1


def _support(a, b):
    ps = {2}
    for n in (a, b):
        ps.update(p for p, _ in factor(abs(n)))
    return sorted(ps)


@lru_cache(maxsize=4096)
def _assert_reciprocity(a, b):
    # the product of the local symbols over all places must be 1
    prod = _symbol(a, b, REAL_PLACE)
    for p in _support(a, b):
        prod *= _symbol(a, b, p)
    if prod != 1:
        raise InternalInconsistency(f"hilbert reciprocity fails for ({a},{b})")


def hilbert_symbol(a: int, b: int, place):
    """(a, b) at the given place, +1 or -1: whether z^2 = a x^2 + b y^2
    has a nontrivial local solution there.  place is a rational prime or
    the string "inf" for the real place.

    The product formula over all places is asserted for every queried
    pair (memoized for the 4096 most recent pairs); a failure would mean
    the symbol itself is broken.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if place != REAL_PLACE and not (isinstance(place, int) and is_prime(place)):
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}")
    _assert_reciprocity(a, b)
    return _symbol(a, b, place)


def ramified_places(a: int, b: int) -> list:
    """Places where the quaternion algebra (a, b) over Q does not split:
    finite places ascending, the real place last."""
    out = [p for p in _support(a, b) if hilbert_symbol(a, b, p) == -1]
    if hilbert_symbol(a, b, REAL_PLACE) == -1:
        out.append(REAL_PLACE)
    return out


# -------------------------------------------------------- brauer check


@dataclass(frozen=True)
class QuaternionAlgebra:
    a: int
    b: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ValueError("quaternion algebra parameters must be nonzero")


def _degree_view(cert):
    # the splitting criterion needs exponent 2 over the rationals;
    # accept the plain certificate or its composite wrapping
    if isinstance(cert, dict) and "composite" in cert:
        _check_composite(cert)
        comp = cert["composite"]
        if comp["field"]["kind"] != "rational" or comp["n"] != 2:
            raise ValueError("splitting check needs an n = 2 certificate over the rationals")
        table, bound, real = comp["table"], comp["bound"], comp["real_place_degree"]
    else:
        _check_plain(cert)
        if cert["field"]["kind"] != "rational" or cert["ell"] != 2 or cert["r"] != 1:
            raise ValueError("splitting check needs an n = 2 certificate over the rationals")
        table, bound, real = cert["table"], cert["bound"], cert["real_place_degree"]
    return {row["prime"][0]: row["degree"] for row in table}, bound, real


def brauer_split_check(cert: dict, algebra: QuaternionAlgebra):
    """Does the certified field split the algebra?

    Returns (split, places): split is true iff the certificate claims
    local degree 2 at every finite ramified place of the algebra and,
    when the real place ramifies, real-place degree 2.  Claims are read
    as recorded; run verify first if they are untrusted.
    """
    degrees, bound, real = _degree_view(cert)
    places = ramified_places(algebra.a, algebra.b)
    split = True
    for v in places:
        if v == REAL_PLACE:
            split = split and real == 2
            continue
        if v > bound:
            raise RamifiedPlaceOutOfRange(
                f"algebra ramified at {v}, beyond the certificate bound {bound}"
            )
        split = split and degrees.get(v) == 2
    return split, places
