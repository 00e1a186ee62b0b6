"""Independent re-checking of certificates, plus the quaternion demo.

verify() trusts nothing but the parsed document: it rebuilds the class
group data, the seed piece, and the ray pieces from the recorded
conductors, recomputes every local degree with the fold the constructor
uses (classfield.local_degree, which stops asking for Frobenius orders
once a row's unramified part is full), and compares with the claimed
table.
Plain and composite documents share one table walk; a composite row's
degree is the product of its components' verified degrees.  Any
disagreement raises MismatchFound carrying the offending place and both
values.

The n = 2 consequence is concrete: a quaternion algebra (a, b) over Q is
split by any field whose local degree is 2 at every place where the
algebra ramifies, and those places are computed with Hilbert symbols.
"""

import json
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import prod

from .arith import PRIME_LIMIT, SearchExhausted, factor, is_prime, legendre
from .classfield import (
    InternalInconsistency,
    build_context,
    context_record,
    enumerate_field_primes,
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
    degree: int  # recomputed, and equal to the claim


@dataclass
class VerificationReport:
    records: list
    real_place: "int | None"  # recomputed, and equal to the claim
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
_COMPOSITE_KEYS = ("n", "field", "bound", "components", "table", "real_place_degree")


def _need(cond, msg: str):
    if not cond:
        raise MalformedCertificate(msg)


def _need_keys(doc, keys, what=""):
    missing = [k for k in keys if k not in doc]
    _need(not missing, what + "missing keys: " + ", ".join(missing))


def _int(v) -> bool:
    # JSON true/false load as bool, which isinstance(v, int) accepts
    return type(v) is int


def _check_prime_ref(v, what):
    _need(
        isinstance(v, list)
        and len(v) == 2
        and _int(v[0])
        and (v[1] is None or _int(v[1])),
        f"{what} must be a [p, b] pair",
    )


def _check_pair(v, what):
    _need(
        isinstance(v, list) and len(v) == 2 and all(_int(c) for c in v),
        f"{what} must be a coordinate pair",
    )


def _check_field(fj):
    _need(isinstance(fj, dict), "field must be an object")
    kind = fj.get("kind")
    if kind == "rational":
        return
    _need(kind == "imag_quadratic", f"unknown field kind {kind!r}")
    _need(_int(fj.get("disc")) and fj["disc"] < 0, "field needs a negative disc")


def _check_coverage(doc, plain: bool):
    """The keys a plain document and a composite wrapper share: field,
    bound, the table rows (plain rows also name their ramified
    component) and the real place."""
    _check_field(doc["field"])
    _need(_int(doc["bound"]) and doc["bound"] >= 2, "bound must be an integer >= 2")
    _need(isinstance(doc["table"], list) and doc["table"], "table must be a nonempty list")
    for row in doc["table"]:
        _need(isinstance(row, dict), "table rows must be objects")
        _check_prime_ref(row.get("prime"), "table prime")
        _need(
            _int(row.get("degree")) and row["degree"] >= 1,
            "table degree must be a positive integer",
        )
        if plain:
            rc = row.get("ramified_component", "missing")
            _need(rc is None or _int(rc), "ramified_component must be an index or null")
    rpd = doc["real_place_degree"]
    _need(rpd is None or _int(rpd), "real_place_degree must be an integer or null")


def _check_schema(cert):
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    version = cert.get("schema_version")
    _need(_int(version) and version == 1, "unsupported schema_version")


def _check_plain(cert):
    _check_schema(cert)
    _need_keys(cert, _PLAIN_KEYS)
    _check_coverage(cert, plain=True)
    for key in ("ell", "r", "t"):
        _need(_int(cert[key]), f"{key} must be an integer")
    _need(isinstance(cert["class_data"], list), "class_data must be a list")
    for row in cert["class_data"]:
        _need(isinstance(row, dict), "class_data rows must be objects")
        _check_prime_ref(row.get("gen_ideal"), "gen_ideal")
        _need(_int(row.get("order")), "class generator order must be an integer")
        _check_pair(row.get("alpha"), "alpha")
    _need(isinstance(cert["unit_gens"], list), "unit_gens must be a list")
    for u in cert["unit_gens"]:
        _check_pair(u, "unit generator")
    l0 = cert["l0"]
    _need(isinstance(l0, dict) and _int(l0.get("modulus")), "l0 needs a modulus")
    ch = l0.get("character")
    _need(
        isinstance(ch, dict)
        and _int(ch.get("order"))
        and _int(ch.get("sign"))
        and ch["sign"] in (1, -1),
        "l0 needs a character with order and sign",
    )
    _need(isinstance(cert["deficiencies"], list), "deficiencies must be a list")
    for row in cert["deficiencies"]:
        _need(isinstance(row, dict), "deficiency rows must be objects")
        _check_prime_ref(row.get("prime"), "deficiency prime")
        _need(
            _int(row.get("deficiency")) and row["deficiency"] >= 1,
            "deficiency must be a positive integer",
        )
    _need(isinstance(cert["pieces"], list), "pieces must be a list")
    for row in cert["pieces"]:
        _need(isinstance(row, dict), "piece rows must be objects")
        _need(_int(row.get("p")), "piece p must be an integer")
        _need(row.get("b") is None or _int(row["b"]), "piece b must be an integer or null")
        _need(_int(row.get("norm")), "piece norm must be an integer")
    _need(isinstance(cert["config"], dict), "config must be an object")


def _check_composite(cert):
    _check_schema(cert)
    comp = cert.get("composite")
    _need(isinstance(comp, dict), "composite wrapper must be an object")
    _need_keys(comp, _COMPOSITE_KEYS, "composite ")
    _need(_int(comp["n"]) and comp["n"] >= 2, "composite n must be an integer >= 2")
    _check_coverage(comp, plain=False)
    _need(
        isinstance(comp["components"], list) and comp["components"],
        "components must be a nonempty list",
    )
    for sub in comp["components"]:
        _check_plain(sub)


def _check(cert):
    """Structurally validate a plain or composite document; returns the
    object holding its field, bound, table and real place."""
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    if "composite" not in cert:
        _check_plain(cert)
        return cert
    _check_composite(cert)
    return cert["composite"]


def parse_certificate(text: str) -> dict:
    """Parse and structurally validate a certificate document."""
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"not valid JSON: {exc}") from None
    _check(cert)
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
    _need(2 <= p < PRIME_LIMIT and is_prime(p), f"{p} is not a prime below 2**64")
    for cand in factor_rational_prime(field, p):
        if cand.b == b:
            return cand
    raise MalformedCertificate(f"no prime ({p},{b}) in the field")


def _match(what, claimed, recomputed):
    if claimed != recomputed:
        raise MismatchFound(what, claimed, recomputed)


def _rebuild(cert):
    """Context and piece conductors recomputed from the document alone."""
    field = _field_of(cert["field"])
    # the seed's order must equal ell^r, so a larger r is a lie that
    # would only make build_context size its moduli by it
    order = cert["l0"]["character"]["order"]
    _need(cert["r"] < order.bit_length(), f"r exceeds the seed order {order}")
    try:
        ctx = build_context(field, cert["ell"], cert["r"])
    except (ValueError, SearchExhausted) as exc:
        raise MalformedCertificate(str(exc)) from None
    for key, value in context_record(ctx).items():
        _match(key, cert[key], value)
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
    return ctx, pieces


# ------------------------------------------------------- recomputation


def _effective_bound(cert_bound, requested):
    if requested is None:
        return cert_bound
    if requested < 2:
        raise ValueError(f"requested bound {requested} is below 2")
    if requested > cert_bound:
        raise ValueError(
            f"requested bound {requested} exceeds the certificate bound {cert_bound}"
        )
    return requested


def _walk_table(field, doc, bound, n, degrees):
    """Records of doc's table and real place, rechecked: every prime of
    norm <= bound needs one row whose degree and ramified component
    (absent on composite rows) match degrees(w), a (ramified, factor,
    degree) triple as local_degree returns.

    Primes are walked in segments of norm (lo, hi], each four times the
    last, so the work up to the first missing row is bounded by the
    table, not by bound.  The first segment ends at 2*R*log2(R) for R =
    len(table), above the norm of the R-th prime, so an honest table is
    walked in one segment up to bound."""
    by_prime = {}
    for row in doc["table"]:
        key = tuple(row["prime"])
        _need(key not in by_prime, f"duplicate table row for prime {list(key)}")
        by_prime[key] = row
    records = []
    R = len(by_prime)
    lo, hi = 0, min(bound, max(4096, 2 * R * R.bit_length()))
    while lo < bound:
        # the primes of norm <= lo are the ones already walked
        for w in enumerate_field_primes(field, hi)[len(records) :]:
            row = by_prime.get((w.p, w.b))
            _need(row is not None, f"table has no row for prime ({w.p},{w.b})")
            ram, _, total = degrees(w)
            if row["degree"] != total:
                raise MismatchFound(f"prime ({w.p},{w.b})", row["degree"], total)
            claimed_ram = row.get("ramified_component")
            if claimed_ram != ram:
                raise MismatchFound(f"ramified component at ({w.p},{w.b})", claimed_ram, ram)
            records.append(PrimeRecord((w.p, w.b), total))
        lo, hi = hi, min(bound, 4 * hi)
    expected_real = real_place_degree(field, n)
    _match("real place", doc["real_place_degree"], expected_real)
    return records, expected_real


def _verify_plain(cert, bound):
    ctx, pieces = _rebuild(cert)
    records, real = _walk_table(
        ctx.field, cert, bound, ctx.seed.degree, lambda w: local_degree(ctx, pieces, w)
    )
    return records, real, []


def _verify_composite(comp, b):
    field = _field_of(comp["field"])
    ells = [sub["ell"] for sub in comp["components"]]
    _need(len(set(ells)) == len(ells), "components must use distinct primes ell")
    subreports = []
    submaps = []
    n = 1
    for sub in comp["components"]:
        _match("component field", sub["field"], comp["field"])
        _need(sub["bound"] >= b, "component bound is smaller than the requested bound")
        rep = verify(sub, b)  # bounds sub["r"] before it is used as an exponent
        subreports.append(rep)
        submaps.append({rec.prime: rec.degree for rec in rep.records})
        n *= sub["ell"] ** sub["r"]
    _match("composite exponent n", comp["n"], n)

    def degrees(w):
        return None, 1, prod(m[(w.p, w.b)] for m in submaps)

    records, real = _walk_table(field, comp, b, n, degrees)
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
    doc = _check(cert)
    recheck = _verify_plain if doc is cert else _verify_composite
    records, real, subreports = recheck(doc, _effective_bound(doc["bound"], bound))
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
    doc = _check(cert)
    n2 = (doc["ell"], doc["r"]) == (2, 1) if doc is cert else doc["n"] == 2
    if doc["field"]["kind"] != "rational" or not n2:
        raise ValueError("splitting check needs an n = 2 certificate over the rationals")
    degrees = {row["prime"][0]: row["degree"] for row in doc["table"]}
    return degrees, doc["bound"], doc["real_place_degree"]


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
