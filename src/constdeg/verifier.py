"""Independent re-checking of certificates, plus the quaternion demo.

parse_certificate only parses JSON.  verify() trusts nothing but the
document: it checks the shape of each key it computes with and each
table row once, rebuilds the class group data, the seed piece, and the
ray pieces from the recorded conductors, recomputes every local degree
with the fold the constructor uses (classfield.DegreeFold, which asks
each piece for its Frobenius orders only at the rows whose unramified
part is still short), and checks the certificate's one claim: degree n
at every finite prime of norm up to the bound, the i-th in row i, and
no other rows.  Plain and composite documents share one table walk; a
composite's components are each verified at their own ell^r, so every
composite row is their product n.  Any disagreement raises
MismatchFound carrying the offending place and both values.  A key it
only compares, such as class_data, is checked by that comparison alone.

The even-n consequence is concrete: a quaternion algebra (a, b) over Q is
split by any field of even local degree wherever it ramifies (places from
Hilbert symbols); brauer_split_check answers after verify passes there.
"""

import json
import time
from collections import namedtuple
from functools import partial
from itertools import repeat

from .arith import PRIME_LIMIT, factor, is_prime, legendre
from .classfield import (
    Conductor,
    InternalInconsistency,
    build_context,
    context_record,
    enumerate_field_primes,
    local_degrees,
    make_ray_piece,
    real_place_degree,
)
from .quadfield import RATIONAL, factor_rational_prime, quadratic_field

REAL_PLACE = "inf"


class MalformedCertificate(Exception):
    """The document is not a structurally valid certificate."""


def _clip(value) -> str:
    # value's repr, cut after 200 characters
    text = repr(value)
    return text if len(text) <= 200 else f"{text[:200]}... [{len(text) - 200} more characters]"


class MismatchFound(Exception):
    """A recomputed value disagrees with what the certificate claims.
    .claimed and .recomputed hold both values whole; the message shows
    the first 200 characters of each one's repr, and marks a cut."""

    def __init__(self, place, claimed, recomputed):
        self.place = place
        self.claimed = claimed
        self.recomputed = recomputed
        super().__init__(
            f"at {place}: certificate claims {_clip(claimed)}, recomputed {_clip(recomputed)}"
        )


class RamifiedPlaceOutOfRange(Exception):
    """The algebra ramifies at a place the certificate does not cover."""


class InvalidRequest(ValueError):
    """A question the certificate cannot answer: a verify bound not an
    int, below 2 or above its own, a splitting check of a certificate of
    odd n or not over Q, or an a or b that arith.factor cannot factor."""


# ------------------------------------------------------------ reports


class VerificationReport:
    def __init__(self, primes, degree, real_place, elapsed, component_reports=()):
        self.primes = primes  # the (p, b) pair of every rechecked table row
        self.degree = degree  # n, the recomputed local degree at each of them
        self.real_place = real_place  # int or None: recomputed, and equal to the claim
        self.elapsed = elapsed
        self.component_reports = list(component_reports)


# --------------------------------------------------- structural checks

_PLAIN_KEYS = (
    "schema_version field ell r t class_data unit_gens l0 deficiencies pieces bound table"
    " real_place_degree config"
).split()
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
    if not (isinstance(v, list) and len(v) == 2 and _int(v[0]) and (v[1] is None or _int(v[1]))):
        raise MalformedCertificate(f"{what} must be a [p, b] pair")


def _check_field(fj):
    _need(isinstance(fj, dict), "field must be an object")
    kind = fj.get("kind")
    if kind == "rational":
        return
    _need(kind == "imag_quadratic", f"unknown field kind {kind!r}")
    _need(_int(fj.get("disc")) and fj["disc"] < 0, "field needs a negative disc")


def _check_coverage(doc):
    """The keys a plain document and a composite wrapper share and verify
    computes with: field, bound and the table list, whose rows _check_rows reads."""
    _check_field(doc["field"])
    _need(_int(doc["bound"]) and doc["bound"] >= 2, "bound must be an integer >= 2")
    _need(isinstance(doc["table"], list) and doc["table"], "table must be a nonempty list")


def _check_rows(doc, plain: bool):
    """Each row of doc's table, at any bound: well formed (plain rows name
    a ramified component), of norm <= doc's bound, and past the last row as
    enumerate_field_primes orders them: by norm (p^2 at (p, None) over K),
    then root, None first."""
    square, bound, last = doc["field"]["kind"] != "rational", doc["bound"], ()
    for row in doc["table"]:
        _need(isinstance(row, dict), "table rows must be objects")
        _check_prime_ref(row.get("prime"), "table prime")
        _need(
            _int(row.get("degree")) and row["degree"] >= 1,
            "table degree must be a positive integer",
        )
        rc = row.get("ramified_component", "missing") if plain else None
        _need(rc is None or _int(rc), "ramified_component must be an index or null")
        p, b = row["prime"]
        key = (p * p if b is None and square else p, -1 if b is None else b)
        if key <= last or key[0] > bound:
            fault = "is out of order" if key <= last else f"is not a prime of norm <= {bound}"
            raise MalformedCertificate(f"table row for {row['prime']} {fault}")
        last = key


def _check_schema(cert):
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    version = cert.get("schema_version")
    _need(_int(version) and version == 1, "unsupported schema_version")


def _check_plain(cert):
    """The keys verify computes with, and config; of l0 only the character
    order, which _rebuild's r guard reads.  The rest of l0, t, class_data,
    unit_gens, deficiencies and real_place_degree are only compared with
    their recomputed values, and _match is their one check."""
    _check_schema(cert)
    _need_keys(cert, _PLAIN_KEYS)
    _check_coverage(cert)
    for key in ("ell", "r"):
        _need(_int(cert[key]), f"{key} must be an integer")
    ch = cert["l0"].get("character") if isinstance(cert["l0"], dict) else None
    _need(isinstance(ch, dict) and _int(ch.get("order")), "l0 needs a character order")
    _need(isinstance(cert["pieces"], list), "pieces must be a list")
    for row in cert["pieces"]:
        _need(isinstance(row, dict), "piece rows must be objects")
        _need(_int(row.get("p")), "piece p must be an integer")
        b = row.get("b", "missing")
        _need(b is None or _int(b), "piece b must be an integer or null")
        _need(_int(row.get("norm")), "piece norm must be an integer")
    _need(isinstance(cert["config"], dict), "config must be an object")


def _check_composite(cert):
    _check_schema(cert)
    comp = cert.get("composite")
    _need(isinstance(comp, dict), "composite wrapper must be an object")
    _need_keys(comp, _COMPOSITE_KEYS, "composite ")
    _need(_int(comp["n"]) and comp["n"] >= 2, "composite n must be an integer >= 2")
    _check_coverage(comp)
    _need(
        isinstance(comp["components"], list) and comp["components"],
        "components must be a nonempty list",
    )
    for sub in comp["components"]:
        _check_plain(sub)


def _check(cert):
    """Validate a plain or composite document's structure bar its table
    rows; returns the object holding its field, bound, table and real place."""
    _need(isinstance(cert, dict), "certificate must be a JSON object")
    if "composite" not in cert:
        _check_plain(cert)
        return cert
    _check_composite(cert)
    return cert["composite"]


def parse_certificate(text: str) -> dict:
    """Parse a certificate document; verify and brauer_split_check check its structure."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, an over-long int, deep nesting
        raise MalformedCertificate(f"not valid JSON: {exc}") from None


# ------------------------------------------------------- reconstruction


def _field_of(fj):
    if fj["kind"] == "rational":
        return RATIONAL
    try:
        return quadratic_field(fj["disc"])
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None


def _lookup_prime(field, p, b) -> Conductor:
    _need(2 <= p < PRIME_LIMIT and is_prime(p), f"{p} is not a prime below 2**64")
    _need((p, b) in factor_rational_prime(field, p), f"no prime ({p},{b}) in the field")
    return Conductor(p, b, p * p if b is None and field.kind != "rational" else p)


_JSON_TEXT = json.JSONEncoder(sort_keys=True, default=repr).encode


def _match(what, claimed, recomputed):
    """The one check of a key verify only compares: MismatchFound if the
    values differ, MalformedCertificate if they are equal only as Python
    values (true for 1, 2.0 for 2), which json.dumps tells apart."""
    if claimed != recomputed:
        raise MismatchFound(what, claimed, recomputed)
    if _JSON_TEXT(claimed) != _JSON_TEXT(recomputed):
        raise MalformedCertificate(f"{what}: {_clip(claimed)} is not of the recomputed JSON types")


def _rebuild(cert):
    """Context and piece conductors recomputed from the document alone."""
    field = _field_of(cert["field"])
    # the seed's order must equal ell^r, so a larger r is a lie that
    # would only make build_context size its moduli by it
    order = cert["l0"]["character"]["order"]
    _need(cert["r"] < order.bit_length(), f"r exceeds the seed order {order}")
    try:
        ctx = build_context(field, cert["ell"], cert["r"])
    except ValueError as exc:
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
    if not _int(requested):
        raise InvalidRequest(f"requested bound {requested!r} is not an integer")
    if requested < 2:
        raise InvalidRequest(f"requested bound {requested} is below 2")
    if requested > cert_bound:
        raise InvalidRequest(
            f"requested bound {requested} exceeds the certificate bound {cert_bound}"
        )
    return requested


def _walk_table(field, doc, bound, n, degrees):
    """The primes of doc's table rechecked up to bound, and its real
    place: row i must name the i-th prime w, a (p, b) pair of
    enumerate_field_primes, for each w of norm <= bound (rows ascend, so
    a row in w's place that names a prime leaves w without one); w's
    degree, from a (ramified, factor, degree) triple as local_degree
    returns, must be the claimed n, and the row's degree and ramified
    component (absent on composite rows) must match it.  Walked to doc's
    own bound, no row is left over.

    Primes are walked in segments of norm (lo, hi], each four times the
    last, so the work up to the first missing row is bounded by the
    table, not by bound.  The first segment ends at 2*R*log2(R) for R =
    len(table), above the norm of the R-th prime, so an honest table is
    walked in one segment up to bound.  degrees(ws) yields the triples
    of a segment's primes ws in order, folded at most a few hundred rows
    ahead of the walk, so the first failing row raises."""
    table = doc["table"]
    primes = []
    R = len(table)
    lo, hi = 0, min(bound, max(4096, 2 * R * R.bit_length()))
    while lo < bound:
        # the primes of norm <= lo are the ones already walked, one per row
        walked = len(primes)
        ws = enumerate_field_primes(field, hi)[walked:]
        for w, row, (ram, _, total) in zip(ws, table[walked:], degrees(ws)):
            if tuple(row["prime"]) != w:
                try:
                    _lookup_prime(field, *row["prime"])
                except MalformedCertificate as exc:  # it names no prime
                    raise MalformedCertificate(f"table row for {row['prime']}: {exc}") from None
                raise MalformedCertificate(f"table has no row for prime ({w[0]},{w[1]})")
            if total != n:
                raise MismatchFound(f"prime ({w[0]},{w[1]})", n, total)
            if row["degree"] != total:
                raise MismatchFound(f"prime ({w[0]},{w[1]})", row["degree"], total)
            claimed_ram = row.get("ramified_component")
            if claimed_ram != ram:
                raise MismatchFound(f"ramified component at ({w[0]},{w[1]})", claimed_ram, ram)
            primes.append(w)
        if len(ws) > R - walked:  # the table ends inside the segment
            w = ws[R - walked]
            raise MalformedCertificate(f"table has no row for prime ({w[0]},{w[1]})")
        lo, hi = hi, min(bound, 4 * hi)
    if len(primes) < R and bound == doc["bound"]:  # rows ascend, up to doc's bound
        raise MalformedCertificate(f"table row for {table[len(primes)]['prime']} names no prime")
    expected_real = real_place_degree(field, n)
    _match("real place", doc["real_place_degree"], expected_real)
    return primes, expected_real


def _verify_plain(cert, bound):
    start = time.perf_counter()
    ctx, pieces = _rebuild(cert)
    n = ctx.seed.degree  # ell^r
    primes, real = _walk_table(ctx.field, cert, bound, n, partial(local_degrees, ctx, pieces))
    return VerificationReport(primes, n, real, time.perf_counter() - start)


def _verify_composite(comp, b):
    field = _field_of(comp["field"])
    ells = [sub["ell"] for sub in comp["components"]]
    _need(len(set(ells)) == len(ells), "components must use distinct primes ell")
    subreports = []
    n = 1
    for sub in comp["components"]:
        _match("component field", sub["field"], comp["field"])
        _need(sub["bound"] == comp["bound"], "component bound differs from the composite's")
        rep = _verify_plain(sub, b)
        subreports.append(rep)
        n *= rep.degree
    _match("composite exponent n", comp["n"], n)
    primes, real = _walk_table(field, comp, b, n, lambda ws: repeat((None, 1, n)))
    return VerificationReport(primes, n, real, 0.0, subreports)


def verify(cert: dict, bound: int = None) -> VerificationReport:
    """Recheck the certificate's claim, local degree n at every prime of
    norm up to bound (default: the certificate's own coverage bound,
    which the requested bound must not exceed).

    Raises MalformedCertificate for structural defects, in every table
    row (its order included) and for rows the walk misses, and
    MismatchFound as soon as a recomputed value disagrees with n or with
    a claim, so a returned report always records a pass.
    """
    start = time.perf_counter()
    doc = _check(cert)
    bound = _effective_bound(doc["bound"], bound)
    # every table's rows, before the first context is built
    if doc is cert:
        _check_rows(cert, plain=True)
        report = _verify_plain(cert, bound)
    else:
        _check_rows(doc, plain=False)
        for sub in doc["components"]:
            _check_rows(sub, plain=True)
        report = _verify_composite(doc, bound)
    report.elapsed = time.perf_counter() - start
    return report


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
    for name, n in (("a", a), ("b", b)):
        try:
            ps.update(p for p, _ in factor(abs(n)))
        except ValueError:  # is_prime's range ends at 2**64
            raise InvalidRequest(f"cannot factor {name} = {n}: a cofactor >= 2**64") from None
    return sorted(ps)


def hilbert_symbol(a: int, b: int, place):
    """(a, b) at the given place, +1 or -1: whether z^2 = a x^2 + b y^2
    has a nontrivial local solution there.  place is a rational prime or
    the string "inf" for the real place.  It is -1 exactly at the
    ramified_places of (a, b), which assert the product formula."""
    if place != REAL_PLACE and not (
        isinstance(place, int) and 2 <= place < PRIME_LIMIT and is_prime(place)
    ):
        raise ValueError(f"place must be a prime below 2**64 or {REAL_PLACE!r}")
    return -1 if place in ramified_places(a, b) else 1


def ramified_places(a: int, b: int) -> list:
    """Places where the quaternion algebra (a, b) over Q does not split:
    finite places ascending, the real place last.  An odd count of them
    breaks the product formula and raises InternalInconsistency."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol arguments must be nonzero")
    out = [p for p in _support(a, b) if _symbol(a, b, p) == -1]
    if _symbol(a, b, REAL_PLACE) == -1:
        out.append(REAL_PLACE)
    if len(out) % 2:
        raise InternalInconsistency(f"hilbert reciprocity fails for ({a},{b})")
    return out


# -------------------------------------------------------- brauer check


class QuaternionAlgebra(namedtuple("QuaternionAlgebra", "a b")):
    """The quaternion algebra (a, b) over Q, a and b nonzero."""

    __slots__ = ()

    def __new__(cls, a, b):
        if a == 0 or b == 0:
            raise ValueError("quaternion algebra parameters must be nonzero")
        return super().__new__(cls, a, b)


def brauer_split_check(cert: dict, algebra: QuaternionAlgebra):
    """The ramified places of the algebra, as ramified_places gives them,
    once verify passes up to the largest finite one (2 if none): the
    certified field then splits the algebra, as an even local degree
    splits invariant 1/2, and a failing verify raises.  A finite place
    past the bound raises RamifiedPlaceOutOfRange."""
    doc = _check(cert)  # plain, of n = ell^r, or composite
    even = doc["ell"] == 2 if doc is cert else doc["n"] % 2 == 0
    if doc["field"]["kind"] != "rational" or not even:
        raise InvalidRequest("splitting check needs an even-n certificate over the rationals")
    places = ramified_places(algebra.a, algebra.b)
    top = max((v for v in places if v != REAL_PLACE), default=2)
    if top > doc["bound"]:
        raise RamifiedPlaceOutOfRange(
            f"algebra ramified at {top}, beyond the certificate bound {doc['bound']}"
        )
    verify(cert, top)
    return places
