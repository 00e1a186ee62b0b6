"""Greedy construction of local-degree certificates.

A certificate witnesses that the base field admits an abelian extension
of exponent ell^r whose local degree is exactly ell^r at every finite
prime of norm up to a bound (and 2 at the real place when ell = 2 over
the rationals).  The extension is the composite of a cyclotomic seed
with ray pieces at auxiliary conductors drawn from the Chebotarev set S;
the constructor records the conductors and the resulting degree table.

Piece order matters and is reproducible: one dedicated piece first when
the prime above 2 is deficient, then one piece per enumerated target
prime that is not yet at full degree (or per target unconditionally when
greedy_skip is off).  Conductor searches are deterministic, so equal
inputs give byte-identical certificates.
"""

import json
from dataclasses import dataclass

from .arith import factor
from .classfield import (
    DEFAULT_CAP,
    FrobeniusOrderExactly,
    InternalInconsistency,
    KummerSplitExactLevel,
    SearchCursor,
    SplitsCompletelyIn,
    build_L0_rational,
    build_context,
    context_record,
    enumerate_field_primes,
    kummer_generator,
    l0_local_degrees_above_ell,
    local_degree,
    make_ray_piece,
    real_place_degree,
    search_prime,
)


@dataclass(frozen=True)
class Config:
    cap: int = DEFAULT_CAP  # progression entries per conductor search
    greedy_skip: bool = True  # skip targets already at full degree


def _field_json(field):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "imag_quadratic", "disc": field.disc}


def construct(field, ell: int, r: int, bound: int, config: Config = None) -> dict:
    """Build and self-check a certificate for exponent ell^r up to bound.

    Raises SearchExhausted if some conductor search hits the cap or the
    2**64 primality limit, and InternalInconsistency if the finished
    table has a wrong entry.
    """
    cfg = config or Config()
    if bound < 2:
        raise ValueError("bound must be at least 2")
    ctx = build_context(field, ell, r)
    l0 = build_L0_rational(ell, r)
    rows = l0_local_degrees_above_ell(ctx, l0)
    deficiencies = {P: a for P, _, a in rows}
    specials = [P for P, _, _ in rows]
    full = ell**r
    pieces = []

    def taken():
        return frozenset(pc.conductor for pc in pieces)

    # dedicated piece first: restore the degree the seed misses at a
    # deficient prime above 2 by demanding Frobenius order exactly l^a
    # there, phrased as an exact Kummer splitting level
    for lam, _, a in rows:
        if not a:
            continue
        alpha, m = kummer_generator(ctx, lam)
        conds = [SplitsCompletelyIn(l0)]
        conds += [SplitsCompletelyIn(pc) for pc in pieces]
        conds += [FrobeniusOrderExactly(s, 1) for s in specials if s != lam]
        conds.append(KummerSplitExactLevel(alpha, m + r - a))
        eps = search_prime(ctx, conds, SearchCursor(cfg.cap, taken()))
        pieces.append(make_ray_piece(ctx, eps))

    targets = enumerate_field_primes(field, bound)
    for w in targets:
        if w.p == ell:
            continue  # covered by the seed (plus the dedicated piece)
        if any(pc.conductor == w for pc in pieces):
            continue  # a conductor is totally ramified in its own piece
        if cfg.greedy_skip and local_degree(ctx, l0, deficiencies, pieces, w)[2] == full:
            continue
        conds = [SplitsCompletelyIn(l0)]
        conds += [SplitsCompletelyIn(pc) for pc in pieces]
        conds += [FrobeniusOrderExactly(s, 1) for s in specials]
        conds += [FrobeniusOrderExactly(pc.conductor, 1) for pc in pieces]
        conds.append(FrobeniusOrderExactly(w, full))
        eps = search_prime(ctx, conds, SearchCursor(cfg.cap, taken()))
        pieces.append(make_ray_piece(ctx, eps))

    table = []
    for w in targets:
        _, ramified, deg = local_degree(ctx, l0, deficiencies, pieces, w)
        if deg != full:
            raise InternalInconsistency(
                f"prime ({w.p},{w.b}) has local degree {deg}, wanted {full}"
            )
        table.append(
            {"prime": [w.p, w.b], "degree": deg, "ramified_component": ramified}
        )

    return {
        "schema_version": 1,
        "field": _field_json(field),
        "ell": ell,
        "r": r,
        **context_record(ctx, l0, rows),
        "pieces": [
            {"p": pc.conductor.p, "b": pc.conductor.b, "norm": pc.conductor.norm}
            for pc in pieces
        ],
        "bound": bound,
        "table": table,
        "real_place_degree": real_place_degree(field, full),
        "config": {"cap": cfg.cap, "greedy_skip": cfg.greedy_skip},
    }


def compose_for_n(field, n: int, bound: int, config: Config = None) -> dict:
    """Certificate for composite exponent n: one component per prime
    power in n, combined degrees multiply because they are coprime."""
    if n < 2:
        raise ValueError("n must be at least 2")
    components = [construct(field, p, e, bound, config) for p, e in factor(n)]
    table = []
    for i, row in enumerate(components[0]["table"]):
        degree = 1
        for comp in components:
            other = comp["table"][i]
            if other["prime"] != row["prime"]:
                raise InternalInconsistency("component tables disagree on primes")
            degree *= other["degree"]
        if degree != n:
            raise InternalInconsistency(
                f"combined degree {degree} at prime {row['prime']}, wanted {n}"
            )
        table.append({"prime": row["prime"], "degree": degree})
    return {
        "schema_version": 1,
        "composite": {
            "n": n,
            "field": _field_json(field),
            "bound": bound,
            "components": components,
            "table": table,
            "real_place_degree": real_place_degree(field, n),
        },
    }


def certificate_json(cert: dict) -> str:
    return json.dumps(cert, indent=2) + "\n"


def write_certificate(cert: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_json(cert))
