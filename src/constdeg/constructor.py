"""Greedy construction of local-degree certificates.

A certificate witnesses that the base field admits an abelian extension
of exponent ell^r whose local degree is exactly ell^r at every finite
prime of norm up to a bound (and 2 at the real place when ell = 2 over
the rationals).  The extension is the composite of a cyclotomic seed
with ray pieces at auxiliary conductors drawn from the Chebotarev set S;
the constructor records the conductors and the resulting degree table.

Pieces come from one loop over the targets by ascending norm, the
deficient prime above 2 (of norm 2) first.  Each target's local degree
under the seed and the pieces so far comes from classfield.local_degree,
the fold verify uses too; a target short of full degree gets the piece
of one classfield.search_prime call, which supplies the factor the
others miss there, and folding that one piece in completes its row.
Searches are deterministic, so equal inputs give byte-identical
certificates.
"""

import json
from dataclasses import dataclass

from .arith import factor
from .classfield import (
    DEFAULT_CAP,
    InternalInconsistency,
    SearchCursor,
    build_context,
    context_record,
    enumerate_field_primes,
    local_degree,
    make_ray_piece,
    real_place_degree,
    search_prime,
)


@dataclass(frozen=True)
class Config:
    cap: int = DEFAULT_CAP  # progression entries per conductor search


def _field_json(field):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "imag_quadratic", "disc": field.disc}


def construct(field, ell: int, r: int, bound: int, config: Config = None) -> dict:
    """Build and self-check a certificate for exponent ell^r up to bound.

    Each row is written when its prime is reached, and it is final: a
    full degree stays full, since every later piece splits at each
    earlier conductor and prime above l and an lcm of divisors of l^r
    stops at l^r, and a later conductor, split completely in every
    earlier component, is a prime not yet reached.  So each (piece, row)
    Frobenius order is computed at most once.

    Raises SearchExhausted if some conductor search hits the cap or the
    2**64 primality limit, and InternalInconsistency if a row is not
    ell^r after its piece.
    """
    cfg = config or Config()
    if bound < 2:
        raise ValueError("bound must be at least 2")
    ctx = build_context(field, ell, r)
    full = ell**r
    pieces = []  # conductors
    table = []
    for w in enumerate_field_primes(field, bound):
        ramified, ram_factor, degree = running = local_degree(ctx, pieces, w)
        if degree < full:
            # the new piece moves only w, by the factor the others miss there
            P = search_prime(ctx, pieces, SearchCursor(cfg.cap), w, full // ram_factor)
            pieces.append(make_ray_piece(ctx, P))
            ramified, _, degree = local_degree(ctx, pieces, w, running)
        if degree != full:
            raise InternalInconsistency(
                f"prime ({w.p},{w.b}) has local degree {degree}, wanted {full}"
            )
        table.append({"prime": [w.p, w.b], "degree": degree, "ramified_component": ramified})

    return {
        "schema_version": 1,
        "field": _field_json(field),
        "ell": ell,
        "r": r,
        **context_record(ctx),
        "pieces": [{"p": pc.p, "b": pc.b, "norm": pc.norm} for pc in pieces],
        "bound": bound,
        "table": table,
        "real_place_degree": real_place_degree(field, full),
        "config": {"cap": cfg.cap},
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
