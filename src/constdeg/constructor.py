"""Greedy construction of local-degree certificates.

A certificate witnesses that the base field admits an abelian extension
of exponent ell^r whose local degree is exactly ell^r at every finite
prime of norm up to a bound (and 2 at the real place when ell = 2 over
the rationals).  The extension is the composite of a cyclotomic seed
with ray pieces at auxiliary conductors drawn from the Chebotarev set S;
the constructor records the conductors and the resulting degree table.

Pieces come from one loop: every prime short of full degree, first the
deficient prime above 2 and then the targets by ascending norm, gets the
piece of one classfield.search_prime call, which supplies the factor the
others miss there.  The loop keeps each prime's running local degree,
started from the seed alone.  A new piece adds one Frobenius order to
each prime still short of full and marks its own conductor ramified,
through the step that local_degree uses too; the table is read from the
result.  Searches are deterministic, so equal inputs give byte-identical
certificates.
"""

import json
from dataclasses import dataclass

from .arith import factor
from .classfield import (
    DEFAULT_CAP,
    UNRAMIFIED,
    InternalInconsistency,
    SearchCursor,
    build_context,
    context_record,
    enumerate_field_primes,
    add_part,
    make_ray_piece,
    piece_part,
    real_place_degree,
    search_prime,
    seed_part,
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

    Each row is its running local degree after the last piece; a row is
    left alone once full, so each (piece, row) Frobenius order is
    computed at most once.

    Raises SearchExhausted if some conductor search hits the cap or the
    2**64 primality limit, and InternalInconsistency if a row of the
    finished table is short of ell^r.
    """
    cfg = config or Config()
    if bound < 2:
        raise ValueError("bound must be at least 2")
    ctx = build_context(field, ell, r)
    full = ell**r
    pieces = []  # conductors
    targets = enumerate_field_primes(field, bound)
    # each prime's (ramified, factor, rest) under the seed and the pieces so far
    worklist = [P for P, a in ctx.deficiencies.items() if a] + targets
    running = {w: add_part(UNRAMIFIED, 0, seed_part(ctx, w), w) for w in worklist}

    def degree(w):
        _, factor, rest = running[w]
        return factor * rest

    short = dict.fromkeys(w for w in running if degree(w) != full)
    for w in list(short):
        if degree(w) == full:
            continue
        # the new piece moves only w, by the factor the others miss there
        P = search_prime(ctx, pieces, SearchCursor(cfg.cap), w, full // running[w][1])
        pieces.append(make_ray_piece(ctx, P))
        # a full degree stays full: the new piece splits at every earlier
        # conductor and prime above l, and an lcm of divisors of l^r stops
        # at l^r.  So only short primes move, and P, ramified in the piece.
        # P is short, being split in every earlier component; were it
        # full, marking it anyway takes it past l^r for the check below
        for u in short if P in short or P not in running else [*short, P]:
            running[u] = add_part(running[u], len(pieces), piece_part(ctx, P, u), u)
        short = dict.fromkeys(u for u in short if degree(u) != full)

    table = []
    for w in targets:
        deg = degree(w)
        if deg != full:
            raise InternalInconsistency(
                f"prime ({w.p},{w.b}) has local degree {deg}, wanted {full}"
            )
        table.append(
            {"prime": [w.p, w.b], "degree": deg, "ramified_component": running[w][0]}
        )

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
