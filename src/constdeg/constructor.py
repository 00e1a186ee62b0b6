"""Greedy construction of local-degree certificates.

A certificate witnesses that the base field admits an abelian extension
of exponent ell^r whose local degree is exactly ell^r at every finite
prime of norm up to a bound (and 2 at the real place when ell = 2 over
the rationals).  The extension is the composite of a cyclotomic seed
with ray pieces at auxiliary conductors drawn from the Chebotarev set S;
the constructor records the conductors and the resulting degree table.

Pieces come from one loop over the targets by ascending norm, the
deficient prime above 2 (of norm 2) first.  Each target's local degree
under the seed and the pieces so far is its row of a
classfield.DegreeFold, the fold verify uses too; a target short of full
degree gets the piece of one classfield.search_prime call, which
supplies the factor the others miss there, and the fold adds that
piece's column of Frobenius orders to its rows still short.
Searches are deterministic, so equal inputs give byte-identical
certificates.
"""

import json
from collections import namedtuple

from .arith import PRIME_LIMIT, factor
from .classfield import (
    DEFAULT_CAP,
    InternalInconsistency,
    SearchCursor,
    build_context,
    context_record,
    degree_folds,
    enumerate_field_primes,
    make_ray_piece,
    real_place_degree,
    search_prime,
)


class Config(namedtuple("Config", "cap", defaults=(DEFAULT_CAP,))):
    """Construction settings: cap, the progression entries per conductor
    search."""

    __slots__ = ()


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
    earlier component, is a prime not yet reached.  The rows come from
    degree_folds, and a new piece is added to the fold of its target,
    which asks it for its Frobenius orders at the rows still short; so a
    (piece, row) order is computed at most once, and a target's row is
    read back after its piece, not folded again.

    Raises ValueError if no prime has norm up to bound (over K a bound
    below 4 can leave none) or bound reaches 2**64, SearchExhausted if
    some conductor search hits the cap or the 2**64 primality limit, and
    InternalInconsistency if a row is not ell^r after its piece.
    """
    cfg = config or Config()
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound >= PRIME_LIMIT:
        raise ValueError(f"bound {bound} reaches the 2**64 primality limit")
    if cfg.cap < 1:
        raise ValueError("cap must be at least 1")
    rows = enumerate_field_primes(field, bound)
    if not rows:
        # a prime above 2 has norm 2 or 4
        least = next(n for n in (2, 3, 4) if enumerate_field_primes(field, n))
        raise ValueError(f"bound {bound} is below {least}, the least norm of a prime of the field")
    ctx = build_context(field, ell, r)
    full = ell**r
    pieces = []  # conductors
    table = []
    for fold in degree_folds(ctx, pieces, rows):
        for i, w in enumerate(fold.rows):
            ramified, ram_factor, degree = fold.row(i)
            if degree < full:
                # the new piece moves only w, by the factor the others miss there
                P = search_prime(ctx, pieces, SearchCursor(cfg.cap), w, full // ram_factor)
                pieces.append(make_ray_piece(ctx, P))
                fold.add(P)
                ramified, _, degree = fold.row(i)
            if degree != full:
                raise InternalInconsistency(
                    f"prime ({w[0]},{w[1]}) has local degree {degree}, wanted {full}"
                )
            table.append({"prime": list(w), "degree": degree, "ramified_component": ramified})

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


# construct's two table-row shapes, by key order, as json's indent=2 layout
# at indentation 0: a row of either shape whose scalars are ints or None
# is one fill of its template
_ROWS = {
    ("prime", "degree", "ramified_component"): (
        '{\n  "prime": [\n    %s,\n    %s\n  ],\n  "degree": %s,\n  "ramified_component": %s\n}'
    ),
    ("prime", "degree"): '{\n  "prime": [\n    %s,\n    %s\n  ],\n  "degree": %s\n}',
}

_INT_OR_NONE = frozenset({int, type(None)})

_JSON = json.JSONEncoder(indent=2)  # _JSON.encode is json.dumps(..., indent=2)


def _write(value, pad, out, open_ids):
    """Append to out the text json.dumps(value, indent=2) gives value
    nested at indentation pad.  Non-empty lists and dicts with str keys
    are walked, and a list item of one of the _ROWS shapes is one template
    fill (a composite row has no ramified_component: .get reads None and
    the slice drops it).  Any other value is json's own text, re-indented,
    which is exact because json writes no raw newline inside a string."""
    walk = type(value) is list or (type(value) is dict and all(type(k) is str for k in value))
    if not (walk and value):
        out.append(_JSON.encode(value).replace("\n", "\n" + pad))
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    inner = pad + "  "
    sep, comma = "\n" + inner, ",\n" + inner
    if type(value) is dict:
        out.append("{")
        for k, v in value.items():
            out.append(sep + _JSON.encode(k) + ": ")
            sep = comma
            _write(v, inner, out, open_ids)
        out.append("\n" + pad + "}")
    else:
        templates = {keys: t.replace("\n", "\n" + inner) for keys, t in _ROWS.items()}
        out.append("[")
        for v in value:
            out.append(sep)
            sep = comma
            template = type(v) is dict and templates.get(tuple(v))
            if template:
                prime, degree, ramified = v["prime"], v["degree"], v.get("ramified_component")
                if type(prime) is list and len(prime) == 2:
                    p, b = prime
                    if (
                        type(p) is int
                        and type(degree) is int
                        and type(b) in _INT_OR_NONE
                        and type(ramified) in _INT_OR_NONE
                    ):
                        b = "null" if b is None else b
                        ramified = "null" if ramified is None else ramified
                        out.append(template % (p, b, degree, ramified)[: len(v) + 1])
                        continue
            _write(v, inner, out, open_ids)
        out.append("\n" + pad + "]")
    open_ids.discard(id(value))


def certificate_json(cert: dict) -> str:
    """The certificate's text: json.dumps(cert, indent=2) + "\\n", byte for
    byte (the tests pin this), with construct's table rows written by one
    template fill each instead of json's pure-Python indent encoder."""
    out = []
    _write(cert, "", out, set())
    out.append("\n")
    return "".join(out)


def write_certificate(cert: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_json(cert))
