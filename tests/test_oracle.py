"""Independent local-degree oracles over Q and over K.

Over Q, check_plain and check_composite read only the serialized
certificate and use plain integer arithmetic, and constdeg only to build
the certificates.  L is abelian over Q, so Gal(L/Q)
is the image of (Z/M)^* under the vector of its Dirichlet characters: the
seed character and one character per piece conductor, each with values
in Z/l^r.  The decomposition group at p is generated by the images of a
Frobenius lift and of the inertia group (Z/p^e)^*, and the real place's
by the image of -1 (Washington, Introduction to Cyclotomic Fields, GTM 83,
section 3).  A local degree is the size of that subgroup, so this shares
no code with the ramification-times-lcm rule of classfield.local_degree.

Over K, check_plain_k takes the context from build_context, which verify
checks the document's context record against.  It checks the rows
against the primes of a sieve and Euler's criterion, and takes every
degree from tests/oracles.py: the seed order from seed_order's character
table, ramification by equality of prime ideals, and each piece's
Frobenius order from Kummer levels (criterion 5): for
kummer_generator(ctx, w) = (alpha, m), the order at the conductor eps is
l^(r - s) for the largest s with kummer_split_test(ctx, eps, alpha, m + s).
So it shares no code with DegreeFold or conductor_image, the rule that
construct and verify share.
"""

import json
from math import lcm
from pathlib import Path

import pytest

import pins
from constdeg.classfield import build_context
from constdeg.constructor import certificate_json, compose_for_n, construct
from constdeg.quadfield import RATIONAL, quadratic_field
from oracles import ideal_of, kummer_generator, kummer_split_test, pair, seed_order


def primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v]


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def primitive_root(p, e=1):
    """A generator of (Z/p^e)^* for an odd prime p."""
    g = next(
        g
        for g in range(2, p)
        if all(pow(g, (p - 1) // f, p) != 1 for f in prime_factors(p - 1))
    )
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_gens(p, e):
    """Generators of (Z/p^e)^*."""
    if p == 2:
        return [-1 % 2**e, 5 % 2**e]
    return [primitive_root(p, e)]


class Character:
    """A Dirichlet character of prime-power modulus with values in Z/n,
    given by a table on (Z/modulus)^* or by a discrete log of the
    n-torsion modulo a prime."""

    def __init__(self, modulus, n, table=None):
        self.modulus, self.n, self.table = modulus, n, table
        if table is None:
            g = primitive_root(modulus)
            self.e = (modulus - 1) // n
            self.zeta = pow(g, self.e, modulus)

    def __call__(self, x):
        x %= self.modulus
        if self.table is not None:
            return self.table[x]
        y = pow(x, self.e, self.modulus)
        return next(k for k in range(self.n) if pow(self.zeta, k, self.modulus) == y)


def seed_character(ell, r):
    n = ell**r
    table = {}
    if ell == 2:
        # (Z/2^(r+2))^* = <-1> x <5>; the seed is odd and sends 5 to 1
        m = 2 ** (r + 2)
        for a in (0, 1):
            for b in range(n):
                table[(-1) ** a * pow(5, b, m) % m] = (a * n // 2 + b) % n
    else:
        m = ell ** (r + 1)
        g, x = primitive_root(ell, r + 1), 1
        for k in range((ell - 1) * n):
            table[x] = k % n
            x = x * g % m
    assert len(table) == m - m // ell
    return Character(m, n, table)


def characters(doc):
    n = doc["ell"] ** doc["r"]
    return [seed_character(doc["ell"], doc["r"])] + [
        Character(pc["p"], n) for pc in doc["pieces"]
    ]


def subgroup_size(gens, mods):
    zero = tuple(0 for _ in mods)
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % m for a, b, m in zip(v, g, mods))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def decomposition_size(chars, p):
    """Size of the image of the decomposition group at the prime p."""
    mods = [c.n for c in chars]
    ramified = [c for c in chars if c.modulus % p == 0]
    frob = tuple(0 if c in ramified else c(p) for c in chars)
    gens = [frob]
    if ramified:
        e = max(k for c in ramified for k in range(1, 64) if c.modulus % p**k == 0)
        for u in unit_group_gens(p, e):
            gens.append(tuple(c(u) if c in ramified else 0 for c in chars))
    return subgroup_size(gens, mods)


def real_place_size(chars):
    return subgroup_size([tuple(c(-1) for c in chars)], [c.n for c in chars])


def check_plain(doc):
    chars = characters(doc)
    rows = doc["table"]
    assert [row["prime"] for row in rows] == [[p, None] for p in primes_upto(doc["bound"])]
    for row in rows:
        p = row["prime"][0]
        ram = [i for i, c in enumerate(chars) if c.modulus % p == 0]
        assert len(ram) <= 1
        assert row["ramified_component"] == (ram[0] if ram else None), p
        assert row["degree"] == decomposition_size(chars, p), p
    assert (doc["real_place_degree"] or 1) == real_place_size(chars)
    return len(rows)


def check_composite(doc):
    comp = doc["composite"]
    for sub in comp["components"]:
        check_plain(sub)
    chars = [c for sub in comp["components"] for c in characters(sub)]
    for row in comp["table"]:
        assert row["degree"] == decomposition_size(chars, row["prime"][0]), row
    assert (comp["real_place_degree"] or 1) == real_place_size(chars)
    return len(comp["table"])


def piece_order(ctx, eps, alpha, m):
    """The Frobenius order at the conductor eps of the prime whose
    kummer_generator is (alpha, m): l^(r - s), s the largest level
    above m at which eps splits."""
    levels = [s for s in range(ctx.r + 1) if kummer_split_test(ctx, eps, alpha, m + s)]
    assert levels == list(range(len(levels))), levels
    return ctx.ell ** (ctx.r + 1 - len(levels))


def k_primes(d, bound):
    """(norm, kind) of every prime of K(d) of norm <= bound, sorted, from
    the sieve and Euler's criterion: "r" ramified, "s" split (once per
    conjugate), "i" inert."""
    out = []
    for p in primes_upto(bound):
        if d % p == 0:
            out.append((p, "r"))
        elif (d % 8 == 1) if p == 2 else pow(d, (p - 1) // 2, p) == 1:
            out += [(p, "s"), (p, "s")]
        elif p * p <= bound:
            out.append((p * p, "i"))
    return sorted(out)


def k_row_prime(d, p, b):
    """(norm, kind) of the prime that the row's pair (p, b) names, its
    root checked by b^2 = D mod 4p in place of field_primes' scan."""
    if b is None:
        return p * p, "i"
    assert 0 <= b < 2 * p and (b * b - d) % (4 * p) == 0, (p, b)
    return p, "r" if d % p == 0 else "s"


def check_plain_k(doc):
    d = doc["field"]["disc"]
    field = quadratic_field(d)
    ctx = build_context(field, doc["ell"], doc["r"])
    ell, full = ctx.ell, ctx.ell**ctx.r
    deficiency = {tuple(row["prime"]): row["deficiency"] for row in doc["deficiencies"]}
    pieces = [ideal_of(field, (pc["p"], pc["b"])) for pc in doc["pieces"]]
    rows = doc["table"]
    # every prime once, ascending by norm, then root with None first
    keys = [(p * p if b is None else p, -1 if b is None else b) for p, b in (r["prime"] for r in rows)]
    assert keys == sorted(set(keys))
    assert sorted(k_row_prime(d, *row["prime"]) for row in rows) == k_primes(d, doc["bound"])
    for row in rows:
        w = ideal_of(field, tuple(row["prime"]))
        alpha, m = kummer_generator(ctx, w)
        if w.p == ell:
            ramified, factor, rest = 0, ell ** (ctx.r - deficiency.get(pair(w), 0)), 1
        else:
            ramified, factor, rest = None, 1, seed_order(ctx, w)
        for i, eps in enumerate(pieces, start=1):
            if eps == w:
                assert ramified is None, pair(w)
                ramified, factor = i, full
            else:
                rest = lcm(rest, piece_order(ctx, eps, alpha, m))
        assert row["ramified_component"] == ramified, pair(w)
        assert row["degree"] == factor * rest == full, pair(w)
    assert doc["real_place_degree"] is None
    return len(rows)


def parsed(cert):
    return json.loads(certificate_json(cert))


@pytest.mark.parametrize(
    "ell,r,bound",
    [(2, 1, 100), (2, 2, 100), (2, 3, 50), (3, 1, 100), (3, 2, 60), (5, 1, 100), (5, 2, 40)],
)
def test_oracle_agrees_with_rational_certificates(ell, r, bound):
    doc = parsed(construct(RATIONAL, ell, r, bound))
    assert doc["pieces"]
    assert check_plain(doc) == len(primes_upto(bound))


@pytest.mark.parametrize("n,bound", [(6, 60), (12, 30)])
def test_oracle_agrees_with_composite_certificates(n, bound):
    assert check_composite(parsed(compose_for_n(RATIONAL, n, bound))) == len(primes_upto(bound))


def test_oracle_known_degrees():
    # Q(i) (character mod 4) composed with the cubic field of conductor
    # 7: 2 ramifies in Q(i) and is inert in the cubic field, 7 the
    # reverse; 5 splits in Q(i) only, 43 in the cubic field only, 13 in
    # both; complex conjugation moves Q(i) only
    chars = [Character(4, 2, {1: 0, 3: 1}), Character(7, 3)]
    got = {p: decomposition_size(chars, p) for p in (2, 7, 5, 43, 13)}
    assert got == {2: 6, 7: 6, 5: 3, 43: 2, 13: 1}
    assert real_place_size(chars) == 2


# every certificate over K that the manifest pins: the jobs of the six K
# legacy fixtures, the five k-search jobs, K(-23) n=2 B=10000, K(-4) n=4 B=200,
# K(-1200039) n=2 B=30 and the two over K(-9999911), where the oracle
# takes about a second each
K_PINS = [entry for entry in pins.ENTRIES if entry["field"] != "q" and "exhausted" not in entry]


@pytest.mark.parametrize("entry", K_PINS, ids=pins.name)
def test_oracle_agrees_with_k_certificates(entry):
    data, _ = pins.build(entry)
    doc = json.loads(data)
    assert check_plain_k(doc) == len(doc["table"])


def drop_row(doc):
    del doc["table"][3]


def swap_rows(doc):
    rows = doc["table"]
    rows[3], rows[4] = rows[4], rows[3]


def wrong_root(doc):
    # at a split p > 3 the roots b and 2p - b are both odd, so b + 2 is none
    row = next(row for row in doc["table"] if row["prime"][1] is not None and row["prime"][0] > 3)
    row["prime"][1] += 2


def wrong_component(doc):
    row = next(row for row in doc["table"] if row["ramified_component"] is not None)
    row["ramified_component"] += 1


@pytest.mark.parametrize("fault", [drop_row, swap_rows, wrong_root, wrong_component])
def test_oracle_rejects_a_wrong_k_row(fault):
    doc = json.loads((Path(__file__).parent / "fixtures" / "k-23_n4_b50.json").read_bytes())
    fault(doc)
    with pytest.raises(AssertionError):
        check_plain_k(doc)
