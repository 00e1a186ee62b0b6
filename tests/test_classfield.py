import json
import random
from itertools import takewhile
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest

from constdeg import classfield
from constdeg.arith import (
    SearchExhausted,
    factor,
    is_prime,
    power_residue_level,
    residue_field,
    small_primes,
)
from constdeg.classfield import (
    InternalInconsistency,
    SearchCursor,
    build_L0_rational,
    build_context,
    character_order,
    context_record,
    conductor_image,
    enumerate_field_primes,
    frobenius_order_in_L0,
    frobenius_order_in_ray_piece,
    in_S,
    local_degree,
    local_degrees,
    make_ray_piece,
    search_prime,
)
from constdeg.cli import run
from constdeg.constructor import construct
from constdeg.quadfield import (
    RATIONAL,
    NotPrincipal,
    PrimeIdeal,
    factor_rational_prime,
    ideal_mul,
    ideal_pow,
    integer_elt,
    kronecker_disc,
    local_field,
    prime_module,
    principal_generator,
    quadratic_field,
    reduce_mod,
)
import oracles
from oracles import (
    alpha_roots,
    elt_neg,
    conjugate_prime,
    embed,
    field_elements,
    kprime,
    kummer_generator,
    kummer_split_test,
    multiplicative_order,
    principal_ideal,
    reference_image,
    unit_root,
)

rng = random.Random(0x5EEDC1A5)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
K23 = quadratic_field(-23)
K8 = quadratic_field(-8)
K4 = quadratic_field(-4)


def rp(p):
    return PrimeIdeal(p, "rational", None, 1)


def package_image(ctx, eps, q):
    # the package's Frobenius image of the target q at the conductor eps,
    # as frobenius_orders takes it
    e = (eps.norm - 1) // ctx.ell ** (ctx.r + ctx.t)
    gamma = classfield._target_generator(ctx, q)
    return conductor_image(eps.p, eps.b, e, gamma, local_field(ctx.field, eps))


def s_members(ctx, count, bound=5000):
    # the first members of S in search order, from the field's primes
    out = [
        P
        for P in enumerate_field_primes(ctx.field, bound)
        if P.p not in ctx.excluded and P not in ctx.cl.gens and in_S(ctx, P)
    ]
    assert len(out) >= count
    return out[:count]


def brute_unit_order(x, m):
    o, y = 1, x % m
    assert y and _gcd(y, m) == 1
    while y != 1:
        y = y * x % m
        o += 1
    return o


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def ell_part(n, ell):
    out = 1
    while n % ell == 0:
        n //= ell
        out *= ell
    return out


CTX3 = build_context(RATIONAL, 3, 1)
CTX2 = build_context(RATIONAL, 2, 1)
CTX23 = build_context(K23, 3, 1)


# ------------------------------------------------------------- context


def test_build_context_validation():
    with pytest.raises(ValueError):
        build_context(RATIONAL, 4, 1)
    with pytest.raises(ValueError):
        build_context(RATIONAL, 1, 1)
    with pytest.raises(ValueError):
        build_context(RATIONAL, 3, 0)


def test_context_rational_shape():
    assert CTX3.excluded == frozenset({2, 3})
    assert CTX3.t == 0
    assert CTX3.cl.coprime_part == 1
    assert CTX3.units == [(-2, 0)]
    assert CTX2.excluded == frozenset({2})


def test_context_quad_shape():
    assert CTX23.excluded == frozenset({2, 3, 23})
    assert CTX23.t == 1
    # h(-23) = 3 is all l-part, so the coprime correction is trivial
    assert CTX23.cl.coprime_part == 1
    assert [(g.p, g.kind, g.b) for g in CTX23.cl.gens] == [(13, "split", 9)]
    assert CTX23.cl.exps == (1,)


def test_target_exponent_m_keeps_the_kprime_image_order():
    # K(-23) at l = 2, r = 2 has m = 3, the prime-to-l part of h, and
    # kprime = m * (m^-1 mod 4) = 9.  At each conductor of the golden
    # K(-23) n=4 B=50 certificate and each of its table primes, the image
    # from a generator of q^(9 * l^t) is the package image, from
    # q^(m * l^t), cubed, and has the same order
    cert = json.loads((FIXTURES / "k-23_n4_b50.json").read_text(encoding="utf-8"))
    ctx = build_context(K23, 2, 2)
    assert (ctx.cl.coprime_part, kprime(ctx), ctx.t) == (3, 9, 0)

    def prime(p, b):
        (P,) = [P for P in factor_rational_prime(K23, p) if P.b == b]
        return P

    pairs = 0
    for piece in cert["pieces"]:
        eps = prime(piece["p"], piece["b"])
        fld = local_field(ctx.field, eps)
        e = (eps.norm - 1) // ctx.ell ** (ctx.r + ctx.t)
        for row in cert["table"]:
            q = prime(*row["prime"])
            J = ideal_pow(K23, prime_module(K23, q), 9 * 2**ctx.t)
            x9 = conductor_image(eps.p, eps.b, e, principal_generator(K23, J), fld)
            x = package_image(ctx, eps, q)
            assert x9 == fld.pow(x, 3), (eps, q)
            assert multiplicative_order(x9, fld) == multiplicative_order(x, fld)
            pairs += 1
    assert pairs == 3 * 17


# ---------------------------------------------------------- seed piece


def test_seed_piece_shapes():
    p31 = build_L0_rational(3, 1)
    assert (p31.modulus, p31.degree, p31.sign) == (9, 3, 1)
    p21 = build_L0_rational(2, 1)
    assert (p21.modulus, p21.degree, p21.sign) == (8, 2, -1)
    p22 = build_L0_rational(2, 2)
    assert (p22.modulus, p22.degree, p22.sign) == (16, 4, -1)
    p32 = build_L0_rational(3, 2)
    assert (p32.modulus, p32.degree, p32.sign) == (27, 9, 1)
    p51 = build_L0_rational(5, 1)
    assert (p51.modulus, p51.degree, p51.sign) == (25, 5, 1)


def test_character_mod_8_table():
    piece = build_L0_rational(2, 1)
    assert {x: character_order(piece, x) for x in (1, 3, 5, 7)} == {
        1: 1,
        3: 1,
        5: 2,
        7: 2,
    }


def test_character_mod_9_table():
    piece = build_L0_rational(3, 1)
    assert {x: character_order(piece, x) for x in (1, 2, 4, 5, 7, 8)} == {
        1: 1,
        2: 3,
        4: 3,
        5: 3,
        7: 3,
        8: 1,
    }


def test_character_mod_16_table():
    piece = build_L0_rational(2, 2)
    got = {x: character_order(piece, x) for x in range(1, 16, 2)}
    assert got == {1: 1, 3: 4, 5: 4, 7: 1, 9: 2, 11: 4, 13: 4, 15: 2}
    # the order <= 2 elements are exactly +-1 mod 8, i.e. the kernel of
    # the discriminant-8 character that cuts out the quadratic sublayer
    assert sorted(x for x, o in got.items() if o <= 2) == [1, 7, 9, 15]


def test_character_mod_32_spot_values():
    piece = build_L0_rational(2, 3)
    assert character_order(piece, 5) == 8
    assert character_order(piece, 31) == 2
    # 7 = -(5^2) mod 32, exponent 2 + 4 against order 8
    assert character_order(piece, 7) == 4
    # 15 = -(5^4) mod 32 lands in the kernel
    assert character_order(piece, 15) == 1


def test_character_ell2_matches_generator_exponents():
    # (Z/2^(r+2))^* = <-1> x <5> and chi((-1)^a 5^b) = zeta^(b + a 2^(r-1))
    # for zeta of order 2^r
    for r in range(1, 7):
        piece = build_L0_rational(2, r)
        m, d = piece.modulus, piece.degree
        seen = set()
        for a in (0, 1):
            for b in range(d):
                x = (-1) ** a * pow(5, b, m) % m
                seen.add(x)
                assert character_order(piece, x) == d // _gcd(d, b + a * d // 2)
        assert len(seen) == m // 2  # every unit, once


def test_character_odd_ell_matches_group_order():
    # for odd l the character order is the l-part of the order in the
    # full unit group mod l^(r+1)
    for ell, r in ((3, 1), (3, 2), (5, 1), (5, 2)):
        piece = build_L0_rational(ell, r)
        for x in range(1, piece.modulus):
            if x % ell == 0:
                continue
            expect = ell_part(brute_unit_order(x, piece.modulus), ell)
            assert character_order(piece, x) == expect


def test_character_sign_consistency():
    for ell, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        piece = build_L0_rational(ell, r)
        o = character_order(piece, piece.modulus - 1)
        assert o == (2 if piece.sign == -1 else 1)
        assert character_order(piece, 1) == 1


def test_character_rejects_non_units():
    with pytest.raises(ValueError):
        character_order(build_L0_rational(3, 1), 3)
    with pytest.raises(ValueError):
        character_order(build_L0_rational(2, 1), 4)


def test_frobenius_order_in_l0_rational():
    p31 = build_L0_rational(3, 1)
    assert frobenius_order_in_L0(p31, rp(2)) == 3
    assert frobenius_order_in_L0(p31, rp(19)) == 1
    assert frobenius_order_in_L0(p31, rp(17)) == 1  # 17 = -1 mod 9
    assert frobenius_order_in_L0(p31, rp(3)) is None
    p21 = build_L0_rational(2, 1)
    assert frobenius_order_in_L0(p21, rp(3)) == 1
    assert frobenius_order_in_L0(p21, rp(5)) == 2
    assert frobenius_order_in_L0(p21, rp(7)) == 2
    assert frobenius_order_in_L0(p21, rp(2)) is None


def test_frobenius_order_in_l0_quad_uses_norm():
    p31 = build_L0_rational(3, 1)
    two = factor_rational_prime(K23, 2)[0]
    assert two.norm == 2
    assert frobenius_order_in_L0(p31, two) == 3
    five = factor_rational_prime(K23, 5)[0]
    assert five.norm == 25  # inert, 25 = 7 mod 9
    assert frobenius_order_in_L0(p31, five) == 3
    for lam in factor_rational_prime(K23, 3):
        assert frobenius_order_in_L0(p31, lam) is None


@pytest.mark.parametrize("ell,r", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (5, 2), (13, 1)])
def test_frobenius_order_in_l0_matches_the_character_table(ell, r):
    # the oracle reads the seed order off a table of the character built
    # from generators of (Z/modulus)^*, sharing no code with
    # character_order; over K the norm of an inert prime is p^2
    ctx = build_context(RATIONAL, ell, r)
    primes = [rp(p) for p in small_primes(3000)]
    primes += [P for P in enumerate_field_primes(K23, 3000) if P.kind == "inert"]
    orders = set()
    for w in primes:
        got = frobenius_order_in_L0(ctx.seed, w)
        assert got == oracles.seed_order(ctx, w), (ell, r, w)
        orders.add(got)
    assert orders == {None} | {ell**j for j in range(r + 1)}


# ------------------------------------------------- deficiency at ell=2


def test_l0_degrees_rational():
    assert CTX2.deficiencies == {rp(2): 0}
    assert local_degree(CTX2, [], rp(2)) == (0, 2, 2)
    assert CTX3.deficiencies == {rp(3): 0}
    assert local_degree(CTX3, [], rp(3)) == (0, 3, 3)


def deficiency_of(field, ell, r):
    # (kind, seed degree, deficiency) at each prime above l
    ctx = build_context(field, ell, r)
    return [
        (P.kind, local_degree(ctx, [], P)[2], a) for P, a in ctx.deficiencies.items()
    ]


def test_deficiency_table():
    # D = -8: the seed's quadratic layer is Q(sqrt(-2)) itself when r = 1
    assert deficiency_of(K8, 2, 1) == [("ramified", 1, 1)]
    assert deficiency_of(K8, 2, 2) == [("ramified", 4, 0)]
    assert deficiency_of(K8, 2, 3) == [("ramified", 8, 0)]
    # D = -56 = 8 * (-7): -7 = 1 mod 8 hits the r >= 2 branch
    assert deficiency_of(quadratic_field(-56), 2, 1) == [("ramified", 2, 0)]
    assert deficiency_of(quadratic_field(-56), 2, 2) == [("ramified", 2, 1)]
    assert deficiency_of(quadratic_field(-56), 2, 3) == [("ramified", 4, 1)]
    # D = -136 = 8 * (-17): -17 = 7 mod 8 hits the r = 1 branch
    assert deficiency_of(quadratic_field(-136), 2, 1) == [("ramified", 1, 1)]
    assert deficiency_of(quadratic_field(-136), 2, 2) == [("ramified", 4, 0)]
    # discriminants not divisible by 8 are never deficient
    assert deficiency_of(K4, 2, 1) == [("ramified", 2, 0)]
    assert deficiency_of(K4, 2, 2) == [("ramified", 4, 0)]
    assert deficiency_of(quadratic_field(-24), 2, 1) == [("ramified", 2, 0)]
    assert deficiency_of(K23, 2, 1) == [("split", 2, 0), ("split", 2, 0)]
    # odd l never loses degree above l
    assert deficiency_of(K23, 3, 1) == [("split", 3, 0), ("split", 3, 0)]


@pytest.mark.parametrize("disc,r", [(-8, 1), (-136, 1), (-56, 2), (-120, 2)])
def test_context_deficiencies_pinned_family(disc, r):
    # the deficient family: the context carries the seed and a = 1 at the
    # ramified prime above 2, which context_record writes out; the other
    # r in {1, 2} leaves the same field with a = 0
    field = quadratic_field(disc)
    ctx = build_context(field, 2, r)
    (lam,) = factor_rational_prime(field, 2)
    assert ctx.deficiencies == {lam: 1}
    seed = build_L0_rational(2, r)
    assert (ctx.seed.modulus, ctx.seed.degree, ctx.seed.sign) == (
        seed.modulus,
        seed.degree,
        seed.sign,
    )
    assert context_record(ctx)["deficiencies"] == [
        {"prime": [2, lam.b], "deficiency": 1}
    ]
    assert build_context(field, 2, 3 - r).deficiencies == {lam: 0}


def test_deficient_seed_is_globally_trivial_over_k8():
    # for D = -8, r = 1 the seed piece composed with K is K itself, so
    # every prime away from 2 must have Frobenius order 1
    piece = build_L0_rational(2, 1)
    for P in enumerate_field_primes(K8, 100):
        if P.p == 2:
            continue
        assert frobenius_order_in_L0(piece, P) == 1
    # at r = 2 the composite is a genuine quadratic step, so some prime
    # moves
    piece2 = build_L0_rational(2, 2)
    orders = {
        frobenius_order_in_L0(piece2, P)
        for P in enumerate_field_primes(K8, 100)
        if P.p != 2
    }
    assert 2 in orders


# ------------------------------------------------------ membership in S


def test_in_s_rational_examples():
    assert in_S(CTX3, rp(7)) is True
    assert in_S(CTX3, rp(5)) is False
    assert in_S(CTX2, rp(5)) is True
    assert in_S(CTX2, rp(7)) is False


def test_in_s_rational_closed_form():
    # K = Q: the only constraints are N = 1 mod l^r and -1 being an
    # l^r-th power residue; for l = 3 that is p = 1 mod 3, for l = 2
    # it is p = 1 mod 4
    for p in small_primes(200):
        if p in (2, 3):
            continue
        assert in_S(CTX3, rp(p)) == (p % 3 == 1)
        if p != 2:
            assert in_S(CTX2, rp(p)) == (p % 4 == 1)


def test_in_s_rejects_collisions():
    with pytest.raises(ValueError):
        in_S(CTX3, rp(3))
    with pytest.raises(ValueError):
        in_S(CTX2, rp(2))
    with pytest.raises(ValueError):
        in_S(CTX23, CTX23.cl.gens[0])
    with pytest.raises(ValueError):
        in_S(CTX23, PrimeIdeal(23, "ramified", 23, 1))


def test_in_s_quad_first_members():
    members = s_members(CTX23, 4)
    assert [(P.p, P.kind, P.b) for P in members] == [
        (307, "split", 99),
        (307, "split", 515),
        (19, "inert", None),
        (37, "inert", None),
    ]
    # 307 is principal: represented by the principal form x^2 + xy + 6y^2
    assert 7 * 7 + 7 * 6 + 6 * 36 == 307
    assert 307 % 9 == 1


def test_in_s_quad_firstness_oracle():
    # nothing of norm below 307 is in S: walk the forced progression
    # N = 1 mod 9 and check every eligible candidate directly
    for n in range(10, 307, 9):
        if is_prime(n):
            if n in CTX23.excluded or kronecker_disc(-23, n) != 1:
                continue
            for P in factor_rational_prime(K23, n):
                if P in CTX23.cl.gens:
                    continue
                assert not in_S(CTX23, P), P
        else:
            p = isqrt(n)
            if p * p != n or not is_prime(p):
                continue
            if p in CTX23.excluded or kronecker_disc(-23, p) != -1:
                continue
            assert not in_S(CTX23, factor_rational_prime(K23, p)[0]), p


def test_in_s_quad_inert_member_over_k4():
    # the class and unit constraints can admit an inert prime early:
    # over Q(i) the torsion unit i becomes a square in F_9
    ctx = build_context(K4, 2, 1)
    members = s_members(ctx, 3)
    assert [(P.p, P.kind) for P in members] == [
        (3, "inert"),
        (17, "split"),
        (17, "split"),
    ]
    for p in (5, 13):
        for P in factor_rational_prime(K4, p):
            assert not in_S(ctx, P)


# --------------------------------------------------------------- search


def _ray_order(ctx, eps, q):
    # the conductor eps is totally ramified in its piece: the full degree;
    # over Q, the order of q^((eps-1)/l^r) by multiplicative_order, apart
    # from the integer routine that search_prime and the piece share
    full = ctx.ell**ctx.r
    if q == eps:
        return full
    if ctx.field.kind != "rational":
        return frobenius_order_in_ray_piece(ctx, eps, q)
    fld = residue_field(eps.p)
    return multiplicative_order(pow(q.p, (eps.p - 1) // full, eps.p), fld)


def _admits(ctx, pieces, target, order, P):
    # the greedy step's question for a prime P of S, asked directly: P
    # splits in the seed and in every earlier piece, the earlier
    # conductors and the primes above l other than target split in the
    # piece at P, and target has Frobenius order exactly order there (no
    # target: only the splitting conditions)
    return (
        frobenius_order_in_L0(ctx.seed, P) == 1
        and all(_ray_order(ctx, pc, P) == 1 for pc in pieces)
        and all(_ray_order(ctx, P, pc) == 1 for pc in pieces)
        and all(_ray_order(ctx, P, s) == 1 for s in ctx.deficiencies if s != target)
        and (target is None or _ray_order(ctx, P, target) == order)
    )


def _admitted(ctx, pieces, target, order, limit):
    # reference for search_prime: the primes of S up to norm limit that
    # the greedy step admits, in the search order, by a plain scan
    for P in enumerate_field_primes(ctx.field, limit):
        if P.p in ctx.excluded or P in ctx.cl.gens or not in_S(ctx, P):
            continue
        if _admits(ctx, pieces, target, order, P):
            yield P


def _brute_first(ctx, pieces, target, order, limit):
    return next(_admitted(ctx, pieces, target, order, limit), None)


def test_search_first_conductor_ell2():
    # the first greedy step of Q n=2: 3 has degree 1 in the seed and
    # needs order 2, while 2 must stay split
    P = search_prime(CTX2, [], SearchCursor(), rp(3), 2)
    assert P == rp(17) == _brute_first(CTX2, [], rp(3), 2, 17)
    # firstness: 5 and 13 are in S but are not 1 mod 8
    for q in (5, 13):
        assert in_S(CTX2, rp(q))
        assert character_order(build_L0_rational(2, 1), q) != 1
    # the next member of S the seed admits is 41
    l0 = build_L0_rational(2, 1)
    admitted = [P for P in s_members(CTX2, 12) if character_order(l0, P.p) == 1]
    assert admitted[:2] == [rp(17), rp(41)]


def test_search_with_target_conditions_ell3():
    # degree-3 piece that keeps 3 split while moving 2 by a full cycle
    P = search_prime(CTX3, [], SearchCursor(), rp(2), 3)
    assert P == rp(73)
    # 19 and 37 split in the seed but fail to keep 3 split
    for q in (19, 37):
        piece = make_ray_piece(CTX3, rp(q))
        assert frobenius_order_in_ray_piece(CTX3, piece, rp(3)) != 1
    piece = make_ray_piece(CTX3, rp(73))
    assert frobenius_order_in_ray_piece(CTX3, piece, rp(3)) == 1
    assert frobenius_order_in_ray_piece(CTX3, piece, rp(2)) == 3


def test_search_is_deterministic():
    a = search_prime(CTX3, [], SearchCursor(), rp(2), 3)
    b = search_prime(CTX3, [], SearchCursor(), rp(2), 3)
    assert a == b == rp(73)


def test_search_basis_exclusion():
    # in_S refuses a class-basis prime, so the search passes over one
    # even where the greedy step would admit it
    w = next(q for q in enumerate_field_primes(K23, 50) if q.p not in CTX23.excluded)
    admitted = list(_admitted(CTX23, [], w, 3, 30000))
    assert len(admitted) >= 3
    assert search_prime(CTX23, [], SearchCursor(), w, 3) == admitted[0]
    ctx = build_context(K23, 3, 1)
    ctx.cl.gens = tuple(admitted[:2])
    for Q in admitted[:2]:
        with pytest.raises(ValueError):
            in_S(ctx, Q)
    P = search_prime(ctx, [], SearchCursor(), w, 3)
    assert P == admitted[2]
    assert (P.p, P.kind, P.b) == (24337, "split", 22321)


def test_search_exhausts_on_contradiction():
    # a Frobenius order in a degree-2 piece is 1 or 2, never 3; the cap
    # counts entries of the progression (step 4 here), the ones the seed
    # rules out included, so the last norm is 1 + 4 * 200
    with pytest.raises(
        SearchExhausted,
        match=r"within cap 200 \(last norm 801\); wanted order 3 at \(3,-\) after 0 pieces",
    ):
        search_prime(CTX2, [], SearchCursor(cap=200), rp(3), 3)
    # over K(-23) with l = 3 and t = 1 the step is 9
    w = factor_rational_prime(K23, 2)[0]
    with pytest.raises(
        SearchExhausted,
        match=r"within cap 300 \(last norm 2701\); wanted order 9 at \(2,\d+\) after 0 pieces",
    ):
        search_prime(CTX23, [], SearchCursor(cap=300), w, 9)


def test_search_never_asks_the_seed(monkeypatch):
    # the walk strides over the one residue class the seed admits, so a
    # search asks the seed nothing however many entries it walks
    calls = []

    def counting(piece, x):
        calls.append(x)
        return character_order(piece, x)

    monkeypatch.setattr(classfield, "character_order", counting)
    ctx = build_context(RATIONAL, 13, 1)
    P = search_prime(ctx, [], SearchCursor(), rp(2), 13)
    step = 13
    period = ctx.seed.modulus // step
    assert (P.p - 1) // step > 10 * period  # the walk spans many periods
    assert calls == []


K3 = quadratic_field(-3)


@pytest.mark.parametrize(
    "field,ell,r",
    [(K23, 2, 1), (K23, 3, 1), (K8, 2, 1), (K4, 2, 1), (K4, 2, 2), (K3, 2, 1), (K3, 3, 1)],
)
def test_search_asks_is_prime_only_past_the_k_side_filters(monkeypatch, field, ell, r):
    # every norm the walk hands to is_prime splits in the seed and has
    # quadratic symbol D^((n-1)/2) = 1 mod n; the other arguments are
    # roots p of square norms p^2.  At the real SIEVE_PRIMES these norms
    # all lie below SIEVE_PRIMES**2, where the sieve decides primality
    # and is_prime sees none; a sieve to 16 leaves the walk past 256 to it
    monkeypatch.setattr(classfield, "SIEVE_PRIMES", 16)
    asked, roots = [], set()

    def recording_is_prime(m):
        asked.append(m)
        return is_prime(m)

    def recording_isqrt(n):
        p = isqrt(n)
        if p * p == n:
            roots.add(p)
        return p

    ctx = build_context(field, ell, r)
    monkeypatch.setattr(classfield, "is_prime", recording_is_prime)
    monkeypatch.setattr(classfield, "isqrt", recording_isqrt)
    target = next(q for q in enumerate_field_primes(field, 50) if q.p not in ctx.excluded)
    with pytest.raises(SearchExhausted):  # no Frobenius order exceeds l^r
        search_prime(ctx, [], SearchCursor(cap=3000), target, ell ** (r + 1))
    norms = [n for n in asked if n not in roots]
    assert len(norms) > 50
    for n in norms:
        assert character_order(ctx.seed, n) == 1, n
        assert pow(field.disc, (n - 1) // 2, n) == 1, n


def record_in_S(monkeypatch):
    # the candidates handed to in_S, in order, while the patch holds
    asked = []

    def recording(ctx, P):
        asked.append(P)
        return in_S(ctx, P)

    monkeypatch.setattr(classfield, "in_S", recording)
    return asked


@pytest.mark.parametrize(
    "field,ell,r",
    [(K23, 2, 1), (K23, 3, 1), (K8, 2, 1), (quadratic_field(-56), 2, 2), (K4, 2, 1), (K3, 2, 1)],
)
def test_search_asks_in_s_only_past_the_fixed_orders(monkeypatch, field, ell, r):
    # every candidate the search hands to in_S already has the wanted
    # Frobenius order at each fixed prime (the primes above l other than
    # the target, the earlier conductors and the target itself), up to a
    # first image of order above l^r, where in_S is asked only to tell
    # the escape check's inconsistency from a candidate outside S
    ctx = build_context(field, ell, r)
    full = ell**r
    asked = record_in_S(monkeypatch)
    wanted = [(q, full) for q in enumerate_field_primes(field, 50) if q.p not in ctx.excluded][:3]
    wanted += [(lam, ell**a) for lam, a in ctx.deficiencies.items() if a]
    pieces, checked, escaped = [], 0, 0
    for target, order in wanted:
        orders = [(s, 1) for s in ctx.deficiencies if s != target]
        orders += [(pc, 1) for pc in pieces] + [(target, order)]
        asked.clear()
        try:
            pieces.append(search_prime(ctx, pieces, SearchCursor(cap=5000), target, order))
        except SearchExhausted:
            pass
        for P in asked:
            for q, k in orders:
                try:
                    got = frobenius_order_in_ray_piece(ctx, P, q)
                except InternalInconsistency:
                    assert not in_S(ctx, P), (P, q)
                    escaped += 1
                    break
                assert got == k, (P, q, k)
            else:
                checked += 1
    assert len(pieces) >= 2 and checked >= len(pieces)
    assert escaped == 0 or ctx.t > 0  # x^(l^(r+t)) = 1 at every candidate


def test_search_escaping_image_raises_only_in_s(monkeypatch):
    # an image of order 9 = l^(r+t) at every candidate: the search rejects
    # the candidates outside S and raises at the first one in S
    (eps,) = s_members(CTX23, 1)
    asked = record_in_S(monkeypatch)
    patch_order9_images(monkeypatch)
    target = factor_rational_prime(K23, 2)[0]
    # a cap just past eps: a search that fails to raise there exhausts at
    # once instead of walking the default cap
    with pytest.raises(InternalInconsistency, match="escapes the piece"):
        search_prime(CTX23, [], SearchCursor((eps.norm - 1) // 9 + 1), target, 3)
    candidates = [
        P for P in enumerate_field_primes(K23, eps.norm)
        if (P.norm - 1) % 9 == 0 and P.p not in CTX23.excluded and P not in CTX23.cl.gens
    ]
    assert asked == candidates[: candidates.index(eps) + 1]
    assert len(asked) > 1 and not any(in_S(CTX23, P) for P in asked[:-1])


def fixed_lists(monkeypatch, field, ell, r, bound):
    # (ctx, fixed, full) of each conductor search that construct runs
    lists, fixed_orders = {}, classfield._fixed_orders

    def recording(ctx, p, b, e, fld, fixed, full):
        lists.setdefault(id(fixed), (ctx, fixed, full))
        return fixed_orders(ctx, p, b, e, fld, fixed, full)

    with monkeypatch.context() as patch:
        patch.setattr(classfield, "_fixed_orders", recording)
        construct(field, ell, r, bound)
    return list(lists.values())


def order_outcome(test):
    try:
        return test()
    except InternalInconsistency:
        return "raises"


def int_path_outcomes(ctx, fixed, full, stop):
    # the search's split candidates and fixed orders on (p, root) ints
    basis = {(g.p, g.b) for g in ctx.cl.gens}
    lk = ctx.ell ** (ctx.r + ctx.t)
    for n in classfield._sieved_walk(ctx, _walk_step(ctx), stop):
        p, roots = classfield._quad_candidates(ctx, n)
        if p != n:
            continue  # an inert square
        fld = residue_field(n)
        for b in roots:
            yield (n, b), (n, b) in basis or order_outcome(
                lambda: classfield._fixed_orders(ctx, n, b, (n - 1) // lk, fld, fixed, full)
            )


def object_path_outcomes(ctx, fixed, full, stop):
    # the same on PrimeIdeals, by the reference the search ran before
    for n in classfield._sieved_walk(ctx, _walk_step(ctx), stop):
        for P in oracles.split_candidates(ctx, n):
            yield (P.p, P.b), P in ctx.cl.gens or order_outcome(
                lambda: oracles.fixed_orders(ctx, P, fixed, full)
            )


@pytest.mark.parametrize(
    "disc,ell,r,bound",
    [(-23, 2, 2, 50), (-23, 3, 1, 200), (-8, 2, 1, 50), (-56, 2, 2, 50), (-4, 2, 2, 50),
     (-3, 2, 1, 50), (-3299, 3, 1, 100)],
)
def test_int_candidates_match_the_object_reference(monkeypatch, disc, ell, r, bound):
    # every split candidate of norm up to 2*10^5 meets each fixed list
    # of the searches of construct(K(disc), ell, r, bound), as (p, root)
    # ints and as a PrimeIdeal under the reference; both paths accept,
    # reject or raise alike.  At K(-23), l = 3, r = 1 (t = 1) an image of
    # order 9 at every split candidate, through conductor_image and the
    # reference's own generator_image, makes both paths raise at the
    # candidates in S.  At K(-3299), l = 3, t = 2 and the class basis
    # has two primes
    stop = 200_000
    lists = fixed_lists(monkeypatch, quadratic_field(disc), ell, r, bound)
    assert lists
    tally = {}
    for ctx, fixed, full in lists:
        got = list(int_path_outcomes(ctx, fixed, full, stop))
        assert got == list(object_path_outcomes(ctx, fixed, full, stop))
        for _, outcome in got:
            tally[outcome] = tally.get(outcome, 0) + 1
    assert tally.get(True) and tally.get(False), tally
    if (disc, ell) == (-3299, 3):
        assert (ctx.t, len(ctx.cl.gens)) == (2, 2)
    if (disc, ell) != (-23, 3):
        return
    patch_order9_images(monkeypatch, reference=True)
    ctx, fixed, full = lists[0]
    got = list(int_path_outcomes(ctx, fixed, full, stop))
    assert got == list(object_path_outcomes(ctx, fixed, full, stop))
    raised = [key for key, outcome in got if outcome == "raises"]
    assert raised and all(in_S(ctx, classfield._candidate(*key)) for key in raised)


def _walk_step(ctx):
    # the progression step search_prime walks: N = 1 mod step is forced by S
    step = ctx.ell ** (ctx.r + ctx.t)
    if ctx.ell == 2 and (ctx.field is RATIONAL or ctx.field.disc < -4):
        step *= 2
    return step


@pytest.mark.parametrize(
    "field,ell,r",
    [(RATIONAL, ell, r) for ell in (2, 3, 5) for r in (1, 2)]
    + [(K23, 2, 1), (K23, 3, 1), (K8, 2, 1), (quadratic_field(-56), 2, 2)]
    # the only fields where the seed admits two residues of the walk
    + [(K4, 2, 1), (quadratic_field(-3), 2, 1)],
)
def test_search_matches_brute_force(field, ell, r):
    ctx = build_context(field, ell, r)
    full = ell**r
    # norms the search may examine: N = 1 mod step, at most cap entries
    cap, step = 5000, _walk_step(ctx)

    def first(pieces, target, order):
        try:
            P = search_prime(ctx, pieces, SearchCursor(cap=cap), target, order)
        except SearchExhausted:
            P = None
        assert P == _brute_first(ctx, pieces, target, order, P.norm if P else 1 + step * cap)
        return P

    # T is the first candidate that meets every splitting condition, so
    # it lies in the progression and an order condition on T decides T
    T = _brute_first(ctx, [], None, None, 1 + step * cap)
    for k in (1, full // ell, full):
        assert (first([], T, k) == T) == (k == full)
    others = [
        q for q in enumerate_field_primes(field, 50)
        if q.p not in ctx.excluded and q != T
    ]
    # one and two earlier pieces, each step aimed at a new target
    pc = first([T], others[0], full)
    if pc is None:  # the second piece lies beyond the cap
        assert field is RATIONAL and full in (5, 9, 25)
    else:
        first([T, pc], next(q for q in others[1:] if q != pc), full)
    # the dedicated piece at a deficient prime above 2
    for lam, a in ctx.deficiencies.items():
        if a:
            first([], lam, ell**a)


SIEVE_CASES = [
    (RATIONAL, 2, 1), (RATIONAL, 3, 1), (RATIONAL, 13, 1), (K23, 2, 2),
    (K3, 2, 1), (K4, 2, 1), (K23, 3, 1), (quadratic_field(-56), 2, 2),
]


@pytest.mark.parametrize("field,ell,r", SIEVE_CASES)
def test_sieved_walk_leaves_only_primes_and_prime_squares(field, ell, r):
    # below SIEVE_PRIMES**2 every entry is p or p^2, which is what lets
    # _quad_candidates skip is_prime there
    ctx = build_context(field, ell, r)
    stop = 200_000
    assert stop < classfield.SIEVE_PRIMES**2
    walk = list(classfield._sieved_walk(ctx, _walk_step(ctx), stop))
    assert len(walk) > 1000 // ell
    for n in walk:
        ((_, e),) = factor(n)
        assert e in (1, 2), n


@pytest.mark.parametrize("field,ell,r", [c for c in SIEVE_CASES if c[0] is not RATIONAL])
def test_quad_candidates_ask_is_prime_past_a_small_sieve(monkeypatch, field, ell, r):
    # with a sieve to 16 the walk keeps composites past 256: each
    # non-square entry there with Euler symbol 1 reaches is_prime, none
    # below it does, and the candidates are still the primes of norm n
    monkeypatch.setattr(classfield, "SIEVE_PRIMES", 16)
    asked = []

    def recording_is_prime(m):
        asked.append(m)
        return is_prime(m)

    monkeypatch.setattr(classfield, "is_prime", recording_is_prime)
    ctx = build_context(field, ell, r)
    walk = list(classfield._sieved_walk(ctx, _walk_step(ctx), 60_000))
    composites = [n for n in walk if len(factor(n)) > 1]
    assert composites and min(composites) > 256
    for n in walk:
        asked.clear()
        p, roots = classfield._quad_candidates(ctx, n)
        got = [classfield._candidate(p, b) for b in roots]
        euler = pow(field.disc, (n - 1) // 2, n)
        if euler == 1 and isqrt(n) ** 2 != n:
            assert (n in asked) == (n >= 256), n
        f = factor(n)
        kind = {1: "split", 2: "inert"}.get(f[0][1]) if len(f) == 1 else None
        expect = [P for P in factor_rational_prime(field, f[0][0]) if P.kind == kind]
        assert got == (expect if kind else []), n


@pytest.mark.parametrize("block", [classfield.SIEVE_BLOCK, 256])
@pytest.mark.parametrize(
    "field,ell,cap",
    [(RATIONAL, 2, 3000), (RATIONAL, 3, 4001), (RATIONAL, 13, 9000), (K23, 3, 3333)]
    # the only fields where the seed admits two residues of the walk
    + [(K4, 2, 5000), (K3, 2, 4999)],
)
def test_sieved_walk_matches_brute_force(monkeypatch, field, ell, cap, block):
    # the walk is a pure pre-filter: over every block boundary (blocks
    # grow 64, 128, ... up to block) it hands on, ascending, each entry
    # the seed admits that is a prime or the square of one, and no entry
    # with a prime factor p <= isqrt(n) other than n = p or p^2
    monkeypatch.setattr(classfield, "SIEVE_BLOCK", block)
    ctx = build_context(field, ell, 1)
    step = _walk_step(ctx)
    stop = 1 + step * cap
    assert isqrt(stop) < classfield.SIEVE_PRIMES  # every factor is sieved
    walk = list(classfield._sieved_walk(ctx, step, stop))
    assert all(a < b for a, b in zip(walk, walk[1:]))
    assert all(n <= stop and (n - 1) % step == 0 for n in walk)
    primes = small_primes(stop + 1)
    admitted = {
        n for n in set(primes) | {p * p for p in primes if p * p <= stop}
        if (n - 1) % step == 0 and character_order(ctx.seed, n) == 1
    }
    # the walk keeps the class n = 1 mod lcm(step, modulus); the seed's
    # other class, 3 mod 8 at K(-4) and K(-3), holds no prime of S
    wanted = sorted(n for n in admitted if (n - 1) % lcm(step, ctx.seed.modulus) == 0)
    dropped = admitted - set(wanted)
    assert bool(dropped) == (field in (K4, K3))
    assert not any(
        in_S(ctx, P)
        for P in enumerate_field_primes(field, stop)
        if P.norm in dropped and P.p not in ctx.excluded
    )
    assert set(wanted) <= set(walk)
    for n in walk:
        small = [p for p in takewhile(lambda p: p * p <= n, primes) if n % p == 0]
        assert small in ([], [isqrt(n)]), n  # n is prime or a prime square
    assert walk == wanted  # and the seed admits it
    assert any(isqrt(n) ** 2 == n for n in walk)  # a prime square survives


@pytest.mark.parametrize(
    "disc", [None, -3, -4, -7, -8, -11, -15, -20, -23, -24, -31, -47, -56, -84, -3299]
)
def test_seed_admits_one_class_of_the_walk(disc):
    # the walk strides by lcm(step, modulus) = step * period, so of the
    # classes j mod period of n = 1 + step*j it visits only j = 0; the
    # seed admits no other class, bar one at K(-3) and K(-4) for l = 2
    # that is -1 mod 2^(r+1) and holds no prime of S
    field = RATIONAL if disc is None else quadratic_field(disc)
    for ell in (2, 3, 5, 7):
        for r in (1, 2, 3):
            ctx = build_context(field, ell, r)
            step = _walk_step(ctx)
            period = ctx.seed.modulus // gcd(step, ctx.seed.modulus)
            admitted = {
                j for j in range(1, period + 1)
                if character_order(ctx.seed, 1 + step * j) == 1
            }
            others = admitted - {period}
            assert period in admitted
            if disc not in (-3, -4) or ell != 2:
                assert not others, (disc, ell, r)
                continue
            assert bool(others) == (r == 1)
            classes = {(1 + step * j) % ctx.seed.modulus for j in others}
            assert all(c % 2 ** (r + 1) == 2 ** (r + 1) - 1 for c in classes)
            assert not any(
                in_S(ctx, P)
                for P in enumerate_field_primes(field, 20000)
                if P.norm % ctx.seed.modulus in classes and P.p not in ctx.excluded
            )


def test_make_ray_piece_checks_membership():
    with pytest.raises(ValueError):
        make_ray_piece(CTX3, rp(5))
    piece = make_ray_piece(CTX3, rp(7))
    assert piece == rp(7)
    assert local_degree(CTX3, [piece], piece)[:2] == (1, 3)  # l^r at its conductor
    assert piece.norm == 7


# ---------------------------------------------------- Frobenius images


def test_frobenius_order_rational_examples():
    piece = make_ray_piece(CTX3, rp(7))
    assert frobenius_order_in_ray_piece(CTX3, piece, rp(2)) == 3
    assert frobenius_order_in_ray_piece(CTX3, piece, rp(13)) == 1
    assert frobenius_order_in_ray_piece(CTX3, piece, rp(7)) == 3


def test_frobenius_order_rational_oracle():
    # the order of q in the degree-l^r piece at eps is the order of
    # q^((eps-1)/l^r) in F_eps
    for eps in (7, 13, 19, 31):
        piece = make_ray_piece(CTX3, rp(eps))
        fld = residue_field(eps)
        for q in small_primes(60):
            if q in (3, eps):
                continue
            x = pow(q, (eps - 1) // 3, eps)
            expect = multiplicative_order(embed(fld, x), fld)
            assert expect in (1, 3)
            assert frobenius_order_in_ray_piece(CTX3, piece, rp(q)) == expect


def test_splitting_map_principal_image_oracle():
    # at a principal target q = (gen) the image is gen^(m (Q-1)/l^r),
    # m the prime-to-l part of the class number
    members = s_members(CTX23, 2)
    piece = make_ray_piece(CTX23, members[0])
    fld = local_field(CTX23.field, members[0])
    e = CTX23.cl.coprime_part * (piece.norm - 1) // CTX23.ell**CTX23.r
    checked = 0
    for q in enumerate_field_primes(K23, 140):
        if q.p in CTX23.excluded or q.p == members[0].p:
            continue
        try:
            gen = principal_generator(K23, prime_module(K23, q))
        except NotPrincipal:
            continue
        direct = reduce_mod(K23, gen, members[0])
        assert package_image(CTX23, piece, q) == fld.pow(direct, e)
        checked += 1
    assert checked >= 5


def test_splitting_map_multiplicative_oracle():
    # whenever q1*q2 = (gen) is principal, the product of the images is
    # gen^(m (Q-1)/l^r)
    members = s_members(CTX23, 1)
    eps = members[0]
    piece = make_ray_piece(CTX23, eps)
    fld = local_field(CTX23.field, eps)
    e = CTX23.cl.coprime_part * (piece.norm - 1) // CTX23.ell**CTX23.r
    primes = [
        q
        for q in enumerate_field_primes(K23, 60)
        if q.kind == "split" and q.p not in CTX23.excluded and q.p != eps.p
    ]
    pairs = 0
    for i, q1 in enumerate(primes):
        for q2 in primes[i:]:
            J = ideal_mul(K23, prime_module(K23, q1), prime_module(K23, q2))
            try:
                gen = principal_generator(K23, J)
            except NotPrincipal:
                continue
            lhs = fld.mul(
                package_image(CTX23, piece, q1),
                package_image(CTX23, piece, q2),
            )
            assert lhs == fld.pow(reduce_mod(K23, gen, eps), e)
            pairs += 1
    assert pairs >= 10


# ------------------------------------------------------- Kummer layers


def test_kummer_generator_rational():
    alpha, m = kummer_generator(CTX3, rp(5))
    assert (alpha, m) == (integer_elt(5), 0)


def test_kummer_generator_quad_principal():
    # the ramified prime above 23 is principal (class group has odd
    # order 3, the ramified class is 2-torsion)
    lam23 = factor_rational_prime(K23, 23)[0]
    alpha, m = kummer_generator(CTX23, lam23)
    assert m == 0
    assert principal_ideal(K23, alpha) == prime_module(K23, lam23)


def test_kummer_generator_quad_nonprincipal():
    two = factor_rational_prime(K23, 2)[0]
    alpha, m = kummer_generator(CTX23, two)
    assert m == 1
    want = ideal_pow(K23, prime_module(K23, two), kprime(CTX23) * 3)
    assert principal_ideal(K23, alpha) == want


def test_kummer_generator_above_two_k8():
    ctx = build_context(K8, 2, 1)
    lam = factor_rational_prime(K8, 2)[0]
    alpha, m = kummer_generator(ctx, lam)
    assert m == 0
    assert (0, 1) in (alpha, elt_neg(alpha))


def test_kummer_split_test_examples():
    assert kummer_split_test(CTX2, rp(7), integer_elt(2), 1) is True
    assert kummer_split_test(CTX2, rp(17), integer_elt(3), 1) is False
    assert kummer_split_test(CTX2, rp(17), integer_elt(2), 1) is True
    assert kummer_split_test(CTX3, rp(5), integer_elt(11), 0) is True
    with pytest.raises(ValueError):
        kummer_split_test(CTX2, rp(7), integer_elt(2), 2)


def test_kummer_split_levels_rational():
    # l = 2, r = 1: splitting at level 1 is quadratic residuosity
    for eps in (5, 13, 17):
        fld = residue_field(eps)
        for q in small_primes(60):
            if q == 2 or q == eps:
                continue
            got = kummer_split_test(CTX2, rp(eps), integer_elt(q), 1)
            assert got == (pow(q, (eps - 1) // 2, eps) == 1)


def test_kummer_frobenius_biconditional_rational():
    # splitting at level m + s pins the Frobenius order below l^(r-s)
    pairs = 0
    for ctx, eps_list in ((CTX2, (5, 13, 17)), (CTX3, (7, 13, 19))):
        for eps in eps_list:
            piece = make_ray_piece(ctx, rp(eps))
            for q in small_primes(60):
                if q in ctx.excluded or q == eps:
                    continue
                alpha, m = kummer_generator(ctx, rp(q))
                order = frobenius_order_in_ray_piece(ctx, piece, rp(q))
                for s in range(0, ctx.r + 1):
                    want = order <= ctx.ell ** (ctx.r - s)
                    got = kummer_split_test(ctx, rp(eps), alpha, m + s)
                    assert got == want, (eps, q, s)
                    pairs += 1
    assert pairs >= 40


def test_kummer_frobenius_biconditional_quad():
    members = s_members(CTX23, 4)
    pairs = 0
    for eps in members:
        piece = make_ray_piece(CTX23, eps)
        for q in enumerate_field_primes(K23, 60):
            if q.p == eps.p:
                continue
            alpha, m = kummer_generator(CTX23, q)
            order = frobenius_order_in_ray_piece(CTX23, piece, q)
            for s in (0, 1):
                want = order <= 3 ** (1 - s)
                got = kummer_split_test(CTX23, eps, alpha, m + s)
                assert got == want, (eps, q, s)
                pairs += 1
    assert pairs >= 40


# ----------------------------------------- choice independence of images


def test_root_choice_invariance():
    # in the root-based splitting map, multiplying the root of alpha_i by
    # any cube root of unity leaves the contractual power alone, and that
    # power is the production image raised to kprime/m
    eps = s_members(CTX23, 1)[0]
    fld = local_field(CTX23.field, eps)
    piece = make_ray_piece(CTX23, eps)
    targets = [
        q
        for q in enumerate_field_primes(K23, 30)
        if q.p != eps.p and q.kind == "split"
    ]
    roots = alpha_roots(CTX23, eps)
    base = [reference_image(CTX23, eps, q, roots) for q in targets]
    u = kprime(CTX23) // CTX23.cl.coprime_part
    assert base == [fld.pow(package_image(CTX23, piece, q), u) for q in targets]
    w = unit_root(fld, 3)
    assert w != fld.one and fld.pow(w, 3) == fld.one
    for j in (1, 2):
        twisted = [fld.mul(roots[0], fld.pow(w, j))]
        assert base == [reference_image(CTX23, eps, q, twisted) for q in targets]


@pytest.mark.parametrize(
    "disc,ell,r,t,bound",
    [
        (-23, 3, 1, 1, 5000),
        (-23, 2, 1, 0, 500),
        (-23, 2, 2, 0, 5000),
        (-4, 2, 1, 0, 500),
        (-3, 2, 1, 0, 500),
        (-47, 5, 1, 1, 15000),
        (-56, 2, 1, 2, 5000),
        (-199, 3, 1, 2, 20000),
    ],
)
def test_frobenius_image_matches_reference(disc, ell, r, t, bound):
    # the closed-form image raised to u = kprime/m equals the root-based
    # splitting map as an element, at conductors of S (split and inert),
    # for targets above 2, above l, above the discriminant and conjugate
    # to the conductor, with every l-th root twisted by a random l-th
    # root of unity
    field = quadratic_field(disc)
    ctx = build_context(field, ell, r)
    assert ctx.t == t
    twist_rng = random.Random(disc)
    u = kprime(ctx) // ctx.cl.coprime_part
    pairs = 0
    for eps in s_members(ctx, 3, bound):
        assert eps.p not in {a.p for a in ctx.cl.gens}
        fld = local_field(ctx.field, eps)
        piece = make_ray_piece(ctx, eps)
        w = unit_root(fld, ell)
        roots = alpha_roots(ctx, eps, lambda: fld.pow(w, twist_rng.randrange(ell)))
        for q in enumerate_field_primes(field, 60) + [conjugate_prime(eps)]:
            if q == eps:
                continue
            image = fld.pow(package_image(ctx, piece, q), u)
            assert image == reference_image(ctx, eps, q, roots)
            pairs += 1
    assert pairs >= 30


def test_alpha_generator_sign_invariance():
    # replacing the stored generator of a_1^(l^m) by its negative does
    # not change S membership or Frobenius orders
    ctx_b = build_context(K23, 3, 1)
    ctx_b.cl.alphas = tuple(elt_neg(a) for a in ctx_b.cl.alphas)
    for n in range(10, 400, 9):
        if not is_prime(n) or n in CTX23.excluded:
            continue
        if kronecker_disc(-23, n) != 1:
            continue
        for P in factor_rational_prime(K23, n):
            if P in CTX23.cl.gens:
                continue
            assert in_S(CTX23, P) == in_S(ctx_b, P)
    eps = s_members(CTX23, 1)[0]
    piece_a = make_ray_piece(CTX23, eps)
    piece_b = make_ray_piece(ctx_b, eps)
    for q in enumerate_field_primes(K23, 30):
        if q.p == eps.p:
            continue
        assert frobenius_order_in_ray_piece(
            CTX23, piece_a, q
        ) == frobenius_order_in_ray_piece(ctx_b, piece_b, q)


def test_unit_generator_choice_invariance():
    # over Q(i) the torsion generator can be i or -i; S cannot see the
    # difference
    ctx_a = build_context(K4, 2, 1)
    ctx_b = build_context(K4, 2, 1)
    ctx_b.units = [elt_neg(u) for u in ctx_b.units]
    for p in small_primes(200):
        if p == 2:
            continue
        for P in factor_rational_prime(K4, p):
            assert in_S(ctx_a, P) == in_S(ctx_b, P)


@pytest.mark.parametrize("disc", [-3, -4, -23, -56, -3299, -4000003])
def test_conjugate_target_generator_is_the_fresh_one(monkeypatch, disc):
    # a split target whose conjugate's generator is cached takes its
    # generator from it, and gets the canonical one that principal_generator
    # gives; K(-3) and K(-4) have 6 and 4 units to choose the associate among
    field = quadratic_field(disc)
    ctx = build_context(field, 2, 1)
    power = ctx.cl.coprime_part * ctx.ell**ctx.t
    fresh, generator = [], classfield.principal_generator
    monkeypatch.setattr(
        classfield, "principal_generator", lambda fld, J: fresh.append(J) or generator(fld, J)
    )
    pairs = [
        factor_rational_prime(field, p)
        for p in small_primes(400)
        if p not in ctx.excluded and kronecker_disc(disc, p) == 1
    ][:10]
    assert len(pairs) == 10
    for k, (q, bar) in enumerate(pairs):
        first, second = (q, bar) if k % 2 else (bar, q)
        classfield._target_generator(ctx, first)
        want = generator(field, ideal_pow(field, prime_module(field, second), power))
        assert classfield._target_generator(ctx, second) == want, (first, second)
    assert len(fresh) == len(pairs)  # the second of each pair came from the first


def test_residue_group_at_conductors_is_large_enough():
    # the l-part of the residue group modulo torsion units must leave
    # room for a level r + t extension
    for ctx, members in (
        (CTX2, [rp(p) for p in (5, 13, 17)]),
        (CTX3, [rp(p) for p in (7, 13, 19)]),
        (CTX23, s_members(CTX23, 3)),
    ):
        for eps in members:
            fld = local_field(ctx.field, eps)
            torsion = 1
            for u in ctx.units:
                o = multiplicative_order(reduce_mod(ctx.field, u, eps), fld)
                torsion = torsion * o // _gcd(torsion, o)
            quota = ell_part(eps.norm - 1, ctx.ell) // ell_part(torsion, ctx.ell)
            assert quota >= ctx.ell ** (ctx.r + ctx.t)


def test_corrected_generator_congruence():
    # the reference's iterated root at a conductor is a genuine l^m-th
    # root of the reduced alpha_i, and the underlying basis class really
    # has order l^(m_i): a_i itself is not principal
    for eps in s_members(CTX23, 3):
        fld = local_field(CTX23.field, eps)
        (root,) = alpha_roots(CTX23, eps)
        alpha_red = reduce_mod(K23, CTX23.cl.alphas[0], eps)
        assert fld.pow(root, 3) == alpha_red
    with pytest.raises(NotPrincipal):
        principal_generator(K23, prime_module(K23, CTX23.cl.gens[0]))


# ------------------------------------------- deficient dedicated search


def test_deficient_search_k8():
    ctx = build_context(K8, 2, 1)
    ((lam, a),) = ctx.deficiencies.items()
    assert (local_degree(ctx, [], lam)[2], a) == (1, 1)
    eps = search_prime(ctx, [], SearchCursor(), lam, 2**a)
    assert (eps.p, eps.kind, eps.b) == (17, "split", 14)
    # the dedicated piece moves the prime above 2 by the missing factor
    piece = make_ray_piece(ctx, eps)
    assert frobenius_order_in_ray_piece(ctx, piece, lam) == 2
    # cross-check: the conductor splits at exactly Kummer level m + r - a
    # of the generator of lam
    alpha, m = kummer_generator(ctx, lam)
    assert kummer_split_test(ctx, eps, alpha, m + ctx.r - a)
    assert not kummer_split_test(ctx, eps, alpha, m + ctx.r - a + 1)


# --------------------------------------------------------- local degree


def test_local_degree_rational_ell2_scenario():
    piece = make_ray_piece(CTX2, rp(17))
    got = {
        w.p: local_degree(CTX2, [piece], w)[2]
        for w in enumerate_field_primes(RATIONAL, 17)
    }
    assert got == {2: 2, 3: 2, 5: 2, 7: 2, 11: 2, 13: 2, 17: 2}


def test_local_degree_conductor_is_ramified():
    # 19 = 1 mod 9 splits in the seed, so the piece of conductor 19 has
    # local degree exactly 3 there: ramification alone
    piece19 = make_ray_piece(CTX3, rp(19))
    assert local_degree(CTX3, [piece19], rp(19))[2] == 3
    # a conductor that moves in the seed overshoots at itself, which is
    # why conductor searches insist on seed splitting
    piece7 = make_ray_piece(CTX3, rp(7))
    assert local_degree(CTX3, [piece7], rp(7))[2] == 9
    # 71 = 8 mod 9 and 71 = 1 mod 7 is covered by neither component
    assert local_degree(CTX3, [piece7], rp(71))[2] == 1
    assert local_degree(CTX3, [piece7], rp(19))[2] == 3


def test_local_degree_deficient_needs_product():
    # D = -56, r = 2: the seed only reaches degree 2 above 2 and the
    # dedicated piece supplies the rest multiplicatively
    field = quadratic_field(-56)
    ctx = build_context(field, 2, 2)
    ((lam, a),) = ctx.deficiencies.items()
    assert (local_degree(ctx, [], lam)[2], a) == (2, 1)
    eps = search_prime(ctx, [], SearchCursor(), lam, 2**a)
    piece = make_ray_piece(ctx, eps)
    assert frobenius_order_in_ray_piece(ctx, piece, lam) == 2
    assert local_degree(ctx, [piece], lam)[2] == 4


def test_local_degree_rejects_two_ramified_components():
    # the rule multiplies in one ramification factor, so a prime ramified
    # in two components is an inconsistency, not a degree
    piece19 = make_ray_piece(CTX3, rp(19))
    assert local_degree(CTX3, [piece19], rp(19))[0] == 1
    assert local_degree(CTX3, [piece19], rp(3))[0] == 0
    twin = make_ray_piece(CTX3, rp(19))
    with pytest.raises(InternalInconsistency):
        local_degree(CTX3, [piece19, twin], rp(19))
    # a conductor above ell collides with the seed's ramification
    above_ell = rp(3)  # make_ray_piece would refuse it
    with pytest.raises(InternalInconsistency):
        local_degree(CTX3, [above_ell], rp(3))


def test_local_degree_full_row_still_finds_its_conductor():
    # 19 already has degree 3 = l^r under piece 7, so the fold asks for no
    # more orders, yet piece 19 still ramifies there and overshoots
    piece7, piece19 = make_ray_piece(CTX3, rp(7)), make_ray_piece(CTX3, rp(19))
    assert local_degree(CTX3, [piece7], rp(19)) == (None, 1, 3)
    assert local_degree(CTX3, [piece7, piece19], rp(19)) == (2, 3, 9)


def assert_folds_refuse(monkeypatch, conductors, w):
    # the fold of row w, the folds of a whole table in the default chunks
    # and in chunks of 3 rows, and the row-by-row reference all refuse a
    # row ramified in two components
    pieces = [rp(p) for p in conductors]
    rows = enumerate_field_primes(RATIONAL, 40)
    message = f"^\\({w},None\\) is ramified in more than one component$"
    with pytest.raises(InternalInconsistency, match=message):
        local_degree(CTX3, pieces, rp(w))
    with pytest.raises(InternalInconsistency, match=message):
        oracles.local_degree(CTX3, pieces, rp(w))
    for fold_rows in (classfield.FOLD_ROWS, 3):
        monkeypatch.setattr(classfield, "FOLD_ROWS", fold_rows)
        with pytest.raises(InternalInconsistency, match=message):
            list(local_degrees(CTX3, pieces, rows))


def test_local_degree_duplicate_conductor_after_full_row(monkeypatch):
    # both copies of 19 come after 19 is full under piece 7
    assert_folds_refuse(monkeypatch, [7, 19, 19], 19)


def test_local_degree_conductor_above_l(monkeypatch):
    # 3 is ramified in the seed, and again in a piece of conductor 3
    assert_folds_refuse(monkeypatch, [7, 3], 3)


def order9_image(ctx, eps, q):
    # an element of order 9 at eps, whose norm S makes 1 mod 9 for
    # K(-23), l = 3 and t = 1: an order beyond l^r = 3 for r = 1
    fld = local_field(ctx.field, eps)
    for cand in field_elements(fld):
        y = fld.pow(cand, (eps.norm - 1) // 9)
        if fld.pow(y, 3) != fld.one:
            return y


def patch_order9_images(monkeypatch, reference=False):
    # order9_image at every candidate of the K(-23), l = 3 search, split
    # or inert, through classfield.conductor_image; with reference, at
    # the oracle's object route too
    def image9(p, b, e, gamma, fld):
        return order9_image(CTX23, classfield._candidate(p, b), gamma)

    monkeypatch.setattr(classfield, "conductor_image", image9)
    if reference:
        monkeypatch.setattr(oracles, "generator_image", order9_image)


def test_frobenius_image_escaping_the_piece_is_caught(monkeypatch, tmp_path, capsys):
    (eps,) = s_members(CTX23, 1)
    q = next(
        w for w in enumerate_field_primes(K23, 100) if w != eps and local_degree(CTX23, [], w)[2] == 1
    )
    cert = tmp_path / "k23.json"
    args = ["--field", "disc=-23", "--n", "3", "--bound", "80", "--out", str(cert)]
    assert run(["construct", *args]) == 0
    assert json.loads(cert.read_text())["pieces"]
    patch_order9_images(monkeypatch)
    with pytest.raises(InternalInconsistency, match="escapes the piece"):
        local_degree(CTX23, [eps], q)
    capsys.readouterr()
    assert run(["verify", str(cert)]) == 4
    assert "internal inconsistency: Frobenius image escapes the piece" in capsys.readouterr().err


# ---------------------------------------------------------- enumeration


def test_enumerate_field_primes_rational():
    assert [P.p for P in enumerate_field_primes(RATIONAL, 10)] == [2, 3, 5, 7]


def test_enumerate_field_primes_quad():
    got = [(P.p, P.kind, P.b) for P in enumerate_field_primes(K23, 13)]
    assert got == [
        (2, "split", 1),
        (2, "split", 3),
        (3, "split", 1),
        (3, "split", 5),
        (13, "split", 9),
        (13, "split", 17),
    ]
    got8 = [(P.p, P.kind, P.b) for P in enumerate_field_primes(K8, 9)]
    assert got8 == [(2, "ramified", 0), (3, "split", 2), (3, "split", 4)]


def test_enumerate_field_primes_matches_integer_walk():
    # oracle: walk every integer n <= B and collect the primes of norm n
    for d in (-3, -4, -7, -8, -15, -23, -56, -84):
        field = quadratic_field(d)
        for bound in (2, 4, 9, 49, 121, 1000):
            expect = []
            for n in range(2, bound + 1):
                if is_prime(n):
                    expect += [P for P in factor_rational_prime(field, n) if P.f == 1]
                elif isqrt(n) ** 2 == n and is_prime(isqrt(n)):
                    if kronecker_disc(d, isqrt(n)) == -1:
                        expect += factor_rational_prime(field, isqrt(n))
            assert enumerate_field_primes(field, bound) == expect, (d, bound)


def test_enumerate_field_primes_norm_sorted():
    for field in (K23, K8, K4):
        norms = [P.norm for P in enumerate_field_primes(field, 120)]
        assert norms == sorted(norms)
        assert all(n <= 120 for n in norms)
