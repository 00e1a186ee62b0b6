import random
import time
from itertools import product
from math import isqrt

import pytest

from constdeg import quadfield
from constdeg.arith import (
    SIEVE_PRIMES,
    factor,
    is_prime,
    legendre,
    power_residue_level,
    small_primes,
)
from constdeg.classfield import build_context
from constdeg.quadfield import (
    DISC_LIMIT,
    RATIONAL,
    NotPrincipal,
    class_dlog,
    class_group_l_part,
    compose_forms,
    elt_mul,
    elt_norm,
    enumerate_class_group,
    factor_rational_prime,
    form_disc,
    form_pow,
    ideal_class_form,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    integer_elt,
    kronecker_disc,
    local_field,
    normalize_unit,
    principal_form,
    principal_generator,
    prime_module,
    quadratic_field,
    reduce_form,
    reduce_mod,
    torsion_units,
    unit_generators,
    unit_ideal,
)
from oracles import (
    class_prime_full_scan,
    conjugate_prime,
    split_primes,
    embed,
    greedy_basis,
    ideal_contains,
    ideal_product,
    old_basis,
    old_reduce_mod,
    pair,
    primes_above,
    principal_ideal,
    roots_by_scan,
    reduced_forms_by_a,
    sylow_forms,
    to_old_basis,
)

K23 = quadratic_field(-23)


def fundamental_discs(limit):
    out = []
    for d in range(-3, -limit - 1, -1):
        try:
            quadratic_field(d)
        except ValueError:
            continue
        out.append(d)
    return out


def generator_by_scan(field, ideal):
    # oracle: solve x^2 - D y^2 = 4 N(ideal) by brute scan, then filter
    # by membership; independent of the reduction-based implementation
    n = ideal_norm(ideal)
    d = field.disc
    sols = []
    y = 0
    while -d * y * y <= 4 * n:
        rest = 4 * n + d * y * y
        x = isqrt(rest)
        if x * x == rest:
            for u in {(x, y), (-x, y), (x, -y), (-x, -y)}:
                if (u[0] - u[1] * d) % 2 == 0 and ideal_contains(ideal, u):
                    sols.append(u)
        y += 1
    return sols


# ----------------------------------------------------------- field basics


def test_quadratic_field_validation():
    assert quadratic_field(-23) == quadratic_field(-23)
    assert hash(quadratic_field(-23)) == hash(quadratic_field(-23))
    assert quadratic_field(-23) != quadratic_field(-7) != RATIONAL
    assert repr(RATIONAL) == "BaseField(kind='rational', disc=0)"
    assert repr(quadratic_field(-23)) == "BaseField(kind='imag_quadratic', disc=-23)"
    with pytest.raises(AttributeError):
        RATIONAL.disc = -23
    for d in (-3, -4, -8, -23, -47, -56, -136):
        assert quadratic_field(d).disc == d
    for d in (-12, -9, -16, -25, -5, 5, 0):
        with pytest.raises(ValueError):
            quadratic_field(d)


def test_quadratic_field_disc_limit():
    # |D| is checked against DISC_LIMIT before D is factored
    assert quadratic_field(-9999995).disc == -9999995
    with pytest.raises(ValueError, match="exceeds the limit"):
        quadratic_field(-DISC_LIMIT - 3)
    with pytest.raises(ValueError, match="exceeds the limit"):
        quadratic_field(-(10**40) - 3)


def test_element_arithmetic():
    one = integer_elt(1)
    w = (1, 1)  # (1 + sqrt(-23))/2, norm 6
    assert elt_norm(K23, w) == 6
    assert elt_mul(K23, w, (1, -1)) == integer_elt(6)  # w times its conjugate
    assert elt_mul(K23, one, w) == w
    w2 = elt_mul(K23, w, w)
    assert w2 == (-11, 1)
    assert elt_mul(K23, w, w2) == elt_mul(K23, w2, w) == (-17, -5)
    assert elt_norm(K23, (-17, -5)) == 6**3
    assert elt_norm(K23, (3, 1)) == 8


def test_unit_generators():
    assert unit_generators(RATIONAL) == [integer_elt(-1)]
    assert unit_generators(K23) == [integer_elt(-1)]
    k4 = quadratic_field(-4)
    i = unit_generators(k4)[0]
    assert i == (0, 1)
    assert elt_mul(k4, i, i) == integer_elt(-1)
    k3 = quadratic_field(-3)
    z = unit_generators(k3)[0]
    z3 = elt_mul(k3, z, elt_mul(k3, z, z))
    assert z3 == integer_elt(-1)
    assert elt_mul(k3, z3, z3) == integer_elt(1)


@pytest.mark.parametrize(
    "field,units",
    [
        (quadratic_field(-3), {(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)}),
        (quadratic_field(-4), {(2, 0), (0, 1), (-2, 0), (0, -1)}),
        (K23, {(2, 0), (-2, 0)}),
        (RATIONAL, {(2, 0), (-2, 0)}),
    ],
    ids=["-3", "-4", "-23", "Q"],
)
def test_torsion_units(field, units):
    # 1, i, -1, -i at D = -4; the six powers of (1 + sqrt(-3))/2 at
    # D = -3; 1 and -1 elsewhere, written out apart from the generator
    got = torsion_units(field)
    assert len(got) == len(units) and set(got) == units
    assert all(elt_norm(field, u) == 1 for u in got)
    assert {elt_mul(field, u, v) for u in got for v in got} == units


# ---------------------------------------------------------------- primes


def objects(field, p):
    """The oracle's PrimeIdeals above p, once factor_rational_prime is
    seen to name them, by the same (p, b) pairs in the same order."""
    primes = primes_above(field, p)
    assert factor_rational_prime(field, p) == [pair(P) for P in primes], (field, p)
    return primes


def test_factor_rational_prime_examples():
    ps = objects(K23, 2)
    assert [P.kind for P in ps] == ["split", "split"]
    assert [P.b for P in ps] == [1, 3]
    (p23,) = objects(K23, 23)
    assert p23.kind == "ramified" and p23.norm == 23
    (p5,) = objects(K23, 5)
    assert p5.kind == "inert" and p5.f == 2 and p5.norm == 25
    (pq,) = objects(RATIONAL, 7)
    assert pq.kind == "rational" and pq.norm == 7


def test_prime_root_convention():
    # the stored b really is a root of x^2 = D mod 4p, with sqrt(D) -> b
    for p in (2, 3, 13, 59, 73, 101):
        for P in objects(K23, p):
            if P.kind == "inert":
                continue
            assert 0 <= P.b < 2 * p
            assert (P.b * P.b + 23) % (4 * p) == 0
            if P.p != 2:
                sqrt_img = reduce_mod(K23, (0, 2), pair(P))  # element sqrt(D)
                assert sqrt_img == P.b % p


def test_ramified_root_matches_full_scan():
    # p | D and p | b^2 - D force p | b, so only b = 0 and b = p are tried
    checked = 0
    for d in fundamental_discs(2999) + [-9999991]:
        field = quadratic_field(d)
        for p, _ in factor(-d):
            (P,) = objects(field, p)
            assert P.kind == "ramified"
            assert [P.b] == roots_by_scan(d, p), (d, p)
            checked += 1
    assert checked > 1000


def test_prime_roots_do_not_depend_on_the_square_root():
    # arith.ell_root may return either square root of D mod p; the split
    # primes' roots b must not show which.  The inert residue field is
    # F_p(sqrt(D)), where sqrt(D) is (0, 1) and no root is taken
    checked = 0
    for d in (-3, -4, -7, -8, -15, -23, -56, -84, -3299):
        field = quadratic_field(d)
        for p in small_primes(400)[1:]:
            if d % p == 0:
                continue
            primes = objects(field, p)
            if primes[0].kind == "split":
                assert [P.b for P in primes] == roots_by_scan(d, p), (d, p)
            else:
                assert reduce_mod(field, (0, 2), pair(primes[0])) == (0, 1), (d, p)
            checked += 1
    assert checked > 600


def test_split_roots_at_search_scale():
    # the first 20 primes p = 1 mod 2^k above 10^6, k = 4..16, whose
    # 2-Sylow subgroups have order 2^k or more; roots_by_scan stops at 400
    checked = 0
    for k in range(4, 17):
        primes = []
        p = 10**6 - 10**6 % 2**k + 1
        while len(primes) < 20:
            p += 2**k
            if is_prime(p):
                primes.append(p)
        assert primes[-1] < 10**9
        for d, p in product((-23, -8, -56, -3, -4), primes):
            if kronecker_disc(d, p) != 1:
                with pytest.raises(ValueError):
                    split_primes(d, p)
                continue
            roots = [P.b for P in split_primes(d, p)]
            assert len(roots) == 2 and roots[0] < roots[1] < 2 * p, (d, p)
            for b in roots:
                assert (b - d) % 2 == 0 and (b * b - d) % (4 * p) == 0, (d, p)
            checked += 1
    assert checked > 500


def test_ramified_root_is_constant_time():
    field = quadratic_field(-9999991)
    start = time.perf_counter()
    (w,) = factor_rational_prime(field, 9999991)
    assert time.perf_counter() - start < 0.05
    # one prime with a root: ramified, as 9999991 divides D
    assert w == (9999991, 9999991)


def test_split_primes_multiply_to_p():
    for p in (2, 13, 59, 73):
        P, Q = objects(K23, p)
        assert conjugate_prime(P) == Q
        prod = ideal_mul(K23, prime_module(K23, pair(P)), prime_module(K23, pair(Q)))
        assert prod == (p, 1, 1)
        assert ideal_norm(prod) == p * p


def test_kronecker_disc():
    assert kronecker_disc(-23, 2) == 1  # -23 = 1 mod 8
    assert kronecker_disc(-23, 5) == -1
    assert kronecker_disc(-23, 23) == 0
    assert kronecker_disc(-4, 2) == 0
    assert kronecker_disc(-8, 3) == 1  # -8 = 1 mod 3
    assert kronecker_disc(-3, 2) == -1  # -3 = 5 mod 8


# ---------------------------------------------------------------- ideals


def test_ideal_norm_and_conj():
    P = prime_module(K23, factor_rational_prime(K23, 2)[0])
    assert ideal_norm(P) == 2
    Pbar = prime_module(K23, pair(conjugate_prime(objects(K23, 2)[0])))
    assert ideal_norm(Pbar) == 2 and Pbar != P
    assert ideal_mul(K23, P, Pbar) == principal_ideal(K23, integer_elt(2))
    I2 = ideal_pow(K23, P, 2)
    assert ideal_norm(I2) == 4


def test_ideal_mul_against_principal_elements():
    rng = random.Random(17)
    for d in (-3, -4, -8, -56, -23, -4000003):
        field = quadratic_field(d)
        for _ in range(25):
            u = (rng.randrange(-9, 10), rng.randrange(-9, 10))
            v = (rng.randrange(-9, 10), rng.randrange(-9, 10))
            u = u if (u[0] - u[1] * d) % 2 == 0 else (u[0] + 1, u[1])
            v = v if (v[0] - v[1] * d) % 2 == 0 else (v[0] + 1, v[1])
            if elt_norm(field, u) == 0 or elt_norm(field, v) == 0:
                continue
            lhs = ideal_mul(field, principal_ideal(field, u), principal_ideal(field, v))
            rhs = principal_ideal(field, elt_mul(field, u, v))
            assert lhs == rhs, (d, u, v)


def prime_power_modules(field):
    """P^i Pbar^j Q^k R^m with i + j + k + m <= 3, built by the oracle:
    P split, Pbar its conjugate, Q inert and R ramified."""
    d = field.disc
    kinds = {}
    for p in [factor(-d)[0][0], *small_primes(100)]:
        for P in objects(field, p):
            kinds.setdefault(P.kind, P)
    split = kinds["split"]
    gens = [split, conjugate_prime(split), kinds["inert"], kinds["ramified"]]
    mods = []
    for exps in product(range(4), repeat=4):
        if sum(exps) <= 3:
            I = unit_ideal(field)
            for P, k in zip(gens, exps):
                for _ in range(k):
                    I = ideal_product(field, I, prime_module(field, pair(P)))
            mods.append(I)
    return mods


@pytest.mark.parametrize("d", [-3, -4, -8, -56, -23, -4000003])
def test_ideal_mul_against_the_oracle_hnf(d):
    # the closed form against the HNF of the four generator products, on
    # modules with content: P Pbar = (p), Q = (q) and R^2 = (r)
    field = quadratic_field(d)
    mods = prime_power_modules(field)
    contents = set()
    for I in mods:
        for J in mods:
            got = ideal_mul(field, I, J)
            assert got == ideal_product(field, I, J), (I, J)
            contents.add(got[0])
    assert len(contents) > 3


def test_ideal_membership():
    P = (1, 2, 1)
    assert ideal_contains(P, (4, 0))  # the rational 2
    assert ideal_contains(P, (1, 1))
    assert not ideal_contains(P, (3, 1))
    assert ideal_contains((1, 2, 3), (3, 1))


def test_prime_power_towers():
    # P^3 above 2 for D=-23 lands in the module (8, 13); its conjugate in (8, 3)
    P = prime_module(K23, factor_rational_prime(K23, 2)[1])  # root 3, module (2,1)
    assert ideal_pow(K23, P, 3) == (1, 8, 13)
    Q = prime_module(K23, factor_rational_prime(K23, 2)[0])
    assert ideal_pow(K23, Q, 3) == (1, 8, 3)


# ----------------------------------------------------------------- forms


def test_reduce_form_examples():
    assert reduce_form((1, 1, 6)) == (1, 1, 6)
    assert reduce_form((6, 1, 1)) == (1, 1, 6)
    assert reduce_form((3, -1, 2)) == (2, 1, 3)
    assert reduce_form(reduce_form((15, 7, 1))) == reduce_form((15, 7, 1))


def test_reduce_form_preserves_disc_and_is_reduced():
    rng = random.Random(23)
    for _ in range(200):
        a = rng.randrange(1, 40)
        b = rng.randrange(-60, 60)
        c = rng.randrange(1, 40)
        if b * b - 4 * a * c >= 0:
            continue
        f = reduce_form((a, b, c))
        assert form_disc(f) == b * b - 4 * a * c
        ra, rb, rc = f
        assert -ra < rb <= ra <= rc
        assert rb >= 0 or ra != rc


def test_compose_forms_examples():
    ident = principal_form(-23)
    assert ident == (1, 1, 6)
    assert compose_forms(ident, (2, 1, 3)) == (2, 1, 3)
    assert compose_forms((2, 1, 3), (2, -1, 3)) == (1, 1, 6)
    assert compose_forms((2, 1, 3), (2, 1, 3)) == (2, -1, 3)


def test_enumerate_class_group_examples():
    assert enumerate_class_group(quadratic_field(-4)) == ([(1, 0, 1)], 1)
    forms, h = enumerate_class_group(K23)
    assert h == 3
    assert set(forms) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert enumerate_class_group(quadratic_field(-47))[1] == 5
    assert enumerate_class_group(RATIONAL) == ([], 1)


def test_enumerate_class_group_matches_the_scan_over_a():
    # same forms in the same order as trying every b in (-a, a]; the
    # large disc has four forms with b = a, such as (7, 7, 142859)
    for d in fundamental_discs(2999) + [-4000003]:
        field = quadratic_field(d)
        assert enumerate_class_group(field) == reduced_forms_by_a(field), d


def test_group_law_exhaustive_small_discs():
    # identity, inverses, associativity, closure for every fundamental
    # discriminant down to -200
    for d in fundamental_discs(200):
        field = quadratic_field(d)
        forms, h = enumerate_class_group(field)
        ident = principal_form(d)
        assert ident in forms
        for f in forms:
            assert compose_forms(ident, f) == f
            inv = reduce_form((f[0], -f[1], f[2]))
            assert inv in forms
            assert compose_forms(f, inv) == ident
        for f in forms:
            for g in forms:
                fg = compose_forms(f, g)
                assert fg in forms
                assert fg == compose_forms(g, f)
        rng = random.Random(d)
        for _ in range(min(60, h * h)):
            f, g, k = (rng.choice(forms) for _ in range(3))
            assert compose_forms(compose_forms(f, g), k) == compose_forms(
                f, compose_forms(g, k)
            )


def test_form_map_transports_ideal_multiplication():
    rng = random.Random(31)
    primes = [
        pair(P)
        for p in (2, 3, 13, 29, 31, 41, 59)
        for P in objects(K23, p)
        if P.kind == "split"
    ]
    for _ in range(40):
        P, Q = rng.choice(primes), rng.choice(primes)
        I, J = prime_module(K23, P), prime_module(K23, Q)
        lhs = ideal_class_form(K23, ideal_mul(K23, I, J))
        rhs = compose_forms(ideal_class_form(K23, I), ideal_class_form(K23, J))
        assert lhs == rhs


@pytest.mark.parametrize("d", [-3299, -5460, -39995])
def test_compose_forms_is_the_class_of_the_module_product(d):
    # every pair of reduced forms: h = 27 (cyclic), 16 (2-rank 4) and 64;
    # the form (a, b, c) is the class of the module [a, (-b + sqrt D)/2]
    field = quadratic_field(d)
    forms, _ = enumerate_class_group(field)
    mods = [(1, a, -b % (2 * a)) for a, b, _ in forms]
    for f, I in zip(forms, mods):
        assert ideal_class_form(field, I) == f
        for g, J in zip(forms, mods):
            assert compose_forms(f, g) == ideal_class_form(field, ideal_mul(field, I, J)), (f, g)


def test_compose_refuses_a_module_of_another_discriminant():
    # [5, (1 + sqrt -23)/2] is not a module of disc -23, since 20 does not
    # divide 1 + 23: the closed form's congruence check catches it
    assert quadfield._compose(2, 1, 3, 1, -23) == (1, 6, 1)
    with pytest.raises(AssertionError):
        quadfield._compose(2, 1, 5, 1, -23)


def test_form_pow_order():
    g = (2, 1, 3)
    assert form_pow(g, 0) == (1, 1, 6)
    assert form_pow(g, 3) == (1, 1, 6)
    assert form_pow(g, 2) == compose_forms(g, g)


@pytest.mark.parametrize("e", range(12))
def test_pow_is_repeated_product_without_a_spare_square(monkeypatch, e):
    # square-and-multiply stops after the top bit: bit_length - 1
    # squarings and one product per set bit, the first one into the unit
    P = prime_module(K23, factor_rational_prime(K23, 13)[0])
    f = ideal_class_form(K23, P)
    ideal, form = unit_ideal(K23), principal_form(K23.disc)
    for _ in range(e):
        ideal, form = ideal_mul(K23, ideal, P), compose_forms(form, f)
    assert ideal_pow(K23, P, e) == ideal and form_pow(f, e) == form
    want = max(e.bit_length() - 1, 0) + bin(e).count("1")
    calls = []
    real = quadfield._compose
    monkeypatch.setattr(quadfield, "_compose", lambda *a: calls.append(a) or real(*a))
    ideal_pow(K23, P, e)
    assert len(calls) == want
    calls.clear()
    form_pow(f, e)  # one closed-form product per composition
    assert len(calls) == want


# ----------------------------------------------------------- class group


def test_class_group_l_part_trivial_cases():
    part = class_group_l_part(quadratic_field(-4), 3, {2, 3})
    assert part.exps == () and part.t == 0
    part = class_group_l_part(K23, 2, {2, 23})
    assert part.exps == () and part.t == 0
    part = class_group_l_part(RATIONAL, 5, set())
    assert part.exps == () and part.t == 0


def test_class_group_l_part_d23():
    part = class_group_l_part(K23, 3, {2, 3, 23})
    assert part.exps == (1,)
    assert part.t == 1
    (a1,) = part.gens
    assert a1 == (13, 9) and pair(split_primes(-23, 13)[0]) == a1
    (alpha,) = part.alphas
    assert alpha == (74, 12)
    assert elt_norm(K23, alpha) == 13**3
    cube = ideal_pow(K23, prime_module(K23, a1), 3)
    assert ideal_contains(cube, alpha)
    assert principal_generator(K23, cube) == alpha


def test_class_group_l_part_respects_exclusion():
    part = class_group_l_part(K23, 3, {2, 3, 13, 23})
    assert all(p not in {2, 3, 13, 23} for p, _ in part.gens)
    # basis property still holds: orders multiply to the Sylow order
    assert 3 ** sum(part.exps) == 3


def test_class_group_l_part_rank_two():
    # D=-2379 = -3*13*61 has Cl = Z/2 x Z/2 x ... pick a disc with 3-rank 2:
    # D=-3299 has class group Z/3 x Z/9 (h=27)
    field = quadratic_field(-3299)
    forms, h = enumerate_class_group(field)
    assert h == 27
    part = class_group_l_part(field, 3, {2, 3, 3299})
    assert sorted(part.exps, reverse=True) == list(part.exps)
    assert 3 ** sum(part.exps) == 27
    assert part.exps == (2, 1)
    for P, m, alpha in zip(part.gens, part.exps, part.alphas):
        power = ideal_pow(field, prime_module(field, P), 3**m)
        assert principal_generator(field, power) == alpha
        with pytest.raises(NotPrincipal):
            principal_generator(
                field, ideal_pow(field, prime_module(field, P), 3 ** (m - 1))
            )


@pytest.mark.parametrize("disc,ell", [(-23, 3), (-56, 2), (-3299, 3)])
def test_basis_primes_in_the_sieve_table_need_no_sieve(monkeypatch, disc, ell):
    # every basis class here holds a prime below SIEVE_PRIMES, so
    # _class_primes reads arith.SIEVE_TABLE alone and never sieves to 10^5
    def no_sieve(limit):
        raise AssertionError(f"sieved the primes below {limit}")

    monkeypatch.setattr(quadfield, "small_primes", no_sieve)
    ctx = build_context(quadratic_field(disc), ell, 1)
    assert ctx.cl.gens and all(p < SIEVE_PRIMES for p, _ in ctx.cl.gens)


@pytest.mark.parametrize(
    "disc,ell,found",
    [
        (-23, 3, [13]),
        (-3299, 3, [277, 11]),
        (-1200039, 2, [400313, 11689]),
        (-9999935, 2, [59083, 2002867, 125107]),
    ],
)
def test_class_prime_matches_the_full_scan(monkeypatch, disc, ell, found):
    # one scan for every basis form, SIEVE_TABLE first and one sieve to
    # the cap only for the classes it misses, finds for each form the
    # prime of one full scan: below 2^12, between 2^12 and the cap of 10^5
    # (11689, 59083), and past it (400313, from row 2 of its form,
    # 2002867, 125107), so every basis prime and certificate stays the same
    real, seen, sieved, sieve = quadfield._class_primes, [], [], quadfield.small_primes
    monkeypatch.setattr(quadfield, "small_primes", lambda n: sieved.append(n) or sieve(n))

    def checked(field, forms, exclusion):
        Ps = real(field, forms, exclusion)
        for form, P in zip(forms, Ps, strict=True):
            assert P == class_prime_full_scan(field, form, exclusion), form
        seen.extend(p for p, _ in Ps)
        return Ps

    monkeypatch.setattr(quadfield, "_class_primes", checked)
    build_context(quadratic_field(disc), ell, 1)
    assert seen == found
    assert sieved == ([quadfield._BASIS_PRIME_CAP + 1] if max(found) > SIEVE_PRIMES else [])


def test_class_group_basis_matches_the_greedy_reference():
    # the one walk per element against the loop that measured each
    # candidate's order and its order modulo the span at every step, at
    # every fundamental D in [-6000, -3] whose l-part has two or more
    # basis elements (598 pairs; l = 5 has none in this range)
    start = time.perf_counter()
    checked = {2: 0, 3: 0, 5: 0}
    for d in fundamental_discs(6000):
        field = quadratic_field(d)
        h = enumerate_class_group(field)[1]
        for ell in (2, 3, 5):
            if h % ell**2:
                continue
            basis, exps = greedy_basis(sylow_forms(field, ell), ell)
            if len(basis) < 2:
                continue
            part = class_group_l_part(field, ell, {p for p, _ in factor(-2 * ell * d)})
            assert (basis_forms_of(field, part), part.exps) == (basis, exps), (d, ell)
            checked[ell] += 1
    assert checked == {2: 594, 3: 4, 5: 0}
    assert time.perf_counter() - start < 3.0


def basis_forms_of(field, part):
    # the reduced form of each basis prime's class
    return tuple(ideal_class_form(field, prime_module(field, g)) for g in part.gens)


def brute_dlog_table(part, field, ell):
    # oracle: compose the basis powers for every exponent vector
    ident = principal_form(field.disc)
    vecs = [()]
    for m in part.exps:
        vecs = [v + (k,) for v in vecs for k in range(ell**m)]
    table = {}
    for vec in vecs:
        f = ident
        for g, e in zip(basis_forms_of(field, part), vec):
            f = compose_forms(f, form_pow(g, e))
        assert f not in table, "basis relation found"
        table[f] = vec
    return table


@pytest.mark.parametrize(
    "disc,ell,exps,basis_forms",
    [
        (-420, 2, (1, 1, 1), ((2, 2, 53), (3, 0, 35), (5, 0, 21))),
        (-5460, 2, (1, 1, 1, 1), ((2, 2, 683), (3, 0, 455), (5, 0, 273), (7, 0, 195))),
        (-3299, 3, (2, 1), ((3, -1, 275), (11, -1, 75))),
        (-4027, 3, (1, 1), ((13, -9, 79), (17, -11, 61))),
    ],
)
def test_dlog_table_matches_brute_force(disc, ell, exps, basis_forms):
    # the table the greedy basis loop builds as it spans the l-Sylow
    # subgroup, against one composed vector by vector, at l-rank >= 2
    excluded = {p for p, _ in factor(-2 * ell * disc)}
    field = quadratic_field(disc)
    part = class_group_l_part(field, ell, excluded)
    assert part.exps == exps and basis_forms_of(field, part) == basis_forms
    brute = brute_dlog_table(part, field, ell)
    assert len(brute) == ell ** sum(exps)
    assert {f: part.class_dlogs[f] for f in brute} == brute


def test_class_dlog_examples():
    part = class_group_l_part(K23, 3, {2, 3, 23})
    assert class_dlog(K23, unit_ideal(K23), part) == [0]
    assert class_dlog(K23, principal_ideal(K23, (3, 1)), part) == [0]
    a1 = prime_module(K23, part.gens[0])
    assert class_dlog(K23, a1, part) == [1]
    assert class_dlog(K23, ideal_mul(K23, a1, a1), part) == [2]
    ((p, b),) = part.gens
    conj = prime_module(K23, (p, 2 * p - b))  # the conjugate of a split prime
    assert class_dlog(K23, conj, part) == [2]


def test_class_dlog_strips_l_part():
    # after dividing out a_i^c_i the class has trivial l-part
    field = quadratic_field(-3299)
    part = class_group_l_part(field, 3, {2, 3, 3299})
    rng = random.Random(37)
    split = []
    for p in small_primes(1000)[2:]:
        # primes from 5 on, none dividing D, so the pairs with a root are split
        split += [w for w in factor_rational_prime(field, p) if w[1] is not None]
        if len(split) >= 8:
            break
    for _ in range(15):
        I = prime_module(field, rng.choice(split))
        for _ in range(rng.randrange(2)):
            I = ideal_mul(field, I, prime_module(field, rng.choice(split)))
        c = class_dlog(field, I, part)
        f = ideal_class_form(field, I)
        for g, e, m in zip(basis_forms_of(field, part), c, part.exps):
            assert 0 <= e < 3**m
            f = compose_forms(f, form_pow(g, 3**m - e))
        # a class has trivial l-part iff its order divides coprime_part
        assert form_pow(f, part.coprime_part) == principal_form(field.disc)


@pytest.mark.parametrize(
    "disc,ell",
    [
        (-23, 3),
        (-420, 2),
        (-3299, 3),
        (-4027, 3),
        (-56, 2),
        # m = coprime_part > 1: #Sylow > m splits the group by x^m, and
        # #Sylow < m by x^#Sylow, whose kernel is the Sylow group
        (-87, 2),
        (-87, 3),
        (-231, 2),
        (-231, 3),
        (-4000003, 2),
    ],
)
def test_class_dlogs_match_projection(disc, ell):
    # the table class_dlog reads agrees with projecting each class onto
    # its l-part by the power m * (m^-1 mod #Sylow), m = coprime_part,
    # and composing that l-part from the basis vector by vector
    field = quadratic_field(disc)
    part = class_group_l_part(field, ell, {p for p, _ in factor(-2 * ell * disc)})
    forms, h = enumerate_class_group(field)
    m, sylow = part.coprime_part, ell ** sum(part.exps)
    assert h == m * sylow and set(part.class_dlogs) == set(forms)
    proj = m * pow(m, -1, sylow)
    brute = brute_dlog_table(part, field, ell)
    for f in forms:
        assert part.class_dlogs[f] == brute[form_pow(f, proj)]


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_class_group_split_costs_at_most_three_compositions_per_form(monkeypatch, ell):
    # h(-9999911) = 2 * 2447: the l-part is found by one power of each
    # form to min(#Sylow, m) and one product per form, not by raising
    # every form to m = coprime_part (about 18 compositions each)
    calls = []
    compose = quadfield.compose_forms
    monkeypatch.setattr(quadfield, "compose_forms", lambda f, g: calls.append(1) or compose(f, g))
    ctx = build_context(quadratic_field(-9999911), ell, 1)
    h = 4894
    assert enumerate_class_group(ctx.field)[1] == h
    assert ctx.cl.coprime_part * ell ** sum(ctx.cl.exps) == h
    assert 0 < len(calls) <= 3 * h


# ---------------------------------------------------------- principality


def test_principal_generator_examples():
    assert principal_generator(K23, unit_ideal(K23)) == (2, 0)
    P2 = [prime_module(K23, P) for P in factor_rational_prime(K23, 2)]
    gens = {principal_generator(K23, ideal_pow(K23, I, 3)) for I in P2}
    assert gens == {(3, 1), (-3, 1)}
    for g in gens:
        assert elt_norm(K23, g) == 8
    with pytest.raises(NotPrincipal):
        principal_generator(K23, P2[0])


def test_principal_generator_matches_scan_oracle():
    rng = random.Random(41)
    primes = [
        pair(P)
        for p in (2, 3, 13, 29, 31, 41)
        for P in objects(K23, p)
        if P.kind == "split"
    ]
    for _ in range(30):
        I = prime_module(K23, rng.choice(primes))
        for _ in range(rng.randrange(3)):
            I = ideal_mul(K23, I, prime_module(K23, rng.choice(primes)))
        sols = generator_by_scan(K23, I)
        try:
            g = principal_generator(K23, I)
        except NotPrincipal:
            assert sols == []
            continue
        assert g in sols
        assert elt_norm(K23, g) == ideal_norm(I)
        assert g == normalize_unit(K23, g)
        assert principal_ideal(K23, g) == I


def test_principal_generator_content():
    I = principal_ideal(K23, integer_elt(6))
    assert I == (6, 1, 1)
    assert principal_generator(K23, I) == integer_elt(6)


def test_principal_generator_units_fields():
    k4 = quadratic_field(-4)
    (P,) = objects(k4, 2)
    assert P.kind == "ramified"
    g = principal_generator(k4, prime_module(k4, pair(P)))
    assert elt_norm(k4, g) == 2
    k3 = quadratic_field(-3)
    (P3,) = factor_rational_prime(k3, 3)
    g3 = principal_generator(k3, prime_module(k3, P3))
    assert elt_norm(k3, g3) == 3


def test_normalize_unit():
    assert normalize_unit(K23, (-3, -1)) == (3, 1)
    assert normalize_unit(K23, (-4, 0)) == (4, 0)
    assert normalize_unit(K23, (3, 1)) == (3, 1)
    k4 = quadratic_field(-4)
    orbit = {normalize_unit(k4, u) for u in [(2, 1), (-2, 1), (2, -1), (-2, -1)]}
    assert len(orbit) == 1


# ------------------------------------------------------------- reduction


def test_reduce_mod_examples():
    assert reduce_mod(K23, integer_elt(1), factor_rational_prime(K23, 13)[0]) == 1
    P73 = [w for w in factor_rational_prime(K23, 73) if w[1] % 73 == 14][0]
    assert P73 == (73, 87)
    assert reduce_mod(K23, (3, 1), P73) == 45
    (P5,) = factor_rational_prime(K23, 5)
    img = reduce_mod(K23, (0, 2), P5)  # sqrt(-23) in F_25
    fld = local_field(K23, P5)
    assert fld.mul(img, img) == embed(fld, -23)


def test_reduce_mod_is_a_ring_hom():
    rng = random.Random(43)
    targets = [
        factor_rational_prime(K23, 13)[1],
        factor_rational_prime(K23, 5)[0],
        factor_rational_prime(K23, 23)[0],
    ]
    for P in targets:
        fld = local_field(K23, P)
        for _ in range(20):
            u = (rng.randrange(-20, 21), rng.randrange(-20, 21))
            v = (rng.randrange(-20, 21), rng.randrange(-20, 21))
            u = u if (u[0] - u[1] * 23) % 2 == 0 else (u[0] + 1, u[1])
            v = v if (v[0] - v[1] * 23) % 2 == 0 else (v[0] + 1, v[1])
            lhs = reduce_mod(K23, elt_mul(K23, u, v), P)
            assert lhs == fld.mul(reduce_mod(K23, u, P), reduce_mod(K23, v, P))


@pytest.mark.parametrize("disc", [-3, -4, -7, -8, -23, -56, -3299, -4000003])
def test_inert_residue_field_is_f_p_of_sqrt_d(disc):
    # at every odd inert P, a + b*sqrt(D) -> a + b*s*w carries reduce_mod's
    # image in F_p(sqrt(D)) to the image in the oracle's F_p(w), w*w the
    # least non-residue, and the two bases give every power-residue level
    field = quadratic_field(disc)
    ctxs = [build_context(field, ell, 1) for ell in (2, 3)]
    rng = random.Random(disc)
    elements = [*ctxs[0].units, *(a for ctx in ctxs for a in ctx.cl.alphas)]
    for _ in range(50):
        y = rng.randrange(-(10**6), 10**6)
        x = rng.randrange(-(10**6), 10**6)
        elements.append((x + (x - y * disc) % 2, y))
    checked = 0
    for p in small_primes(400)[1:]:
        (P, *_) = objects(field, p)
        if P.kind != "inert":
            continue
        P = pair(P)
        new = local_field(field, P)
        assert legendre(new.n0, p) == -1, (disc, p)
        old, s = old_basis(disc, p)
        for x in elements:
            img, want = reduce_mod(field, x, P), old_reduce_mod(x, p, s)
            assert to_old_basis(img, p, s) == want, (disc, p, x)
            if img == (0, 0):
                continue
            for ell in (2, 3):
                for k in range(1, 64):
                    if (p * p - 1) % ell**k:
                        break
                    got = power_residue_level(img, ell, k, new)
                    assert got == power_residue_level(want, ell, k, old), (disc, p, x, ell, k)
        checked += 1
    assert checked > 30


def test_reduce_mod_kills_the_prime():
    # elements of P reduce to 0, elements of the conjugate do not (split case)
    P, Q = factor_rational_prime(K23, 13)
    gen = principal_generator(K23, ideal_pow(K23, prime_module(K23, P), 3))
    assert reduce_mod(K23, gen, P) == 0
    assert reduce_mod(K23, gen, Q) != 0


def test_reduce_mod_rejects_p2():
    with pytest.raises(ValueError):
        reduce_mod(K23, (3, 1), factor_rational_prime(K23, 2)[0])


def test_reduce_mod_rational():
    (P,) = factor_rational_prime(RATIONAL, 7)
    assert reduce_mod(RATIONAL, integer_elt(10), P) == 3
