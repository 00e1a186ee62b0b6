import random
from bisect import bisect_left
from math import isqrt

import pytest

from constdeg.arith import (
    FOUR_WITNESS_LIMIT,
    ell_root,
    factor,
    is_prime,
    legendre,
    order_exponent,
    power_residue_level,
    residue_field,
    small_primes,
)
from oracles import (
    field_elements,
    field_inv,
    field_root,
    least_nonresidue,
    multiplicative_order,
)

# ---------------------------------------------------------------- oracles


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_pow(x, e, field):
    # repeated multiplication, no squaring tricks
    r = field.one
    for _ in range(e):
        r = field.mul(r, x)
    return r


def poly_mul_mod(x, y, n0, p):
    # (a + b*w)(c + d*w) with w^2 = n0, as naive polynomial arithmetic
    a, b = x
    c, d = y
    return ((a * c + b * d * n0) % p, (a * d + b * c) % p)


def brute_level(x, ell, k_max, field):
    # largest k <= k_max such that x has an ell^k-th root, by exhaustion
    best = 0
    for k in range(1, k_max + 1):
        e = ell**k
        if any(field.pow(y, e) == x for y in all_units(field)):
            best = k
    return best


def all_units(field):
    if field.f == 1:
        return range(1, field.p)
    return [(a, b) for a in range(field.p) for b in range(field.p) if (a, b) != (0, 0)]


def brute_order(x, field):
    y = x
    d = 1
    while y != field.one:
        y = field.mul(y, x)
        d += 1
    return d


# ---------------------------------------------------------------- is_prime


def test_is_prime_small_range_against_trial_division():
    for n in range(2, 2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)  # Mersenne


def window_primes(lo, hi):
    # trial division of lo..hi by every prime up to sqrt(hi), run as a
    # sieve over the window
    composite = bytearray(hi - lo + 1)
    for p in small_primes(isqrt(hi) + 1):
        start = max(p * p, -(-lo // p) * p)
        composite[start - lo :: p] = b"\x01" * len(range(start, hi + 1, p))
    return {lo + i for i, c in enumerate(composite) if not c}


def strong_probable_prime(m, a):
    # one Miller-Rabin round, m odd
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def test_is_prime_witness_tier_boundary():
    # 3215031751 = 151 * 751 * 28351 passes the witnesses 2, 3, 5, 7, so
    # it and everything above needs the full set
    assert FOUR_WITNESS_LIMIT == 3215031751 == 151 * 751 * 28351
    assert all(strong_probable_prime(FOUR_WITNESS_LIMIT, a) for a in (2, 3, 5, 7))
    assert not strong_probable_prime(FOUR_WITNESS_LIMIT, 11)
    assert not is_prime(FOUR_WITNESS_LIMIT)
    lo, hi = FOUR_WITNESS_LIMIT - 3000, FOUR_WITNESS_LIMIT + 3000
    primes = window_primes(lo, hi)
    assert 200 < len(primes) < 400
    assert {m for m in range(lo, hi + 1) if is_prime(m)} == primes


@pytest.mark.parametrize(
    "m",
    # the least strong pseudoprimes to the first 5, 6, 7 and 9 primes
    [2152302898747, 3474749660383, 341550071728321, 3825123056546413051],
)
def test_is_prime_rejects_strong_pseudoprimes(m):
    assert m > FOUR_WITNESS_LIMIT
    assert not is_prime(m)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(1)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_is_prime_random_semiprimes():
    rng = random.Random(7)
    ps = [p for p in small_primes() if p > 1000]
    for _ in range(50):
        a, b = rng.choice(ps), rng.choice(ps)
        assert not is_prime(a * b)


def reference_sieve(limit):
    # the primes below limit, striking a list of flags one multiple at a time
    flags = [True] * limit
    for i in range(2, limit):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return tuple(i for i in range(2, limit) if flags[i])


def test_small_primes_is_a_plain_sieve():
    # every limit up to 3000, and 100001, the scan of quadfield._class_prime
    ref = reference_sieve(100001)
    for limit in [*range(3001), 100001]:
        assert small_primes.__wrapped__(limit) == ref[: bisect_left(ref, limit)], limit


# ---------------------------------------------------------------- factor


def test_factor_examples():
    assert factor(1) == []
    assert factor(12) == [(2, 2), (3, 1)]
    assert factor(2003 * 2011) == [(2003, 1), (2011, 1)]


def test_factor_reconstruction_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 10**9)
        fac = facts = factor(n)
        prod = 1
        for p, e in facts:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_factor_large_semiprime_rho_path():
    p, q = 1000003, 1000033
    assert factor(p * q) == [(p, 1), (q, 1)]


# ---------------------------------------------------------------- fields


def test_mod_pow_examples():
    f7 = residue_field(7)
    assert f7.pow(2, 0) == 1
    assert f7.pow(2, 2) == 4
    assert f7.pow(2, (7 - 1) // 3) == 4


def test_mod_pow_matches_naive_f1():
    rng = random.Random(3)
    fld = residue_field(101)
    for _ in range(30):
        x = rng.randrange(1, 101)
        e = rng.randrange(0, 40)
        assert fld.pow(x, e) == naive_pow(x, e, fld)


def test_f_p2_matches_naive_polynomial_arithmetic():
    rng = random.Random(5)
    fld = residue_field(13, least_nonresidue(13))
    for _ in range(60):
        x = (rng.randrange(13), rng.randrange(13))
        y = (rng.randrange(13), rng.randrange(13))
        assert fld.mul(x, y) == poly_mul_mod(x, y, fld.n0, 13)


def test_f_p2_nonresidue_datum():
    assert least_nonresidue(13) == 2  # least positive non-residue mod 13
    fld = residue_field(13, least_nonresidue(13))
    assert fld.n0 == 2
    assert pow(fld.n0, 6, 13) == 12


def test_fermat_lagrange_random_samples():
    rng = random.Random(9)
    for fld in (residue_field(97), residue_field(11, least_nonresidue(11))):
        for _ in range(25):
            if fld.f == 1:
                x = rng.randrange(1, fld.p)
            else:
                x = (rng.randrange(fld.p), rng.randrange(1, fld.p))
            assert fld.pow(x, fld.q - 1) == fld.one


def test_field_inverse():
    fld = residue_field(11, least_nonresidue(11))
    for x in [(3, 4), (0, 1), (10, 7)]:
        assert fld.mul(x, field_inv(fld, x)) == fld.one
    assert field_inv(residue_field(97), 5) == pow(5, -1, 97)


# ------------------------------------------------- power_residue_level


def test_power_residue_level_examples():
    f7 = residue_field(7)
    assert power_residue_level(1, 3, 1, f7) == 1
    assert power_residue_level(2, 3, 1, f7) == 0
    assert power_residue_level(6, 3, 1, f7) == 1  # 6 = 3^3 mod 7


def test_power_residue_level_requires_divisibility():
    with pytest.raises(ValueError):
        power_residue_level(2, 3, 2, residue_field(7))  # 9 does not divide 6


def test_power_residue_level_brute_force_f1():
    fld = residue_field(73)  # 72 = 8 * 9
    for x in range(1, 73):
        for ell, km in ((2, 3), (3, 2)):
            k = power_residue_level(x, ell, km, fld)
            assert k == brute_level(x, ell, km, fld), (x, ell)


def test_power_residue_level_brute_force_f2():
    fld = residue_field(5, least_nonresidue(5))  # q - 1 = 24
    units = list(all_units(fld))
    for x in units[::5]:
        k = power_residue_level(x, 2, 3, fld)
        assert k == brute_level(x, 2, 3, fld), x


def test_power_residue_level_definition_both_sides():
    fld = residue_field(109)  # 108 = 4 * 27
    rng = random.Random(13)
    for _ in range(40):
        x = rng.randrange(1, 109)
        k = power_residue_level(x, 3, 3, fld)
        assert fld.pow(x, 108 // 3**k) == 1
        assert k == 3 or fld.pow(x, 108 // 3 ** (k + 1)) != 1


def test_order_exponent_matches_multiplicative_order():
    # x has order ell^j for the returned j <= k_max, and any other order,
    # or a non-unit, gives k_max + 1, in F_p and in F_{p^2}
    for fld, ell, k_max in (
        (residue_field(73), 2, 2),
        (residue_field(73), 3, 1),
        (residue_field(5, least_nonresidue(5)), 2, 2),
        (residue_field(7, least_nonresidue(7)), 2, 4),
    ):
        zero = (0, 0) if fld.f == 2 else 0
        assert order_exponent(fld.one, ell, k_max, fld) == 0
        assert order_exponent(zero, ell, k_max, fld) == k_max + 1
        for x in field_elements(fld):
            order = multiplicative_order(x, fld)
            want = next((j for j in range(k_max + 1) if ell**j == order), k_max + 1)
            assert order_exponent(x, ell, k_max, fld) == want, (fld, x)


def test_power_residue_level_rejects_a_non_unit():
    with pytest.raises(ValueError, match="not a unit"):
        power_residue_level(0, 3, 1, residue_field(7))


# ----------------------------------------------------------- ell_root


ODD_PRIMES = small_primes(200)[1:]


def ell_powers(ell, p):
    return {pow(y, ell, p) for y in range(1, p)}


def root(x, ell, p):
    """ell_root at ell = 2, the one root the package takes; the oracle's
    descent, its reference, at an odd ell."""
    if ell == 2:
        return ell_root(x, p)
    return field_root(x % p, ell, residue_field(p))


def test_ell_root_examples():
    y = root(1, 3, 7)
    assert pow(y, 3, 7) == 1
    assert ell_root(2, 7) in (3, 4)
    assert ell_root(9, 7) in (3, 4)  # x is taken mod p
    assert root(6, 3, 7) in (3, 5, 6)
    with pytest.raises(ValueError):
        ell_root(5, 7)


def test_ell_root_rejects_nonpower():
    with pytest.raises(ValueError):
        ell_root(3, 17)  # 3 is not a QR mod 17
    with pytest.raises(ValueError):
        ell_root(0, 17)  # 0 is no power of a unit
    for p in ODD_PRIMES:
        for ell in (2, 3, 5):
            if (p - 1) % ell == 0:
                powers = ell_powers(ell, p)
                for x in range(1, p):
                    if x not in powers:
                        with pytest.raises(ValueError):
                            root(x, ell, p)


def test_ell_root_rejects_zero_at_every_odd_prime():
    # at p = 3 mod 4, x^((p+1)/4) = 0 squares back to x = 0
    for p in ODD_PRIMES:
        with pytest.raises(ValueError, match="unit"):
            ell_root(0, p)
        with pytest.raises(ValueError, match="unit"):
            ell_root(p, p)


def test_ell_root_inverts_powering_exhaustive():
    for p in ODD_PRIMES:
        for ell in (2, 3, 5):
            for x in ell_powers(ell, p):
                y = root(x, ell, p)
                assert 0 <= y < p and pow(y, ell, p) == x, (x, ell, p)


def test_ell_root_deep_sylow():
    # p - 1 = ell^v * m: the descent runs up to v - 1 steps; g generates
    # F_p^*, so the x = g^(ell*k) have every ell-power order
    for p, ell, v in [(257, 2, 8), (65537, 2, 16), (40961, 2, 13), (1459, 3, 6), (37501, 5, 5)]:
        assert (p - 1) % ell**v == 0 and (p - 1) // ell**v % ell
        g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q, _ in factor(p - 1)))
        for k in range(0, p - 1, max(1, (p - 1) // 3000)):
            x = pow(g, ell * k, p)
            assert pow(root(x, ell, p), ell, p) == x
            with pytest.raises(ValueError):
                root(x * g % p, ell, p)


def test_ell_root_deterministic():
    squares = sorted(ell_powers(2, 65537))[::97]
    first = [ell_root(x, 65537) for x in squares]
    for p in ODD_PRIMES:  # other moduli in between change nothing
        ell_root(1, p)
    assert [ell_root(x, 65537) for x in reversed(squares)] == first[::-1]


def test_ell_root_nonresidue_is_the_least():
    # at p = 1 mod 8 the descent's non-residue is the least odd z whose
    # Euler symbol of p mod z is -1; that z is prime and, by reciprocity,
    # the least non-residue mod p
    checked = 0
    for p in small_primes(100000):
        if p % 8 == 1:
            z = next(z for z in range(3, p, 2) if pow(p % z, z // 2, z) == z - 1)
            assert z == least_nonresidue(p), p
            checked += 1
    assert checked > 2000


@pytest.mark.parametrize("p,f", [(7, 1), (73, 1), (5, 2), (7, 2), (11, 2)])
def test_field_root_over_f_p_and_f_p2(p, f):
    # the test oracle's root, which alpha_roots takes over F_{p^2} too
    fld = residue_field(p, least_nonresidue(p) if f == 2 else None)
    units = [fld.one, *field_elements(fld)]
    for ell in (2, 3):
        powers = {fld.pow(y, ell) for y in units}
        for x in units:
            if x in powers:
                assert fld.pow(field_root(x, ell, fld), ell) == x
            elif (fld.q - 1) % ell == 0:
                with pytest.raises(ValueError):
                    field_root(x, ell, fld)


# ------------------------------------------------ multiplicative_order


def test_multiplicative_order_examples():
    f7 = residue_field(7)
    assert multiplicative_order(1, f7) == 1
    assert multiplicative_order(2, f7) == 3
    assert multiplicative_order(3, f7) == 6


def test_multiplicative_order_brute_force():
    fld = residue_field(61)
    for x in range(1, 61):
        d = multiplicative_order(x, fld)
        assert d == brute_order(x, fld)
        assert (fld.q - 1) % d == 0
        for p, _ in factor(d):
            assert fld.pow(x, d // p) != fld.one


def test_multiplicative_order_f2():
    fld = residue_field(5, least_nonresidue(5))
    for x in [(2, 1), (0, 1), (4, 4)]:
        assert multiplicative_order(x, fld) == brute_order(x, fld)


def test_legendre():
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0
    squares = {x * x % 23 for x in range(1, 23)}
    for a in range(1, 23):
        assert legendre(a, 23) == (1 if a in squares else -1)
