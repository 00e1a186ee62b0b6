"""Exact arithmetic in F_p and F_{p^2}, primality, factoring, power residues.

Elements of F_p are ints in [0, p); elements of F_{p^2} are pairs (a, b)
standing for a + b*w where w*w = n0, a non-residue mod p that the caller
names (quadfield names D mod p, so that w = sqrt(D)).  The one root taken
is a square root over F_p, on plain ints (ell_root); the tests keep an
ell-th root descent for any ell as its reference.  All functions are
deterministic, and none keeps state between calls: the one table built
at import, SIEVE_TABLE, is a tuple that no call changes.
"""

import math
from itertools import compress, count

# Jaeschke / Sorenson-Webster witness set, complete below 3.3 * 10^24,
# comfortably covering the 64-bit input range we promise.
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke,
# Math. Comp. 61, 1993): below it those four witnesses decide
FOUR_WITNESS_LIMIT = 3215031751
PRIME_LIMIT = 1 << 64  # is_prime answers for 2 <= m < PRIME_LIMIT
# factor trial-divides, and the conductor search's walk sieves, by the
# primes below this, SIEVE_TABLE (defined after small_primes)
SIEVE_PRIMES = 1 << 12


class SearchExhausted(Exception):
    """A bounded prime search ran out of candidates before finding a match."""


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= m < 2**64, with the witnesses
    2, 3, 5, 7 below FOUR_WITNESS_LIMIT and all of MR_WITNESSES above."""
    if m < 2 or m >= PRIME_LIMIT:
        raise ValueError(f"is_prime input out of range: {m}")
    for p in MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MR_WITNESSES[:4] if m < FOUR_WITNESS_LIMIT else MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def small_primes(limit: int) -> tuple:
    """The primes below limit, ascending, sieved afresh on every call."""
    sieve = bytearray([1]) * limit
    sieve[:2] = bytes(min(limit, 2))
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return tuple(compress(range(limit), sieve))


SIEVE_TABLE = small_primes(SIEVE_PRIMES)  # 564 primes, built at import


def _brent_rho(n: int) -> int:
    # n odd composite, no factor below the trial bound; the walk
    # x -> x^2 + c starts at 2 and takes c = 1, 2, ... until one splits n
    for c in count(1):
        m = 128
        g = r = q = 1
        x = ys = y = 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(m: int) -> list:
    """Prime factorization as a sorted list of (prime, exponent) pairs.

    Trial division by SIEVE_TABLE, the primes below SIEVE_PRIMES, one
    fixed table whatever the size of m, so that factoring sieves
    nothing.  The cofactor goes to is_prime and, if composite,
    to Brent's rho from a fixed start value, so that repeated runs factor
    identically; a cofactor of 2**64 or more raises ValueError, as
    is_prime does.
    """
    if m < 1:
        raise ValueError(f"factor input must be positive: {m}")
    out = {}
    for p in SIEVE_TABLE:
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                out[v] = out.get(v, 0) + 1
                continue
            d = _brent_rho(v)
            stack.append(d)
            stack.append(v // d)
    return sorted(out.items())


def legendre(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def power(x, e: int, mul, one):
    """x^e under the product mul with identity one, by square-and-multiply:
    bit_length - 1 squarings and one product per set bit, the first of
    them into one.  e must be >= 0; a negative e never leaves the loop."""
    r = one
    while e:
        if e & 1:
            r = mul(r, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return r


class ResidueField:
    """F_p (n0 None, f=1, int elements) or F_{p^2} = F_p(w) with w*w = n0,
    a non-residue mod p that the caller names (f=2, pair elements).
    Callers build one where they need it; nothing caches fields."""

    __slots__ = ("p", "f", "q", "n0", "one")

    def __init__(self, p: int, n0: int | None = None):
        self.p = p
        self.f = 1 if n0 is None else 2
        self.q = p**self.f
        self.n0 = n0
        self.one = 1 if n0 is None else (1, 0)

    def __repr__(self):
        return f"F({self.p}^2)" if self.f == 2 else f"F({self.p})"

    def mul(self, x, y):
        if self.f == 1:
            return x * y % self.p
        p = self.p
        a, b = x
        c, d = y
        return ((a * c + b * d * self.n0) % p, (a * d + b * c) % p)

    def pow(self, x, e: int):
        if self.f == 1:
            return pow(x, e, self.p)
        return power(x, e, self.mul, self.one)


def power_residue_level(x, ell: int, k_max: int, field: ResidueField) -> int:
    """Largest k <= k_max with x^((Q-1)/ell^k) = 1.

    Requires ell^k_max | Q - 1. Level k means x is an ell^k-th power.
    """
    e, rem = divmod(field.q - 1, ell**k_max)
    if rem:
        raise ValueError(f"ell^k_max = {ell}^{k_max} does not divide Q - 1")
    j = order_exponent(field.pow(x, e), ell, k_max, field)
    if j > k_max:
        raise ValueError("x is not a unit of the field")
    return k_max - j


def order_exponent(x, ell: int, k_max: int, field: ResidueField) -> int:
    """The least j <= k_max with x^(ell^j) = 1, so that x has order
    ell^j, or k_max + 1 when there is none."""
    one, j = field.one, 0
    while x != one and j <= k_max:
        x, j = field.pow(x, ell), j + 1
    return j


def residue_pattern(Q: int, M: int, full: int) -> bytearray:
    """Over k mod the prime Q, 1 where n = 1 + M*k is a nonzero full-th
    power residue mod Q, as pow(n, (Q - 1)//full, Q) == 1 tests, and 0
    elsewhere; M is prime to Q and full divides Q - 1.  The (Q - 1)/full
    residues are the powers x of h = a^full of order (Q - 1)/full, and x
    sits at k = (x - 1)/M mod Q, so k steps to h*k + (h - 1)/M: one
    product per residue."""
    d = (Q - 1) // full
    qs = [q for q, _ in factor(d)]
    powers = (pow(a, full, Q) for a in range(2, Q))
    h = next(h for h in powers if all(pow(h, d // q, Q) != 1 for q in qs))
    pattern, k, c = bytearray(Q), 0, (h - 1) * pow(M, -1, Q) % Q
    for _ in range(d):
        pattern[k] = 1
        k = (h * k + c) % Q
    return pattern


def ell_root(x: int, p: int) -> int:
    """One y in [0, p) with y^2 = x mod the odd prime p, by
    Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1).  It keeps the name
    ell_root, under which perfbench's tracer and the traced CI step wrap
    it.

    Deterministic, but callers must not depend on which root comes back.
    Raises ValueError when x is not the square of a unit mod p.
    """
    x %= p
    q = p - 1
    if x == 0:
        raise ValueError("0 is no square of a unit mod p")
    # p - 1 = 2^v * m with m odd: y = x^((m+1)/2) has y^2 = x*t, t = x^m
    # of order 2^i dividing 2^v, and x is a square iff i < v.  At p = 3
    # mod 4, v = 1 and y = x^((p+1)/4) is the root iff t = 1
    v = (q & -q).bit_length() - 1
    m = q >> v
    h = pow(x, m >> 1, p)
    y = x * h % p
    t = y * h % p
    if t == 1:
        return y
    # a non-residue z: 2 at p = 5 mod 8, and at p = 1 mod 8 the least odd
    # prime z with p mod z a non-residue mod z, by reciprocity.  No odd
    # composite z passes first: were p mod z a residue mod each prime
    # factor of z but -1 under Euler's criterion mod z, 2^(u+1) would
    # divide each factor minus 1, u = v2(z - 1), and so z - 1.  At p = 3
    # mod 4, where t = -1, the descent raises before it uses z
    z = 2
    if p & 7 == 1:
        z = 3
        while pow(p % z, z >> 1, z) != z - 1:
            z += 2
    c, k = pow(z, m, p), v  # c of order 2^k; t of order 2^i, i < k or x no square
    while t != 1:
        s, i = t * t % p, 1
        while s != 1:
            s, i = s * s % p, i + 1
        if i == k:
            raise ValueError("not a square mod p")
        # b = c^(2^(k-i-1)) has order 2^(i+1), so t*b^2 has order below 2^i
        for _ in range(k - i - 1):
            c = c * c % p
        k, y, c = i, y * c % p, c * c % p
        t = t * c % p
    return y
