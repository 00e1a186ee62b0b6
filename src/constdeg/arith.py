"""Exact arithmetic in F_p and F_{p^2}, primality, factoring, power residues.

Elements of F_p are ints in [0, p); elements of F_{p^2} are pairs (a, b)
standing for a + b*w where w*w = n0, a non-residue mod p that the caller
names (quadfield names D mod p, so that w = sqrt(D)).  Roots are taken
over F_p only, on plain ints (ell_root).  All functions are deterministic.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

# Jaeschke / Sorenson-Webster witness set, complete below 3.3 * 10^24,
# comfortably covering the 64-bit input range we promise.
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke,
# Math. Comp. 61, 1993): below it those four witnesses decide
FOUR_WITNESS_LIMIT = 3215031751
PRIME_LIMIT = 1 << 64  # is_prime answers for 2 <= m < PRIME_LIMIT

_RHO_SEED = 0x5eed


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


@lru_cache(maxsize=8)
def small_primes(limit: int = 100000) -> tuple:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return tuple(i for i in range(limit) if sieve[i])


def _brent_rho(n: int, rng: random.Random) -> int:
    # n odd composite, no factor below the trial bound
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
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

    Trial division below min(10^5, sqrt(m) + 1), then Brent's rho with a
    fixed seed so that repeated runs factor identically.
    """
    if m < 1:
        raise ValueError(f"factor input must be positive: {m}")
    out = {}
    for p in small_primes(min(100000, math.isqrt(m) + 1)):
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        rng = random.Random(_RHO_SEED)
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                out[v] = out.get(v, 0) + 1
                continue
            d = _brent_rho(v, rng)
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
    a non-residue mod p that the caller names (f=2, pair elements)."""

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


@lru_cache(maxsize=4096)
def residue_field(p: int, n0: int | None = None) -> ResidueField:
    return ResidueField(p, n0)


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


def ell_root(x: int, ell: int, p: int) -> int:
    """One y in [0, p) with y^ell = x mod the odd prime p, for a prime
    ell, by Tonelli-Shanks in the ell-Sylow subgroup (Cohen, GTM 138,
    Alg. 1.5.1).

    Deterministic, but callers must not depend on which root comes back.
    Raises ValueError when ell divides p - 1 and x is not the ell-th
    power of a unit mod p.
    """
    x %= p
    q = p - 1
    if q % ell:
        return pow(x, pow(ell, -1, q), p)
    v, m = 0, q
    while m % ell == 0:
        m //= ell
        v += 1
    # y = x^e with ell*e = 1 mod m, so y^ell = x*t with t = x^(ell*e - 1)
    # in the Sylow subgroup of order ell^v; each step below kills the
    # top ell-adic digit of t, keeping y^ell = x*t, until t = 1
    e = pow(ell, -1, m) if m > 1 else 1
    h = pow(x, e - 1, p)
    y = h * x % p
    t = pow(y, ell - 1, p) * h % p
    g = None
    while t != 1:
        # s = t^(ell^(i-1)) != 1 = s^ell for the least such i; on the first
        # pass i < v iff x is an ell-th power, and each pass lowers i
        s, i = t, 1
        while i < v and (w := pow(s, ell, p)) != 1:
            s, i = w, i + 1
        if i == v:
            raise ValueError("not an ell-th power mod p")
        if g is None:
            # g = z^m generates the Sylow subgroup for the least non-power
            # z, and g^(ell^(v-1)) = z^(q/ell) is a primitive ell-th root of
            # unity zeta; s = t^(ell^(i-1)) is zeta^d for one digit d
            z = 2
            while (zeta := pow(z, q // ell, p)) == 1:
                z += 1
            g = pow(z, m, p)
            digits = {pow(zeta, d, p): d for d in range(1, ell)}
        # b = g^(ell^(v-i-1)) has b^(ell^i) = zeta, so t*c^ell with c =
        # b^(ell-d) has (t*c^ell)^(ell^(i-1)) = s*zeta^(-d) = 1
        b = pow(g, ell ** (v - i - 1) * (ell - digits[s]), p)
        y = y * b % p
        t = t * pow(b, ell, p) % p
    return y
