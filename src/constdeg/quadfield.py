"""Base-field arithmetic: Q or an imaginary quadratic field K = Q(sqrt(D)).

Conventions, used consistently by every caller:

  * D is a negative fundamental discriminant.
  * Field elements are integer pairs (x, y) meaning (x + y*sqrt(D))/2 with
    x = y*D (mod 2).  Rational integers n are stored as (2n, 0).
  * Ideals are int triples (g, a, b): content g times the primitive module
    with Z-basis [a, (b + sqrt(D))/2], 0 <= b < 2a and 4a | b^2 - D.
  * A prime is the pair (p, b) of ints, as a certificate names it: over
    Q b is None; over K a split or ramified prime P above p has b the
    root of x^2 = D (mod 4p) that its residue map selects, sqrt(D) = +b
    (mod P), so its module uses -b mod 2p, and b is None at an inert p.
  * The residue field at an inert p is F_p(sqrt(D)): D is a
    non-residue mod p, so F_{p^2} is built with w*w = D mod p, and the
    residue map halves both coordinates of (x, y).
"""

from collections import namedtuple
from functools import partial
from itertools import count
from math import isqrt

from .arith import (
    SIEVE_TABLE,
    ResidueField,
    ell_root,
    factor,
    is_prime,
    legendre,
    power,
    small_primes,
)


class NotPrincipal(Exception):
    """The ideal has no single generator."""


# ----------------------------------------------------------------- fields


class BaseField(namedtuple("BaseField", "kind disc", defaults=(0,))):
    """Q, of kind "rational" and disc 0, or K = Q(sqrt(disc)), of kind
    "imag_quadratic"."""

    __slots__ = ()


RATIONAL = BaseField("rational")


def _squarefree(n):
    return all(e == 1 for _, e in factor(n))


# |D| above which a field is refused: building its class group takes
# up to about 0.8 s at this size (the 40 fields nearest it at l = 2, 3, 5;
# Python 3.11, 2-vCPU host), and its cost grows linearly in |D|
DISC_LIMIT = 10**7


def quadratic_field(disc: int) -> BaseField:
    """Validate a fundamental discriminant and wrap it."""
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if -disc > DISC_LIMIT:
        raise ValueError(f"|discriminant| exceeds the limit {DISC_LIMIT}")
    if disc % 4 == 1:
        if not _squarefree(-disc):
            raise ValueError("discriminant is not fundamental")
    elif disc % 4 == 0:
        m = disc // 4
        if m % 4 not in (2, 3) or not _squarefree(-m):
            raise ValueError("discriminant is not fundamental")
    else:
        raise ValueError("discriminant must be 0 or 1 mod 4")
    return BaseField("imag_quadratic", disc)


# ----------------------------------------------------------------- elements


def integer_elt(n: int):
    return (2 * n, 0)


def elt_mul(field, u, v):
    x1, y1 = u
    x2, y2 = v
    d = field.disc
    return ((x1 * x2 + y1 * y2 * d) // 2, (x1 * y2 + x2 * y1) // 2)


def elt_norm(field, u):
    x, y = u
    return (x * x - field.disc * y * y) // 4


def torsion_units(field):
    """All roots of unity, as the powers of the unit generator."""
    (z,) = unit_generators(field)
    units = [integer_elt(1)]
    while (u := elt_mul(field, units[-1], z)) != units[0]:
        units.append(u)
    return units


def unit_generators(field):
    if field.kind == "imag_quadratic" and field.disc == -4:
        return [(0, 1)]
    if field.kind == "imag_quadratic" and field.disc == -3:
        return [(1, 1)]
    return [integer_elt(-1)]


def normalize_unit(field, u):
    # canonical associate: positive imaginary part, then positive real
    # part on the real axis, then smallest pair (relevant for D = -3, -4)
    cands = [elt_mul(field, u, w) for w in torsion_units(field)]
    pool = [c for c in cands if c[1] > 0 or (c[1] == 0 and c[0] > 0)]
    return min(pool or cands)


# ----------------------------------------------------------------- ideals


def unit_ideal(field) -> tuple:
    return (1, 1, field.disc % 2)


def ideal_norm(I) -> int:
    g, a, _ = I
    return g * g * a


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a - (a // b) * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _compose(a1, b1, a2, b2, d):
    # Dirichlet composition of primitive modules of discriminant d:
    # [a1, (b1+sqrt d)/2][a2, (b2+sqrt d)/2] = e[a, (b+sqrt d)/2] with
    # e = gcd(a1, a2, s) = u*a1 + v*a2 + w*s, s = (b1+b2)/2, a = a1*a2/e^2
    # and b = (u*a1*b2 + v*a2*b1 + w*(b1*b2+d)/2)/e mod 2a (Cohen, GTM
    # 138, 5.4); b's congruence is the invariant that catches a wrong term
    s = (b1 + b2) // 2
    g, x, y = _xgcd(a1, a2)
    e, z, w = _xgcd(g, s)  # u = z*x, v = z*y
    a = a1 * a2 // (e * e)
    b = (z * (x * a1 * b2 + y * a2 * b1) + w * ((b1 * b2 + d) // 2)) // e % (2 * a)
    assert (b * b - d) % (4 * a) == 0
    return e, a, b


def ideal_mul(field, I, J) -> tuple:
    (g, a1, b1), (h, a2, b2) = I, J
    e, a, b = _compose(a1, b1, a2, b2, field.disc)
    return (e * g * h, a, b)


def ideal_pow(field, I, e: int) -> tuple:
    return power(I, e, partial(ideal_mul, field), unit_ideal(field))


# ----------------------------------------------------------------- primes


def kronecker_disc(d: int, p: int) -> int:
    """Splitting symbol of the discriminant d at the rational prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 == 1 else -1
    return legendre(d % p, p)


def factor_rational_prime(field, p: int) -> list:
    """The primes above the rational prime p as (p, b) pairs: (p, None)
    over Q and at an inert p, the split_roots, ascending, at a split p,
    and at a p dividing D its one root b: p | D and p | b^2 - D force
    p | b, and 0 and p are the b < 2p it divides."""
    if field.kind == "rational":
        return [(p, None)]
    d = field.disc
    sym = kronecker_disc(d, p)
    if sym == -1:
        return [(p, None)]
    if sym == 0:
        return [next((p, b) for b in (0, p) if (b - d) % 2 == 0 and (b * b - d) % (4 * p) == 0)]
    return [(p, b) for b in split_roots(d, p)]


def split_roots(d: int, p: int) -> tuple:
    """The roots b of the two primes above a rational prime p that splits
    in Q(sqrt d), ascending: sqrt(d) = b mod P, with b = d mod 2 and
    0 <= b < 2p."""
    if p == 2:
        return (1, 3)
    # r and 2p - r are the two roots of d's parity, and 0 < r < 2p
    r = ell_root(d, p)
    if (r - d) & 1:
        r += p
    return (r, 2 * p - r) if r < p else (2 * p - r, r)


def prime_module(field, w) -> tuple:
    """The ideal (g, a, b) of the prime w = (p, b) of K."""
    p, b = w
    if b is None:
        return (p, 1, field.disc % 2)
    return (1, p, -b % (2 * p))


# ----------------------------------------------------------------- forms


def form_disc(f):
    a, b, c = f
    return b * b - 4 * a * c


def principal_form(d: int):
    b = d % 2
    return (1, b, (b * b - d) // 4)


def _reduce(a, b, c):
    # Gauss reduction to -a < b <= a <= c; also returns the first column
    # of the GL2 change of basis that carries the form to the result
    u11, u12, u21, u22 = 1, 0, 0, 1
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            u12 += k * u11
            u22 += k * u21
            c += k * b + a * k * k
            b += 2 * a * k
        if a > c:
            u11, u12, u21, u22 = u12, -u11, u22, -u21
            a, b, c = c, -b, a
            continue
        return (a, b, c), (u11, u21)


def reduce_form(f):
    (a, b, c), _ = _reduce(*f)
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def ideal_class_form(field, I):
    _, a, b = I
    return reduce_form((a, -b, (b * b - field.disc) // (4 * a)))


def compose_forms(f, g):
    # the class-group law: f = (a, b, c) is the class of [a, (-b+sqrt d)/2],
    # and _compose on the (a, b) themselves composes the conjugates
    # [a, (b+sqrt d)/2] into the conjugate [A, (B+sqrt d)/2] of the
    # product, whose form is (A, B, C)
    d = form_disc(f)
    _, a, b = _compose(f[0], f[1], g[0], g[1], d)
    return reduce_form((a, b, (b * b - d) // (4 * a)))


def form_pow(f, e: int):
    return power(f, e, compose_forms, principal_form(form_disc(f)))


def enumerate_class_group(field):
    """All reduced forms of disc D, sorted, and the class number h: each
    divisor a of q = (b^2 - D)/4 with |b| <= a <= q/a (Cohen, GTM 138, 5.3)."""
    if field.kind == "rational":
        return [], 1
    d = field.disc
    forms = []
    for b in range(d % 2, isqrt(-d // 3) + 1, 2):
        q = (b * b - d) // 4
        for a in range(max(b, 1), isqrt(q) + 1):
            if q % a == 0:
                forms.append((a, b, q // a))
                if 0 < b < a < q // a:
                    forms.append((a, -b, q // a))
    forms.sort()
    return forms, len(forms)


# ------------------------------------------------------------ class group


class ClassGroupLPart:
    def __init__(self, gens, exps, alphas, t, class_dlogs, coprime_part):
        self.gens = gens  # basis primes a_i as (p, b) pairs, orders descending
        self.exps = exps  # m_i: a_i has order ell^m_i in the class group
        self.alphas = alphas  # generators of a_i^(ell^m_i)
        self.t = t  # max m_i, 0 when the l-part is trivial
        self.class_dlogs = class_dlogs  # every reduced form -> exponent vector of its l-part
        self.coprime_part = coprime_part  # prime-to-l part of the class number


_BASIS_PRIME_CAP = 100000  # primes scanned, then values tried per row


def _class_primes(field, forms, exclusion) -> list:
    """For each reduced form (a, b, c) of forms, a prime (p, b) outside
    the exclusion set in its class: the least one of norm below the cap,
    or else one above the first prime value a*x^2 + b*x*y + c*y^2 over
    rows y = 1, 2, ..., each taking x = 0, 1, -1, 2, ... for cap values.
    A prime value has gcd(x, y) = 1, as g = gcd(x, y) puts g^2 in the
    value, so a prime above it lies in the class (Cohen, GTM 138, 5.2).

    One ascending scan serves every form: it takes the class form of each
    prime once and gives each wanted form the first prime in its class.
    It reads SIEVE_TABLE first and sieves to the cap at most once, only
    if some class that table misses is still wanted; the row walk then
    runs for each form still without a prime.

    The walk passes over a row whose values are all even: its one
    possible prime value, 2, is below the cap, where the scan tried it.
    The walk has no exit, and it ends in row 1 or 2.  A whole row is even
    only when c and a + b are even; a is then odd, as the form is
    primitive, and row 2 takes only odd values.  No odd p divides every
    value of row 1 or 2, since a quadratic in x with three roots mod p
    has a, b*y and c*y^2 all divisible by p.  So one of the two rows has
    no fixed prime divisor."""

    wanted = set(forms)

    def above(p, classes):
        # (form, w) for each prime w above p whose class is one of classes
        for w in factor_rational_prime(field, p):
            if (form := ideal_class_form(field, prime_module(field, w))) in classes:
                yield form, w

    def scan():
        yield from SIEVE_TABLE
        yield from small_primes(_BASIS_PRIME_CAP + 1)[len(SIEVE_TABLE) :]

    def walk(form):
        a, b, c = form
        for y in count(1):
            if c * y * y % 2 == 0 and (a + b * y + c * y * y) % 2 == 0:
                continue
            for i in range(_BASIS_PRIME_CAP):
                x = (i + 1) // 2 if i % 2 else -(i // 2)
                p = a * x * x + b * x * y + c * y * y
                if p not in exclusion and is_prime(p):
                    for _, w in above(p, {form}):
                        return w

    found = {}
    for p in scan() if wanted else ():
        if p not in exclusion:
            for form, w in above(p, wanted):
                found.setdefault(form, w)
            if len(found) == len(wanted):
                break
    return [found[form] if form in found else walk(form) for form in forms]


def class_group_l_part(field, ell: int, exclusion) -> ClassGroupLPart:
    if field.kind == "rational":
        return ClassGroupLPart((), (), (), 0, {}, 1)
    forms, h = enumerate_class_group(field)
    m_coprime = h
    sylow_order = 1
    while m_coprime % ell == 0:
        m_coprime //= ell
        sylow_order *= ell
    ident = principal_form(field.disc)
    # Cl(K) is the l-Sylow group times the classes of order m_coprime:
    # x -> x^e, e = min(sylow_order, m_coprime), kills one of them and
    # permutes the other, so its kernel and image are the two factors
    e = min(sylow_order, m_coprime)
    powers = [form_pow(f, e) for f in forms]
    kernel = [f for f, x in zip(forms, powers) if x == ident]
    image = sorted(set(powers))
    sylow, coprime = (image, kernel) if e == m_coprime else (kernel, image)
    assert len(sylow) == sylow_order

    # greedy basis of the l-Sylow subgroup: each step takes the smallest
    # g of largest order l^m whose power s(g) = g^(l^(m-1)), of order l,
    # lies outside the span H so far.  That is the smallest element of
    # largest order whose full order survives in the quotient by H, as a
    # power g^(l^j) in H with j < m would put its power s(g) in H.  One
    # walk of each element's l-powers gives m and s(g); the identity is
    # its own s and never leaves H.  table maps H to exponent vectors
    order, socle = {}, {}
    for g in sylow:
        x, m, s = g, 0, g
        while x != ident:
            s, x, m = x, form_pow(x, ell), m + 1
        order[g], socle[g] = m, s
    ranked = sorted(sylow, key=order.get, reverse=True)  # stable
    basis, exps = [], []
    table = {ident: ()}
    while len(table) < sylow_order:
        g = next(g for g in ranked if socle[g] not in table)
        m = order[g]
        basis.append(g)
        exps.append(m)
        old_len, span = len(table), {}
        for x, vec in table.items():
            for k in range(ell**m):
                span[x] = vec + (k,)
                x = compose_forms(x, g)
        table = span
        assert len(table) == old_len * ell**m, "basis relation found"

    # represent each basis class by a prime outside the exclusion set
    gens, alphas = _class_primes(field, basis, exclusion), []
    for found, m in zip(gens, exps):
        J = ideal_pow(field, prime_module(field, found), ell**m)
        alpha = principal_generator(field, J)
        assert elt_norm(field, alpha) == ideal_norm(J)
        alphas.append(alpha)

    # each form is s*c for one s in the Sylow group, whose vector it takes
    class_dlogs = {
        s if c == ident else c if s == ident else compose_forms(s, c): vec
        for s, vec in table.items()
        for c in coprime
    }
    return ClassGroupLPart(
        tuple(gens),
        tuple(exps),
        tuple(alphas),
        max(exps) if exps else 0,
        class_dlogs,
        m_coprime,
    )


def class_dlog(field, ideal, basis: ClassGroupLPart):
    """Exponents c_i < ell^m_i with ideal ~ prod a_i^c_i times prime-to-ell:
    one reduction of the ideal's form and one lookup in the table of
    every class that class_group_l_part keeps."""
    if not basis.exps:
        return []
    return list(basis.class_dlogs[ideal_class_form(field, ideal)])


# ---------------------------------------------------------- principality


def principal_generator(field, ideal):
    """A generator of the ideal, canonically normalized, or NotPrincipal.

    Reduces the norm form of the primitive part while tracking the GL2
    change of basis; the ideal is principal exactly when the reduction
    lands on the principal form, and the first transformed basis vector
    is then a generator.
    """
    if field.kind == "rational":
        raise ValueError("no ideal machinery over Q")
    d = field.disc
    g, a0, b0 = ideal
    form, (u, v) = _reduce(a0, b0, (b0 * b0 - d) // (4 * a0))
    if form != principal_form(d):
        raise NotPrincipal(f"class of {(a0, b0)} is {form}")
    return normalize_unit(field, (g * (2 * a0 * u + b0 * v), g * v))


# ------------------------------------------------------------- reduction


def local_field(field, w):
    """A fresh residue field at the prime w = (p, b): F_p(sqrt(D)) at an
    inert p of K, else F_p."""
    p, b = w
    inert = b is None and field.kind != "rational"
    return ResidueField(p, field.disc % p if inert else None)


def reduce_mod(field, x, w):
    """Canonical image of the element x in the residue field at w = (p, b)."""
    p, b = w
    if field.kind == "rational":
        return (x[0] // 2) % p
    if p == 2:
        raise ValueError("cannot reduce mod a prime above 2")
    xx, yy = x
    inv2 = (p + 1) // 2
    if b is None:
        return (xx * inv2 % p, yy * inv2 % p)  # sqrt(D) generates F_p(sqrt(D))
    return (xx + yy * b) * inv2 % p  # sqrt(D) = b mod the prime
