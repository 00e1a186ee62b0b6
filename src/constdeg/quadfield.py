"""Base-field arithmetic: Q or an imaginary quadratic field K = Q(sqrt(D)).

Conventions, used consistently by every caller:

  * D is a negative fundamental discriminant.
  * Field elements are integer pairs (x, y) meaning (x + y*sqrt(D))/2 with
    x = y*D (mod 2).  Rational integers n are stored as (2n, 0).
  * Ideals are triples (g, a, b): content g times the primitive module with
    Z-basis [a, (b + sqrt(D))/2], where 0 <= b < 2a and 4a | b^2 - D.
  * A split or ramified PrimeIdeal stores the root b of x^2 = D (mod 4p)
    that its residue map selects, i.e. sqrt(D) = +b (mod P).  The module
    representation of P therefore uses -b mod 2p.
  * The residue field at an inert P above p is F_p(sqrt(D)): D is a
    non-residue mod p, so F_{p^2} is built with w*w = D mod p, and the
    residue map halves both coordinates of (x, y).
"""

from dataclasses import dataclass
from functools import partial
from itertools import count
from math import isqrt

from .arith import (
    ell_root,
    factor,
    is_prime,
    legendre,
    power,
    residue_field,
    small_primes,
)


class NotPrincipal(Exception):
    """The ideal has no single generator."""


# ----------------------------------------------------------------- fields


@dataclass(frozen=True)
class BaseField:
    kind: str  # "rational" or "imag_quadratic"
    disc: int = 0


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


@dataclass(frozen=True)
class QuadIdeal:
    g: int  # content
    a: int  # norm of the primitive part
    b: int  # 0 <= b < 2a, 4a | b^2 - D


def unit_ideal(field) -> QuadIdeal:
    return QuadIdeal(1, 1, field.disc % 2)


def ideal_norm(I: QuadIdeal) -> int:
    return I.g * I.g * I.a


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


def ideal_mul(field, I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    e, a, b = _compose(I.a, I.b, J.a, J.b, field.disc)
    return QuadIdeal(e * I.g * J.g, a, b)


def ideal_pow(field, I: QuadIdeal, e: int) -> QuadIdeal:
    return power(I, e, partial(ideal_mul, field), unit_ideal(field))


# ----------------------------------------------------------------- primes


@dataclass(frozen=True)
class PrimeIdeal:
    p: int
    kind: str  # "split", "inert", "ramified", "rational"
    b: "int | None"  # root: sqrt(D) = b (mod P); None for inert/rational
    f: int

    @property
    def norm(self):
        return self.p**self.f


def kronecker_disc(d: int, p: int) -> int:
    """Splitting symbol of the discriminant d at the rational prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 == 1 else -1
    return legendre(d % p, p)


def factor_rational_prime(field, p: int):
    if field.kind == "rational":
        return [PrimeIdeal(p, "rational", None, 1)]
    d = field.disc
    sym = kronecker_disc(d, p)
    if sym == -1:
        return [PrimeIdeal(p, "inert", None, 2)]
    if sym == 0:
        # p | d and p | b^2 - d force p | b, and 0 and p are the b < 2p it divides
        b = next(b for b in (0, p) if (b - d) % 2 == 0 and (b * b - d) % (4 * p) == 0)
        return [PrimeIdeal(p, "ramified", b, 1)]
    return split_primes(d, p)


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


def split_primes(d: int, p: int):
    """The two primes above a rational prime p that splits in Q(sqrt d),
    by ascending root (split_roots)."""
    return [PrimeIdeal(p, "split", b, 1) for b in split_roots(d, p)]


def prime_module(field, P: PrimeIdeal) -> QuadIdeal:
    if P.kind == "inert":
        return QuadIdeal(P.p, 1, field.disc % 2)
    return QuadIdeal(1, P.p, (-P.b) % (2 * P.p))


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


def ideal_class_form(field, I: QuadIdeal):
    return reduce_form((I.a, -I.b, (I.b * I.b - field.disc) // (4 * I.a)))


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


@dataclass(eq=False)
class ClassGroupLPart:
    gens: tuple  # basis prime ideals a_i, orders descending
    exps: tuple  # m_i: a_i has order ell^m_i in the class group
    alphas: tuple  # generators of a_i^(ell^m_i)
    t: int  # max m_i, 0 when the l-part is trivial
    class_dlogs: dict  # every reduced form -> exponent vector of its l-part
    coprime_part: int  # prime-to-l part of the class number


_BASIS_PRIME_CAP = 100000  # primes scanned, then values tried per row


def _class_prime(field, form, exclusion) -> PrimeIdeal:
    """A prime ideal outside the exclusion set in the class of the reduced
    form (a, b, c): the least one of norm below the cap, or else one above
    the first prime value a*x^2 + b*x*y + c*y^2 over rows y = 1, 2, ...,
    each taking x = 0, 1, -1, 2, ... for cap values.  A prime value has
    gcd(x, y) = 1, as g = gcd(x, y) puts g^2 in the value, so a prime
    above it lies in the class (Cohen, GTM 138, 5.2).

    The walk has no exit, and it ends in row 1 or 2.  A whole row is even
    only when c and a + b are even; a is then odd, as the form is
    primitive, and row 2 takes only odd values.  No odd p divides every
    value of row 1 or 2, since a quadratic in x with three roots mod p
    has a, b*y and c*y^2 all divisible by p.  So one of the two rows has
    no fixed prime divisor."""

    def above(p):
        for P in factor_rational_prime(field, p):
            if ideal_class_form(field, prime_module(field, P)) == form:
                return P

    for p in small_primes(_BASIS_PRIME_CAP + 1):
        if p not in exclusion and (P := above(p)):
            return P
    a, b, c = form
    for y in count(1):
        for i in range(_BASIS_PRIME_CAP):
            x = (i + 1) // 2 if i % 2 else -(i // 2)
            p = a * x * x + b * x * y + c * y * y
            if p not in exclusion and is_prime(p) and (P := above(p)):
                return P


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

    # represent each basis class by a prime ideal outside the exclusion set
    gens, alphas = [], []
    for g_form, m in zip(basis, exps):
        found = _class_prime(field, g_form, exclusion)
        J = ideal_pow(field, prime_module(field, found), ell**m)
        alpha = principal_generator(field, J)
        assert elt_norm(field, alpha) == ideal_norm(J)
        gens.append(found)
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


def class_dlog(field, ideal: QuadIdeal, basis: ClassGroupLPart):
    """Exponents c_i < ell^m_i with ideal ~ prod a_i^c_i times prime-to-ell:
    one reduction of the ideal's form and one lookup in the table of
    every class that class_group_l_part keeps."""
    if not basis.exps:
        return []
    return list(basis.class_dlogs[ideal_class_form(field, ideal)])


# ---------------------------------------------------------- principality


def principal_generator(field, ideal: QuadIdeal):
    """A generator of the ideal, canonically normalized, or NotPrincipal.

    Reduces the norm form of the primitive part while tracking the GL2
    change of basis; the ideal is principal exactly when the reduction
    lands on the principal form, and the first transformed basis vector
    is then a generator.
    """
    if field.kind == "rational":
        raise ValueError("no ideal machinery over Q")
    d = field.disc
    a0, b0 = ideal.a, ideal.b
    form, (u, v) = _reduce(a0, b0, (b0 * b0 - d) // (4 * a0))
    if form != principal_form(d):
        raise NotPrincipal(f"class of {(a0, b0)} is {form}")
    return normalize_unit(field, (ideal.g * (2 * a0 * u + b0 * v), ideal.g * v))


# ------------------------------------------------------------- reduction


def local_field(field, P: PrimeIdeal):
    return residue_field(P.p, field.disc % P.p if P.kind == "inert" else None)


def reduce_mod(field, x, P: PrimeIdeal):
    """Canonical image of the element x in the residue field at P."""
    if field.kind == "rational":
        return (x[0] // 2) % P.p
    if P.p == 2:
        raise ValueError("cannot reduce mod a prime above 2")
    xx, yy = x
    inv2 = (P.p + 1) // 2
    if P.kind == "inert":
        return (xx * inv2 % P.p, yy * inv2 % P.p)  # sqrt(D) = w
    return (xx + yy * P.b) * inv2 % P.p  # sqrt(D) = P.b mod P
