"""Independent references that the tests compare the package against.

None of this runs in the package itself:

  * multiplicative_order and embed: brute-force residue-field helpers;
  * least_nonresidue, old_basis and old_reduce_mod: the inert residue
    field in a second basis, F_p(w) with w*w the least non-residue n0
    mod p, and the residue map into it, which writes sqrt(D) as s*w
    with n0*s^2 = D found by scanning s < p; to_old_basis carries
    quadfield.reduce_mod's image from F_p(sqrt(D)) there;
  * field_elements, field_inv and field_root: the elements other than
    0 and 1 in a fixed order, the inverse x^(Q-2), and one ell-th root
    by Adleman-Manders-Miller descent, over F_p and F_{p^2} alike;
    alpha_roots takes roots over F_{p^2}, and the arith tests take
    ell-th roots over F_p at an odd ell dividing p - 1, neither of which
    arith.ell_root (square roots on plain ints) takes;
  * ideal_from_columns, the 2-column Hermite normal form (HNF) of the
    Z-module that some elements span, as a content and a primitive
    module, on its own extended gcd: the reference for
    quadfield.ideal_mul, whose closed form shares none of its code,
    through ideal_product, the HNF of the four products of two
    Z-bases, and for principal_generator, through principal_ideal, the
    ideal (u) from a Z-basis;
  * PrimeIdeal, split_primes and conjugate_prime: a prime as an object
    (p, kind, b, f), the tests' reference naming beside the package's
    (p, b) pairs; the two split primes above p; the conjugate prime;
  * ideal_contains: ideal membership by the module basis;
  * kprime: m * (m^-1 mod l^(r+t)), m the prime-to-l part of the class
    number, the exponent of the references below;
  * kummer_generator and kummer_split_test: the Kummer-level oracle of
    acceptance criterion 5 for classfield.frobenius_order_in_ray_piece,
    its power of q by ideal_power, square and multiply over
    ideal_product, its generator checked by principal_ideal, and the
    last power, prime to l, taken by elt_power on the element;
  * class_correction through reference_image: the root-based splitting
    map, its ideal by ideal_power and ideal_product and its generator
    checked by principal_ideal, the reference that acceptance criterion 6 and the
    choice-invariance tests compare classfield.conductor_image against;
  * reduced_forms_by_a: the reduced forms of disc D found by scanning
    every b in (-a, a] for each a, the reference for
    quadfield.enumerate_class_group;
  * sylow_forms and greedy_basis: the l-Sylow forms, those whose order
    divides the l-part of h, and the greedy basis loop that
    quadfield.class_group_l_part once ran, which measures each
    candidate's order and its order modulo the span at every step, the
    reference for that function's one walk per element;
  * class_prime_full_scan: the basis prime of one class as
    quadfield found it before one scan served every class, one scan of
    the primes up to its cap and then the row walk over every row, the
    reference for the primes quadfield._class_primes finds (and so the
    certificate bytes);
  * elt_neg: the negative of an element;
  * roots_by_scan: the roots b of x^2 = D mod 4p found by scanning
    every b < 2p, the reference for the split and ramified cases of
    quadfield.factor_rational_prime;
  * primes_above, field_primes, pair, ideal_of and prime_of: the
    primes above p, and every prime of norm up to a bound, as
    PrimeIdeals, from a plain sieve, Euler's criterion and
    roots_by_scan, the reference for classfield.enumerate_field_primes
    and quadfield.factor_rational_prime, and the source of the
    PrimeIdeals the tests hand to in_S, the Kummer references and the
    searches; pair is the (p, b) that names a PrimeIdeal or a
    classfield.Conductor in the package, which every call of
    quadfield's prime_module, reduce_mod and local_field here takes,
    ideal_of the PrimeIdeal a pair names by its b and p alone, and
    prime_of the field_primes PrimeIdeal a pair names;
  * target_generator, generator_image and frobenius_image: a fresh
    generator of q^(m * l^t), its power by ideal_power and the generator
    checked by principal_ideal, with no conjugate shortcut, and its power residue at a conductor PrimeIdeal by reduce_mod and a
    power in the residue field, the object route that
    classfield.conductor_image takes on ints;
  * seed_order: the Frobenius order in the seed read off a table of the
    seed character built from generators of (Z/modulus)^*, the
    reference for classfield.frobenius_order_in_L0;
  * split_candidates and fixed_orders: the split primes of a walked
    norm and the Frobenius-order test on a candidate PrimeIdeal, as
    classfield's conductor search ran them before its candidates became
    (p, root) pairs of ints, the reference for that int path;
  * frobenius_order and local_degree: the Frobenius order of one prime
    in one ray piece, over Q by multiplicative_order, and the fold of
    one row over the pieces in turn, as classfield ran them before its
    fold became column-wise, the reference for classfield.DegreeFold.

The splitting map.  For a target q with class discrete log c, the ideal
q^kprime * prod a_i^(-c_i) is principal.  Its generator is gamma0 / denom,
where gamma0 generates q^kprime * prod conj(a_i)^c_i and denom =
prod N(a_i)^c_i.  At a conductor eps in S the image is
s = gamma0 / denom * prod root_i^c_i, with root_i an l^(m_i)-th root of
alpha_i at eps.  s^(l^t) is a unit times a generator of q^(kprime * l^t),
so s^((N(eps)-1)/l^r) is, for every choice of roots, the image from a
generator of q^(kprime * l^t).  The package raises q to m * l^t instead;
as kprime = m * u and S makes every unit an l^(r+t)-th power residue at
eps, the reference equals the package image raised to u = kprime / m, an
exponent prime to l, as an element.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm

from constdeg.arith import (
    ResidueField,
    factor,
    is_prime,
    legendre,
    order_exponent,
    power_residue_level,
    small_primes,
)
from constdeg.classfield import SIEVE_PRIMES, InternalInconsistency, in_S
from constdeg.quadfield import (
    _BASIS_PRIME_CAP,
    class_dlog,
    compose_forms,
    elt_mul,
    factor_rational_prime,
    form_disc,
    form_pow,
    ideal_class_form,
    integer_elt,
    local_field,
    prime_module,
    principal_form,
    principal_generator,
    reduce_mod,
    split_roots,
)

# ------------------------------------------------------ residue fields


def multiplicative_order(x, field: ResidueField) -> int:
    order = field.q - 1
    for p, _ in factor(order):
        while order % p == 0 and field.pow(x, order // p) == field.one:
            order //= p
    return order


def embed(field: ResidueField, n: int):
    """The rational integer n as an element of the residue field."""
    n %= field.p
    return (n, 0) if field.f == 2 else n


def least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if legendre(n, p) == -1:
            return n
    raise ValueError(f"no quadratic non-residue mod {p}")


def old_basis(disc: int, p: int):
    """(F_p(w), s) at an odd p inert in Q(sqrt(D)): w*w = n0 =
    least_nonresidue(p), and s is the least s < p with n0*s^2 = D mod p,
    so that sqrt(D) = s*w."""
    n0 = least_nonresidue(p)
    return ResidueField(p, n0), next(s for s in range(p) if (n0 * s * s - disc) % p == 0)


def old_reduce_mod(x, p: int, s: int):
    """The image of the element (x + y*sqrt(D))/2 in F_p(w): x/2 + (y/2)*s*w."""
    inv2 = (p + 1) // 2
    return (x[0] * inv2 % p, x[1] * s * inv2 % p)


def to_old_basis(image, p: int, s: int):
    """a + b*sqrt(D) in F_p(sqrt(D)) written as a + b*s*w in F_p(w)."""
    a, b = image
    return (a, b * s % p)


def field_elements(field: ResidueField):
    """The elements other than 0 and 1, in a fixed order."""
    if field.f == 1:
        return range(2, field.p)
    return ((i % field.p, i // field.p) for i in range(2, field.q))


def field_inv(field: ResidueField, x):
    return field.pow(x, field.q - 2)


def field_root(x, ell: int, field: ResidueField):
    """One y with y^ell = x, via Adleman-Manders-Miller descent; raises
    ValueError when x is not an ell-th power in the field."""
    qm1 = field.q - 1
    if qm1 % ell:
        return field.pow(x, pow(ell, -1, qm1))
    if field.pow(x, qm1 // ell) != field.one:
        raise ValueError("not an ell-th power in the field")
    v, m = 0, qm1
    while m % ell == 0:
        m //= ell
        v += 1
    z = next(c for c in field_elements(field) if field.pow(c, qm1 // ell) != field.one)
    g = field.pow(z, m)  # generates the ell-Sylow subgroup, order ell^v
    a = field.pow(x, m)
    # k = log_g(a), one ell-adic digit at a time; ell | k
    digit = {field.pow(g, d * ell ** (v - 1)): d for d in range(ell)}
    ginv, k = field_inv(field, g), 0
    for i in range(v):
        k += digit[field.pow(field.mul(a, field.pow(ginv, k)), ell ** (v - 1 - i))] * ell**i
    u = pow(ell, -1, m) if m > 1 else 0
    w = (1 - u * ell) // m
    return field.mul(field.pow(x, u), field.pow(g, (k // ell) * w % (ell**v)))


# -------------------------------------------------------------- ideals


def _xgcd(a, b):
    # (g, x, y) with a*x + b*y = g; iterative, as a power of a prime
    # ideal has entries of thousands of digits
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def ideal_from_columns(field, cols):
    # 2-column HNF of the Z-module spanned by the given elements
    f = w = 0
    cols = [(-x, -y) if y < 0 else (x, y) for x, y in cols]
    for x, y in cols:
        if y == 0:
            continue
        if f == 0:
            f, w = y, x
        else:
            f, u, v = _xgcd(f, y)
            w = u * w + v * x
    assert f > 0, "columns do not span an ideal"
    d = 0
    for x, y in cols:
        d = gcd(d, x - (y // f) * w)
    a = d // (2 * f)
    b = (w // f) % (2 * a)
    assert (b * b - field.disc) % (4 * a) == 0
    return (f, a, b)


def ideal_product(field, I, J) -> tuple:
    # the HNF of the four products of the Z-bases [g*a, g*(b+sqrt D)/2]
    basis = [[(2 * g * a, 0), (g * b, g)] for g, a, b in (I, J)]
    return ideal_from_columns(field, [elt_mul(field, u, v) for u in basis[0] for v in basis[1]])


def ideal_power(field, I, e: int) -> tuple:
    """I^e for e >= 1 by square and multiply over ideal_product, the
    reference route beside quadfield.ideal_pow."""
    result = None
    while True:
        if e & 1:
            result = I if result is None else ideal_product(field, result, I)
        e >>= 1
        if not e:
            return result
        I = ideal_product(field, I, I)


def elt_power(field, u, e: int):
    """u^e for e >= 1 by square and multiply over elt_mul."""
    result = u
    for bit in bin(e)[3:]:
        result = elt_mul(field, result, result)
        if bit == "1":
            result = elt_mul(field, result, u)
    return result


def ideal_contains(I, u) -> bool:
    # membership by the module basis; the oracle for ideal_mul
    g, a, b = I
    x, y = u
    if x % g or y % g:
        return False
    return (x // g - (y // g) * b) % (2 * a) == 0


def principal_ideal(field, u) -> tuple:
    # the ideal (u) from a Z-basis; the oracle for principal_generator
    omega = (field.disc % 2, 1)
    return ideal_from_columns(field, [u, elt_mul(field, u, omega)])


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of the field as an object, the tests' reference naming
    beside the package's (p, b) pairs: b is the root of sqrt(D) mod the
    prime, None over Q and at an inert p, and f its residue degree."""

    p: int
    kind: str  # "split", "inert", "ramified", "rational"
    b: "int | None"
    f: int

    @property
    def norm(self):
        return self.p**self.f


def split_primes(d: int, p: int):
    """The two primes above a rational prime p that splits in Q(sqrt d),
    by ascending root (quadfield.split_roots)."""
    return [PrimeIdeal(p, "split", b, 1) for b in split_roots(d, p)]


def conjugate_prime(P: PrimeIdeal) -> PrimeIdeal:
    if P.kind != "split":
        return P
    return PrimeIdeal(P.p, "split", 2 * P.p - P.b, 1)


# ------------------------------------------------- Kummer-level oracle


def kprime(ctx) -> int:
    """m * (m^-1 mod l^(r+t)), m = ctx.cl.coprime_part: it kills the
    prime-to-l part of the class group and is 1 mod l^(r+t)."""
    m = ctx.cl.coprime_part
    return m * pow(m, -1, ctx.ell ** (ctx.r + ctx.t))


def kummer_generator(ctx, q: PrimeIdeal):
    """Generator alpha with q^(kprime * l^m) = (alpha), where l^m is the
    order of the l-part of the class of q.  Returns (alpha, m)."""
    if ctx.field.kind == "rational":
        return integer_elt(q.p), 0
    c = class_dlog(ctx.field, prime_module(ctx.field, pair(q)), ctx.cl)
    m = 0
    for ci, mi in zip(c, ctx.cl.exps):
        if ci:
            v = 0
            while ci % ctx.ell == 0:
                ci //= ctx.ell
                v += 1
            m = max(m, mi - v)
    # q^(m_c * l^m), m_c = ctx.cl.coprime_part, is principal; its
    # generator to the power kprime / m_c generates q^(kprime * l^m)
    J = ideal_power(ctx.field, prime_module(ctx.field, pair(q)), ctx.cl.coprime_part * ctx.ell**m)
    gamma = principal_generator(ctx.field, J)
    assert principal_ideal(ctx.field, gamma) == J, (pair(q), gamma)
    return elt_power(ctx.field, gamma, kprime(ctx) // ctx.cl.coprime_part), m


def kummer_split_test(ctx, P: PrimeIdeal, alpha, k: int) -> bool:
    """Whether P splits completely in the Kummer layer generated by the
    l^k-th roots of unity and an l^k-th root of alpha.  For q with
    kummer_generator(ctx, q) = (alpha, m), P splits at level m + s iff
    the Frobenius of q has order at most l^(r-s) in the piece at P."""
    if k == 0:
        return True
    if k > ctx.r + ctx.t:
        raise ValueError("Kummer level exceeds r + t")
    if (P.norm - 1) % ctx.ell**k:
        return False
    x = reduce_mod(ctx.field, alpha, pair(P))
    return power_residue_level(x, ctx.ell, k, local_field(ctx.field, pair(P))) == k


# ------------------------------------------------------- splitting map


def class_correction(ctx, q):
    """(c, gamma0, denom) for the target q, as in the module docstring."""
    fld = ctx.field
    c = class_dlog(fld, prime_module(fld, pair(q)), ctx.cl)
    J = ideal_power(fld, prime_module(fld, pair(q)), kprime(ctx))
    denom = 1
    for (p, b), ci in zip(ctx.cl.gens, c):
        if ci:
            # a basis prime (p, b) splits, and its conjugate has root 2p - b
            bar = prime_module(fld, (p, 2 * p - b))
            J = ideal_product(fld, J, ideal_power(fld, bar, ci))
            denom *= p**ci
    gamma0 = principal_generator(fld, J)
    assert principal_ideal(fld, gamma0) == J, (pair(q), gamma0)
    return tuple(c), gamma0, denom


def unit_root(fld, ell):
    """A primitive ell-th root of unity in the residue field."""
    e = (fld.q - 1) // ell
    for x in field_elements(fld):
        z = fld.pow(x, e)
        if z != fld.one:
            return z
    raise AssertionError("no ell-th root of unity")


def alpha_roots(ctx, eps, twist=None):
    """An l^(m_i)-th root of each alpha_i at eps by iterated l-th roots;
    twist(), when given, returns a root of unity that multiplies each
    l-th root as it is taken."""
    fld = local_field(ctx.field, pair(eps))
    roots = []
    for alpha, m in zip(ctx.cl.alphas, ctx.cl.exps):
        root = reduce_mod(ctx.field, alpha, pair(eps))
        for _ in range(m):
            root = field_root(root, ctx.ell, fld)
            if twist is not None:
                root = fld.mul(root, twist())
        roots.append(root)
    return roots


def splitting_map_image(ctx, eps, correction, roots):
    """The image s of the target with class_correction(ctx, q) at eps."""
    c, gamma0, denom = correction
    fld = local_field(ctx.field, pair(eps))
    s = fld.mul(reduce_mod(ctx.field, gamma0, pair(eps)), field_inv(fld, embed(fld, denom)))
    for root, ci in zip(roots, c):
        s = fld.mul(s, fld.pow(root, ci))
    return s


def reference_image(ctx, eps, q, roots=None):
    """s^((N(eps)-1)/l^r) for the target q, from the given roots or
    from alpha_roots(ctx, eps)."""
    if roots is None:
        roots = alpha_roots(ctx, eps)
    s = splitting_map_image(ctx, eps, class_correction(ctx, q), roots)
    return local_field(ctx.field, pair(eps)).pow(s, (eps.norm - 1) // ctx.ell**ctx.r)


# ------------------------------------------------------- reduced forms


def reduced_forms_by_a(field):
    """All reduced forms of disc D, and the class number h, by trying
    every b in (-a, a] for each a up to sqrt(|D|/3)."""
    if field.kind == "rational":
        return [], 1
    d = field.disc
    forms = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            forms.append((a, b, c))
    return forms, len(forms)


def sylow_forms(field, ell: int) -> list:
    """The reduced forms whose order divides the l-part of h, sorted."""
    forms, h = reduced_forms_by_a(field)
    part = 1
    while h % (part * ell) == 0:
        part *= ell
    ident = principal_form(field.disc)
    return sorted(f for f in forms if form_pow(f, part) == ident)


def greedy_basis(sylow, ell: int):
    """(basis, exps) of the sorted l-Sylow forms by the greedy rule:
    repeatedly take the smallest element of maximal order whose full
    order survives in the quotient by the span so far."""
    ident = principal_form(form_disc(sylow[0]))
    sylow_order = len(sylow)
    # table maps each element of the span so far to its exponent vector
    basis, exps = [], []
    table = {ident: ()}
    while len(table) < sylow_order:
        best = None
        for g in sylow:
            if g in table:
                continue
            x, true_m = g, 0
            while x != ident:
                x, true_m = form_pow(x, ell), true_m + 1
            x, quot_m = g, 0
            while x not in table:
                x, quot_m = form_pow(x, ell), quot_m + 1
            if true_m == quot_m and (best is None or quot_m > best[0]):
                best = (quot_m, g)
        assert best is not None  # abelian group theory guarantees a pick
        m, g = best
        basis.append(g)
        exps.append(m)
        old_len, span = len(table), {}
        for x, vec in table.items():
            for k in range(ell**m):
                span[x] = vec + (k,)
                x = compose_forms(x, g)
        table = span
        assert len(table) == old_len * ell**m, "basis relation found"
    return tuple(basis), tuple(exps)


def class_prime_full_scan(field, form, exclusion) -> tuple:
    """The least prime (p, b) outside exclusion in the class of the
    reduced form, among the primes up to quadfield's cap in one sieved
    scan, or else the first one above a prime value of the form, rows
    y = 1, 2, ... taking x = 0, 1, -1, 2, ... for cap values."""

    def above(p):
        for w in factor_rational_prime(field, p):
            if ideal_class_form(field, prime_module(field, w)) == form:
                return w

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


# -------------------------------------------------------------- elements


def elt_neg(u):
    return (-u[0], -u[1])


# ---------------------------------------------------------- prime roots


def roots_by_scan(d: int, p: int) -> list:
    """Every b in [0, 2p) with b = D mod 2 and b^2 = D mod 4p, ascending:
    one for a prime p dividing the discriminant D, two for a split p."""
    return list(_scan(d, p))


@lru_cache(maxsize=None)
def _scan(d: int, p: int) -> tuple:
    # field_primes scans each prime of the walk; the cache keeps a test
    # session from scanning one twice
    return tuple(b for b in range(d % 2, 2 * p, 2) if (b * b - d) % (4 * p) == 0)


def _inert(d: int, p: int) -> bool:
    # Euler's criterion D^((p-1)/2) = -1 mod p at an odd p, no root at 2
    return pow(d, (p - 1) // 2, p) == p - 1 if p > 2 else not roots_by_scan(d, 2)


def ideal_of(field, w) -> PrimeIdeal:
    """The PrimeIdeal the pair w = (p, b) names, read off w alone:
    rational over Q, inert at b = None over K, ramified at a p dividing
    D and split otherwise.  Unlike prime_of it takes w to be a prime."""
    p, b = w
    if field.kind == "rational":
        return PrimeIdeal(p, "rational", None, 1)
    if b is None:
        return PrimeIdeal(p, "inert", None, 2)
    return PrimeIdeal(p, "ramified" if field.disc % p == 0 else "split", b, 1)


def primes_above(field, p: int) -> list:
    """The PrimeIdeals above the rational prime p, split ones by root:
    over K the inert prime if Euler's criterion makes p inert, else the
    ramified prime or the two split primes of its roots_by_scan."""
    d = field.disc
    if field.kind == "rational" or _inert(d, p):
        return [ideal_of(field, (p, None))]
    roots = roots_by_scan(d, p)
    assert len(roots) == (1 if d % p == 0 else 2), (d, p)
    return [ideal_of(field, (p, b)) for b in roots]


def field_primes(field, bound: int, step: int = 1):
    """Every prime of the field of norm n <= bound with n = 1 mod step as
    a PrimeIdeal, ascending by norm with split conjugates by root,
    yielded as a walk over n = 2, ..., bound reaches its norm: the primes
    n of a plain sieve over Q; over K, at a prime n that Euler's
    criterion does not make inert, the ramified prime or the two split
    primes of its roots_by_scan, and at n = p^2 the inert prime p.  A
    scan costs n steps, so a caller that asks in_S, which wants N = 1
    mod l^(r+t), passes that as step."""
    prime = bytearray([1]) * (bound + 1)
    prime[:2] = bytes(min(2, bound + 1))
    for n in range(2, isqrt(bound) + 1):
        if prime[n]:
            prime[n * n :: n] = bytes(len(range(n * n, bound + 1, n)))
    d = field.disc
    for n in range(2, bound + 1):
        if (n - 1) % step:
            continue
        if prime[n] and (field.kind == "rational" or not _inert(d, n)):
            yield from primes_above(field, n)
        elif isqrt(n) ** 2 == n and prime[isqrt(n)] and _inert(d, isqrt(n)):
            yield from primes_above(field, isqrt(n))


def pair(P) -> tuple:
    """The (p, b) pair that names P, a PrimeIdeal or a
    classfield.Conductor, in a certificate and in the package."""
    return (P.p, P.b)


def prime_of(field, w) -> PrimeIdeal:
    """The PrimeIdeal of field_primes named by the pair w = (p, b)."""
    return next(P for P in field_primes(field, w[0] ** 2) if pair(P) == w)


# ------------------------------------------------------ Frobenius images


def target_generator(ctx, q: PrimeIdeal):
    """A generator of q^(m * l^t), m = ctx.cl.coprime_part, made fresh
    from ideal_power and checked by principal_ideal."""
    J = ideal_power(ctx.field, prime_module(ctx.field, pair(q)), ctx.cl.coprime_part * ctx.ell**ctx.t)
    gamma = principal_generator(ctx.field, J)
    assert principal_ideal(ctx.field, gamma) == J, (pair(q), gamma)
    return gamma


def generator_image(ctx, eps: PrimeIdeal, gamma):
    """gamma^((N(eps)-1)/l^(r+t)) at the conductor eps, by reduce_mod and
    a power in the residue field at eps."""
    e = (eps.norm - 1) // ctx.ell ** (ctx.r + ctx.t)
    return local_field(ctx.field, pair(eps)).pow(reduce_mod(ctx.field, gamma, pair(eps)), e)


def frobenius_image(ctx, eps: PrimeIdeal, q: PrimeIdeal):
    """The generator_image at eps of a fresh generator of the target q."""
    return generator_image(ctx, eps, target_generator(ctx, q))


@lru_cache(maxsize=None)
def seed_table(ell: int, r: int):
    """(m, chi): the seed modulus m and the seed character as a dict from
    each unit mod m to its value in Z/l^r, spanned from generators of
    (Z/m)^*: at l = 2, -1 of order 2 with chi(-1) = 2^(r-1) (the odd
    character) and 5 of order 2^r with chi(5) = 1; at an odd l, a
    primitive root g with chi(g) = 1.  The table has phi(m) entries, so
    it serves the small r of the tests."""
    if ell == 2:
        m = 2 ** (r + 2)
        gens = [(m - 1, 2, 2 ** (r - 1)), (5, 2**r, 1)]
    else:
        m, phi = ell ** (r + 1), (ell - 1) * ell**r
        g = next(
            g for g in range(2, m)
            if g % ell and all(pow(g, phi // f, m) != 1 for f, _ in factor(phi))
        )
        gens = [(g, phi, 1)]
    chi = {1: 0}
    for g, order, value in gens:
        chi = {
            x * pow(g, k, m) % m: (v + k * value) % ell**r
            for x, v in chi.items()
            for k in range(order)
        }
    return m, chi


def seed_order(ctx, w: PrimeIdeal):
    """Frobenius order of w in the seed, the order of chi(N(w)) in
    Z/l^r; None for primes above l."""
    if w.p == ctx.ell:
        return None
    m, chi = seed_table(ctx.ell, ctx.r)
    full = ctx.ell**ctx.r
    return full // gcd(chi[w.norm % m], full)


# ---------------------------------------------------- Chebotarev set S


def in_S_reference(ctx, P) -> bool:
    """classfield.in_S as it was with the class-form reduction second,
    before the power residues: the same conjunction of pure tests of P,
    each of which the package's in_S still asks."""
    w = (P.p, P.b)
    if P.p in ctx.excluded or w in ctx.cl.gens:
        raise ValueError("candidate collides with an excluded or basis prime")
    kmax = ctx.r + ctx.t
    if (P.norm - 1) % ctx.ell**kmax:
        return False
    if ctx.field.kind == "imag_quadratic":
        if any(class_dlog(ctx.field, prime_module(ctx.field, w), ctx.cl)):
            return False
    fld = local_field(ctx.field, w)
    for u in ctx.units:
        if power_residue_level(reduce_mod(ctx.field, u, w), ctx.ell, kmax, fld) != kmax:
            return False
    for alpha, m in zip(ctx.cl.alphas, ctx.cl.exps):
        if power_residue_level(reduce_mod(ctx.field, alpha, w), ctx.ell, m, fld) != m:
            return False
    return True


# ---------------------------------------------------- search candidates


def split_candidates(ctx, n: int):
    """The primes above n if n, an entry of classfield._sieved_walk, is a
    prime that splits, else []: Euler's symbol and the split branch of
    classfield._quad_candidates when it returned PrimeIdeals."""
    x = pow(ctx.field.disc, (n - 1) // 2, n)
    if x == n - 1:
        return []
    p = isqrt(n)
    if x == 1 and p * p != n and (n < SIEVE_PRIMES**2 or is_prime(n)):
        return split_primes(ctx.field.disc, n)
    return []


def fixed_orders(ctx, P: PrimeIdeal, fixed, full: int) -> bool:
    """Whether each fixed prime q, given with its generator gamma, has
    Frobenius order exactly k in the piece at the candidate P, the
    order of its generator_image; a P equal to q gives the full degree.
    An image that escapes the piece is the inconsistency
    frobenius_order_in_ray_piece raises on at a P in S, and a plain
    rejection at a P outside S, where the rule does not hold."""
    fld, ell, r = local_field(ctx.field, pair(P)), ctx.ell, ctx.r
    for q, gamma, k in fixed:
        if q == pair(P):
            if k != full:
                return False
            continue
        order = ell ** order_exponent(generator_image(ctx, P, gamma), ell, r, fld)
        if order > full and in_S(ctx, P):
            raise InternalInconsistency("Frobenius image escapes the piece")
        if order != k:
            return False
    return True


# ------------------------------------------------------- local degrees


def frobenius_order(ctx, eps: PrimeIdeal, q: PrimeIdeal) -> int:
    """Order of the Frobenius of a prime q != eps in the ray piece of
    conductor eps: over Q the multiplicative_order of q^((eps-1)/l^r)
    mod eps, over K that of its frobenius_image; an order that does not
    divide l^r raises InternalInconsistency.  eps itself is totally
    ramified there, which local_degree reads without asking."""
    full = ctx.ell**ctx.r
    if ctx.field.kind == "rational":
        return multiplicative_order(pow(q.p, (eps.p - 1) // full, eps.p), ResidueField(eps.p))
    x = frobenius_image(ctx, eps, q)
    order = ctx.ell ** order_exponent(x, ctx.ell, ctx.r, local_field(ctx.field, pair(eps)))
    if order > full:
        raise InternalInconsistency("Frobenius image escapes the piece")
    return order


def local_degree(ctx, pieces, w: PrimeIdeal):
    """Local degree at the finite prime w of the compositum of the seed
    and the ray pieces of the given conductors: the ramification factor
    of the one component ramified at w times the lcm of the unramified
    Frobenius orders.

    Returns (ramified, factor, degree): the index of the component
    ramified at w (0 = seed, i >= 1 = piece i, None = unramified), its
    local degree l^(r-a) or l^r (1 if none), and the local degree.  Raises
    InternalInconsistency if w is ramified in two components.

    Every order divides l^r, so once the unramified lcm reaches l^r only
    a later conductor equal to w can still move the degree; the fold
    then stops asking for orders and only looks for one.
    """
    ell, full = ctx.ell, ctx.ell**ctx.r
    if w.p == ell:
        ramified, factor, rest = 0, ell ** (ctx.r - ctx.deficiencies[pair(w)]), 1
    else:
        ramified, factor, rest = None, 1, seed_order(ctx, w)
    for i, eps in enumerate(pieces):
        if pair(eps) == pair(w):
            if ramified is not None:
                raise InternalInconsistency(
                    f"({w.p},{w.b}) is ramified in more than one component"
                )
            ramified, factor = i + 1, full
        elif rest != full:
            rest = lcm(rest, frobenius_order(ctx, eps, w))
    return ramified, factor, factor * rest
