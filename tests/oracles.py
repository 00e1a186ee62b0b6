"""Independent references that the tests compare the package against.

None of this runs in the package itself:

  * multiplicative_order and embed: brute-force residue-field helpers;
  * ideal_contains, principal_ideal and conjugate_prime: ideal membership
    by the module basis, the ideal (u) from a Z-basis, and the conjugate
    prime, the references for ideal_mul and principal_generator;
  * kummer_generator and kummer_split_test: the Kummer-level oracle of
    acceptance criterion 5 for classfield.frobenius_order_in_ray_piece;
  * class_correction through reference_image: the root-based splitting
    map, the reference that acceptance criterion 6 and the
    choice-invariance tests compare classfield.frobenius_image against;
  * reduced_forms_by_a: the reduced forms of disc D found by scanning
    every b in (-a, a] for each a, the reference for
    quadfield.enumerate_class_group;
  * ramified_root_by_scan: the root b of a ramified prime found by
    scanning every b < 2p, the reference for the ramified case of
    quadfield.factor_rational_prime.

The splitting map.  For a target q with class discrete log c, the ideal
q^kprime * prod a_i^(-c_i) is principal.  Its generator is gamma0 / denom,
where gamma0 generates q^kprime * prod conj(a_i)^c_i and denom =
prod N(a_i)^c_i.  At a conductor eps in S the image is
s = gamma0 / denom * prod root_i^c_i, with root_i an l^(m_i)-th root of
alpha_i at eps.  s^(l^t) is a unit times a generator of q^(kprime * l^t),
so s^((N(eps)-1)/l^r) is the production image as an element, for every
choice of roots.
"""

from math import isqrt

from constdeg.arith import ResidueField, ell_root, factor, power_residue_level
from constdeg.quadfield import (
    PrimeIdeal,
    QuadIdeal,
    _ideal_from_columns,
    class_dlog,
    elt_mul,
    ideal_mul,
    ideal_pow,
    integer_elt,
    local_field,
    prime_module,
    principal_generator,
    reduce_mod,
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


# -------------------------------------------------------------- ideals


def ideal_contains(I: QuadIdeal, u) -> bool:
    # membership by the module basis; the oracle for ideal_mul
    x, y = u
    if x % I.g or y % I.g:
        return False
    return (x // I.g - (y // I.g) * I.b) % (2 * I.a) == 0


def principal_ideal(field, u) -> QuadIdeal:
    # the ideal (u) from a Z-basis; the oracle for principal_generator
    omega = (field.disc % 2, 1)
    return _ideal_from_columns(field, [u, elt_mul(field, u, omega)])


def conjugate_prime(P: PrimeIdeal) -> PrimeIdeal:
    if P.kind != "split":
        return P
    return PrimeIdeal(P.p, "split", 2 * P.p - P.b, 1)


# ------------------------------------------------- Kummer-level oracle


def kummer_generator(ctx, q: PrimeIdeal):
    """Generator alpha with q^(kprime * l^m) = (alpha), where l^m is the
    order of the l-part of the class of q.  Returns (alpha, m)."""
    if ctx.field.kind == "rational":
        return integer_elt(q.p), 0
    c = class_dlog(ctx.field, prime_module(ctx.field, q), ctx.cl)
    m = 0
    for ci, mi in zip(c, ctx.cl.exps):
        if ci:
            v = 0
            while ci % ctx.ell == 0:
                ci //= ctx.ell
                v += 1
            m = max(m, mi - v)
    alpha = principal_generator(
        ctx.field,
        ideal_pow(ctx.field, prime_module(ctx.field, q), ctx.kprime * ctx.ell**m),
    )
    return alpha, m


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
    x = reduce_mod(ctx.field, alpha, P)
    return power_residue_level(x, ctx.ell, k, local_field(P)) == k


# ------------------------------------------------------- splitting map


def class_correction(ctx, q):
    """(c, gamma0, denom) for the target q, as in the module docstring."""
    fld = ctx.field
    c = class_dlog(fld, prime_module(fld, q), ctx.cl)
    J = ideal_pow(fld, prime_module(fld, q), ctx.kprime)
    denom = 1
    for a_i, ci in zip(ctx.cl.gens, c):
        if ci:
            bar = prime_module(fld, conjugate_prime(a_i))
            J = ideal_mul(fld, J, ideal_pow(fld, bar, ci))
            denom *= a_i.p**ci
    return tuple(c), principal_generator(fld, J), denom


def unit_root(fld, ell):
    """A primitive ell-th root of unity in the residue field."""
    e = (fld.q - 1) // ell
    for x in fld.iter_elements():
        z = fld.pow(x, e)
        if z != fld.one:
            return z
    raise AssertionError("no ell-th root of unity")


def alpha_roots(ctx, eps, twist=None):
    """An l^(m_i)-th root of each alpha_i at eps by iterated l-th roots;
    twist(), when given, returns a root of unity that multiplies each
    l-th root as it is taken."""
    fld = local_field(eps)
    roots = []
    for alpha, m in zip(ctx.cl.alphas, ctx.cl.exps):
        root = reduce_mod(ctx.field, alpha, eps)
        for _ in range(m):
            root = ell_root(root, ctx.ell, fld)
            if twist is not None:
                root = fld.mul(root, twist())
        roots.append(root)
    return roots


def splitting_map_image(ctx, eps, correction, roots):
    """The image s of the target with class_correction(ctx, q) at eps."""
    c, gamma0, denom = correction
    fld = local_field(eps)
    s = fld.mul(reduce_mod(ctx.field, gamma0, eps), fld.inv(embed(fld, denom)))
    for root, ci in zip(roots, c):
        s = fld.mul(s, fld.pow(root, ci))
    return s


def reference_image(ctx, eps, q, roots=None):
    """s^((N(eps)-1)/l^r) for the target q, from the given roots or
    from alpha_roots(ctx, eps)."""
    if roots is None:
        roots = alpha_roots(ctx, eps)
    s = splitting_map_image(ctx, eps, class_correction(ctx, q), roots)
    return local_field(eps).pow(s, (eps.norm - 1) // ctx.ell**ctx.r)


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


# ------------------------------------------------------- ramified roots


def ramified_root_by_scan(d: int, p: int) -> int:
    """The least b in [0, 2p) with b = D mod 2 and b^2 = D mod 4p, for a
    prime p dividing the discriminant D."""
    return next(b for b in range(2 * p) if (b - d) % 2 == 0 and (b * b - d) % (4 * p) == 0)
