"""The root-based splitting map: the reference implementation that
acceptance criterion 6 and the choice-invariance tests compare
classfield.frobenius_image against.

For a target q with class discrete log c, the ideal q^kprime * prod a_i^(-c_i)
is principal.  Its generator is gamma0 / denom, where gamma0 generates
q^kprime * prod conj(a_i)^c_i and denom = prod N(a_i)^c_i.  At a conductor
eps in S the image is s = gamma0 / denom * prod root_i^c_i, with root_i an
l^(m_i)-th root of alpha_i at eps.  s^(l^t) is a unit times a generator of
q^(kprime * l^t), so s^((N(eps)-1)/l^r) is the production image as an
element, for every choice of roots.
"""

from constdeg.arith import ell_root
from constdeg.quadfield import (
    class_dlog,
    conjugate_prime,
    ideal_mul,
    ideal_pow,
    local_field,
    prime_module,
    principal_generator,
    reduce_mod,
)


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
    s = fld.mul(reduce_mod(ctx.field, gamma0, eps), fld.inv(fld.embed(denom)))
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
