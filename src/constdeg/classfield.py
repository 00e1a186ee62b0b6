"""Ray-class machinery for cyclic pieces of prime-power degree.

A piece is a cyclic degree-l^r extension of the base field ramified at a
single finite place: either the cyclotomic seed piece, ramified only at l,
or a ray piece cut out of the ray class field of one auxiliary prime
conductor.  Conductors are drawn from a Chebotarev set S of primes chosen
so that the ray class group splits off a cyclic factor of order at least
l^(r+t), where the Frobenius image of any target prime can be read off as
a power residue in the conductor's residue field.

The context owns every fact fixed by (field, l, r): the l-part of the
class group, the units, the seed and its deficiency at each prime above
l.  A ray piece is named by its conductor, a PrimeIdeal in S; its degree
l^r is the context's.

Conventions:
  * the seed character is the canonical order-l^r quotient of
    (Z/l^(r+1))^* for odd l, and for l = 2 the odd character mod 2^(r+2)
    sending 5 to a primitive 2^r-th root of unity;
  * the Frobenius of a target q other than the conductor eps has the
    order of x = gamma^((N(eps)-1)/l^(r+t)) mod eps in the ray piece,
    where gamma generates q^(kprime * l^t): kprime (1 mod l^(r+t)) kills
    the prime-to-l part of the class of q and l^t its l-part, so that
    power is principal.  gamma is fixed only up to a unit, and S makes
    every unit an l^(r+t)-th power residue at eps, so x does not depend
    on that choice.  Over Q, gamma = q and x = q^((eps-1)/l^r) mod eps.

Each conductor is the first prime of S that answers the greedy step's
one question; search_prime states it and asks it.
"""

from dataclasses import dataclass, field as dc_field
from math import gcd, isqrt, lcm

from .arith import (
    PRIME_LIMIT,
    SearchExhausted,
    factor,
    is_prime,
    power_residue_level,
    small_primes,
)
from .quadfield import (
    NotPrincipal,
    PrimeIdeal,
    class_dlog,
    class_group_l_part,
    factor_rational_prime,
    ideal_pow,
    integer_elt,
    kronecker_disc,
    local_field,
    prime_module,
    principal_generator,
    reduce_mod,
    unit_generators,
)


class InternalInconsistency(Exception):
    """A quantity recomputed two ways disagreed; the result is untrusted."""


# ------------------------------------------------------------- context


@dataclass(eq=False)
class Context:
    field: object
    ell: int
    r: int
    cl: object  # l-part of the class group with basis data
    units: list
    excluded: frozenset  # rational primes dividing 2*l*disc
    kprime: int  # kills the prime-to-l class component, is 1 mod l^(r+t)
    seed: object  # the CyclotomicPiece of build_L0_rational
    deficiencies: dict  # prime above l -> deficiency a, in factoring order
    _targets: dict = dc_field(default_factory=dict, repr=False)  # q -> gamma

    @property
    def t(self):
        return self.cl.t


def build_context(field, ell: int, r: int) -> Context:
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if r < 1:
        raise ValueError("r must be at least 1")
    disc = field.disc if field.kind == "imag_quadratic" else 1
    excluded = frozenset(p for p, _ in factor(abs(2 * ell * disc)))
    cl = class_group_l_part(field, ell, excluded)
    m = cl.coprime_part
    kprime = m * pow(m, -1, ell ** (r + cl.t))
    seed, deficiencies = build_L0_rational(ell, r), _deficiencies(field, ell, r)
    units = unit_generators(field)
    return Context(field, ell, r, cl, units, excluded, kprime, seed, deficiencies)


def _deficiencies(field, ell: int, r: int) -> dict:
    """Deficiency a of the seed at each prime above l, whose local degree
    there is l^(r-a); a = 1 only in the deficient case, where the
    completion of the base field at the prime above 2 already sits inside
    the seed piece 2-adically."""
    a = 0
    if field.kind == "imag_quadratic" and ell == 2 and field.disc % 8 == 0:
        # the seed's unique quadratic subfield is Q(sqrt(-2)) for r = 1
        # and Q(sqrt(2)) for r >= 2, so the containment test only
        # depends on D/8 mod 8
        m = field.disc // 8
        if (r == 1 and m % 8 == 7) or (r >= 2 and m % 8 == 1):
            a = 1
    return {lam: a for lam in factor_rational_prime(field, ell)}


# ---------------------------------------------------------- seed piece


@dataclass(eq=False)
class CyclotomicPiece:
    ell: int
    r: int
    modulus: int
    degree: int  # l^r
    sign: int  # character value at -1


def build_L0_rational(ell: int, r: int) -> CyclotomicPiece:
    """Seed piece: a cyclic degree-l^r field ramified only at l.

    For l = 2 the character is odd, so the seed is imaginary and the real
    place acquires local degree 2.
    """
    if ell == 2:
        return CyclotomicPiece(2, r, 2 ** (r + 2), 2**r, -1)
    return CyclotomicPiece(ell, r, ell ** (r + 1), ell**r, 1)


def character_order(piece, x: int) -> int:
    """Order of the seed character's value at the unit x."""
    m = piece.modulus
    x %= m
    if gcd(x, m) != 1:
        raise ValueError("character undefined at a non-unit")
    # map x to y in the cyclic l-part of (Z/m)^*, where the character is
    # injective and chi(y) = chi(x); the order is then that of y
    if piece.ell != 2:
        y = pow(x, piece.ell - 1, m)
    elif x % 4 == 1:
        y = x  # in <5>
    else:
        # chi(-1) = chi(5^(2^(r-1))) and 5^(2^(r-1)) = 1 + 2^(r+1) mod 2^(r+2)
        y = -x * (1 + m // 2) % m
    j = 0
    while y != 1:
        y = pow(y, piece.ell, m)
        j += 1
    return piece.ell**j


def frobenius_order_in_L0(piece, q: PrimeIdeal):
    """Frobenius order of q in the seed piece, None for primes above l."""
    if q.p == piece.ell:
        return None
    return character_order(piece, q.norm)


# --------------------------------------------------- Chebotarev set S


def in_S(ctx, P: PrimeIdeal) -> bool:
    """Membership test for auxiliary conductor candidates.

    Requires: the l-part of the class of P is trivial, N(P) = 1 mod
    l^(r+t), every unit is an l^(r+t)-th power residue at P, and each
    class-basis generator alpha_i is an l^(m_i)-th power residue at P.
    """
    if P.p in ctx.excluded or P in ctx.cl.gens:
        raise ValueError("candidate collides with an excluded or basis prime")
    kmax = ctx.r + ctx.t
    if (P.norm - 1) % ctx.ell**kmax:
        return False
    if ctx.field.kind == "imag_quadratic":
        if any(class_dlog(ctx.field, prime_module(ctx.field, P), ctx.cl)):
            return False
    fld = local_field(P)
    for u in ctx.units:
        if power_residue_level(reduce_mod(ctx.field, u, P), ctx.ell, kmax, fld) != kmax:
            return False
    for alpha, m in zip(ctx.cl.alphas, ctx.cl.exps):
        if power_residue_level(reduce_mod(ctx.field, alpha, P), ctx.ell, m, fld) != m:
            return False
    return True


# ----------------------------------------------------------- ray piece


def make_ray_piece(ctx, P: PrimeIdeal) -> PrimeIdeal:
    """The ray piece of conductor P, which is P itself once it is
    checked to lie in S."""
    if not in_S(ctx, P):
        raise ValueError("conductor lies outside the Chebotarev set")
    return P


def _target_generator(ctx, q: PrimeIdeal):
    # generator of q^(kprime * l^t), cached per target
    gamma = ctx._targets.get(q)
    if gamma is None:
        fld = ctx.field
        J = ideal_pow(fld, prime_module(fld, q), ctx.kprime * ctx.ell**ctx.t)
        try:
            gamma = principal_generator(fld, J)
        except NotPrincipal:
            raise InternalInconsistency("target ideal power is not principal")
        ctx._targets[q] = gamma
    return gamma


def frobenius_image(ctx, eps: PrimeIdeal, q: PrimeIdeal):
    """Over K, the residue x = gamma^((N(eps)-1)/l^(r+t)) at the
    conductor eps of a target q other than eps, where gamma generates
    q^(kprime * l^t); its order is the Frobenius order of q in the piece."""
    g = reduce_mod(ctx.field, _target_generator(ctx, q), eps)
    return local_field(eps).pow(g, (eps.norm - 1) // ctx.ell ** (ctx.r + ctx.t))


def _rational_frobenius_order(q: int, n: int, ell: int, full: int) -> int:
    # order of the Frobenius of q in the degree-full piece of conductor n,
    # where n is totally ramified; a composite n may give a non-order
    if q == n:
        return full
    x, order = pow(q, (n - 1) // full, n), 1
    while x != 1 and order <= full:
        x, order = pow(x, ell, n), order * ell
    return order


def frobenius_order_in_ray_piece(ctx, eps: PrimeIdeal, q: PrimeIdeal) -> int:
    """Order of the Frobenius of q in the ray piece of conductor eps, the
    order of its frobenius_image; eps itself is totally ramified and
    reports the full degree l^r."""
    full = ctx.ell**ctx.r
    if ctx.field.kind == "rational":
        return _rational_frobenius_order(q.p, eps.p, ctx.ell, full)
    if q == eps:
        return full
    fld = local_field(eps)
    x = frobenius_image(ctx, eps, q)
    order = 1
    one = fld.one
    while x != one:
        x = fld.pow(x, ctx.ell)
        order *= ctx.ell
        if order > full:
            raise InternalInconsistency("Frobenius image escapes the piece")
    return order


def kummer_generator(ctx, q: PrimeIdeal):
    """Generator alpha with q^(kprime * l^m) = (alpha), where l^m is the
    order of the l-part of the class of q.  Returns (alpha, m).

    With kummer_split_test this is the independent oracle of acceptance
    criterion 5 for frobenius_order_in_ray_piece; the search itself asks
    for Frobenius orders."""
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
    the Frobenius of q has order at most l^(r-s) in the piece at P; the
    tests use this as an oracle (acceptance criterion 5)."""
    if k == 0:
        return True
    if k > ctx.r + ctx.t:
        raise ValueError("Kummer level exceeds r + t")
    if (P.norm - 1) % ctx.ell**k:
        return False
    x = reduce_mod(ctx.field, alpha, P)
    return power_residue_level(x, ctx.ell, k, local_field(P)) == k


# ------------------------------------------------------ conductor search


DEFAULT_CAP = 10_000_000  # progression entries per conductor search


@dataclass
class SearchCursor:
    cap: int = DEFAULT_CAP


def _rational_candidates(ctx, n: int):
    return [PrimeIdeal(n, "rational", None, 1)] if is_prime(n) else []


def _quad_candidates(ctx, n: int):
    if is_prime(n):
        if n in ctx.excluded or kronecker_disc(ctx.field.disc, n) != 1:
            return []
        return factor_rational_prime(ctx.field, n)
    p = isqrt(n)
    if p * p != n or not is_prime(p):
        return []
    if p in ctx.excluded or kronecker_disc(ctx.field.disc, p) != -1:
        return []
    return factor_rational_prime(ctx.field, p)


def search_prime(
    ctx, pieces, cursor: SearchCursor, target: PrimeIdeal, order: int
) -> PrimeIdeal:
    """The conductor of the next greedy piece: the first prime P of S, by
    ascending (norm, root), such that
      * P splits completely in the seed and in the pieces of the given
        conductors;
      * those conductors, and every prime above l other than target,
        split completely in the piece at P;
      * target has Frobenius order exactly order there (a P equal to
        target passes iff order is the full degree l^r).

    Walks the progression N = 1 mod l^(r+t) that S forces on norms.  Over
    Q every condition is a test on the entry n = N(P), run before the
    primality test; over K only the seed's is, and each candidate, a
    split or inert prime of norm n coprime to 2*l*disc and not a
    class-basis prime, must then lie in S and meet the rest.  Raises
    SearchExhausted (CLI exit 3), naming target and order, after
    cursor.cap entries or where the progression reaches 2**64, beyond
    which is_prime has no answer.
    """
    ell, full = ctx.ell, ctx.ell**ctx.r
    orders = [(s, 1) for s in ctx.deficiencies if s != target]
    orders += [(pc, 1) for pc in pieces] + [(target, order)]
    norm_tests = [lambda n, l0=ctx.seed: character_order(l0, n) == 1]
    rational = ctx.field.kind == "rational"
    if rational:
        # the progression already forces membership in S (the class
        # group is trivial and -1 an l^r-th power residue), so every
        # test runs on the norm
        norm_tests += [lambda n, Q=pc.p, e=(pc.p - 1) // full: pow(n, e, Q) == 1 for pc in pieces]
        norm_tests += [
            lambda n, q=q.p, k=k: _rational_frobenius_order(q, n, ell, full) == k
            for q, k in orders
        ]
        prime_tests = ()
        candidates = _rational_candidates
    else:
        # in_S first: the Frobenius rule holds only at conductors in S;
        # the orders at the fixed primes before the splits, which need a
        # new generator for every candidate
        prime_tests = [
            lambda P: in_S(ctx, P),
            lambda P: all(frobenius_order_in_ray_piece(ctx, P, q) == k for q, k in orders),
        ]
        prime_tests += [
            lambda P, pc=pc: frobenius_order_in_ray_piece(ctx, pc, P) == 1 for pc in pieces
        ]
        candidates = _quad_candidates
    basis = ctx.cl.gens
    step = ell ** (ctx.r + ctx.t)
    if ell == 2 and (rational or ctx.field.disc < -4):
        step *= 2  # -1 must be a 2^(r+t)-th power residue
    last = 1 + step * cursor.cap
    for n in range(1 + step, min(last, PRIME_LIMIT - 1) + 1, step):
        for test in norm_tests:
            if not test(n):
                break
        else:
            for P in candidates(ctx, n):
                if P in basis:
                    continue
                for test in prime_tests:
                    if not test(P):
                        break
                else:
                    return P
    if last >= PRIME_LIMIT:
        reason = f"norms reach the 2**64 primality limit within cap {cursor.cap}"
    else:
        reason = f"no conductor within cap {cursor.cap} (last norm {last})"
    name = f"({target.p},{'-' if target.b is None else target.b})"
    raise SearchExhausted(f"{reason}; wanted order {order} at {name} after {len(pieces)} pieces")


# ------------------------------------------------------- local degrees


def local_degree(ctx, pieces, w: PrimeIdeal, running=None):
    """Local degree at the finite prime w of the compositum of the seed
    and the ray pieces of the given conductors: the ramification factor
    of the one component ramified at w times the lcm of the unramified
    Frobenius orders.

    Returns (ramified, factor, degree): the index of the component
    ramified at w (0 = seed, i >= 1 = piece i, None = unramified), its
    local degree l^(r-a) or l^r (1 if none), and the local degree.  Given
    running, the result for all but the last conductor, only the last is
    folded in.  Raises InternalInconsistency if w is ramified in two
    components.

    Every order divides l^r, so once the unramified lcm reaches l^r only
    a later conductor equal to w can still move the degree; the fold
    then stops asking for orders and only looks for one.
    """
    ell, full = ctx.ell, ctx.ell**ctx.r
    if running is not None:
        ramified, factor, degree = running
        rest, start = degree // factor, len(pieces) - 1
    elif w.p == ell:
        ramified, factor, rest, start = 0, ell ** (ctx.r - ctx.deficiencies[w]), 1, 0
    else:
        ramified, factor, rest, start = None, 1, frobenius_order_in_L0(ctx.seed, w), 0
    for i in range(start, len(pieces)):
        eps = pieces[i]
        if eps.p == w.p and eps == w:  # p settles most pairs without __eq__
            if ramified is not None:
                raise InternalInconsistency(
                    f"({w.p},{w.b}) is ramified in more than one component"
                )
            ramified, factor = i + 1, full
        elif rest != full:
            rest = lcm(rest, frobenius_order_in_ray_piece(ctx, eps, w))
    return ramified, factor, factor * rest


def real_place_degree(field, n: int):
    """Certified local degree at the real place for exponent n: 2 for even
    n over the rationals, where the seed character is odd; None otherwise."""
    return 2 if n % 2 == 0 and field.kind == "rational" else None


def context_record(ctx) -> dict:
    """The certificate entries fixed by the context, in document order."""
    return {
        "t": ctx.t,
        "class_data": [
            {"gen_ideal": [g.p, g.b], "order": ctx.ell**m, "alpha": list(alpha)}
            for g, m, alpha in zip(ctx.cl.gens, ctx.cl.exps, ctx.cl.alphas)
        ],
        "unit_gens": [list(u) for u in ctx.units],
        "l0": {
            "modulus": ctx.seed.modulus,
            "character": {"order": ctx.seed.degree, "sign": ctx.seed.sign},
        },
        "deficiencies": [
            {"prime": [P.p, P.b], "deficiency": a}
            for P, a in ctx.deficiencies.items()
            if a
        ],
    }


def enumerate_field_primes(field, bound: int):
    """All primes of the field of norm <= bound, ascending by norm with
    split conjugates ordered by root."""
    if field.kind == "rational":
        return [
            PrimeIdeal(p, "rational", None, 1)
            for p in small_primes(bound + 1)
        ]
    out = [
        P
        for p in small_primes(bound + 1)
        for P in factor_rational_prime(field, p)
        if P.norm <= bound
    ]
    out.sort(key=lambda P: P.norm)  # stable: split conjugates stay by root
    return out
