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
l.  Every prime is a (p, b) pair of ints, as quadfield names it,
enumerate_field_primes lists it and the certificate writes it: a table
row, a search target, a class-basis prime or a key of the deficiencies.
A ray piece is named by its conductor, a Conductor(p, b, norm) in S,
the piece record the certificate writes; its degree l^r is the
context's.

Conventions:
  * the seed character is the canonical order-l^r quotient of
    (Z/l^(r+1))^* for odd l, and for l = 2 the odd character mod 2^(r+2)
    sending 5 to a primitive 2^r-th root of unity;
  * the Frobenius of a target q other than the conductor eps has the
    order of x = gamma^((N(eps)-1)/l^(r+t)) mod eps (conductor_image)
    in the ray piece, where gamma generates q^(m * l^t): m, the prime-to-l
    part of the class number, kills the prime-to-l part of the class of q
    and l^t its l-part, so that power is principal.  gamma is fixed only
    up to a unit, and S makes every unit an l^(r+t)-th power residue at
    eps, so x does not depend on that choice.  Over Q, gamma = q and x =
    q^((eps-1)/l^r) mod eps;
  * at a conductor in S that order divides l^r, and one that does not is
    an InternalInconsistency; over K, arith.order_exponent reads it off
    x.  The conductor is totally ramified in its piece, and over K no
    Frobenius order is asked for it;
  * quadfield.conductor_image is the one copy of that power.  It names
    the conductor by ints, p and the root b of a split prime or None at
    an inert one, as the search meets its candidates, and takes the
    exponent and residue field from its caller, which makes them once
    per column or norm.  x is a plain int at a split conductor,
    (a + b*sqrt(D))/2 read as (a + b*root)/2 mod p and raised by one
    builtin pow, and a pair of F_p(sqrt(D)) at an inert one, raised in
    that field.

Each conductor is the first prime of S that answers the greedy step's
one question; search_prime states it and asks it.  It walks the norm
progression S forces, but tests only the entries of its one class that
can hold a prime of S split in the seed and that a segmented sieve
leaves: primes, prime squares and entries with no small prime factor.
Below SIEVE_PRIMES**2 that leaves no other composite, so over K the
sieve decides primality there and is_prime runs only above it.  Over Q
the sieve also strikes, past a few times each earlier conductor Q, the
entries that are no l^r-th power residue mod Q, which cannot split in
Q's piece; the per-entry test of that split stays.  Over K it strikes,
past a few times |D|, the entries of Kronecker symbol (D/n) other than
1, which hold no split prime and no inert square.  Over K each
candidate, met as ints, p and its root, None at an inert prime, must
first have its class-basis residues, then give the fixed primes their
Frobenius orders; at t = 0 a split norm first meets a test of the
conjugate pairs among the fixed primes.  The search cap counts entries
of the whole progression, the skipped ones included.
"""

from bisect import bisect_left
from collections import deque, namedtuple
from itertools import compress
from math import gcd, isqrt, lcm

from .arith import (
    PRIME_LIMIT,
    SIEVE_PRIMES,
    SIEVE_TABLE,
    ResidueField,
    SearchExhausted,
    factor,
    is_prime,
    order_exponent,
    power_residue_level,
    residue_pattern,
    small_primes,
)
from .quadfield import (
    NotPrincipal,
    basis_residues,
    class_dlog,
    class_group_l_part,
    conductor_image,
    factor_rational_prime,
    ideal_pow,
    kronecker_disc,
    kronecker_pattern,
    local_field,
    normalize_unit,
    prime_module,
    principal_generator,
    reduce_mod,
    split_roots,
    unit_generators,
)


class InternalInconsistency(Exception):
    """A quantity recomputed two ways disagreed; the result is untrusted."""


# ------------------------------------------------------------- context


class Context(namedtuple("Context", "field ell r cl units excluded seed deficiencies")):
    """The facts fixed by (field, l, r), an immutable record: cl is the
    class group's l-part, excluded the rational primes dividing 2*l*disc,
    deficiencies the seed's at each (p, b) above l, in factoring order."""

    __slots__ = ()

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
    seed, deficiencies = build_L0_rational(ell, r), _deficiencies(field, ell, r)
    units = unit_generators(field)
    return Context(field, ell, r, cl, units, excluded, seed, deficiencies)


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
    return dict.fromkeys(factor_rational_prime(field, ell), a)


# ---------------------------------------------------------- seed piece


class CyclotomicPiece:
    def __init__(self, ell, r, modulus, degree, sign):
        self.ell = ell
        self.r = r
        self.modulus = modulus
        self.degree = degree  # l^r
        self.sign = sign  # character value at -1


def build_L0_rational(ell: int, r: int) -> CyclotomicPiece:
    """Seed piece: a cyclic degree-l^r field ramified only at l.

    For l = 2 the character is odd, so the seed is imaginary and the real
    place acquires local degree 2.
    """
    if ell == 2:
        return CyclotomicPiece(2, r, 2 ** (r + 2), 2**r, -1)
    return CyclotomicPiece(ell, r, ell ** (r + 1), ell**r, 1)


def character_order(piece, x: int) -> int:
    """Order of the seed character's value at the unit x, in closed form:
    one power and one gcd at any depth r, which a document can set to
    thousands."""
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
    # in that group y = 1 + l^v*u, u a unit, has order l^(e-v) for m = l^e
    return m // gcd(y - 1, m)


def frobenius_order_in_L0(piece, norm: int):
    """Frobenius order in the seed piece of a prime of the given norm, p
    or p^2; None for primes above l."""
    if norm % piece.ell == 0:
        return None
    return character_order(piece, norm)


# --------------------------------------------------- Chebotarev set S


def in_S(ctx, P) -> bool:
    """Membership test for auxiliary conductor candidates, read off P's
    p, b and norm.

    Requires: the l-part of the class of P is trivial, N(P) = 1 mod
    l^(r+t), every unit is an l^(r+t)-th power residue at P, and each
    class-basis generator alpha_i is an l^(m_i)-th power residue at P.
    A collision with an excluded or basis prime raises first; then the
    norm, the power residues and, last, the class-form reduction, the
    dearest of these pure tests of P, so their order changes only the
    cost of a rejection.  The residues of the alpha_i are
    quadfield.basis_residues, which search_prime also asks of each
    candidate before its fixed orders: a candidate it rejects is outside
    S, so the search drops no conductor by it, and in_S, which asks it
    again, stays the one test of membership.
    """
    w = (P.p, P.b)
    if P.p in ctx.excluded or w in ctx.cl.gens:
        raise ValueError("candidate collides with an excluded or basis prime")
    kmax = ctx.r + ctx.t
    if (P.norm - 1) % ctx.ell**kmax:
        return False
    fld = local_field(ctx.field, w)
    for u in ctx.units:
        if power_residue_level(reduce_mod(ctx.field, u, w), ctx.ell, kmax, fld) != kmax:
            return False
    if not basis_residues(ctx.cl, ctx.ell, w, fld):
        return False
    if ctx.field.kind == "imag_quadratic":
        return not any(class_dlog(ctx.field, prime_module(ctx.field, w), ctx.cl))
    return True


# ----------------------------------------------------------- ray piece


class Conductor(namedtuple("Conductor", "p b norm")):
    """The conductor of a ray piece, as the certificate writes the piece:
    the prime (p, b) and its norm, p or p^2 at an inert p of K."""

    __slots__ = ()


def make_ray_piece(ctx, P: Conductor) -> Conductor:
    """The ray piece of conductor P, which is P itself once it is
    checked to lie in S."""
    if not in_S(ctx, P):
        raise ValueError("conductor lies outside the Chebotarev set")
    return P


def _target_generator(ctx, q):
    # generator of q^(m * l^t), m = cl.coprime_part, for the prime q = (p, b)
    J = ideal_pow(ctx.field, prime_module(ctx.field, q), ctx.cl.coprime_part * ctx.ell**ctx.t)
    try:
        return principal_generator(ctx.field, J)
    except NotPrincipal:
        raise InternalInconsistency("target ideal power is not principal")


def _generator(ctx, gens: dict, q):
    # q's _target_generator, kept in gens, the dict of one DegreeFold or
    # one search_prime call; a split q whose conjugate (p, 2p - b) is there
    # takes the canonical associate of its (x, -y), which generates the
    # conjugate power and so is the one principal_generator would return.
    # A ramified q names itself or no prime there, so it never takes one.
    # That associate, (x + y*sqrt(D))/2, must lie in q, the ideal
    # (p, (-b + sqrt(D))/2) of prime_module, so x + y*b = 0 mod 2p; the
    # conjugate's own generator does not
    gamma = gens.get(q)
    if gamma is None:
        p, b = q
        bar = b is not None and gens.get((p, 2 * p - b))
        if bar:
            gamma = x, y = normalize_unit(ctx.field, (bar[0], -bar[1]))
            if (x + y * b) % (2 * p):
                raise InternalInconsistency(f"generator {gamma} for ({p},{b}) lies outside it")
        else:
            gamma = _target_generator(ctx, q)
        gens[q] = gamma
    return gamma


def _rational_frobenius_order(q: int, n: int, ell: int, full: int) -> int:
    # order of the Frobenius of q in the degree-full piece of conductor n,
    # where n is totally ramified; a composite n may give a non-order
    if q == n:
        return full
    x, order = pow(q, (n - 1) // full, n), 1
    while x != 1 and order <= full:
        x, order = pow(x, ell, n), order * ell
    return order


def frobenius_orders(ctx, eps: Conductor, ws, gens: dict) -> list:
    """The order of the Frobenius of each prime w = (p, b) in ws, none of
    them eps, in the ray piece of conductor eps: over Q that of
    p^((eps-1)/l^r) mod eps, one pow and the order loop; over K that of
    the conductor_image of w's generator, kept in the caller's gens, with
    the exponent (N(eps)-1)/l^(r+t) and the residue field taken once for
    all of ws.  An order that does not divide l^r raises
    InternalInconsistency.  eps itself is totally ramified there, which
    DegreeFold reads without asking."""
    ell, r = ctx.ell, ctx.r
    full = ell**r
    if ctx.field.kind == "rational":
        out = [_rational_frobenius_order(p, eps.p, ell, full) for p, _ in ws]
    else:
        fld = local_field(ctx.field, (eps.p, eps.b))
        e = (eps.norm - 1) // ell ** (r + ctx.t)
        images = (conductor_image(eps.p, eps.b, e, _generator(ctx, gens, w), fld) for w in ws)
        out = [ell ** order_exponent(x, ell, r, fld) for x in images]
    if out and max(out) > full:
        raise InternalInconsistency("Frobenius image escapes the piece")
    return out


def frobenius_order_in_ray_piece(ctx, eps: Conductor, q, gens: dict = None) -> int:
    """Order of the Frobenius of a prime q = (p, b) other than eps in the
    ray piece of conductor eps, the one-prime column of frobenius_orders."""
    return frobenius_orders(ctx, eps, [q], {} if gens is None else gens)[0]


# ------------------------------------------------------ conductor search


DEFAULT_CAP = 10_000_000  # progression entries per conductor search


class SearchCursor:
    def __init__(self, cap=DEFAULT_CAP):
        self.cap = cap


def _quad_candidates(ctx, n: int, pairs=()):
    """The primes of norm n, an entry of _sieved_walk, as (p, roots): the
    split_roots b of the two primes above n if n = p is a prime that
    splits, or roots (None,) for the inert prime p if n = p^2; roots ()
    if there is neither.

    Euler's symbol x = D^((n-1)/2) mod n comes first.  For a prime n,
    x = n - 1 means n is inert and x = 1 that it splits (so n is prime
    to 2*l*D); a square p^2 never gives n - 1, as x = 1 mod p.  Below
    SIEVE_PRIMES**2 the walk leaves only primes and prime squares, so
    there a non-square n with x = 1 is a split prime; only at or above
    it does x = 1 ask is_prime(n).  A split prime's roots come from
    split_roots, with no second symbol.  Every other n, a composite
    with x = 1 included, goes on to the square test.

    pairs, which search_prime passes only at t = 0 and D < -4, are the
    rational primes p under the fixed primes q of wanted order 1 that
    are inert, ramified, or split with the conjugate also fixed at order
    1, but for 2 at l^r = 2.  A split prime n gets roots () when some
    p^(E*e) != 1 mod n, E = m*l^t the exponent of q's generator and
    e = (n - 1)/l^(r+t), before split_roots.  At either root, the image
    of an inert q, or the images of a split or ramified q and its
    conjugate (q itself if ramified) multiplied, are the image of a
    generator of (p)^E, +-p^E, and (+-1)^e = 1 as the stride makes e
    even, so p^(E*e) != 1 mod n leaves one of them other than 1: no root
    of such an n passes the fixed orders, and the conductor found does
    not change.  At t = 0 no image escapes the piece, as
    x^(l^r) = gamma^(n-1) = 1 mod P, so the escape check, which must see
    every candidate at t > 0, loses nothing.  At D = -3 and -4 the
    product carries a root of unity of order 3, 4 or 6, which e kills
    only through the walked class, so no pairs are passed there."""
    D = ctx.field.disc
    x = pow(D, (n - 1) // 2, n)
    if x == n - 1:
        return n, ()
    p = isqrt(n)
    if x == 1 and p * p != n and (n < SIEVE_PRIMES**2 or is_prime(n)):
        if pairs:
            f = (n - 1) // ctx.ell**ctx.r * ctx.cl.coprime_part  # E*e
            if any(pow(q, f, n) != 1 for q in pairs):
                return n, ()
        return n, split_roots(D, n)
    if p * p != n or not is_prime(p):
        return n, ()
    if p in ctx.excluded or kronecker_disc(D, p) != -1:
        return n, ()
    return p, (None,)


SIEVE_BLOCK = 1 << 15  # most entries of the walked class sieved at once


def _sieved_walk(ctx, step: int, stop: int, conductors=()):
    """The entries n = 1 + M*k <= stop (k >= 1), M = lcm(step, seed
    modulus), with no prime factor p below SIEVE_PRIMES unless n is p or
    p^2, ascending; over Q, from the first block past k = 4Q on, also
    none that is not an l^r-th power residue mod Q, for each prime Q in
    conductors; over K, from the first block past k = 4|D| on, also none
    with Kronecker symbol (D/n) other than 1.

    They are the entries of n = 1 + step*j that can hold a prime of S
    split in the seed: the seed character is injective on n = 1 mod l
    (mod 4 at l = 2), and the one other class it admits, n = 3 mod 8 at
    K(-3) and K(-4) for l = 2, r = 1, holds no prime of S, which asks the
    unit -1 to be a square at P.  Each prime p not dividing M, with p^2
    at most a block's last norm, strikes its multiples above p^2.  Blocks
    grow from 64 entries to SIEVE_BLOCK, so that an early conductor stays
    cheap.  search_prime passes the earlier conductors of a rational
    search: a prime splits in Q's piece only if its norm is such a
    residue, so Q's residue_pattern, turned to the block's first k,
    strikes the rest of each block by an AND of ints.  Q joins only once
    4Q entries are walked, which bounds the (Q - 1)/l^r products its
    pattern costs by the walk it prunes.  Over K the same code strikes
    the entries whose symbol (D/n), a character mod |D| since D is
    fundamental, is -1 or 0: an inert prime, a ramified norm or a
    composite, none of which _quad_candidates gives a prime, while a
    split prime and an inert square p^2 have (D/n) = 1.  So the strike
    cannot change the conductor found.  Its kronecker_pattern over k mod
    |D| costs (p - 1)/2 products at each odd prime p dividing D, and a
    few ints of |D| bytes; it joins past 4|D| entries, by the same bound."""
    M = lcm(step, ctx.seed.modulus)
    # p divides 1 + M*k iff k = root mod p; p^2 < 1 + M*k iff k >= low
    strikes = [
        (p, -pow(M, -1, p) % p, (p * p - 1) // M + 1)
        for p in SIEVE_TABLE[: bisect_left(SIEVE_TABLE, isqrt(stop) + 1)]
        if M % p
    ]
    rational, full = ctx.field.kind == "rational", ctx.ell**ctx.r
    waiting, patterns = sorted(conductors) if rational else [-ctx.field.disc], []
    lo, size, end = 1, 64, (stop - 1) // M + 1
    while lo < end:
        hi = min(lo + size, end)
        block = bytearray(b"\x01") * (hi - lo)
        top = 1 + M * (hi - 1)
        for p, root, low in strikes:
            if p * p > top:
                break
            i = max(lo, low)
            i += (root - i) % p - lo
            block[i::p] = bytes(len(range(i, hi - lo, p)))
        while waiting and 4 * waiting[0] <= lo:
            Q = waiting.pop(0)
            pattern = residue_pattern(Q, M, full) if rational else kronecker_pattern(-Q, M)
            pattern *= 4096 // Q + 1  # tiled past 4096, so a turn takes two slices
            patterns.append((Q, pattern))
        # the patterns turned to k = lo + c, ANDed in as ints of 4096
        # entries, so that no int is block-sized
        for c in range(0, hi - lo, 4096) if patterns else ():
            part = block[c : c + 4096]
            mask, width = int.from_bytes(part, "little"), len(part)
            for Q, pattern in patterns:
                turned = pattern[(lo + c) % Q : (lo + c) % Q + width]
                while len(turned) < width:
                    turned += pattern[: width - len(turned)]
                mask &= int.from_bytes(turned, "little")
            block[c : c + width] = mask.to_bytes(width, "little")
        yield from compress(range(1 + M * lo, 1 + M * hi, M), block)
        lo, size = hi, min(2 * size, SIEVE_BLOCK)


def _fixed_orders(ctx, p: int, b, e: int, fld, fixed, full: int) -> bool:
    """Whether each fixed prime q, given with its generator gamma, has
    Frobenius order exactly k in the piece at the candidate (p, b), the
    split prime above p of root b or the inert prime p at b = None: the
    order in the residue field fld of its conductor_image with exponent
    e; a candidate equal to q gives the full degree.  An image that
    escapes the piece is the inconsistency frobenius_orders raises on at
    a candidate in S, and a plain rejection at one outside S, where the
    rule does not hold."""
    ell, r = ctx.ell, ctx.r
    for (qp, qb), gamma, k in fixed:
        if qp == p and qb == b:
            if k != full:
                return False
            continue
        order = ell ** order_exponent(conductor_image(p, b, e, gamma, fld), ell, r, fld)
        if order > full and in_S(ctx, Conductor(p, b, fld.q)):
            raise InternalInconsistency("Frobenius image escapes the piece")
        if order != k:
            return False
    return True


def search_prime(ctx, pieces, cursor: SearchCursor, target, order: int) -> Conductor:
    """The conductor of the next greedy piece, for the target prime
    (p, b): the first prime P of S, by ascending (norm, root), such that
      * P splits completely in the seed and in the pieces of the given
        conductors;
      * those conductors, and every prime above l other than target,
        split completely in the piece at P;
      * target has Frobenius order exactly order there (a P equal to
        target passes iff order is the full degree l^r).

    Walks the progression n = 1 + step*j (j >= 1) that S forces on
    norms, visiting in ascending order only the entries _sieved_walk
    leaves: those of the one class that can hold a prime of S split in
    the seed, less the composites other than prime squares with a prime
    factor below SIEVE_PRIMES, struck in C before any per-entry test.  Over
    Q every other condition is a test on the entry n = N(P), run before
    the primality test, and the walk also strikes, from k = 4Q on, the
    entries that fail the first of them, the split in the piece of an
    earlier conductor Q: n must be an l^r-th power residue mod Q.  That
    test still runs on every entry the walk leaves.  Over K the walk
    strikes, from k = 4|D| on, the entries of Kronecker symbol (D/n)
    other than 1, which hold no candidate; the entry's quadratic symbol
    comes next, is_prime only at or above SIEVE_PRIMES**2, and at t = 0
    and D < -4 a split norm's test of the fixed conjugate pairs
    (_quad_candidates, which says why none of these drops a conductor).
    Then each candidate, a split or inert prime of norm n coprime to
    2*l*disc and not a class-basis prime, must have each class-basis
    alpha_i an l^(m_i)-th power residue at it (quadfield.basis_residues,
    part of in_S), give the fixed primes (those above l other than
    target, the conductors and target) their orders, from generators
    fetched once per search into its own dict, then lie in S, then leave
    the conductors split.  A candidate meets the orders as its pair
    (p, b), b = None if inert, by conductor_image with the exponent
    (n - 1)/l^(r+t) and the residue field taken once per norm, and its
    Conductor(p, b, n) is built only once it passes them, or for the
    in_S of the escape check below.  Each test is a function of P alone
    and a conductor must pass them all, so their order does not change
    which P is found; an order above l^r at a fixed prime still raises
    InternalInconsistency at a P in S, and a candidate the residues
    reject is outside S, where the escape check would not raise.  Raises
    SearchExhausted (CLI exit 3), naming target and order, after
    cursor.cap entries of the progression, visited or not, or where it
    reaches 2**64, beyond which is_prime has no answer.
    """
    ell, full = ctx.ell, ctx.ell**ctx.r
    orders = [(s, 1) for s in ctx.deficiencies if s != target]
    orders += [((pc.p, pc.b), 1) for pc in pieces] + [(target, order)]
    rational = ctx.field.kind == "rational"
    step = lk = ell ** (ctx.r + ctx.t)
    if ell == 2 and (rational or ctx.field.disc < -4):
        step *= 2  # -1 must be a 2^(r+t)-th power residue
    last = 1 + step * cursor.cap
    stop = min(last, PRIME_LIMIT - 1)
    walk = _sieved_walk(ctx, step, stop, [pc.p for pc in pieces] if rational else ())
    if rational:
        # the progression already forces membership in S (the class
        # group is trivial and -1 an l^r-th power residue), so every
        # test runs on the norm
        tests = [lambda n, Q=pc.p, e=(pc.p - 1) // full: pow(n, e, Q) == 1 for pc in pieces]
        tests += [
            lambda n, q=q, k=k: _rational_frobenius_order(q, n, ell, full) == k
            for (q, _), k in orders
        ]
        for n in walk:
            for test in tests:
                if not test(n):
                    break
            else:
                if is_prime(n):
                    return Conductor(n, None, n)
    else:
        # the class-basis residues, one pow each, first; the orders at the
        # fixed primes, from generators fetched once per search, second;
        # in_S, which passes most candidates, third; the splits, which
        # need a new generator for every candidate, last.  A conductor
        # passes them all and each asks only about P, so the order
        # changes the cost of a rejection, not which P is found
        gens = {}  # (p, b) -> generator, dropped when the search returns
        fixed = [(q, _generator(ctx, gens, q), k) for q, k in orders]
        ones = {q for q, k in orders if k == 1}
        # 2 is a square mod every walked n = 1 mod 8: at l^r = 2 its test
        # would pass every norm
        pairs = () if ctx.t or ctx.field.disc >= -4 else {
            p for p, b in ones
            if (b is None or (p, -b % (2 * p)) in ones) and (p, full) != (2, 2)
        }
        for n in walk:
            p, roots = _quad_candidates(ctx, n, pairs)
            if not roots:
                continue
            # F_p at a split prime n = p, F_p(sqrt(D)) at an inert n = p^2
            fld = ResidueField(p, None if p == n else ctx.field.disc % p)
            e = (n - 1) // lk  # (N - 1)/l^(r+t)
            for b in roots:
                if (
                    (p, b) not in ctx.cl.gens
                    and basis_residues(ctx.cl, ell, (p, b), fld)
                    and _fixed_orders(ctx, p, b, e, fld, fixed, full)
                ):
                    P = Conductor(p, b, n)
                    if in_S(ctx, P) and all(
                        frobenius_order_in_ray_piece(ctx, pc, (p, b), gens) == 1 for pc in pieces
                    ):
                        return P
    if last >= PRIME_LIMIT:
        reason = f"norms reach the 2**64 primality limit within cap {cursor.cap}"
    else:
        reason = f"no conductor within cap {cursor.cap} (last norm {last})"
    p, b = target
    name = f"({p},{'-' if b is None else b})"
    raise SearchExhausted(f"{reason}; wanted order {order} at {name} after {len(pieces)} pieces")


# ------------------------------------------------------- local degrees


class DegreeFold:
    """The local_degree triples at rows, (p, b) pairs ascending by norm,
    under the seed and the pieces of the given conductors, then of each
    conductor passed to add, folded one component at a time.

    The seed order of a row's norm is asked once per residue mod the seed
    modulus that occurs.  Every order divides l^r, so a row's lcm is their
    max, and a piece asks its column of orders (frobenius_orders) only at
    the rows whose lcm is still below l^r, ramified ones included.  A
    conductor that is a row, found by bisecting the norms, is ramified
    there and asked nothing.  The fold keeps its rows' generators, each
    made once, a split row's from its conjugate, the adjacent row.
    """

    def __init__(self, ctx, rows, pieces):
        self.ctx, self.rows, self.count = ctx, rows, 0  # count: pieces added
        self.gens = {}  # (p, b) -> target generator, of these rows only
        quad = ctx.field.kind != "rational"  # N(p, b) is p but p^2 at an inert (p, None)
        self.norms = [p * p if b is None and quad else p for p, b in rows]
        self.ramified = {}  # row index -> component ramified there, 0 = seed
        self.orders = []  # per row, the lcm of its unramified orders
        memo = {}  # norm mod the seed modulus -> seed order, None above l
        for i, norm in enumerate(self.norms):
            k = norm % ctx.seed.modulus
            if k not in memo:
                memo[k] = frobenius_order_in_L0(ctx.seed, norm)
            if memo[k] is None:
                self.ramified[i] = 0
            self.orders.append(memo[k] or 1)
        self.short = [i for i, order in enumerate(self.orders) if order != ctx.seed.degree]
        for eps in pieces:
            self.add(eps)

    def add(self, eps: Conductor):
        """Fold the piece of conductor eps over the rows still short."""
        rows, orders, short = self.rows, self.orders, self.short
        self.count += 1
        key, lo = (eps.p, eps.b), bisect_left(self.norms, eps.norm)
        # at most two primes, conjugates, share a norm
        own = next((i for i, w in enumerate(rows[lo : lo + 2], lo) if w == key), None)
        if own in self.ramified:
            raise InternalInconsistency(f"({eps.p},{eps.b}) is ramified in more than one component")
        if own is not None:
            self.ramified[own] = self.count
            short = [i for i in short if i != own]
        ws = [rows[i] for i in short]
        for i, order in zip(short, frobenius_orders(self.ctx, eps, ws, self.gens)):
            orders[i] = max(orders[i], order)
        self.short = [i for i in self.short if orders[i] != self.ctx.seed.degree]

    def row(self, i: int):
        """The local_degree triple at row i."""
        ctx, ram = self.ctx, self.ramified.get(i)
        factor = 1 if ram is None else ctx.seed.degree
        if ram == 0:
            factor //= ctx.ell ** ctx.deficiencies[self.rows[i]]
        return ram, factor, factor * self.orders[i]


FOLD_ROWS = 256  # rows per DegreeFold of degree_folds


def degree_folds(ctx, pieces, rows):
    """One DegreeFold per FOLD_ROWS of rows, primes ascending by norm,
    each made when it is reached, under the conductors then in pieces; a
    fold's memory, its rows' generators included, stays small beside the
    table's, and a piece still asks each row for its order at most once."""
    for k in range(0, len(rows), FOLD_ROWS):
        yield DegreeFold(ctx, rows[k : k + FOLD_ROWS], pieces)


def local_degrees(ctx, pieces, rows):
    """The local_degree triple at each of rows, primes ascending by norm."""
    for fold in degree_folds(ctx, pieces, rows):
        yield from map(fold.row, range(len(fold.rows)))


def local_degree(ctx, pieces, w):
    """Local degree at the finite prime w = (p, b) of the compositum of the
    seed and the ray pieces of the given conductors: the ramification factor
    of the one component ramified at w times the lcm of the unramified
    Frobenius orders, from the one-row DegreeFold.

    Returns (ramified, factor, degree): the index of the component
    ramified at w (0 = seed, i >= 1 = piece i, None = unramified), its
    local degree l^(r-a) or l^r (1 if none), and the local degree.  Raises
    InternalInconsistency if w is ramified in two components.
    """
    return DegreeFold(ctx, [w], pieces).row(0)


def real_place_degree(field, n: int):
    """Certified local degree at the real place for exponent n: 2 for even
    n over the rationals, where the seed character is odd; None otherwise."""
    return 2 if n % 2 == 0 and field.kind == "rational" else None


def context_record(ctx) -> dict:
    """The certificate entries fixed by the context, in document order."""
    return {
        "t": ctx.t,
        "class_data": [
            {"gen_ideal": list(g), "order": ctx.ell**m, "alpha": list(alpha)}
            for g, m, alpha in zip(ctx.cl.gens, ctx.cl.exps, ctx.cl.alphas)
        ],
        "unit_gens": [list(u) for u in ctx.units],
        "l0": {
            "modulus": ctx.seed.modulus,
            "character": {"order": ctx.seed.degree, "sign": ctx.seed.sign},
        },
        "deficiencies": [
            {"prime": list(w), "deficiency": a}
            for w, a in ctx.deficiencies.items()
            if a
        ],
    }


def enumerate_field_primes(field, bound: int) -> list:
    """All primes of the field of norm <= bound as (p, b) pairs, ascending
    by norm (DegreeFold reads it) with split conjugates ordered by root,
    as factor_rational_prime gives them.  Over K each p takes one call of
    it, and an inert p, kept while p^2 <= bound, waits for the first
    prime above p^2.  It sieves to bound afresh, and keeps no table once
    it returns."""
    ps = small_primes(bound + 1)
    if field.kind == "rational":
        return [(p, None) for p in ps]
    out, inert = [], deque()
    for p in ps:
        while inert and inert[0] ** 2 < p:
            out.append((inert.popleft(), None))
        primes = factor_rational_prime(field, p)
        if primes[0][1] is not None:
            out += primes
        elif p * p <= bound:
            inert.append(p)
    out += ((p, None) for p in inert)
    return out
