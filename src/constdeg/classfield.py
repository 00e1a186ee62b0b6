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
  * conductor_image is the one copy of that power.  It names the
    conductor by ints, p and the root b of a split prime or None at an
    inert one, as the search meets its candidates, and takes the
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
sieve decides primality there and is_prime runs only above it.  Over K
each candidate must first give the fixed primes their Frobenius orders,
which it meets as ints: p and its root, None at an inert prime.  The
search cap counts entries of the whole progression, the skipped ones
included.
"""

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from itertools import compress
from math import gcd, isqrt, lcm

from .arith import (
    PRIME_LIMIT,
    ResidueField,
    SearchExhausted,
    factor,
    is_prime,
    order_exponent,
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
    kronecker_disc,
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


@dataclass(eq=False)
class Context:
    field: object
    ell: int
    r: int
    cl: object  # l-part of the class group with basis data
    units: list
    excluded: frozenset  # rational primes dividing 2*l*disc
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
    fld = local_field(ctx.field, P)
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
    # generator of q^(m * l^t), m = cl.coprime_part, cached per target; a
    # split q whose conjugate's generator (x, y) is cached takes the
    # canonical associate of (x, -y), which generates the conjugate power
    # and so is the one principal_generator would return
    gamma = ctx._targets.get(q)
    if gamma is None:
        fld = ctx.field
        bar = q.kind == "split" and ctx._targets.get(PrimeIdeal(q.p, "split", 2 * q.p - q.b, 1))
        if bar:
            gamma = normalize_unit(fld, (bar[0], -bar[1]))
        else:
            J = ideal_pow(fld, prime_module(fld, q), ctx.cl.coprime_part * ctx.ell**ctx.t)
            try:
                gamma = principal_generator(fld, J)
            except NotPrincipal:
                raise InternalInconsistency("target ideal power is not principal")
        ctx._targets[q] = gamma
    return gamma


def conductor_image(p: int, b, e: int, gamma, fld):
    """gamma^e in the residue field fld at the split prime above p of
    root b, or at the inert prime p at b = None: gamma = (x + y*sqrt(D))/2
    read as reduce_mod reads it, sqrt(D) = b mod p at a split prime and
    the generator w of F_p(sqrt(D)) at an inert one."""
    x, y = gamma
    h = (p + 1) >> 1  # 1/2 mod p
    if b is None:
        return fld.pow((x * h % p, y * h % p), e)
    return pow((x + y * b) * h, e, p)


def _rational_frobenius_order(q: int, n: int, ell: int, full: int) -> int:
    # order of the Frobenius of q in the degree-full piece of conductor n,
    # where n is totally ramified; a composite n may give a non-order
    if q == n:
        return full
    x, order = pow(q, (n - 1) // full, n), 1
    while x != 1 and order <= full:
        x, order = pow(x, ell, n), order * ell
    return order


def frobenius_orders(ctx, eps: PrimeIdeal, ws) -> list:
    """The order of the Frobenius of each prime w in ws, none of them eps,
    in the ray piece of conductor eps: over Q that of w^((eps-1)/l^r) mod
    eps, one pow and the order loop; over K that of the conductor_image
    of w's generator, with the exponent (N(eps)-1)/l^(r+t) and the
    residue field taken once for all of ws.  An order that does not
    divide l^r raises InternalInconsistency.  eps itself is totally
    ramified there, which DegreeFold reads without asking."""
    ell, r = ctx.ell, ctx.r
    full = ell**r
    if ctx.field.kind == "rational":
        out = [_rational_frobenius_order(w.p, eps.p, ell, full) for w in ws]
    else:
        fld = local_field(ctx.field, eps)
        e = (eps.norm - 1) // ell ** (r + ctx.t)
        images = (conductor_image(eps.p, eps.b, e, _target_generator(ctx, w), fld) for w in ws)
        out = [ell ** order_exponent(x, ell, r, fld) for x in images]
    if out and max(out) > full:
        raise InternalInconsistency("Frobenius image escapes the piece")
    return out


def frobenius_order_in_ray_piece(ctx, eps: PrimeIdeal, q: PrimeIdeal) -> int:
    """Order of the Frobenius of a prime q != eps in the ray piece of
    conductor eps, the one-prime column of frobenius_orders."""
    return frobenius_orders(ctx, eps, [q])[0]


# ------------------------------------------------------ conductor search


DEFAULT_CAP = 10_000_000  # progression entries per conductor search


@dataclass
class SearchCursor:
    cap: int = DEFAULT_CAP


def _quad_candidates(ctx, n: int):
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
    with x = 1 included, goes on to the square test."""
    x = pow(ctx.field.disc, (n - 1) // 2, n)
    if x == n - 1:
        return n, ()
    p = isqrt(n)
    if x == 1 and p * p != n and (n < SIEVE_PRIMES**2 or is_prime(n)):
        return n, split_roots(ctx.field.disc, n)
    if p * p != n or not is_prime(p):
        return n, ()
    if p in ctx.excluded or kronecker_disc(ctx.field.disc, p) != -1:
        return n, ()
    return p, (None,)


def _candidate(p: int, b) -> PrimeIdeal:
    # the split prime above p of root b, or the inert prime p at b = None
    if b is None:
        return PrimeIdeal(p, "inert", None, 2)
    return PrimeIdeal(p, "split", b, 1)


SIEVE_PRIMES = 1 << 12  # the walk strikes multiples of the primes below this
SIEVE_BLOCK = 1 << 15  # most entries of the walked class sieved at once


def _sieved_walk(ctx, step: int, stop: int):
    """The entries n = 1 + M*k <= stop (k >= 1), M = lcm(step, seed
    modulus), with no prime factor p below SIEVE_PRIMES unless n is p or
    p^2, ascending.

    They are the entries of n = 1 + step*j that can hold a prime of S
    split in the seed: the seed character is injective on n = 1 mod l
    (mod 4 at l = 2), and the one other class it admits, n = 3 mod 8 at
    K(-3) and K(-4) for l = 2, r = 1, holds no prime of S, which asks the
    unit -1 to be a square at P.  Each prime p not dividing M, with p^2
    at most a block's last norm, strikes its multiples above p^2.  Blocks
    grow from 64 entries to SIEVE_BLOCK, so that an early conductor stays
    cheap."""
    M = lcm(step, ctx.seed.modulus)
    # p divides 1 + M*k iff k = root mod p; p^2 < 1 + M*k iff k >= low
    strikes = [
        (p, -pow(M, -1, p) % p, (p * p - 1) // M + 1)
        for p in small_primes(min(SIEVE_PRIMES, isqrt(stop) + 1))
        if M % p
    ]
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
    for q, gamma, k in fixed:
        if q.p == p and q.b == b:
            if k != full:
                return False
            continue
        order = ell ** order_exponent(conductor_image(p, b, e, gamma, fld), ell, r, fld)
        if order > full and in_S(ctx, _candidate(p, b)):
            raise InternalInconsistency("Frobenius image escapes the piece")
        if order != k:
            return False
    return True


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

    Walks the progression n = 1 + step*j (j >= 1) that S forces on
    norms, visiting in ascending order only the entries _sieved_walk
    leaves: those of the one class that can hold a prime of S split in
    the seed, less the composites other than prime squares with a prime
    factor below SIEVE_PRIMES, struck in C before any per-entry test.  Over
    Q every other condition is a test on the entry n = N(P), run before
    the primality test.  Over K the entry's quadratic symbol comes first,
    and is_prime only at or above SIEVE_PRIMES**2 (_quad_candidates);
    then each candidate, a split or inert prime of norm n coprime to
    2*l*disc and not a class-basis prime, must give the fixed primes
    (those above l other than target, the conductors and target) their
    orders, from generators fetched once per search, then lie in S, then
    leave the conductors split.  A candidate meets the orders as its
    ints, p and its root (None if inert), by conductor_image with the
    exponent (n - 1)/l^(r+t) and the residue field taken once per norm,
    and skips the class basis by a set of (p, root) pairs; its
    PrimeIdeal is built only once it passes them, or for the in_S of the
    escape check below.  Each test is a function of P alone and
    a conductor must pass all three, so their order does not change
    which P is found; an order above l^r at a fixed prime still raises
    InternalInconsistency at a P in S.  Raises
    SearchExhausted (CLI exit 3), naming target and order, after
    cursor.cap entries of the progression, visited or not, or where it
    reaches 2**64, beyond which is_prime has no answer.
    """
    ell, full = ctx.ell, ctx.ell**ctx.r
    orders = [(s, 1) for s in ctx.deficiencies if s != target]
    orders += [(pc, 1) for pc in pieces] + [(target, order)]
    rational = ctx.field.kind == "rational"
    step = lk = ell ** (ctx.r + ctx.t)
    if ell == 2 and (rational or ctx.field.disc < -4):
        step *= 2  # -1 must be a 2^(r+t)-th power residue
    last = 1 + step * cursor.cap
    stop = min(last, PRIME_LIMIT - 1)
    walk = _sieved_walk(ctx, step, stop)
    if rational:
        # the progression already forces membership in S (the class
        # group is trivial and -1 an l^r-th power residue), so every
        # test runs on the norm
        tests = [lambda n, Q=pc.p, e=(pc.p - 1) // full: pow(n, e, Q) == 1 for pc in pieces]
        tests += [
            lambda n, q=q.p, k=k: _rational_frobenius_order(q, n, ell, full) == k
            for q, k in orders
        ]
        for n in walk:
            for test in tests:
                if not test(n):
                    break
            else:
                if is_prime(n):
                    return PrimeIdeal(n, "rational", None, 1)
    else:
        # the orders at the fixed primes first, from generators fetched
        # once per search; in_S, which passes most candidates, second; the
        # splits, which need a new generator for every candidate, last.
        # A conductor passes all three and each asks only about P, so the
        # order changes the cost of a rejection, not which P is found
        fixed = [(q, _target_generator(ctx, q), k) for q, k in orders]
        basis = {(g.p, g.b) for g in ctx.cl.gens}
        for n in walk:
            p, roots = _quad_candidates(ctx, n)
            if not roots:
                continue
            # F_p at a split prime n = p, F_p(sqrt(D)) at an inert n = p^2
            fld = ResidueField(p, None if p == n else ctx.field.disc % p)
            e = (n - 1) // lk  # (N - 1)/l^(r+t)
            for b in roots:
                if (p, b) not in basis and _fixed_orders(ctx, p, b, e, fld, fixed, full):
                    P = _candidate(p, b)
                    if in_S(ctx, P) and all(
                        frobenius_order_in_ray_piece(ctx, pc, P) == 1 for pc in pieces
                    ):
                        return P
    if last >= PRIME_LIMIT:
        reason = f"norms reach the 2**64 primality limit within cap {cursor.cap}"
    else:
        reason = f"no conductor within cap {cursor.cap} (last norm {last})"
    name = f"({target.p},{'-' if target.b is None else target.b})"
    raise SearchExhausted(f"{reason}; wanted order {order} at {name} after {len(pieces)} pieces")


# ------------------------------------------------------- local degrees


class DegreeFold:
    """The local_degree triples at rows, primes ascending by norm, under
    the seed and the pieces of the given conductors, then of each
    conductor passed to add, folded one component at a time.

    The seed order of a row's norm is asked once per residue mod the seed
    modulus that occurs.  Every order divides l^r, so a row's lcm is their
    max, and a piece asks its column of orders (frobenius_orders) only at
    the rows whose lcm is still below l^r, ramified ones included.  A
    conductor that is a row, found by bisecting the norms, is ramified
    there and asked nothing.
    """

    def __init__(self, ctx, rows, pieces):
        self.ctx, self.rows, self.count = ctx, rows, 0  # count: pieces added
        self.ramified = {}  # row index -> component ramified there, 0 = seed
        self.orders = []  # per row, the lcm of its unramified orders
        memo = {}  # norm mod the seed modulus -> seed order, None above l
        for i, w in enumerate(rows):
            k = w.norm % ctx.seed.modulus
            if k not in memo:
                memo[k] = frobenius_order_in_L0(ctx.seed, w)
            if memo[k] is None:
                self.ramified[i] = 0
            self.orders.append(memo[k] or 1)
        self.short = [i for i, order in enumerate(self.orders) if order != ctx.seed.degree]
        for eps in pieces:
            self.add(eps)

    def add(self, eps: PrimeIdeal):
        """Fold the piece of conductor eps over the rows still short."""
        rows, orders, short = self.rows, self.orders, self.short
        self.count += 1
        own = None
        if rows[0].norm <= eps.norm <= rows[-1].norm:
            # at most two primes, conjugates, share a norm
            lo = bisect_left(rows, eps.norm, key=lambda w: w.norm)
            own = next((i for i, w in enumerate(rows[lo : lo + 2], lo) if w == eps), None)
        if own in self.ramified:
            raise InternalInconsistency(f"({eps.p},{eps.b}) is ramified in more than one component")
        if own is not None:
            self.ramified[own] = self.count
            short = [i for i in short if i != own]
        for i, order in zip(short, frobenius_orders(self.ctx, eps, [rows[i] for i in short])):
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
    fold's memory stays small beside the table's, and a piece still asks
    each row for its order at most once."""
    for k in range(0, len(rows), FOLD_ROWS):
        yield DegreeFold(ctx, rows[k : k + FOLD_ROWS], pieces)


def local_degrees(ctx, pieces, rows):
    """The local_degree triple at each of rows, primes ascending by norm."""
    for fold in degree_folds(ctx, pieces, rows):
        yield from map(fold.row, range(len(fold.rows)))


def local_degree(ctx, pieces, w: PrimeIdeal):
    """Local degree at the finite prime w of the compositum of the seed
    and the ray pieces of the given conductors: the ramification factor
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
