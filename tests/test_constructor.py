import copy
import json
import sys
from collections import Counter

import pytest

from constdeg import classfield, constructor, quadfield
from constdeg.arith import small_primes
from constdeg.classfield import (
    DEFAULT_CAP,
    Conductor,
    InternalInconsistency,
    SearchCursor,
    build_L0_rational,
    build_context,
    character_order,
    enumerate_field_primes,
    frobenius_order_in_L0,
    frobenius_order_in_ray_piece,
    in_S,
    local_degree,
    local_degrees,
    make_ray_piece,
    search_prime,
)
from constdeg.cli import run
from constdeg.constructor import (
    Config,
    certificate_json,
    compose_for_n,
    construct,
    write_certificate,
)
from constdeg.quadfield import (
    RATIONAL,
    factor_rational_prime,
    quadratic_field,
)
from constdeg.verifier import MalformedCertificate, verify
import oracles
from oracles import PrimeIdeal, field_primes, kummer_generator, kummer_split_test, pair

K23 = quadratic_field(-23)
K8 = quadratic_field(-8)

PLAIN_KEYS = [
    "schema_version",
    "field",
    "ell",
    "r",
    "t",
    "class_data",
    "unit_gens",
    "l0",
    "deficiencies",
    "pieces",
    "bound",
    "table",
    "real_place_degree",
    "config",
]


def field_of(cert):
    f = cert["field"]
    return RATIONAL if f["kind"] == "rational" else quadratic_field(f["disc"])


def prime_of(field, p, b):
    if field.kind == "rational":
        return PrimeIdeal(p, "rational", None, 1)
    if b is None:
        return PrimeIdeal(p, "inert", None, 2)
    return PrimeIdeal(p, "split", b, 1)


def rebuild(cert):
    # reconstructs the working objects from certificate data alone;
    # make_ray_piece re-asserts that every conductor lies in S
    field = field_of(cert)
    ctx = build_context(field, cert["ell"], cert["r"])
    l0 = build_L0_rational(cert["ell"], cert["r"])
    pieces = [
        make_ray_piece(ctx, prime_of(field, row["p"], row["b"]))
        for row in cert["pieces"]
    ]
    return field, ctx, l0, pieces


def assert_discipline(cert):
    """The pairwise ramified-locus rules every certificate must obey.

    Conductors split completely in the seed and in every other piece;
    primes above ell split completely in every piece except that a
    deficient prime has order exactly ell^a in the first (dedicated)
    piece.
    """
    field, ctx, l0, pieces = rebuild(cert)
    ell = cert["ell"]
    for i, pc in enumerate(pieces):
        assert frobenius_order_in_L0(l0, pc.norm) == 1
        for j, other in enumerate(pieces):
            if i != j:
                assert (
                    frobenius_order_in_ray_piece(ctx, other, pair(pc)) == 1
                ), (i, j)
    deficient = {
        tuple(row["prime"]): row["deficiency"] for row in cert["deficiencies"]
    }
    for lam in factor_rational_prime(field, ell):
        a = deficient.get(lam, 0)
        for j, pc in enumerate(pieces):
            want = ell**a if (a and j == 0) else 1
            assert frobenius_order_in_ray_piece(ctx, pc, lam) == want, (lam, j)


# ------------------------------------------------------------ rational


def test_construct_validation():
    with pytest.raises(ValueError):
        construct(RATIONAL, 2, 1, 1)


@pytest.mark.parametrize(
    "disc,bounds,least", [(-3, (2,), 3), (-11, (2,), 3), (-19, (2, 3), 4), (-43, (2, 3), 4)]
)
def test_bound_below_the_least_prime_norm_is_refused(disc, bounds, least):
    # at D = 5 mod 8 the prime 2 is inert, of norm 4: a smaller bound can
    # leave no prime, and a certificate with an empty table, which verify
    # refuses, is never written
    field = quadratic_field(disc)
    for bound in bounds:
        message = f"^bound {bound} is below {least}, the least norm of a prime of the field$"
        with pytest.raises(ValueError, match=message):
            construct(field, 2, 1, bound)
        with pytest.raises(ValueError, match=message):
            compose_for_n(field, 6, bound)
    cert = construct(field, 2, 1, least)
    assert cert["table"]
    cert["table"] = []
    with pytest.raises(MalformedCertificate, match="^table must be a nonempty list$"):
        verify(cert)


def test_a_bound_at_the_primality_limit_is_refused():
    # is_prime has no answer at 2**64 or above, so no table reaches it
    for bound in (2**64, 10**20):
        message = rf"^bound {bound} reaches the 2\*\*64 primality limit$"
        with pytest.raises(ValueError, match=message):
            construct(RATIONAL, 2, 1, bound)
        with pytest.raises(ValueError, match=message):
            compose_for_n(K8, 6, bound)


def test_a_bound_the_sieve_cannot_index_is_refused(monkeypatch):
    # the prime sieve takes a bytearray of bound + 1 entries, which no
    # bound from sys.maxsize on can have; the refusal comes first, before
    # any table or context is made
    def unreached(*args):
        raise AssertionError("construct went past its bound checks")

    monkeypatch.setattr(constructor, "enumerate_field_primes", unreached)
    monkeypatch.setattr(constructor, "build_context", unreached)
    for bound in (2**63, sys.maxsize):
        message = rf"^bound {bound} reaches sys.maxsize, which the prime sieve cannot index$"
        with pytest.raises(ValueError, match=message):
            construct(RATIONAL, 2, 1, bound)
        with pytest.raises(ValueError, match=message):
            compose_for_n(K8, 6, bound)


def test_a_bound_the_sieve_cannot_allocate_is_refused(monkeypatch):
    # a bound below sys.maxsize may still ask small_primes for more memory
    # than the host has; patched to raise, so that nothing is allocated
    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(classfield, "small_primes", no_memory)
    bound = sys.maxsize - 1
    message = rf"^bound {bound} needs a prime sieve larger than memory allows$"
    with pytest.raises(ValueError, match=message):
        construct(RATIONAL, 2, 3, bound)
    with pytest.raises(ValueError, match=message):
        compose_for_n(K8, 6, bound)


def test_construct_rational_l2_b10():
    cert = construct(RATIONAL, 2, 1, 10)
    assert list(cert.keys()) == PLAIN_KEYS
    assert cert["field"] == {"kind": "rational"}
    assert (cert["ell"], cert["r"], cert["t"]) == (2, 1, 0)
    assert cert["class_data"] == []
    assert cert["unit_gens"] == [[-2, 0]]
    assert cert["l0"] == {"modulus": 8, "character": {"order": 2, "sign": -1}}
    assert cert["deficiencies"] == []
    # 3 is the only prime up to 10 that the seed leaves uncovered
    assert [(p["p"], p["b"], p["norm"]) for p in cert["pieces"]] == [(17, None, 17)]
    assert cert["real_place_degree"] == 2
    got = {tuple(row["prime"]): row for row in cert["table"]}
    assert set(got) == {(2, None), (3, None), (5, None), (7, None)}
    assert all(row["degree"] == 2 for row in cert["table"])
    assert got[(2, None)]["ramified_component"] == 0
    assert got[(3, None)]["ramified_component"] is None


def test_construct_l3_tiny_bound_needs_no_pieces():
    cert = construct(RATIONAL, 3, 1, 3)
    assert cert["pieces"] == []
    assert {tuple(r["prime"]): r["degree"] for r in cert["table"]} == {
        (2, None): 3,
        (3, None): 3,
    }
    assert cert["real_place_degree"] is None
    # degenerate bound
    tiny = construct(RATIONAL, 3, 1, 2)
    assert tiny["pieces"] == []
    assert {tuple(r["prime"]): r["degree"] for r in tiny["table"]} == {(2, None): 3}


def test_construct_rational_n2_b100():
    cert = construct(RATIONAL, 2, 1, 100)
    assert [p["p"] for p in cert["pieces"]] == [17, 89, 409]
    assert len(cert["table"]) == 25
    assert all(row["degree"] == 2 for row in cert["table"])
    assert cert["real_place_degree"] == 2
    got = {tuple(row["prime"]): row["ramified_component"] for row in cert["table"]}
    assert got[(2, None)] == 0
    assert got[(17, None)] == 1
    assert got[(89, None)] == 2
    assert got[(3, None)] is None
    assert_discipline(cert)


def test_monotone_coverage_n2_b100():
    # once a target reaches full degree, later pieces leave it there
    cert = construct(RATIONAL, 2, 1, 100)
    field, ctx, l0, pieces = rebuild(cert)
    for w in enumerate_field_primes(field, cert["bound"]):
        seen_full = False
        for k in range(len(pieces) + 1):
            deg = local_degree(ctx, pieces[:k], w)[2]
            if seen_full:
                assert deg == 2
            seen_full = deg == 2
        assert seen_full


@pytest.mark.parametrize(
    "field,n,bound,own",  # own: rows that are conductors
    [
        (RATIONAL, 2, 100, 2),  # conductors 17 and 89 are table primes
        (RATIONAL, 9, 500, 1),
        (K23, 4, 200, 0),
        (K8, 2, 200, 2),  # deficient at the prime above 2
        (RATIONAL, 12, 500, 2),  # each component
        (K23, 3, 200, 0),  # t = 1
        (quadratic_field(-56), 4, 200, 0),  # inert conductors, of norm above 200
    ],
)
def test_rows_follow_the_shared_rule(monkeypatch, field, n, bound, own):
    # construct's rows, read from the column-wise fold as it grows, give
    # each row the triple that the fold of the whole table finds under
    # the final pieces, and so does the row-by-row reference; folds of 5
    # rows, so that conductors and targets fall in other folds, change
    # neither the triples nor the certificate
    cert = compose_for_n(field, n, bound)
    rows = enumerate_field_primes(field, bound)
    ramified_in_own_piece = 0
    for comp in cert["composite"]["components"]:
        _, ctx, _, pieces = rebuild(comp)
        folded = list(local_degrees(ctx, pieces, rows))
        reference = [oracles.local_degree(ctx, pieces, w) for w in field_primes(field, bound)]
        assert folded == reference
        assert [(row["degree"], row["ramified_component"]) for row in comp["table"]] == [
            (deg, ram) for ram, _, deg in folded
        ]
        monkeypatch.setattr(classfield, "FOLD_ROWS", 5)
        assert list(local_degrees(ctx, pieces, rows)) == folded
        monkeypatch.undo()
        ramified_in_own_piece += sum(pair(pc) in rows for pc in pieces)
    assert ramified_in_own_piece == own
    monkeypatch.setattr(classfield, "FOLD_ROWS", 5)
    assert certificate_json(compose_for_n(field, n, bound)) == certificate_json(cert)


@pytest.mark.parametrize("field,ell,r", [(K8, 2, 1), (quadratic_field(-56), 2, 2)])
def test_deficient_prime_is_the_first_target(field, ell, r):
    # it has norm 2, so construct's loop over the targets reaches it first
    ctx = build_context(field, ell, r)
    ((lam, a),) = ctx.deficiencies.items()
    assert a == 1
    assert lam == enumerate_field_primes(field, 2)[0]


def test_src_names_each_prime_by_its_pair():
    # quadfield keeps no prime object: factor_rational_prime gives the
    # (p, b) pairs of the oracle's primes above p (primes_above, the
    # per-p step of field_primes), and a K search returns the
    # Conductor(p, b, norm) of a prime above p, of norm p when split and
    # p^2 when inert
    assert not hasattr(quadfield, "PrimeIdeal")
    for field in [RATIONAL, *map(quadratic_field, (-3, -4, -7, -8, -23, -56))]:
        for p in small_primes(500):
            want = [pair(P) for P in oracles.primes_above(field, p)]
            assert factor_rational_prime(field, p) == want, (field, p)
    found = []
    for field, ell, r in [(K23, 3, 1), (quadratic_field(-56), 2, 2)]:
        ctx = build_context(field, ell, r)
        target = next(q for q in enumerate_field_primes(field, 30) if q[0] not in ctx.excluded)
        P = search_prime(ctx, [], SearchCursor(), target, ell**r)
        assert type(P) is Conductor and (P.p, P.b) in factor_rational_prime(field, P.p)
        assert P.norm == (P.p if P.b is not None else P.p**2)
        found.append(P)
    assert found == [(20359, 2247, 20359), (47, None, 2209)]


def capture_contexts(monkeypatch):
    # the contexts construct builds, as it builds them
    contexts, build = [], constructor.build_context
    monkeypatch.setattr(
        constructor, "build_context", lambda *args: contexts.append(build(*args)) or contexts[-1]
    )
    return contexts


def capture_generator_dicts(monkeypatch):
    # each dict of target generators that classfield._generator fills, by
    # its id, as (dict, target): target is that of the search_prime call
    # that made it, None if a DegreeFold made it
    dicts, generator, search, searching = {}, classfield._generator, constructor.search_prime, []

    def record(ctx, gens, q):
        dicts.setdefault(id(gens), (gens, searching[-1][3] if searching else None))
        return generator(ctx, gens, q)

    def record_search(*args):
        searching.append(args)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(classfield, "_generator", record)
    monkeypatch.setattr(constructor, "search_prime", record_search)
    return dicts


def test_target_cache_holds_one_fold_and_the_fixed_primes(monkeypatch):
    # each DegreeFold keeps the generators of its own rows, at most
    # FOLD_ROWS of them, and each search those of its fixed primes: after
    # construct of K(-23) n=2 B=10^5 (9,570 rows), whose searches reject
    # no prime of S by its split test, a search's dict holds only its
    # target, conductors and primes above l, and a fold's only rows of the
    # table that no other fold holds
    field = quadratic_field(-23)
    contexts = capture_contexts(monkeypatch)
    dicts = capture_generator_dicts(monkeypatch)
    cert = construct(field, 2, 1, 10**5)
    (ctx,) = contexts
    assert len(cert["table"]) == 9570
    fixed = {(pc["p"], pc["b"]) for pc in cert["pieces"]} | set(ctx.deficiencies)
    rows = [tuple(row["prime"]) for row in cert["table"]]
    searches = [gens for gens, target in dicts.values() if target]
    folds = [gens for gens, target in dicts.values() if not target]
    assert len(searches) == len(cert["pieces"])
    assert all(gens.keys() <= fixed | {target} for gens, target in dicts.values() if target)
    held = [w for gens in folds for w in gens]
    assert len(held) > 4000 and len(held) == len(set(held)) and set(held) <= set(rows)
    assert max(map(len, folds)) <= classfield.FOLD_ROWS


@pytest.mark.parametrize(
    "disc, r, bound, rejected", [(-23, 2, 200, 8), (-56, 2, 200, 3), (-23, 3, 50, 1)]
)
def test_target_cache_keeps_the_primes_of_S_the_split_test_rejects(
    monkeypatch, disc, r, bound, rejected
):
    # a K search's dict also keeps the generator of each prime of S its
    # split test rejects, until the search returns; every later search
    # walks from the start again and meets it anew, so the keys of all
    # searches but the targets, the conductors and the primes above l are
    # a few primes of S past the bound
    contexts = capture_contexts(monkeypatch)
    dicts = capture_generator_dicts(monkeypatch)
    cert = construct(quadratic_field(disc), 2, r, bound)
    (ctx,) = contexts
    fixed = {(pc["p"], pc["b"]) for pc in cert["pieces"]} | set(ctx.deficiencies)
    keys = {w for gens, target in dicts.values() if target for w in gens}
    keys -= {tuple(row["prime"]) for row in cert["table"]} | fixed
    rest = [Conductor(p, b, p if b is not None else p * p) for p, b in keys]
    assert len(rest) == rejected
    assert all(P.norm > bound and in_S(ctx, P) for P in rest)


def test_each_frobenius_order_asked_at_most_once(monkeypatch):
    # one order per (conductor, row), and only for rows still short when
    # the piece is added; a row that takes a piece is read back from the
    # fold, not folded again; over Q the search itself asks for none
    asked, earlier = [], {}
    orders, search = classfield.frobenius_orders, constructor.search_prime

    def record(ctx, eps, ws, gens):
        asked.extend((eps, q) for q in ws)
        return orders(ctx, eps, ws, gens)

    def record_target(ctx, pieces, cursor, w, k):
        earlier[w] = len(pieces)
        return search(ctx, pieces, cursor, w, k)

    monkeypatch.setattr(classfield, "frobenius_orders", record)
    monkeypatch.setattr(constructor, "search_prime", record_target)
    cert = construct(RATIONAL, 2, 1, 10000)
    assert len(cert["table"]) == 1229
    assert len(earlier) == len(cert["pieces"])
    counts = Counter(asked)
    repeats = Counter(q for (_, q), k in counts.items() if k > 1)
    assert max(counts.values()) == 1
    assert all(k <= earlier[q] for q, k in repeats.items())
    assert len(asked) < len(cert["table"])


def test_self_check_catches_a_short_row(monkeypatch, tmp_path, capsys):
    # with every piece's Frobenius order forced to 1, the piece found for
    # 3 does not move it, and the final check refuses the table
    monkeypatch.setattr(classfield, "frobenius_orders", lambda ctx, eps, ws, gens: [1] * len(ws))
    with pytest.raises(InternalInconsistency, match=r"^prime \(3,None\) has local degree 1, wanted 2$"):
        construct(RATIONAL, 2, 1, 10)
    out = tmp_path / "c.json"
    assert run(["construct", "--field", "q", "--n", "2", "--bound", "10", "--out", str(out)]) == 4
    assert "internal inconsistency" in capsys.readouterr().err
    assert not out.exists()


def test_construct_rational_n8_and_n9():
    cert8 = construct(RATIONAL, 2, 3, 50)
    assert [p["p"] for p in cert8["pieces"]] == [257, 8609]
    assert all(row["degree"] == 8 for row in cert8["table"])
    assert cert8["real_place_degree"] == 2
    assert_discipline(cert8)
    cert9 = construct(RATIONAL, 3, 2, 50)
    assert [p["p"] for p in cert9["pieces"]] == [271, 81001]
    assert all(row["degree"] == 9 for row in cert9["table"])
    assert cert9["real_place_degree"] is None
    assert_discipline(cert9)


# ---------------------------------------------------------- quadratic


def test_construct_k23_seed_covers_small_bound():
    cert = construct(K23, 3, 1, 50)
    assert cert["pieces"] == []
    assert len(cert["table"]) == 17
    assert all(row["degree"] == 3 for row in cert["table"])
    assert cert["t"] == 1
    assert cert["class_data"] == [
        {"gen_ideal": [13, 9], "order": 3, "alpha": [74, 12]}
    ]
    # both conjugates of each split prime appear
    primes = [tuple(row["prime"]) for row in cert["table"]]
    assert (2, 1) in primes and (2, 3) in primes
    assert (23, 23) in primes  # ramified in K, unramified in the tower


def test_construct_k23_with_ray_pieces():
    # bound 75 pulls in the split primes above 71 and 73, which the
    # seed character cannot move (71 = 8, 73 = 1 mod 9)
    cert = construct(K23, 3, 1, 75)
    assert len(cert["pieces"]) >= 1
    assert len(cert["table"]) == 23
    assert all(row["degree"] == 3 for row in cert["table"])
    for row in cert["pieces"]:
        assert row["norm"] % 9 == 1
    assert_discipline(cert)


def test_construct_deficient_k8_r1():
    cert = construct(K8, 2, 1, 20)
    assert cert["deficiencies"] == [{"prime": [2, 0], "deficiency": 1}]
    assert [(p["p"], p["b"]) for p in cert["pieces"]] == [
        (17, 14),
        (73, 24),
        (337, 282),
    ]
    got = {tuple(row["prime"]): row for row in cert["table"]}
    assert all(row["degree"] == 2 for row in cert["table"])
    assert got[(2, 0)]["ramified_component"] == 0
    assert got[(17, 14)]["ramified_component"] == 1
    assert got[(17, 20)]["ramified_component"] is None
    assert cert["real_place_degree"] is None
    assert_discipline(cert)


def test_construct_deficient_k56_r2():
    # r >= 2 deficiency: the seed reaches degree 2 above 2 and the
    # dedicated piece multiplies in the missing factor
    cert = construct(quadratic_field(-56), 2, 2, 10)
    assert cert["deficiencies"] == [{"prime": [2, 0], "deficiency": 1}]
    assert [(p["p"], p["b"]) for p in cert["pieces"]] == [(17, None)]
    assert all(row["degree"] == 4 for row in cert["table"])
    assert {tuple(r["prime"]) for r in cert["table"]} == {
        (2, 0),
        (3, 2),
        (3, 4),
        (5, 2),
        (5, 8),
        (7, 0),
    }
    assert_discipline(cert)


@pytest.mark.parametrize("disc,r", [(-8, 1), (-136, 1), (-56, 2), (-120, 2)])
def test_dedicated_piece_matches_kummer_scan(disc, r):
    # the dedicated piece asks for Frobenius order exactly 2^a at lam; an
    # independent scan over S asks instead that the conductor split at
    # exactly Kummer level m + r - a of the generator of lam, and both
    # must pick the same first conductor
    field = quadratic_field(disc)
    cert = construct(field, 2, r, 3)
    first = cert["pieces"][0]
    ctx = build_context(field, 2, r)
    l0 = build_L0_rational(2, r)
    ((lam, a),) = ctx.deficiencies.items()
    assert a == 1
    alpha, m = kummer_generator(ctx, oracles.prime_of(field, lam))
    level = m + r - a
    scan = next(
        P
        for P in field_primes(field, first["norm"], ctx.ell ** (ctx.r + ctx.t))
        if P.p not in ctx.excluded
        and pair(P) not in ctx.cl.gens
        and in_S(ctx, P)
        and character_order(l0, P.norm) == 1
        and kummer_split_test(ctx, P, alpha, level)
        and not kummer_split_test(ctx, P, alpha, level + 1)
    )
    assert [scan.p, scan.b, scan.norm] == [first["p"], first["b"], first["norm"]]


@pytest.mark.parametrize(
    "disc,r,bound,pieces",
    [
        (-8, 1, 200, [(17, 14, 17), (73, 24, 73), (337, 282, 337), (593, 520, 593),
                      (601, 208, 601)]),
        (-136, 1, 100, [(977, 948, 977), (47, None, 2209), (13921, 2336, 13921),
                        (27457, 6904, 27457)]),
        (-56, 2, 100, [(17, None, 289)]),
        (-120, 2, 100, [(1201, 404, 1201), (6529, 1096, 6529)]),
        (-184, 2, 100, [(17, None, 289), (15809, 15684, 15809), (262433, 331894, 262433)]),
    ],
)
def test_deficient_family_pieces(disc, r, bound, pieces):
    cert = construct(quadratic_field(disc), 2, r, bound)
    assert [(p["p"], p["b"], p["norm"]) for p in cert["pieces"]] == pieces
    assert_discipline(cert)


@pytest.mark.parametrize("r,bound", [(2, 200), (3, 50)])
def test_target_cache_bounded_by_table(monkeypatch, r, bound):
    # the searches test the orders at their few fixed targets before the
    # piece splits, which take a generator of every candidate that gets
    # that far, so each search's dict stays near the table's size, and
    # each fold's holds at most its own rows
    dicts = capture_generator_dicts(monkeypatch)
    cert = construct(K23, 2, r, bound)
    assert len(cert["pieces"]) >= 2
    assert all(len(gens) <= 2 * len(cert["table"]) for gens, _ in dicts.values())
    rows = {tuple(row["prime"]) for row in cert["table"]}
    assert all(gens.keys() <= rows for gens, target in dicts.values() if not target)


def test_construct_k8_r2_not_deficient():
    cert = construct(K8, 2, 2, 20)
    assert cert["deficiencies"] == []
    # both split candidates above 17 fail to keep the ramified 2-prime
    # split, so the search moves on to the inert prime 7
    assert [(p["p"], p["b"]) for p in cert["pieces"]] == [(7, None)]
    assert all(row["degree"] == 4 for row in cert["table"])
    assert_discipline(cert)


# ----------------------------------------------------------- composite


def test_compose_for_n_6():
    cert = compose_for_n(RATIONAL, 6, 20)
    assert list(cert.keys()) == ["schema_version", "composite"]
    comp = cert["composite"]
    assert list(comp.keys()) == [
        "n",
        "field",
        "bound",
        "components",
        "table",
        "real_place_degree",
    ]
    assert comp["n"] == 6
    assert [c["ell"] for c in comp["components"]] == [2, 3]
    assert [c["r"] for c in comp["components"]] == [1, 1]
    assert len(comp["table"]) == 8
    assert all(row["degree"] == 6 for row in comp["table"])
    assert comp["real_place_degree"] == 2
    for c in comp["components"]:
        assert list(c.keys()) == PLAIN_KEYS


def test_compose_for_n_12():
    comp = compose_for_n(RATIONAL, 12, 20)["composite"]
    assert [(c["ell"], c["r"]) for c in comp["components"]] == [(2, 2), (3, 1)]
    assert all(row["degree"] == 12 for row in comp["table"])
    assert comp["real_place_degree"] == 2


def test_compose_for_prime_power_wraps_single():
    comp = compose_for_n(RATIONAL, 9, 10)["composite"]
    assert len(comp["components"]) == 1
    assert all(row["degree"] == 9 for row in comp["table"])
    assert comp["real_place_degree"] is None
    with pytest.raises(ValueError):
        compose_for_n(RATIONAL, 1, 10)


# -------------------------------------------------------- serialization


def test_certificate_json_deterministic():
    a = certificate_json(construct(RATIONAL, 2, 1, 100))
    b = certificate_json(construct(RATIONAL, 2, 1, 100))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == construct(RATIONAL, 2, 1, 100)
    qa = certificate_json(construct(K8, 2, 1, 20))
    qb = certificate_json(construct(K8, 2, 1, 20))
    assert qa == qb


K56 = quadratic_field(-56)

JSON_JOBS = {
    "Q n=2 B=1000": lambda: construct(RATIONAL, 2, 1, 1000),
    "Q n=6 B=1000": lambda: compose_for_n(RATIONAL, 6, 1000),
    "Q n=10 B=1000": lambda: compose_for_n(RATIONAL, 10, 1000),
    "K(-23) n=2 B=1000": lambda: construct(K23, 2, 1, 1000),
    "K(-23) n=3 B=1000": lambda: construct(K23, 3, 1, 1000),
    "K(-8) n=2 B=1000": lambda: construct(K8, 2, 1, 1000),
    "K(-56) n=4 B=200": lambda: construct(K56, 2, 2, 200),
}


@pytest.mark.parametrize("job", list(JSON_JOBS))
def test_certificate_json_is_json_indent_2(job):
    # named for the indent=2 layout the text had before it became
    # json.dumps's own
    cert = JSON_JOBS[job]()
    before = copy.deepcopy(cert)
    assert certificate_json(cert) == json.dumps(cert) + "\n"
    assert cert == before


def test_write_certificate_round_trip(tmp_path):
    cert = construct(RATIONAL, 3, 1, 3)
    path = tmp_path / "cert.json"
    write_certificate(cert, path)
    assert json.loads(path.read_text()) == cert
    # the file holds certificate_json's text, written in one write, byte
    # for byte, for plain and composite documents with table rows
    for cert in (cert, construct(K8, 2, 2, 200), compose_for_n(RATIONAL, 6, 100)):
        write_certificate(cert, path)
        assert path.read_bytes() == certificate_json(cert).encode("utf-8")


def test_write_certificate_refused_by_json_leaves_no_file(tmp_path):
    cert = construct(RATIONAL, 2, 1, 100)
    cert["table"][1]["prime"] = {3}
    path = tmp_path / "cert.json"
    with pytest.raises(TypeError):
        write_certificate(cert, path)
    assert not path.exists()


def test_config_recorded_in_certificate():
    cfg = Config(cap=123456)
    cert = construct(RATIONAL, 3, 1, 3, cfg)
    assert cert["config"] == {"cap": 123456}


def test_config_is_an_immutable_value():
    assert Config() == Config(cap=DEFAULT_CAP)
    assert hash(Config()) == hash(Config(cap=DEFAULT_CAP))
    assert Config(5) != Config(6)
    assert repr(Config(5)) == "Config(cap=5)"
    cfg = Config(5)
    with pytest.raises(AttributeError):
        cfg.cap = 6
    assert cfg.cap == 5


def test_seed_character_orders_match_certificate():
    # the recorded seed descriptor reproduces the character used for
    # coverage decisions
    cert = construct(RATIONAL, 2, 3, 50)
    l0 = build_L0_rational(cert["ell"], cert["r"])
    assert l0.modulus == cert["l0"]["modulus"]
    assert l0.degree == cert["l0"]["character"]["order"]
    assert l0.sign == cert["l0"]["character"]["sign"]
    for row in cert["table"]:
        p = row["prime"][0]
        if p == 2:
            continue
        if row["ramified_component"] is None and character_order(l0, p) == 8:
            # seed alone covers this prime; no piece should be forced
            # to carry it (sanity on the greedy skip)
            assert row["degree"] == 8
