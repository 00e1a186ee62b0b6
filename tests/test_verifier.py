import copy
import json
import random
import time

import pytest

from constdeg import verifier
from constdeg.arith import factor
from constdeg.classfield import local_degree
from constdeg.constructor import certificate_json, compose_for_n, construct
from constdeg.quadfield import RATIONAL, PrimeIdeal, quadratic_field
from constdeg.verifier import (
    MalformedCertificate,
    MismatchFound,
    QuaternionAlgebra,
    RamifiedPlaceOutOfRange,
    brauer_split_check,
    hilbert_symbol,
    parse_certificate,
    ramified_places,
    verify,
)

K23 = quadratic_field(-23)
K8 = quadratic_field(-8)


def rp(p):
    return PrimeIdeal(p, "rational", None, 1)


def from_bytes(cert):
    # the verifier must work from the serialized document alone
    return parse_certificate(certificate_json(cert))


CERT2 = from_bytes(construct(RATIONAL, 2, 1, 100))
CERT8 = from_bytes(construct(RATIONAL, 2, 3, 30))
CERT9 = from_bytes(construct(RATIONAL, 3, 2, 30))
CERT23 = from_bytes(construct(K23, 3, 1, 50))
CERTD = from_bytes(construct(K8, 2, 1, 20))
COMP6 = from_bytes(compose_for_n(RATIONAL, 6, 20))


def places_of(*ns):
    ps = {2}
    for n in ns:
        ps.update(p for p, _ in factor(abs(n)))
    return sorted(ps) + ["inf"]


# ------------------------------------------------------------ round trips


def test_roundtrip_n2():
    rep = verify(CERT2)
    assert len(rep.records) == 25
    assert all(row["degree"] == 2 for row in CERT2["table"])
    assert all(rec.degree == 2 for rec in rep.records)
    assert CERT2["real_place_degree"] == 2 and rep.real_place == 2
    assert rep.elapsed > 0
    assert rep.component_reports == []


def test_roundtrip_other_configs():
    for cert, full in ((CERT8, 8), (CERT9, 9), (CERT23, 3), (CERTD, 2)):
        rep = verify(cert)
        assert rep.records and all(rec.degree == full for rec in rep.records)


def test_record_components():
    rep = verify(CERT2)
    assert [rec.degree for rec in rep.records] == [2] * 25
    ctx, pieces = verifier._rebuild(CERT2)
    assert local_degree(ctx, pieces, rp(17)) == (1, 2, 2)  # ramified in its own piece
    assert local_degree(ctx, pieces, rp(2)) == (0, 2, 2)  # all ramification in the seed


def test_deficient_roundtrip_components():
    rep = verify(CERTD)
    lam = next(rec for rec in rep.records if rec.prime == (2, 0))
    assert lam.degree == 2
    ctx, pieces = verifier._rebuild(CERTD)
    (w,) = ctx.deficiencies
    assert (w.p, w.b) == lam.prime
    assert local_degree(ctx, [], w) == (0, 1, 1)  # the seed degree drops to 2^(r-1) here
    assert local_degree(ctx, pieces[:1], w) == (0, 1, 2)  # the dedicated piece restores it


def test_appended_conductor_moves_a_seed_ramified_row():
    # 101 is in S, and (2/101) = -1, so 2, already full by its seed
    # ramification, gets Frobenius order 2 and degree 4 in the new piece
    c = copy.deepcopy(CERT2)
    assert [pc["p"] for pc in c["pieces"]] == [17, 89, 409]
    c["pieces"].append({"p": 101, "b": None, "norm": 101})
    with pytest.raises(MismatchFound) as exc:
        verify(c)
    assert (exc.value.place, exc.value.claimed, exc.value.recomputed) == ("prime (2,None)", 2, 4)


def test_verify_at_smaller_bound():
    rep = verify(CERT2, 10)
    assert [rec.prime for rec in rep.records] == [
        (2, None),
        (3, None),
        (5, None),
        (7, None),
    ]


def test_bound_above_certificate_rejected():
    for bound in (101, 1, -3):
        with pytest.raises(ValueError, match=str(bound)):
            verify(CERT2, bound)


def test_verify_requires_parsed_object():
    with pytest.raises(MalformedCertificate):
        verify(certificate_json(CERT2))


# ---------------------------------------------------------------- tampers


def test_tampered_table_degree():
    c = copy.deepcopy(CERT2)
    c["table"][3]["degree"] = 4
    with pytest.raises(MismatchFound) as ei:
        verify(c)
    assert ei.value.claimed == 4
    assert ei.value.recomputed == 2
    assert "(7," in str(ei.value)


def test_tampered_ramified_component():
    c = copy.deepcopy(CERT2)
    row = next(r for r in c["table"] if r["prime"] == [17, None])
    row["ramified_component"] = None
    with pytest.raises(MismatchFound):
        verify(c)


def test_tampered_conductor_outside_s():
    c = copy.deepcopy(CERT2)
    c["pieces"][0] = {"p": 19, "b": None, "norm": 19}
    with pytest.raises(MismatchFound) as ei:
        verify(c)
    assert "conductor" in str(ei.value)


def test_tampered_conductor_inside_s():
    # 41 is a legitimate conductor candidate, so the piece rebuilds and
    # the lie only surfaces when the table is recomputed
    c = copy.deepcopy(CERT2)
    c["pieces"][0] = {"p": 41, "b": None, "norm": 41}
    with pytest.raises(MismatchFound):
        verify(c)


def test_tampered_real_place():
    for forged in (None, 1, 4):
        c = copy.deepcopy(CERT2)
        c["real_place_degree"] = forged
        with pytest.raises(MismatchFound) as ei:
            verify(c)
        assert "real place" in str(ei.value)


def test_tampered_character_sign():
    c = copy.deepcopy(CERT2)
    c["l0"]["character"]["sign"] = 1
    with pytest.raises(MismatchFound):
        verify(c)


def test_tampered_class_alpha():
    c = copy.deepcopy(CERT23)
    c["class_data"][0]["alpha"] = [-74, -12]
    with pytest.raises(MismatchFound) as ei:
        verify(c)
    assert "class_data" in str(ei.value)


def test_tampered_t():
    c = copy.deepcopy(CERT23)
    c["t"] += 1
    with pytest.raises(MismatchFound):
        verify(c)


def test_tampered_deficiency_list():
    c = copy.deepcopy(CERTD)
    c["deficiencies"] = []
    with pytest.raises(MismatchFound):
        verify(c)


def test_tampered_bound_inflated():
    c = copy.deepcopy(CERT2)
    c["bound"] = 200  # no table rows past 100, so coverage is a lie
    with pytest.raises(MalformedCertificate):
        verify(c)


@pytest.mark.parametrize("bound", [10**8, 10**12])
@pytest.mark.parametrize("cert", [CERT2, COMP6], ids=["plain", "composite"])
def test_hostile_bound_rejected_quickly(cert, bound):
    # coverage claimed far past the table ends at the first missing row,
    # after work bounded by the table rather than by the claimed bound
    c = copy.deepcopy(cert)
    doc = c.get("composite", c)
    for d in [doc, *doc.get("components", ())]:
        d["bound"] = bound
    start = time.perf_counter()
    with pytest.raises(MalformedCertificate, match="table has no row"):
        verify(c)
    assert time.perf_counter() - start < 1.0


def test_duplicate_piece_rejected():
    c = copy.deepcopy(CERT2)
    c["pieces"].append(dict(c["pieces"][0]))
    with pytest.raises(MalformedCertificate):
        verify(c)


def test_piece_norm_inconsistent():
    c = copy.deepcopy(CERT2)
    c["pieces"][0]["norm"] = 999
    with pytest.raises(MalformedCertificate):
        verify(c)


def test_piece_prime_beyond_primality_range():
    # primality is only decided below 2**64; a larger conductor is a
    # structural defect, not an error of the primality test
    c = copy.deepcopy(CERT2)
    c["pieces"][0]["p"] = c["pieces"][0]["norm"] = 2**64 + 13
    with pytest.raises(MalformedCertificate):
        verify(c)


# Q n=3 B=3 as built with greedy_skip off: one conductor search per
# target, so the piece at 73 is redundant (the seed alone gives degree
# 3 at 2 and 3) but harmless
LEGACY_NO_SKIP = """{"schema_version": 1, "field": {"kind": "rational"}, "ell": 3, "r": 1,
"t": 0, "class_data": [], "unit_gens": [[-2, 0]],
"l0": {"modulus": 9, "character": {"order": 3, "sign": 1}}, "deficiencies": [],
"pieces": [{"p": 73, "b": null, "norm": 73}], "bound": 3,
"table": [{"prime": [2, null], "degree": 3, "ramified_component": null},
{"prime": [3, null], "degree": 3, "ramified_component": 0}],
"real_place_degree": null, "config": {"cap": 10000000, "greedy_skip": false}}"""


def test_verify_accepts_legacy_config_keys():
    # schema 1 documents once recorded an enumeration order, a seed and
    # a greedy_skip flag in config; verify reads none of them, so such
    # documents still verify
    c = copy.deepcopy(CERT2)
    c["config"].update(enumeration="norm_asc", seed=0)
    verify(parse_certificate(json.dumps(c)))  # raises unless it verifies
    rep = verify(parse_certificate(LEGACY_NO_SKIP))
    assert [(rec.prime, rec.degree) for rec in rep.records] == [
        ((2, None), 3),
        ((3, None), 3),
    ]


def test_hostile_r_rejected_before_seed_is_built():
    # ell^r must equal the stated seed order, so r is bounded by that
    # order's bit length before any modulus is sized by it
    plain = copy.deepcopy(CERT2)
    plain["r"] = 10**12
    comp = copy.deepcopy(COMP6)
    comp["composite"]["components"][0]["r"] = 10**12
    for c in (plain, comp):
        start = time.perf_counter()
        with pytest.raises(MalformedCertificate, match="seed order"):
            verify(parse_certificate(json.dumps(c)))
        assert time.perf_counter() - start < 1.0


def test_large_r_seed_roundtrip():
    # the seed character costs O(r) modular powers, not a 2^r-entry table
    start = time.perf_counter()
    cert = construct(RATIONAL, 2, 60, 3)
    rep = verify(from_bytes(cert))
    assert time.perf_counter() - start < 1.0
    assert [(rec.prime, rec.degree) for rec in rep.records] == [
        ((2, None), 2**60),
        ((3, None), 2**60),
    ]


# ------------------------------------------------------------- structure


PIECE1_ROW = next(i for i, row in enumerate(CERT2["table"]) if row["ramified_component"] == 1)


@pytest.mark.parametrize(
    "cert, path, value",
    [
        (CERT2, ["r"], True),
        (CERT2, ["t"], False),
        (CERT2, ["schema_version"], True),
        (CERT2, ["table", PIECE1_ROW, "ramified_component"], True),
        (CERTD, ["deficiencies", 0, "deficiency"], True),
        (CERT2, ["unit_gens"], [[-2, False]]),
    ],
    ids=["r", "t", "schema_version", "ramified_component", "deficiency", "unit_gens"],
)
def test_parse_rejects_booleans_for_integers(cert, path, value):
    # JSON true/false equal 1/0 in Python; as integers they are malformed
    c = copy.deepcopy(cert)
    *keys, last = path
    target = c
    for k in keys:
        target = target[k]
    target[last] = value
    with pytest.raises(MalformedCertificate):
        verify(parse_certificate(json.dumps(c)))


def test_parse_rejects_bad_json():
    with pytest.raises(MalformedCertificate):
        parse_certificate("not json at all")


def test_parse_rejects_non_object():
    with pytest.raises(MalformedCertificate):
        parse_certificate("[1, 2, 3]")


def test_parse_rejects_missing_key():
    c = copy.deepcopy(CERT2)
    del c["t"]
    with pytest.raises(MalformedCertificate) as ei:
        parse_certificate(json.dumps(c))
    assert "t" in str(ei.value)


def test_parse_rejects_wrong_schema_version():
    c = copy.deepcopy(CERT2)
    c["schema_version"] = 2
    with pytest.raises(MalformedCertificate):
        parse_certificate(json.dumps(c))


def test_parse_rejects_unknown_field_kind():
    c = copy.deepcopy(CERT2)
    c["field"] = {"kind": "real_quadratic", "disc": 5}
    with pytest.raises(MalformedCertificate):
        parse_certificate(json.dumps(c))


def test_parse_rejects_bad_table_row():
    c = copy.deepcopy(CERT2)
    c["table"][0]["prime"] = [2]
    with pytest.raises(MalformedCertificate):
        parse_certificate(json.dumps(c))


def test_verify_rejects_nonfundamental_disc():
    c = copy.deepcopy(CERT23)
    c["field"]["disc"] = -21
    with pytest.raises(MalformedCertificate):
        verify(c)


# -------------------------------------------------------------- composite


def test_composite_roundtrip():
    rep = verify(COMP6)
    assert len(rep.records) == 8
    assert all(rec.degree == 6 for rec in rep.records)
    two, three = rep.component_reports
    assert [(a.degree, b.degree) for a, b in zip(two.records, three.records)] == [(2, 3)] * 8
    assert COMP6["composite"]["real_place_degree"] == 2 and rep.real_place == 2
    assert len(rep.component_reports) == 2


def test_composite_smaller_bound():
    rep = verify(COMP6, 10)
    assert [rec.prime for rec in rep.records] == [
        (2, None),
        (3, None),
        (5, None),
        (7, None),
    ]


def test_composite_tampered_combined_degree():
    c = copy.deepcopy(COMP6)
    c["composite"]["table"][2]["degree"] = 12
    with pytest.raises(MismatchFound):
        verify(c)


def test_composite_rejects_degree_zero():
    c = copy.deepcopy(COMP6)
    c["composite"]["table"][0]["degree"] = 0
    with pytest.raises(MalformedCertificate):
        parse_certificate(json.dumps(c))


def test_composite_tampered_n():
    c = copy.deepcopy(COMP6)
    c["composite"]["n"] = 12
    with pytest.raises(MismatchFound):
        verify(c)


def test_composite_tampered_component():
    c = copy.deepcopy(COMP6)
    c["composite"]["components"][1]["table"][0]["degree"] = 9
    with pytest.raises(MismatchFound):
        verify(c)


# --------------------------------------------------------------- hilbert


def test_hilbert_trivial_first_argument():
    for place in (2, 3, 5, "inf"):
        assert hilbert_symbol(1, 7, place) == 1
        assert hilbert_symbol(1, -11, place) == 1


def test_hilbert_minus_one_minus_one():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    for p in (3, 5, 7, 11, 13):
        assert hilbert_symbol(-1, -1, p) == 1


def test_hilbert_known_values():
    assert hilbert_symbol(5, 2, 2) == -1  # odd valuation and 5 is not 1 mod 8
    assert hilbert_symbol(2, 7, 7) == 1  # 2 is a square mod 7
    assert hilbert_symbol(3, 7, 7) == -1  # 3 is not
    assert hilbert_symbol(-1, 3, 3) == -1  # -1 is not a square mod 3


def test_hilbert_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 0, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, "real")


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(11)

    def nonzero():
        while True:
            n = rng.randint(-50, 50)
            if n:
                return n

    for _ in range(60):
        a, b, c = nonzero(), nonzero(), nonzero()
        for v in places_of(a, b, c):
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)


def test_hilbert_reciprocity_random_pairs():
    rng = random.Random(7)
    pairs = 0
    while pairs < 100:
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if not a or not b:
            continue
        prod = 1
        for v in places_of(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1
        pairs += 1


def test_reciprocity_memo_is_bounded():
    memo = verifier._assert_reciprocity
    memo.cache_clear()
    maxsize = memo.cache_info().maxsize
    for a in range(1, 80):
        for b in range(-40, 40):
            if b:
                hilbert_symbol(a, b, 2)
                assert memo.cache_info().currsize <= maxsize
    # more distinct pairs than the memo holds were queried
    assert memo.cache_info().currsize == maxsize


def test_ramified_places_examples():
    assert ramified_places(-1, -1) == [2, "inf"]
    assert ramified_places(1, 1) == []
    assert ramified_places(-1, 3) == [2, 3]
    assert ramified_places(2, 7) == []


# ---------------------------------------------------------------- brauer


def test_brauer_split_standard_quaternions():
    split, places = brauer_split_check(CERT2, QuaternionAlgebra(-1, -1))
    assert split is True
    assert places == [2, "inf"]


def test_brauer_split_vacuous():
    split, places = brauer_split_check(CERT2, QuaternionAlgebra(1, 1))
    assert split is True
    assert places == []


def test_brauer_forged_real_place_record():
    c = copy.deepcopy(CERT2)
    c["real_place_degree"] = 1  # brauer trusts the record as written
    split, places = brauer_split_check(c, QuaternionAlgebra(-1, -1))
    assert split is False
    assert places == [2, "inf"]


def test_brauer_ramified_beyond_bound():
    with pytest.raises(RamifiedPlaceOutOfRange):
        brauer_split_check(CERT2, QuaternionAlgebra(-1, 103))


def test_brauer_requires_exponent_two_rational():
    with pytest.raises(ValueError):
        brauer_split_check(CERT9, QuaternionAlgebra(-1, -1))
    with pytest.raises(ValueError):
        brauer_split_check(CERT23, QuaternionAlgebra(-1, -1))


def test_brauer_accepts_composite_wrapper():
    comp2 = from_bytes(compose_for_n(RATIONAL, 2, 20))
    split, places = brauer_split_check(comp2, QuaternionAlgebra(-1, -1))
    assert split is True
    assert places == [2, "inf"]


def test_quaternion_algebra_rejects_zero():
    with pytest.raises(ValueError):
        QuaternionAlgebra(0, 5)
