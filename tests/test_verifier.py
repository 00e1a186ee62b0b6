import copy
import json
import random
import time
from pathlib import Path

import pytest

from constdeg import verifier
from constdeg.arith import factor
from constdeg.cli import run
from constdeg.classfield import (
    InternalInconsistency,
    build_context,
    context_record,
    local_degree,
)
from constdeg.constructor import certificate_json, compose_for_n, construct
from constdeg.quadfield import RATIONAL, quadratic_field
from constdeg.verifier import (
    InvalidRequest,
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


def from_bytes(cert):
    # the verifier must work from the serialized document alone
    return parse_certificate(certificate_json(cert))


# Q n=2 B=100 as a legacy document, so no check here depends on construct
FIXTURES = Path(__file__).resolve().parent / "fixtures"
CERT2 = parse_certificate((FIXTURES / "q_n2_b100.json").read_text(encoding="utf-8"))
# a class group of about 0.2 s to build, so a refusal before it shows
K9999935 = parse_certificate((FIXTURES / "k-9999935_n2_b30.json").read_text(encoding="utf-8"))
CERT8 = from_bytes(construct(RATIONAL, 2, 3, 30))
CERT9 = from_bytes(construct(RATIONAL, 3, 2, 30))
CERT23 = from_bytes(construct(K23, 3, 1, 50))
CERTD = from_bytes(construct(K8, 2, 1, 20))
COMP6 = from_bytes(compose_for_n(RATIONAL, 6, 20))
COMP2 = from_bytes(compose_for_n(RATIONAL, 2, 20))
CERTK = from_bytes(construct(K23, 2, 1, 10**4))  # the wide-table job over K


def places_of(*ns):
    ps = {2}
    for n in ns:
        ps.update(p for p, _ in factor(abs(n)))
    return sorted(ps) + ["inf"]


# ------------------------------------------------------------ round trips


def test_roundtrip_n2():
    rep = verify(CERT2)
    assert len(rep.primes) == 25
    assert all(row["degree"] == 2 for row in CERT2["table"])
    assert rep.degree == 2
    assert CERT2["real_place_degree"] == 2 and rep.real_place == 2
    assert rep.elapsed > 0
    assert rep.component_reports == []


def test_reports_do_not_share_component_lists():
    a = verifier.VerificationReport([], 2, 2, 0.0)
    b = verifier.VerificationReport([], 2, 2, 0.0)
    a.component_reports.append(b)
    assert b.component_reports == []


def test_roundtrip_other_configs():
    for cert, full in ((CERT8, 8), (CERT9, 9), (CERT23, 3), (CERTD, 2)):
        rep = verify(cert)
        assert rep.primes and rep.degree == full


def test_record_components():
    rep = verify(CERT2)
    assert (rep.degree, len(rep.primes)) == (2, 25)
    ctx, pieces = verifier._rebuild(CERT2)
    assert local_degree(ctx, pieces, (17, None)) == (1, 2, 2)  # ramified in its own piece
    assert local_degree(ctx, pieces, (2, None)) == (0, 2, 2)  # all ramification in the seed


def test_deficient_roundtrip_components():
    rep = verify(CERTD)
    assert (2, 0) in rep.primes and rep.degree == 2
    ctx, pieces = verifier._rebuild(CERTD)
    (w,) = ctx.deficiencies
    assert w == (2, 0)
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
    assert rep.primes == [
        (2, None),
        (3, None),
        (5, None),
        (7, None),
    ]
    # rows past a requested bound are left unread
    assert len(verify(CERT2, 50).primes) == 15


def test_bound_above_certificate_rejected():
    for bound in (101, 1, -3):
        with pytest.raises(ValueError, match=str(bound)):
            verify(CERT2, bound)


def test_a_bound_that_is_not_an_int_is_refused():
    # a float or a bool is no bound, even one equal to an int
    for bound in (50.0, 10.5, True, "50"):
        with pytest.raises(InvalidRequest, match=f"^requested bound {bound!r} is not an integer$"):
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


@pytest.mark.parametrize("cert", [CERT2, COMP6, CERT23], ids=["plain", "composite", "k23"])
def test_early_wrong_degree_wins_over_later_missing_row(cert):
    # the degrees of a segment are folded before its rows are checked,
    # yet a wrong degree still raises at its row, before the walk reaches
    # a row missing later in the same segment
    c = copy.deepcopy(cert)
    table = c.get("composite", c)["table"]
    p, b = table.pop(-2)["prime"]
    with pytest.raises(MalformedCertificate, match=rf"^table has no row for prime \({p},{b}\)$"):
        verify(c)
    table[1]["degree"] *= 2
    with pytest.raises(MismatchFound) as ei:
        verify(c)
    p, b = table[1]["prime"]
    assert (ei.value.place, ei.value.claimed) == (f"prime ({p},{b})", table[1]["degree"])


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


# Documents whose rows each agree with their own recomputation but
# which break the certificate's claim, degree n at every prime of norm
# <= B and no other rows: edits of Q n=2 B=100, and one of Q n=6 B=20


def rows_recomputed(c):
    ctx, pieces = verifier._rebuild(c)
    for row in c["table"]:
        row["ramified_component"], _, row["degree"] = local_degree(ctx, pieces, tuple(row["prime"]))
    return c


def short_table():
    # without 409, 67 splits completely in the seed and the other pieces
    c = copy.deepcopy(CERT2)
    assert c["pieces"].pop()["p"] == 409
    return rows_recomputed(c)


def overshoot_table():
    c = copy.deepcopy(CERT2)
    c["pieces"].append({"p": 101, "b": None, "norm": 101})
    return rows_recomputed(c)


def extra_row(p, degree):
    c = copy.deepcopy(CERT2)
    c["table"].append({"prime": [p, None], "degree": degree, "ramified_component": None})
    return c


def k_overshoot_table():
    # (1409, 2181) is in S and a row of K(-23) n=2 B=10^4, full before its
    # piece and so degree 4 after it; the fold finds it among the two
    # rows of norm 1409 by its root, so a conductor that fails to match
    # its row would fail elsewhere or not at all
    c = copy.deepcopy(CERTK)
    assert [1409, 637] in [row["prime"] for row in c["table"]]
    c["pieces"].append({"p": 1409, "b": 2181, "norm": 1409})
    return rows_recomputed(c)


def k_table_without(prime):
    c = copy.deepcopy(CERTK)
    c["table"] = [row for row in c["table"] if row["prime"] != prime]
    return c


def k_extra_row(prime):
    c = copy.deepcopy(CERTK)
    c["table"].append({"prime": prime, "degree": 2, "ramified_component": None})
    return c


def shrunk_bound():
    c = copy.deepcopy(CERT2)
    c["bound"] = 50
    return c


def component_bound_above_composite():
    # the composite walk to 20 would leave the component's claim up to
    # 100 unread
    c = copy.deepcopy(COMP6)
    c["composite"]["components"][0]["bound"] = 100
    return c


@pytest.mark.parametrize(
    "make, error, detail",
    [
        (short_table, MismatchFound, ("prime (67,None)", 2, 1)),
        (overshoot_table, MismatchFound, ("prime (2,None)", 2, 4)),
        (lambda: extra_row(101, 7), MalformedCertificate, "table row for [101, None]"),
        (lambda: extra_row(4, 2), MalformedCertificate, "table row for [4, None]"),
        (shrunk_bound, MalformedCertificate, "table row for [53, None]"),
        (component_bound_above_composite, MalformedCertificate, "component bound differs"),
        (k_overshoot_table, MismatchFound, ("prime (1409,2181)", 2, 4)),
        # the inert 5 of K(-23) has norm 25; 5 names no prime by a root, 101
        # splits, and the inert 103 has norm 10609 > 10^4
        (
            lambda: k_table_without([5, None]),
            MalformedCertificate,
            "table has no row for prime (5,None)",
        ),
        (lambda: k_extra_row([5, 1]), MalformedCertificate, "table row for [5, 1]"),
        (lambda: k_extra_row([101, None]), MalformedCertificate, "table row for [101, None]"),
        (lambda: k_extra_row([103, None]), MalformedCertificate, "table row for [103, None]"),
    ],
    ids=[
        "short-table", "overshoot-table", "row-101", "row-4", "bound-50", "component-bound",
        "k-overshoot-table", "k-no-inert-square", "k-row-5-1", "k-row-101", "k-row-103",
    ],
)
def test_claim_degree_n_at_every_covered_prime(tmp_path, capsys, make, error, detail):
    c = make()
    with pytest.raises(error) as ei:
        verify(c)
    if error is MismatchFound:
        assert (ei.value.place, ei.value.claimed, ei.value.recomputed) == detail
    else:
        assert str(ei.value).startswith(detail)
    path = tmp_path / "broken.json"
    path.write_text(certificate_json(c), encoding="utf-8")
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"verification failure: {ei.value}\n"


def test_tampered_bound_inflated():
    c = copy.deepcopy(CERT2)
    c["bound"] = 200  # no table rows past 100, so coverage is a lie
    with pytest.raises(MalformedCertificate):
        verify(c)


@pytest.mark.parametrize("bound", [10**8, 10**12])
@pytest.mark.parametrize("cert", [CERT2, COMP6, CERTK], ids=["plain", "composite", "k23"])
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


@pytest.mark.parametrize(
    "row,error,message",
    [
        ({"p": 101, "b": 5, "norm": 101}, MalformedCertificate, r"no prime \(101,5\) in the field"),
        (
            {"p": 101, "b": None, "norm": 10201},
            MalformedCertificate,
            r"no prime \(101,None\) in the field",
        ),
        ({"p": 5, "b": None, "norm": 5}, MalformedCertificate, r"piece \(5,None\) has norm 25, not 5"),
        ({"p": 23, "b": 23, "norm": 23}, MismatchFound, r"^at piece conductor \(23,23\):"),
        ({"p": 2, "b": 1, "norm": 2}, MismatchFound, r"^at piece conductor \(2,1\):"),
    ],
    ids=["wrong-root", "split-named-inert", "inert-norm-p", "ramified-23", "split-2"],
)
def test_hostile_k_piece_rows(row, error, message):
    # a K piece row names a prime of the field by (p, b), with its norm:
    # 101 splits in K(-23) with other roots, 5 is inert of norm 25, and
    # the ramified (23,23) and the split (2,1) are primes of the field
    # that divide 2*l*D, so they are not members of S
    c = copy.deepcopy(CERTK)
    c["pieces"].append(row)
    with pytest.raises(error, match=message) as info:
        verify(c)
    if error is MismatchFound:
        assert (info.value.claimed, info.value.recomputed) == ("member of S", "not a member of S")


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
    assert (rep.primes, rep.degree) == ([(2, None), (3, None)], 3)


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


def deep_seed_document(field, ell, r):
    """A one-row document of exponent l^r at bound 4096 with no pieces, its
    row and compared keys as verify recomputes them, so it is rejected
    only at its missing second row, after the first fold."""
    doc = construct(field, ell, 1, 4)
    doc.update(r=r, **context_record(build_context(field, ell, r)), pieces=[], bound=4096)
    doc["table"] = [{**doc["table"][0], "degree": ell**r}]
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "field,ell,r",
    [(RATIONAL, 2, 4000), (RATIONAL, 3, 2000), (K23, 2, 2000)],
    ids=["q-l2-r4000", "q-l3-r2000", "k-23-l2-r2000"],
)
def test_deep_seed_rejected_quickly(tmp_path, capsys, field, ell, r):
    # the first fold asks the seed's order at up to 256 rows before the
    # first comparison, so each order must cost far less than r powers
    doc = deep_seed_document(field, ell, r)
    start = time.perf_counter()
    with pytest.raises(MalformedCertificate, match="table has no row for prime"):
        verify(doc)
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert run(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("verification failure: ")


def test_large_r_seed_roundtrip():
    # the seed character's order is one gcd, not a 2^r-entry table
    start = time.perf_counter()
    cert = construct(RATIONAL, 2, 60, 3)
    rep = verify(from_bytes(cert))
    assert time.perf_counter() - start < 1.0
    assert (rep.primes, rep.degree) == ([(2, None), (3, None)], 2**60)


# ------------------------------------------------------------- structure


def edited(cert, path, value):
    # a copy of cert with value at path, read back from its JSON text
    c = copy.deepcopy(cert)
    *keys, last = path
    target = c
    for k in keys:
        target = target[k]
    target[last] = value
    return parse_certificate(json.dumps(c))


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
    with pytest.raises(MalformedCertificate):
        verify(edited(cert, path, value))


# The keys verify only compares with the rebuilt context_record or the
# recomputed real place have no shape checks of their own: _match is
# their one check, and it tells a value equal only as a Python value
# (True for 1, 2.0 for 2) from one that differs.  Of l0 verify reads
# the character order, whose shape it checks, and compares the rest.
COMPARED = [
    ["t"],
    ["class_data"],
    ["unit_gens"],
    ["l0", "modulus"],
    ["l0", "character", "sign"],
    ["deficiencies"],
    ["real_place_degree"],
]


@pytest.mark.parametrize(
    "cert, path, value",
    [
        (CERT23, ["t"], True),
        (CERT23, ["t"], 1.0),
        (CERT23, ["class_data", 0, "order"], 3.0),
        (CERT23, ["class_data", 0, "gen_ideal", 0], 13.0),
        (CERT23, ["unit_gens", 0, 0], -2.0),
        (CERT23, ["l0", "character", "sign"], True),
        (CERT23, ["l0", "modulus"], 9.0),
        (CERTD, ["deficiencies", 0, "deficiency"], 1.0),
        (CERTD, ["deficiencies", 0, "prime", 0], 2.0),
        (CERT2, ["real_place_degree"], 2.0),
        (COMP6, ["composite", "real_place_degree"], 2.0),
    ],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else None,
)
def test_compared_key_equal_only_as_python_value_is_malformed(cert, path, value):
    key = "real place" if path[-1] == "real_place_degree" else path[0]
    with pytest.raises(MalformedCertificate, match=f"^{key}: "):
        verify(edited(cert, path, value))


@pytest.mark.parametrize("value", ["x", [], {}, [[1, 2]]], ids=["str", "list", "dict", "nested"])
@pytest.mark.parametrize("path", COMPARED, ids="-".join)
def test_compared_key_of_another_shape_is_a_mismatch_there(path, value):
    cert = CERTD if path == ["deficiencies"] else CERT23
    c = edited(cert, path, value)
    key = path[0]
    with pytest.raises(MismatchFound) as ei:
        verify(c)
    assert ei.value.place == ("real place" if key == "real_place_degree" else key)
    assert (ei.value.claimed, ei.value.recomputed) == (c[key], cert[key])


def test_class_data_row_keys_in_any_order_verify():
    c = copy.deepcopy(CERT23)
    c["class_data"] = [dict(reversed(row.items())) for row in c["class_data"]]
    assert json.dumps(c["class_data"]) != json.dumps(CERT23["class_data"])
    rep, want = verify(parse_certificate(json.dumps(c))), verify(CERT23)
    assert (rep.primes, rep.degree, rep.real_place) == (want.primes, want.degree, want.real_place)


def test_mismatch_message_shows_the_head_of_each_value():
    claimed, recomputed = list(range(10**4)), "y" * 500
    exc = MismatchFound("class_data", claimed, recomputed)
    assert (exc.claimed, exc.recomputed) == (claimed, recomputed)
    text = repr(claimed)
    assert str(exc) == (
        f"at class_data: certificate claims {text[:200]}... [{len(text) - 200} more characters]"
        f", recomputed {repr(recomputed)[:200]}... [302 more characters]"
    )
    assert str(MismatchFound("t", 5, 1)) == "at t: certificate claims 5, recomputed 1"


def test_parse_rejects_bad_json():
    with pytest.raises(MalformedCertificate):
        parse_certificate("not json at all")


@pytest.mark.parametrize("text", ['{"r": ' + "9" * 5000 + "}", "[" * 100_000])
def test_parse_rejects_text_json_refuses(text):
    # json.loads raises ValueError past 4300 digits, RecursionError deep down
    with pytest.raises(MalformedCertificate, match="not valid JSON"):
        parse_certificate(text)


def test_parse_rejects_non_object():
    with pytest.raises(MalformedCertificate):
        verify(parse_certificate("[1, 2, 3]"))


def test_parse_rejects_missing_key():
    c = copy.deepcopy(CERT2)
    del c["t"]
    with pytest.raises(MalformedCertificate) as ei:
        verify(parse_certificate(json.dumps(c)))
    assert "t" in str(ei.value)


def test_parse_rejects_wrong_schema_version():
    c = copy.deepcopy(CERT2)
    c["schema_version"] = 2
    with pytest.raises(MalformedCertificate):
        verify(parse_certificate(json.dumps(c)))


def test_parse_rejects_unknown_field_kind():
    c = copy.deepcopy(CERT2)
    c["field"] = {"kind": "real_quadratic", "disc": 5}
    with pytest.raises(MalformedCertificate):
        verify(parse_certificate(json.dumps(c)))


def test_parse_rejects_bad_table_row():
    c = copy.deepcopy(CERT2)
    c["table"][0]["prime"] = [2]
    with pytest.raises(MalformedCertificate):
        verify(parse_certificate(json.dumps(c)))


RC_MESSAGE = "ramified_component must be an index or null"


def brauer(c):
    return brauer_split_check(c, QuaternionAlgebra(-1, -1))


# Rows that compare equal to good values (2.0 == 2, True == 1, and
# (2.0, None) equals (2, None)) are rejected by type, and no prime may
# have two rows.  Each fault sits in the row for 17, a piece's
# conductor, so a walk to bound 10 stops before it.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: {**row, "degree": 2.0}, "table degree must be a positive integer"),
        (lambda row: {**row, "prime": [2.0, None]}, "table prime must be a [p, b] pair"),
        (lambda row: {**row, "ramified_component": True}, RC_MESSAGE),
        (lambda row: {k: v for k, v in row.items() if k != "ramified_component"}, RC_MESSAGE),
        (lambda row: list(row.values()), "table rows must be objects"),
        (lambda row: {**row, "prime": [2, None]}, "table row for [2, None] is out of order"),
    ],
    ids=["degree-float", "prime-float", "rc-true", "rc-missing", "non-object", "duplicate"],
)
@pytest.mark.parametrize(
    "check",
    [verify, lambda c: verify(c, 10), brauer],
    ids=["walked", "past-bound", "brauer"],
)
def test_rows_equal_to_good_values_rejected(edit, message, check):
    c = copy.deepcopy(CERT2)
    assert c["table"][PIECE1_ROW]["prime"] == [17, None]
    c["table"][PIECE1_ROW] = edit(c["table"][PIECE1_ROW])
    with pytest.raises(MalformedCertificate) as ei:
        check(parse_certificate(json.dumps(c)))
    assert str(ei.value) == message


# Table faults: each edits a table and returns verify's message.  All but
# degree_float act at row 3 or later (row 3 is 7 over Q, the second prime
# of norm 3 over K(-23)), so a requested bound of 2 stops the walk first.
def degree_float(table):
    table[-1]["degree"] = 2.0
    return "table degree must be a positive integer"


def rows_swapped(table):
    table[3], table[4] = table[4], table[3]
    return f"table row for {table[4]['prime']} is out of order"


def row_repeated(table):
    table.insert(5, dict(table[3]))
    return f"table row for {table[3]['prime']} is out of order"


def trailing_row(prime, bound):
    def edit(table):
        table.append({**table[-1], "prime": prime})
        return f"table row for {prime} is not a prime of norm <= {bound}"

    return edit


def row_dropped(table):
    p, b = table.pop(3)["prime"]
    return f"table has no row for prime ({p},{b})"


def non_prime_in_order(table):
    # no prime has norm 8 over Q or 4 over K(-23); both lie between rows 3
    # and 4
    p = table[3]["prime"][0] + 1
    table.insert(4, {**table[3], "prime": [p, 1]})
    return f"table row for {[p, 1]}: {p} is not a prime below 2**64"


ORDERED = [(CERT2, [101, None], 100), (COMP6, [23, None], 20), (CERT23, [59, 53], 50)]
ORDERED_IDS = ["plain", "composite", "k23"]


@pytest.mark.parametrize(
    "cert, fault, bound, component",
    [(CERT2, degree_float, None, None), (COMP6, degree_float, None, None)]
    + [
        (cert, fault, bound, None)
        for cert, prime, top in ORDERED
        for fault in (rows_swapped, row_repeated, trailing_row(prime, top))
        for bound in (None, 2)
    ]
    + [(COMP6, degree_float, None, 1)]
    + [
        (COMP6, fault, bound, 1)
        for fault in (rows_swapped, row_repeated, trailing_row([23, None], 20))
        for bound in (None, 2)
    ],
    ids=["plain", "composite"]
    + [
        f"{name}-{fault}-{at}"
        for name in ORDERED_IDS
        for fault in ("swapped", "repeated", "trailing")
        for at in ("own-bound", "bound-2")
    ]
    + ["component-2"]
    + [
        f"component-2-{fault}-{at}"
        for fault in ("swapped", "repeated", "trailing")
        for at in ("own-bound", "bound-2")
    ],
)
def test_bad_row_rejected_before_context_is_built(monkeypatch, cert, fault, bound, component):
    # shape and order faults raise at any bound, before the first context
    # is built: in a composite's second component, before the first
    # component's
    def build_context(*args):
        raise AssertionError("build_context ran before the table rows were read")

    monkeypatch.setattr(verifier, "build_context", build_context)
    c = copy.deepcopy(cert)
    doc = c.get("composite", c)
    message = fault(doc["table"] if component is None else doc["components"][component]["table"])
    with pytest.raises(MalformedCertificate) as ei:
        verify(c, bound)
    assert str(ei.value) == message


# Faults the document alone shows, outside the table: each returns the
# exception and message verify raises, the ones it raised when these
# checks ran after the class group was built


def piece_repeated(doc):
    doc["pieces"].append(dict(doc["pieces"][0]))
    p, b = doc["pieces"][0]["p"], doc["pieces"][0]["b"]
    return MalformedCertificate, f"duplicate piece conductor ({p},{b})"


def piece_norm_off(doc):
    piece = doc["pieces"][0]
    piece["norm"] += 1
    p, b, norm = piece["p"], piece["b"], piece["norm"]
    return MalformedCertificate, f"piece ({p},{b}) has norm {norm - 1}, not {norm}"


def piece_not_prime(doc):
    doc["pieces"][0]["p"] += 1
    return MalformedCertificate, f"{doc['pieces'][0]['p']} is not a prime below 2**64"


def piece_no_prime(doc):
    # 257 is inert in K(-9999935), so no prime above it has a root
    piece = doc["pieces"][0]
    assert (piece["p"], piece["b"]) == (257, None)
    piece["b"] = 0
    return MalformedCertificate, "no prime (257,0) in the field"


def disc_not_fundamental(doc):
    doc["field"]["disc"] = -9999999  # 3**2 * 1111111
    return MalformedCertificate, "discriminant is not fundamental"


def component_bound(doc):
    doc["bound"] += 1  # its rows still lie below it
    return MalformedCertificate, "component bound differs from the composite's"


def component_field(doc):
    # another field object, one whose rows still read as rational rows
    doc["field"] = {"kind": "rational", "disc": -23}
    claimed, recomputed = doc["field"], {"kind": "rational"}
    return MismatchFound, (
        f"at component field: certificate claims {claimed!r}, recomputed {recomputed!r}"
    )


def component_ell(doc):
    doc["ell"] = 2
    return MalformedCertificate, "components must use distinct primes ell"


def verify_to_2(c):
    return verify(c, 2)


DOCUMENT_FAULTS = {
    "repeated-piece": (K9999935, piece_repeated),
    "piece-norm": (K9999935, piece_norm_off),
    "piece-not-prime": (K9999935, piece_not_prime),
    "piece-no-prime": (K9999935, piece_no_prime),
    "disc": (K9999935, disc_not_fundamental),
    "component-2-bound": (COMP6, component_bound),
    "component-2-field": (COMP6, component_field),
    "component-2-ell": (COMP6, component_ell),
}


@pytest.mark.parametrize(
    "check", [verify, verify_to_2, brauer], ids=["verify", "bound-2", "brauer"]
)
@pytest.mark.parametrize("cert, fault", list(DOCUMENT_FAULTS.values()), ids=list(DOCUMENT_FAULTS))
def test_document_fault_rejected_before_context_is_built(monkeypatch, cert, fault, check):
    # the gate refuses, before the first context is built, what the
    # document alone shows: a piece fault, a field that is not a field,
    # and in a composite's second component a fault of consistency,
    # before the first component's context.  brauer-split asks the gate
    # first, even of a document whose question it would refuse
    def build_context(*args):
        raise AssertionError("build_context ran before the document was checked")

    monkeypatch.setattr(verifier, "build_context", build_context)
    c = copy.deepcopy(cert)
    kind, message = fault(c["composite"]["components"][1] if "composite" in c else c)
    with pytest.raises(kind) as ei:
        check(c)
    assert str(ei.value) == message


@pytest.mark.parametrize("fault", [row_dropped, non_prime_in_order], ids=["dropped", "non-prime"])
@pytest.mark.parametrize("cert", [cert for cert, _, _ in ORDERED], ids=ORDERED_IDS)
def test_row_i_names_the_ith_prime(cert, fault):
    # a table in order may still miss a prime or name a non-prime, which
    # the walk finds at its row; a walk to a smaller bound rechecks only
    # the rows up to it, the others only for shape and order
    c = copy.deepcopy(cert)
    message = fault(c.get("composite", c)["table"])
    with pytest.raises(MalformedCertificate) as ei:
        verify(c)
    assert str(ei.value) == message
    assert verify(c, 2).primes == verify(cert, 2).primes


def prime_refs(doc):
    # one [p, b] per table row; class generators and deficiencies are
    # only compared with the rebuilt context, by _match
    if "composite" in doc:
        comp = doc["composite"]
        return len(comp["table"]) + sum(prime_refs(sub) for sub in comp["components"])
    return len(doc["table"])


@pytest.mark.parametrize(
    "cert, check",
    [(CERTD, verify), (CERT23, verify), (COMP6, verify), (CERT2, brauer), (COMP2, brauer)],
    ids=["deficient", "class-data", "composite", "brauer", "brauer-composite"],
)
def test_each_prime_ref_is_checked_once(monkeypatch, cert, check):
    # parse_certificate only parses, so the document's rows are read
    # once, by the check that consumes it
    seen = []
    checked = verifier._check_prime_ref
    monkeypatch.setattr(
        verifier, "_check_prime_ref", lambda v, what: seen.append(v) or checked(v, what)
    )
    check(parse_certificate(json.dumps(cert)))
    assert len(seen) == prime_refs(cert)


def test_verify_rejects_nonfundamental_disc():
    c = copy.deepcopy(CERT23)
    c["field"]["disc"] = -21
    with pytest.raises(MalformedCertificate):
        verify(c)


# -------------------------------------------------------------- composite


def test_composite_roundtrip():
    rep = verify(COMP6)
    assert len(rep.primes) == 8
    assert rep.degree == 6
    two, three = rep.component_reports
    assert (two.degree, three.degree) == (2, 3) and two.primes == three.primes == rep.primes
    assert COMP6["composite"]["real_place_degree"] == 2 and rep.real_place == 2
    assert len(rep.component_reports) == 2


def test_composite_smaller_bound():
    rep = verify(COMP6, 10)
    assert rep.primes == [
        (2, None),
        (3, None),
        (5, None),
        (7, None),
    ]
    assert [sub.primes for sub in rep.component_reports] == [rep.primes] * 2


def test_composite_tampered_combined_degree():
    c = copy.deepcopy(COMP6)
    c["composite"]["table"][2]["degree"] = 12
    with pytest.raises(MismatchFound):
        verify(c)


def test_composite_rejects_degree_zero():
    c = copy.deepcopy(COMP6)
    c["composite"]["table"][0]["degree"] = 0
    with pytest.raises(MalformedCertificate):
        verify(parse_certificate(json.dumps(c)))


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


def test_hilbert_place_outside_is_primes_range():
    # is_prime answers for 2 <= m < 2**64 only; a place outside that range
    # is refused with the function's own message, 2**64 + 13 (a prime)
    # included
    assert hilbert_symbol(-1, -1, 2**64 - 59) == 1  # the largest prime below 2**64
    for place in (1, 0, -7, 2**64 + 13):
        with pytest.raises(ValueError, match=r"^place must be a prime below 2\*\*64 or 'inf'$"):
            hilbert_symbol(-1, -1, place)


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


def test_ramified_places_examples():
    assert ramified_places(-1, -1) == [2, "inf"]
    assert ramified_places(1, 1) == []
    assert ramified_places(-1, 3) == [2, 3]
    assert ramified_places(2, 7) == []
    with pytest.raises(ValueError, match="must be nonzero"):
        ramified_places(0, 3)


def test_a_broken_local_symbol_fails_the_product_formula(monkeypatch):
    # flipping one local symbol leaves an odd count of ramified places
    symbol = verifier._symbol

    def flipped(a, b, v):
        return -symbol(a, b, v) if v == 3 else symbol(a, b, v)

    monkeypatch.setattr(verifier, "_symbol", flipped)
    for query in (lambda: ramified_places(-1, 3), lambda: hilbert_symbol(-1, 3, 2)):
        with pytest.raises(InternalInconsistency, match="reciprocity fails for"):
            query()


# ---------------------------------------------------------------- brauer


def test_brauer_split_standard_quaternions():
    assert brauer_split_check(CERT2, QuaternionAlgebra(-1, -1)) == [2, "inf"]


def test_brauer_split_vacuous():
    assert brauer_split_check(CERT2, QuaternionAlgebra(1, 1)) == []


def test_brauer_forged_real_place_record():
    c = copy.deepcopy(CERT2)
    c["real_place_degree"] = 1  # brauer verifies the record before it answers
    with pytest.raises(MismatchFound) as ei:
        brauer_split_check(c, QuaternionAlgebra(-1, -1))
    assert (ei.value.place, ei.value.claimed, ei.value.recomputed) == ("real place", 1, 2)


def test_brauer_verifies_the_document_first():
    # (-1,-3) ramifies at 3 and the real place; with no pieces the seed
    # alone gives degree 1 at 3, and rows for 2 and 3 do not hide it
    c = copy.deepcopy(CERT2)
    c["pieces"] = []
    c["table"] = c["table"][:2]
    with pytest.raises(MismatchFound) as ei:
        brauer_split_check(c, QuaternionAlgebra(-1, -3))
    assert (ei.value.place, ei.value.claimed, ei.value.recomputed) == ("prime (3,None)", 2, 1)


def test_brauer_verifies_up_to_the_largest_ramified_place():
    # a wrong row past 3 is beyond the walk for (-1,-3), but not for (-1,-7)
    c = copy.deepcopy(CERT2)
    assert c["table"][3]["prime"] == [7, None]
    c["table"][3]["degree"] = 1
    assert brauer_split_check(c, QuaternionAlgebra(-1, -3)) == [3, "inf"]
    with pytest.raises(MismatchFound, match=r"^at prime \(7,None\)"):
        brauer_split_check(c, QuaternionAlgebra(-1, -7))


def test_brauer_ramified_beyond_bound():
    with pytest.raises(RamifiedPlaceOutOfRange):
        brauer_split_check(CERT2, QuaternionAlgebra(-1, 103))


def test_brauer_requires_exponent_two_rational():
    with pytest.raises(ValueError):
        brauer_split_check(CERT9, QuaternionAlgebra(-1, -1))
    with pytest.raises(ValueError):
        brauer_split_check(CERT23, QuaternionAlgebra(-1, -1))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_brauer_splits_at_every_even_n_over_q(n):
    # an even local degree at a place splits invariant 1/2 there, and the
    # real place has degree 2: Q n=4 and n=8 and the composite n=6 answer
    # yes after verify, at the places ramified_places names, each a row of
    # even degree; odd n stays refused, plain and composite
    cert = {4: from_bytes(construct(RATIONAL, 2, 2, 20)), 6: COMP6, 8: CERT8}[n]
    doc = cert.get("composite", cert)
    degrees = {row["prime"][0]: row["degree"] for row in doc["table"]}
    for a, b in ((-1, -1), (-1, -3), (-1, 3), (-2, 5), (-7, -11), (1, 1)):
        places = ramified_places(a, b)
        assert brauer_split_check(cert, QuaternionAlgebra(a, b)) == places
        assert all(degrees[p] % 2 == 0 for p in places if p != "inf")
    assert doc["real_place_degree"] == 2
    with pytest.raises(RamifiedPlaceOutOfRange):
        brauer_split_check(cert, QuaternionAlgebra(-1, 103))
    odd = from_bytes(compose_for_n(RATIONAL, 15, 10))
    for refused in (CERT9, odd):
        with pytest.raises(InvalidRequest, match="^splitting check needs an even-n certificate"):
            brauer_split_check(refused, QuaternionAlgebra(-1, -1))


def test_brauer_accepts_composite_wrapper():
    assert brauer_split_check(COMP2, QuaternionAlgebra(-1, -1)) == [2, "inf"]


def test_quaternion_algebra_rejects_zero():
    with pytest.raises(ValueError):
        QuaternionAlgebra(0, 5)
    for a, b in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(ValueError, match="quaternion algebra parameters must be nonzero"):
            QuaternionAlgebra(a, b)
    assert QuaternionAlgebra(-1, 3) == QuaternionAlgebra(-1, 3)
    assert hash(QuaternionAlgebra(-1, 3)) == hash(QuaternionAlgebra(-1, 3))
    assert QuaternionAlgebra(-1, 3).b == 3
