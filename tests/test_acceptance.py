"""End-to-end acceptance checks, one test per criterion.

Everything is exact arithmetic (zero tolerance); timed criteria assert
their wall-clock budgets.  Each test ends by printing one PASS line,
visible with pytest -s or in the captured output.
"""

import json
import random
import time

from constdeg import classfield
from constdeg.arith import factor, small_primes
from constdeg.classfield import (
    build_context,
    conductor_image,
    enumerate_field_primes,
    frobenius_order_in_ray_piece,
    in_S,
    make_ray_piece,
)
from constdeg.cli import run
from constdeg.constructor import certificate_json, compose_for_n, construct
from constdeg.quadfield import (
    RATIONAL,
    compose_forms,
    elt_mul,
    enumerate_class_group,
    local_field,
    principal_form,
    quadratic_field,
    reduce_form,
)
from constdeg.verifier import (
    QuaternionAlgebra,
    brauer_split_check,
    hilbert_symbol,
    parse_certificate,
    ramified_places,
    verify,
)
from oracles import (
    alpha_roots,
    elt_neg,
    frobenius_image,
    kprime,
    kummer_generator,
    kummer_split_test,
    reference_image,
    unit_root,
)

K23 = quadratic_field(-23)


def from_bytes(cert):
    # verification must run on the serialized document, never on shared
    # in-process state
    return parse_certificate(certificate_json(cert))


def s_members(ctx, count, bound=5000):
    # the first members of S in search order, from the field's primes
    out = [
        P
        for P in enumerate_field_primes(ctx.field, bound)
        if P.p not in ctx.excluded and P not in ctx.cl.gens and in_S(ctx, P)
    ]
    assert len(out) >= count
    return out[:count]


def places_of(a, b):
    ps = {2}
    for n in (a, b):
        ps.update(p for p, _ in factor(abs(n)))
    return sorted(ps) + ["inf"]


def test_criterion_01_rational_n2_bound_100(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "c1.json"
    assert run(["construct", "--field", "q", "--n", "2", "--bound", "100", "--out", str(path)]) == 0
    assert run(["verify", str(path)]) == 0
    cert = parse_certificate(path.read_text())
    report = verify(cert, 100)
    elapsed = time.perf_counter() - t0
    assert [p for p, _ in report.primes] == list(small_primes(101))
    assert len(report.primes) == 25
    assert all(row["degree"] == 2 for row in cert["table"])
    assert report.degree == 2
    assert cert["real_place_degree"] == 2 and report.real_place == 2
    assert elapsed < 5.0
    print(f"criterion 1: PASS  n=2 covers all 25 primes up to 100 and the real place ({elapsed:.2f}s)")


def test_criterion_02_rational_n8_bound_50():
    t0 = time.perf_counter()
    cert = from_bytes(construct(RATIONAL, 2, 3, 50))
    report = verify(cert)
    elapsed = time.perf_counter() - t0
    assert len(report.primes) == 15
    assert all(row["degree"] == 8 for row in cert["table"])
    assert report.degree == 8
    assert cert["real_place_degree"] == 2 and report.real_place == 2
    assert elapsed < 10.0
    print(f"criterion 2: PASS  n=8 covers all primes up to 50 at degree 8 ({elapsed:.2f}s)")


def test_criterion_03_rational_n9_and_n27_bound_50():
    times = []
    for r, n in ((2, 9), (3, 27)):
        t0 = time.perf_counter()
        cert = from_bytes(construct(RATIONAL, 3, r, 50))
        report = verify(cert)
        elapsed = time.perf_counter() - t0
        assert len(report.primes) == 15
        assert all(row["degree"] == n for row in cert["table"])
        assert report.degree == n
        assert cert["real_place_degree"] is None and report.real_place is None
        assert elapsed < 10.0
        times.append(elapsed)
    print(
        "criterion 3: PASS  n=9 and n=27 cover all primes up to 50 "
        f"({times[0]:.2f}s, {times[1]:.2f}s)"
    )


def test_criterion_04_quadratic_field_bound_50():
    t0 = time.perf_counter()
    cert = from_bytes(construct(K23, 3, 1, 50))
    report = verify(cert)
    elapsed = time.perf_counter() - t0
    assert cert["t"] == 1 and len(cert["class_data"]) == 1  # h = 3 path
    expected = [(w.p, w.b) for w in enumerate_field_primes(K23, 50)]
    assert report.primes == expected
    split = {}
    for p, b in expected:
        if b is not None and p != 23:
            split.setdefault(p, set()).add(b)
    assert split and all(len(bs) == 2 for bs in split.values())
    assert report.degree == 3
    assert elapsed < 30.0
    print(
        "criterion 4: PASS  disc -23 covers every prime of norm up to 50, "
        f"both conjugates of {len(split)} split primes included ({elapsed:.2f}s)"
    )


def _oracle_pairs(ctx, conductors, targets):
    pairs = 0
    for eps in conductors:
        make_ray_piece(ctx, eps)  # checks eps lies in S
        for q in targets:
            if q.p == eps.p or q.p in ctx.excluded or q in ctx.cl.gens:
                continue
            alpha, m = kummer_generator(ctx, q)
            order = frobenius_order_in_ray_piece(ctx, eps, q)
            for s in range(ctx.r + 1):
                want = order <= ctx.ell ** (ctx.r - s)
                assert kummer_split_test(ctx, eps, alpha, m + s) == want, (eps, q, s)
            pairs += 1
    return pairs


def test_criterion_05_frobenius_kummer_equivalence():
    # the Frobenius order in a ray piece against the power-residue level
    # of the Kummer generator, at every level 0 <= s <= r
    ctx_q = build_context(RATIONAL, 3, 2)
    pairs_q = _oracle_pairs(ctx_q, s_members(ctx_q, 2), enumerate_field_primes(RATIONAL, 60))
    ctx_k = build_context(K23, 3, 1)
    pairs_k = _oracle_pairs(ctx_k, s_members(ctx_k, 3), enumerate_field_primes(K23, 60))
    assert pairs_q >= 20 and pairs_k >= 20
    print(
        f"criterion 5: PASS  {pairs_q} rational and {pairs_k} quadratic (q, eps) "
        "pairs agree at every level"
    )


def package_image(ctx, eps, q):
    # the package's closed-form image of the target q at the conductor
    # eps, as classfield.frobenius_orders takes it
    e = (eps.norm - 1) // ctx.ell ** (ctx.r + ctx.t)
    gamma = classfield._target_generator(ctx, q)
    return conductor_image(eps.p, eps.b, e, gamma, local_field(ctx.field, eps))


def test_criterion_06_choice_independence():
    # the package's closed-form image gamma^((Q-1)/l^(r+t)), equal to the
    # oracle's object route and, raised to kprime/m, to the root-based
    # splitting map, element by element, under every choice the latter
    # makes: the l-th roots, the sign of alpha_i, and the unit in gamma
    rng = random.Random(0xACCE55)
    ctx = build_context(K23, 3, 1)
    flipped = build_context(K23, 3, 1)
    flipped.cl.alphas = tuple(elt_neg(a) for a in flipped.cl.alphas)
    unitized = build_context(K23, 3, 1)
    u = kprime(ctx) // ctx.cl.coprime_part  # reference = image^u
    trials = 0
    for eps in s_members(ctx, 2):
        fld = local_field(ctx.field, eps)
        make_ray_piece(ctx, eps)  # checks eps lies in S
        targets = [
            q
            for q in enumerate_field_primes(K23, 60)
            if q.p != eps.p and q.p not in ctx.excluded and q not in ctx.cl.gens
        ]
        base = {q: package_image(ctx, eps, q) for q in targets}
        assert base == {q: frobenius_image(ctx, eps, q) for q in targets}
        assert len(set(base.values())) > 1  # some target moves in the piece
        want = {q: fld.pow(x, u) for q, x in base.items()}

        # every l-th root taken times a random cube root of unity
        w = unit_root(fld, 3)
        for _ in range(2):
            roots = alpha_roots(ctx, eps, lambda: fld.pow(w, rng.randrange(3)))
            for q in rng.sample(targets, 8):
                assert reference_image(ctx, eps, q, roots) == want[q], (eps, q)
                trials += 1

        # the class generator witnesses alpha_i sign-flipped
        for q in rng.sample(targets, 10):
            assert reference_image(flipped, eps, q) == want[q], (eps, q)
            trials += 1

        # the production generator gamma times a unit
        for q in rng.sample(targets, 10):
            package_image(unitized, eps, q)  # caches gamma for q
            unitized._targets[q] = elt_mul(K23, rng.choice(ctx.units), unitized._targets[q])
            assert package_image(unitized, eps, q) == base[q], (eps, q)
            assert reference_image(ctx, eps, q) == want[q], (eps, q)
            trials += 1
    assert trials >= 50
    print(f"criterion 6: PASS  {trials} perturbed trials agree with the closed-form image")


def test_criterion_07_composite_exponents():
    for n in (6, 12):
        cert = from_bytes(compose_for_n(RATIONAL, n, 20))
        report = verify(cert)
        assert len(report.primes) == 8
        assert report.degree == n
        assert all(row["degree"] == n for row in cert["composite"]["table"])
        assert cert["composite"]["real_place_degree"] == 2 and report.real_place == 2
    print("criterion 7: PASS  combined tables for n = 6 and n = 12 are constant")


def test_criterion_08_class_groups_and_form_composition():
    for disc, h in ((-4, 1), (-23, 3), (-47, 5)):
        forms, got = enumerate_class_group(quadratic_field(disc))
        assert got == h and len(forms) == h
    checked = 0
    for disc in range(-3, -201, -1):
        try:
            field = quadratic_field(disc)
        except ValueError:
            continue
        forms, h = enumerate_class_group(field)
        group = set(forms)
        e = principal_form(disc)
        assert e in group
        for f in forms:
            assert compose_forms(f, e) == f
            assert compose_forms(f, reduce_form((f[0], -f[1], f[2]))) == e
            for g in forms:
                fg = compose_forms(f, g)
                assert fg in group
                assert fg == compose_forms(g, f)
                for k in forms:
                    assert compose_forms(fg, k) == compose_forms(f, compose_forms(g, k))
        checked += 1
    assert checked >= 40
    print(
        "criterion 8: PASS  h(-4)=1 h(-23)=3 h(-47)=5; "
        f"group law exhaustive over {checked} fundamental discriminants"
    )


def test_criterion_09_reciprocity_and_brauer_consequence():
    rng = random.Random(0xB4A43)
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
    assert ramified_places(-1, -1) == [2, "inf"]
    cert = from_bytes(construct(RATIONAL, 2, 1, 100))
    split, places = brauer_split_check(cert, QuaternionAlgebra(-1, -1))
    assert split is True and places == [2, "inf"]
    print("criterion 9: PASS  reciprocity on 100 pairs; (-1,-1) is split by the n=2 field")


def test_criterion_10_fault_injection(tmp_path):
    base = construct(RATIONAL, 2, 1, 100)

    def tampered(name, mutate):
        cert = json.loads(certificate_json(base))
        mutate(cert)
        path = tmp_path / name
        path.write_text(json.dumps(cert))
        return run(["verify", str(path)])

    def fake_conductor(cert):
        cert["pieces"][0]["p"] = 19
        cert["pieces"][0]["norm"] = 19

    assert tampered("table.json", lambda c: c["table"][5].update(degree=8)) == 2
    assert tampered("piece.json", fake_conductor) == 2
    assert tampered("real.json", lambda c: c.update(real_place_degree=1)) == 2
    print("criterion 10: PASS  table, conductor, and real-place tampers all exit 2")
