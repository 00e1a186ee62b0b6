"""Legacy documents and seeded mutants of them.

tests/fixtures holds eight certificates in json's indent=2 layout, which
certificate_json wrote before its text became json.dumps's own: Q n=2 B=100
(conductors 17 and 89 ramify in table rows), Q n=6 B=20 (a composite),
K(-8) n=2 B=200 (deficient at the prime above 2), K(-23) n=4 B=50
(three pieces, where the prime-to-2 part of the class number, 3, is
the exponent of every target generator), K(-23) n=8 B=50 (conductors
11617 and 493793, where 2^5 exactly divides N - 1, the deepest square
root descent the search reaches), K(-56) n=4 B=200 (inert
conductors 17 and 223, where D mod p is not the least non-residue, so
the residue field's basis sqrt(D) is not the least one), K(-9999935)
n=2 B=30 (a class basis of orders 16, 2 and 2, the greedy rule's pick
among mixed orders) and K(-23) n=3 B=200 (l = 3, where t = 1, so each
search image has exponent (N - 1)/9 and could escape the degree-3
piece).  They are inputs, and construct need not reproduce them:
tests/pins.json pins its output by SHA-256.  Every file there must
verify, so a fixture added later needs no pin, and every mutant of each
but K(-9999935), whose mutants rebuild a slow class group, must either
fail verification with MalformedCertificate or MismatchFound or verify
to the same report; any other exception is a verifier bug.
"""

import copy
import json
import random
import time
from pathlib import Path

from constdeg import MalformedCertificate, MismatchFound, parse_certificate, verify
from oracles import least_nonresidue

FIXTURES = Path(__file__).resolve().parent / "fixtures"
NAMES = sorted(path.name for path in FIXTURES.glob("*.json"))

# each mutant of these rebuilds a class group of about 0.5 s
SLOW = {"k-9999935_n2_b30.json"}


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_every_fixture_verifies():
    # by the files on disk, so a fixture added later is verified, and
    # mutated below, with no manifest entry
    for name in NAMES:
        verify(parse_certificate(fixture_text(name)))


def test_golden_verify():
    q2 = parse_certificate(fixture_text("q_n2_b100.json"))
    assert [row["prime"][0] for row in q2["table"] if row["ramified_component"]] == [17, 89]
    rep = verify(q2)
    assert (len(rep.primes), rep.degree, rep.real_place) == (25, 2, 2)
    rep = verify(parse_certificate(fixture_text("q_n6_b20.json")))
    assert (len(rep.primes), rep.degree, rep.real_place) == (8, 6, 2)
    assert [sub.degree for sub in rep.component_reports] == [2, 3]
    k8 = parse_certificate(fixture_text("k-8_n2_b200.json"))
    assert k8["deficiencies"] == [{"prime": [2, 0], "deficiency": 1}]
    rep = verify(k8)
    assert (rep.primes[0], rep.degree, rep.real_place) == ((2, 0), 2, None)
    k23 = parse_certificate(fixture_text("k-23_n4_b50.json"))
    assert [piece["p"] for piece in k23["pieces"]] == [4721, 12497, 74017]
    rep = verify(k23)
    assert (len(rep.primes), rep.degree, rep.real_place) == (17, 4, None)
    k23n8 = parse_certificate(fixture_text("k-23_n8_b50.json"))
    pieces = [piece["p"] for piece in k23n8["pieces"]]
    assert pieces == [11617, 493793]
    assert [(p - 1) & (1 - p) for p in pieces] == [32, 32]
    rep = verify(k23n8)
    assert (len(rep.primes), rep.degree, rep.real_place) == (17, 8, None)
    k56 = parse_certificate(fixture_text("k-56_n4_b200.json"))
    pieces = [(piece["p"], piece["b"]) for piece in k56["pieces"]]
    assert pieces == [(17, None), (148513, 102550), (223, None)]
    assert [(least_nonresidue(p), -56 % p) for p in (17, 223)] == [(3, 12), (3, 167)]
    rep = verify(k56)
    assert (len(rep.primes), rep.degree, rep.real_place) == (47, 4, None)
    k9999935 = parse_certificate(fixture_text("k-9999935_n2_b30.json"))
    assert [g["order"] for g in k9999935["class_data"]] == [16, 2, 2]
    assert [g["gen_ideal"][0] for g in k9999935["class_data"]] == [59083, 2002867, 125107]
    rep = verify(k9999935)
    assert (len(rep.primes), rep.degree, rep.real_place) == (10, 2, None)
    k23n3 = parse_certificate(fixture_text("k-23_n3_b200.json"))
    assert k23n3["t"] == 1
    pieces = [(piece["p"], piece["b"]) for piece in k23n3["pieces"]]
    assert pieces == [(20359, 2247), (24337, 26353), (97561, 56885)]
    assert all(p % 9 == 1 for p, _ in pieces)
    rep = verify(k23n3)
    assert (len(rep.primes), rep.degree, rep.real_place) == (46, 3, None)


# ---------------------------------------------------------------- mutants

REPLACEMENTS = (0, True, None, "x", [], {}, 2**64 + 13, 10**12)


def spots(node, path=()):
    """(path, value) for the node and everything below it."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, value in children:
        yield from spots(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutants(doc, rng, count):
    """count copies of doc, each with one leaf outside config replaced,
    one key deleted, or one list element dropped or duplicated."""
    found = list(spots(doc))
    leaves = [
        (p, v) for p, v in found if p and not isinstance(v, (dict, list)) and "config" not in p
    ]
    keys = [(p, k) for p, v in found if isinstance(v, dict) for k in v]
    lists = [(p, len(v)) for p, v in found if isinstance(v, list) and v]
    for _ in range(count):
        m = copy.deepcopy(doc)
        kind = rng.randrange(3)
        if kind == 0:
            p, v = rng.choice(leaves)
            options = REPLACEMENTS + ((v + 1, v - 1, -v) if type(v) is int else ())
            at(m, p[:-1])[p[-1]] = rng.choice(options)
        elif kind == 1:
            p, k = rng.choice(keys)
            del at(m, p)[k]
        else:
            p, size = rng.choice(lists)
            items, i = at(m, p), rng.randrange(size)
            if rng.randrange(2):
                del items[i]
            else:
                items.insert(i, copy.deepcopy(items[i]))
        yield m


ROW_CHANGES = (
    lambda row: {**row, "degree": True},
    lambda row: {**row, "degree": 1.5},
    lambda row: {**row, "prime": [row["prime"][0], "a\nb"]},
    lambda row: {**row, "prime": ["\u00e9", row["prime"][1]]},
    lambda row: dict(reversed(row.items())),
    lambda row: {**row, "prime": tuple(row["prime"])},
    lambda row: {**row, "extra": {1: [2, 3]}},
)


def row_mutants(doc):
    """Copies of doc in which one table leaves construct's two row shapes:
    its second row changed by one of ROW_CHANGES, or the table itself
    made a dict or a string."""
    for path, table in list(spots(doc)):
        if path[-1:] != ("table",):
            continue
        for change in ROW_CHANGES:
            m = copy.deepcopy(doc)
            rows = at(m, path)
            rows[1] = change(rows[1])
            yield m
        for other in ({"rows": table}, "a\nb"):
            m = copy.deepcopy(doc)
            at(m, path[:-1])[path[-1]] = copy.deepcopy(other)
            yield m


def test_mutants_fail_cleanly_or_verify_the_same():
    # K(-56), K(-23) n=8 and K(-23) n=3 draw their mutants from their own
    # streams, so the other four keep theirs
    rng = random.Random(13)
    own = {
        "k-56_n4_b200.json": random.Random(56),
        "k-23_n8_b50.json": random.Random(8),
        "k-23_n3_b200.json": random.Random(3),
    }
    start = time.perf_counter()
    outcomes = {}
    for name in sorted(set(NAMES) - SLOW):
        doc = json.loads(fixture_text(name))
        want = verify(doc)
        for m in [*mutants(doc, own.get(name, rng), 100), *row_mutants(doc)]:
            text = json.dumps(m)
            t0 = time.perf_counter()
            try:
                got = verify(parse_certificate(text))
            except (MalformedCertificate, MismatchFound) as exc:
                outcome = type(exc).__name__
            else:
                assert (got.primes, got.degree, got.real_place) == (
                    want.primes,
                    want.degree,
                    want.real_place,
                ), text
                outcome = "pass"
            assert time.perf_counter() - t0 < 1.0, text
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert time.perf_counter() - start < 5.0
    assert set(outcomes) == {"MalformedCertificate", "MismatchFound", "pass"}
