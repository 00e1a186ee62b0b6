"""Correctness gate and exact work counts, computed outside the package.

Nothing here imports constdeg.  The expected primes of each table come
from the benchmark's own sieve and, over an imaginary quadratic field,
its own Kronecker symbol; the search entries come from the certificate's
conductor norms and the progression step that membership in S forces.
"""

import hashlib
import json
from collections import Counter
from functools import lru_cache
from math import isqrt


def primes_upto(limit: int) -> list:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def kronecker(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    r = pow(d % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@lru_cache(maxsize=None)
def expected_rows(disc, bound: int) -> Counter:
    """How many table rows lie above each rational prime: one over Q; over
    K one per ramified prime, two per split prime, and one per inert prime
    whose norm p^2 is within the bound.  Callers must not modify it."""
    rows = Counter()
    for p in primes_upto(bound):
        if disc is None:
            rows[p] = 1
            continue
        k = kronecker(disc, p)
        if k == 1:
            rows[p] = 2
        elif k == 0 or p * p <= bound:
            rows[p] = 1
    return rows


def progression_step(ell: int, r: int, t: int, disc) -> int:
    """Step of the norm progression N = 1 mod step that S forces."""
    step = ell ** (r + t)
    if ell == 2 and (disc is None or disc < -4):
        step *= 2  # -1 must be a 2^(r+t)-th power residue
    return step


def _plain_parts(doc):
    return doc["composite"]["components"] if "composite" in doc else [doc]


def work_counts(doc) -> dict:
    """Pieces, largest conductor norm and progression entries of a
    certificate; entries are (N - 1) / step summed over its conductors."""
    pieces = max_norm = entries = 0
    for part in _plain_parts(doc):
        fj = part["field"]
        disc = fj["disc"] if fj["kind"] == "imag_quadratic" else None
        step = progression_step(part["ell"], part["r"], part["t"], disc)
        for pc in part["pieces"]:
            pieces += 1
            max_norm = max(max_norm, pc["norm"])
            entries += (pc["norm"] - 1) // step
    return {"pieces": pieces, "max_conductor_norm": max_norm, "entries": entries}


def _table_problems(table, want_degree, rows, what):
    problems = []
    bad = [row["prime"] for row in table if row["degree"] != want_degree]
    if bad:
        problems.append(f"{what}: {len(bad)} rows not of degree {want_degree}, first {bad[0]}")
    got = Counter(row["prime"][0] for row in table)
    if got != rows:
        problems.append(
            f"{what}: {sum(got.values())} rows, expected {sum(rows.values())} primes"
        )
    return problems


def check(job, doc) -> list:
    """Problems found in a parsed certificate for job; empty when it passes."""
    rows = expected_rows(job.disc, job.bound)
    problems = []
    if "composite" in doc:
        comp = doc["composite"]
        if comp["bound"] != job.bound or comp["n"] != job.n:
            problems.append(f"composite claims n={comp['n']} B={comp['bound']}")
        problems += _table_problems(comp["table"], job.n, rows, "composite")
    elif doc["bound"] != job.bound or doc["ell"] ** doc["r"] != job.n:
        problems.append(f"certificate claims n={doc['ell'] ** doc['r']} B={doc['bound']}")
    for i, part in enumerate(_plain_parts(doc)):
        problems += _table_problems(part["table"], part["ell"] ** part["r"], rows, f"part {i}")
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tampered(text: str) -> str:
    """The same document with the first table row's degree changed."""
    doc = json.loads(text)
    table = doc["composite"]["table"] if "composite" in doc else doc["table"]
    table[0]["degree"] = 1 if table[0]["degree"] != 1 else 2
    return json.dumps(doc, indent=2) + "\n"
