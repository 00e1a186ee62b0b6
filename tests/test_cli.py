import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import venv
from pathlib import Path

import pytest

from constdeg import verifier
from constdeg.cli import _build_parser, run

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def construct(tmp_path, name, *extra):
    out = tmp_path / name
    rc = run(["construct", *extra, "--out", str(out)])
    assert rc == 0
    return out


def test_construct_then_verify(tmp_path, capsys):
    path = construct(tmp_path, "c3.json", "--field", "q", "--n", "3", "--bound", "3")
    out = capsys.readouterr().out
    assert f"wrote {path}" in out
    assert "pieces 0" in out
    assert run(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict pass" in out
    assert "(2 primes" in out


def test_verify_missing_file(capsys):
    assert run(["verify", "missing.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_bound_flag(tmp_path, capsys):
    path = construct(tmp_path, "c2.json", "--field", "q", "--n", "2", "--bound", "30")
    assert run(["verify", str(path), "--bound", "10"]) == 0
    assert run(["verify", str(path), "--bound", "1000"]) == 1
    assert "exceeds" in capsys.readouterr().err
    for bound in ("1", "-3"):
        assert run(["verify", str(path), "--bound", bound]) == 1
        assert f"requested bound {bound} is below 2" in capsys.readouterr().err


def test_verify_tampered_certificate(tmp_path, capsys):
    path = construct(tmp_path, "c2.json", "--field", "q", "--n", "2", "--bound", "30")
    cert = json.loads(path.read_text())
    cert["table"][2]["degree"] = 4
    path.write_text(json.dumps(cert))
    assert run(["verify", str(path)]) == 2
    assert "verification failure" in capsys.readouterr().err


def test_verify_piece_prime_beyond_2_64(tmp_path, capsys):
    path = construct(tmp_path, "c3.json", "--field", "q", "--n", "3", "--bound", "50")
    cert = json.loads(path.read_text())
    assert cert["pieces"]
    cert["pieces"][0]["p"] = cert["pieces"][0]["norm"] = 2**64 + 13
    path.write_text(json.dumps(cert))
    assert run(["verify", str(path)]) == 2
    assert "verification failure" in capsys.readouterr().err


def test_verify_report_shows_prime_and_degree(tmp_path, capsys):
    # verify raises on any mismatch and every row is in the file, so
    # neither command prints the table: construct names the rows and
    # conductors, verify the real place degree and the primes rechecked
    path = construct(tmp_path, "c2.json", "--field", "q", "--n", "2", "--bound", "5")
    assert capsys.readouterr().out.splitlines() == [
        "field Q  n 2 (ell 2, r 1)  bound 5  rows 3  pieces 1",
        "conductors (17,-)",
        "real place degree 2",
        f"wrote {path}",
    ]
    assert run(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "real place degree 2"
    assert re.fullmatch(r"verdict pass  \(3 primes, \d+\.\d{3}s\)", lines[1])


@pytest.mark.parametrize("field, bounds", [("q", (100, 100_000)), ("disc=-23", (100, 10_000))])
def test_output_line_count_does_not_grow_with_the_bound(tmp_path, capsys, field, bounds):
    counts = set()
    for bound in bounds:
        args = ("--field", field, "--n", "2", "--bound", str(bound))
        path = construct(tmp_path, f"b{bound}.json", *args)
        built = capsys.readouterr().out
        assert run(["verify", str(path)]) == 0
        counts.add((built.count("\n"), capsys.readouterr().out.count("\n")))
    assert len(counts) == 1, counts


def test_construct_into_a_missing_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run(["construct", "--field", "q", "--n", "2", "--bound", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("where", ["missing/x.json", "missing/deeper/x.json"])
def test_construct_checks_the_out_directory_before_the_search(
    tmp_path, capsys, monkeypatch, where
):
    # a search that ran would raise here; the directory check comes first
    from constdeg import constructor

    def no_search(*args):
        raise AssertionError("the search ran before the --out check")

    monkeypatch.setattr(constructor, "search_prime", no_search)
    out = tmp_path / where
    assert run(["construct", "--field", "q", "--n", "3", "--bound", "100", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_verify_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(["verify", str(path)]) == 2
    assert "verification failure" in capsys.readouterr().err


HOSTILE_DOCUMENTS = {
    "long_int.json": b'{"schema_version": ' + b"9" * 5000 + b"}",  # past json's 4300 digits
    "deep.json": b"[" * 100_000,
    "latin1.json": '{"field": "\u00e9"}'.encode("latin-1"),  # not UTF-8
}


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_hostile_json_text_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(HOSTILE_DOCUMENTS[name])
    for argv in (["verify", str(path)], ["brauer-split", str(path), "--a", "-1", "--b", "-1"]):
        assert run(argv) == 2, (name, argv)
        err = capsys.readouterr().err
        assert err.startswith("verification failure:") and "Traceback" not in err


def test_repeated_key_keeps_its_last_value(tmp_path, capsys):
    # json.loads keeps the last of repeated object keys, and so does verify
    text = (FIXTURES / "q_n2_b100.json").read_text(encoding="utf-8")
    assert text.count('\n  "r": 1,\n') == 1
    path = tmp_path / "twice.json"
    for first, last, code in ((3, 1, 0), (1, 3, 2)):
        path.write_text(text.replace('\n  "r": 1,\n', f'\n  "r": {first},\n  "r": {last},\n'))
        assert run(["verify", str(path)]) == code, (first, last)
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("verification failure:")
        else:
            assert "verdict pass" in captured.out


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_in_place_of_an_integer_exits_2(tmp_path, capsys, literal):
    text = (FIXTURES / "q_n2_b100.json").read_text(encoding="utf-8")
    path = tmp_path / "nonfinite.json"
    for key in ("r", "bound"):
        path.write_text(re.sub(rf'\n  "{key}": \d+,\n', f'\n  "{key}": {literal},\n', text))
        assert run(["verify", str(path)]) == 2, key
        assert capsys.readouterr().err.startswith("verification failure:"), key


FUZZ_FIXTURES = (
    "k-23_n4_b50.json",
    "k-23_n8_b50.json",
    "k-56_n4_b200.json",
    "k-8_n2_b200.json",
    "q_n2_b100.json",
    "q_n6_b20.json",
)
NOT_EVEN_OVER_Q = "error: splitting check needs an even-n certificate over the rationals\n"


def byte_mutants(data: bytes, rng, count):
    """count copies of data, each with one span truncated away, spliced
    in from elsewhere, repeated or deleted, a run of '[' inserted, one
    number written as a long digit string, bytes that are not UTF-8
    inserted, or a byte-order mark prepended."""
    numbers = [m.span() for m in re.finditer(rb"\d+", data)]
    for _ in range(count):
        i, j = sorted(rng.randrange(len(data) + 1) for _ in range(2))
        kind = rng.randrange(8)
        if kind == 0:
            yield data[:i]
        elif kind == 1:
            k = rng.randrange(len(data))
            yield data[:i] + data[k : k + j - i] + data[j:]
        elif kind == 2:
            yield data[:j] + data[i:j] + data[j:]
        elif kind == 3:
            yield data[:i] + data[j:]
        elif kind == 4:
            yield data[:i] + b"[" * rng.choice((50, 1000, 100_000)) + data[i:]
        elif kind == 5:
            i, j = rng.choice(numbers)
            yield data[:i] + b"9" * rng.choice((20, 40, 400, 5000)) + data[j:]
        elif kind == 6:
            yield data[:i] + rng.choice((b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80")) + data[i:]
        else:
            yield b"\xef\xbb\xbf" + data


def test_byte_mutants_of_the_golden_fixtures_map_to_exit_codes(tmp_path, capsys):
    # no exception escapes run, whatever the bytes: verify passes or
    # fails, and brauer-split also refuses, as a usage error, any
    # document that still reads as a certificate of odd n or over K
    rng = random.Random(27)
    path = tmp_path / "mutant.json"
    start = time.perf_counter()
    codes = {}
    for name in FUZZ_FIXTURES:
        for data in byte_mutants((FIXTURES / name).read_bytes(), rng, 40):
            path.write_bytes(data)
            code = run(["verify", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 2), (name, data[:200], err)
            code = run(["brauer-split", str(path), "--a", "-1", "--b", "-1"])
            err = capsys.readouterr().err
            assert code in (0, 2) or (code, err) == (1, NOT_EVEN_OVER_Q), (name, data[:200], err)
            codes[code] = codes.get(code, 0) + 1
    assert time.perf_counter() - start < 5.0
    assert set(codes) == {0, 1, 2}


def test_composite_construct_and_verify(tmp_path, capsys):
    path = construct(tmp_path, "c6.json", "--field", "q", "--n", "6", "--bound", "20")
    out = capsys.readouterr().out
    assert "n 6 = 2 x 3" in out
    assert "real place degree 2" in out
    assert run(["-v", "verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict pass" in out
    assert "component 1:" in out


def test_quadratic_construct_and_verify(tmp_path, capsys):
    path = construct(
        tmp_path, "k23.json", "--field", "disc=-23", "--n", "3", "--bound", "30"
    )
    out = capsys.readouterr().out
    assert "field disc -23" in out
    assert run(["verify", str(path)]) == 0


def test_construct_rejects_bad_field(tmp_path, capsys):
    args = ["--n", "3", "--bound", "5", "--out", str(tmp_path / "x.json")]
    assert run(["construct", "--field", "k23", *args]) == 1
    assert "expected 'q' or 'disc=" in capsys.readouterr().err
    assert run(["construct", "--field", "disc=-21", *args]) == 1
    assert "0 or 1 mod 4" in capsys.readouterr().err
    assert run(["construct", "--field", "disc=-12", *args]) == 1
    assert "fundamental" in capsys.readouterr().err
    assert run(["construct", "--field", "disc=five", *args]) == 1
    assert "integer" in capsys.readouterr().err


def test_construct_rejects_disc_beyond_limit(tmp_path, capsys):
    args = ["--n", "2", "--bound", "5", "--out", str(tmp_path / "x.json")]
    assert run(["construct", "--field", "disc=-1000000000003", *args]) == 1
    assert "exceeds the limit" in capsys.readouterr().err
    assert run(["class-group", "--disc", "-1000000000003"]) == 1
    assert "exceeds the limit" in capsys.readouterr().err


def test_construct_rejects_non_positive_cap(tmp_path, capsys):
    out = tmp_path / "x.json"
    for cap in ("0", "-5"):
        args = ["--field", "q", "--n", "2", "--bound", "20", "--cap", cap, "--out", str(out)]
        assert run(["construct", *args]) == 1
        assert "error: cap must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_verify_hostile_disc_exits_2(tmp_path, capsys):
    # a disc of about -1e12 is refused before it is factored; -4000003
    # is a valid field whose 2-part of the class group, unlike that of
    # -23, is nontrivial
    path = construct(tmp_path, "k.json", "--field", "disc=-23", "--n", "2", "--bound", "20")
    cert = json.loads(path.read_text())
    for disc, why in (
        (-1000000000003, "exceeds the limit"),
        (-4000003, "at t: certificate claims 0, recomputed 2"),
    ):
        cert["field"]["disc"] = disc
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        assert run(["verify", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "verification failure" in err and why in err


@pytest.mark.parametrize(
    "disc,t,gen_ideal",
    [
        # the 2-part basis class (7, 7, 142859) of -4000003 has no prime
        # of norm below 10^5 outside the ramified 7; row 1 of the form
        # gives one
        (-4000003, 2, [142873, 21]),
        # every value of row 1 of (3, 3, 100004) and of (29, 29, 86214)
        # is even; row 2 gives 3*9^2 + 3*9*2 + 100004*2^2 = 400313 and
        # 29*23^2 + 29*23*2 + 86214*2^2 = 361531
        (-1200039, 1, [400313, 400283]),
        (-9999983, 4, [361531, 360835]),
    ],
    ids=["-4000003", "-1200039", "-9999983"],
)
def test_basis_prime_beyond_the_sieve_round_trip(tmp_path, capsys, disc, t, gen_ideal):
    path = construct(tmp_path, "k.json", "--field", f"disc={disc}", "--n", "2", "--bound", "10")
    cert = json.loads(path.read_text())
    assert cert["t"] == t and gen_ideal in [c["gen_ideal"] for c in cert["class_data"]]
    assert run(["verify", str(path)]) == 0
    assert "verdict pass" in capsys.readouterr().out


def test_construct_rejects_small_n_and_bound(tmp_path, capsys):
    # the library owns these rules; the CLI reports its message as is.
    # K(-19) has no prime of norm below 4, so B = 3 would leave its table
    # empty, and is_prime has no answer at 2**64 or above
    out = tmp_path / "x.json"
    below = "bound 3 is below 4, the least norm of a prime of the field"
    limit = "bound {} reaches the 2**64 primality limit"
    for field, n, bound, message in (
        ("q", 1, 5, "n must be at least 2"),
        ("q", 0, 5, "n must be at least 2"),
        ("q", -3, 5, "n must be at least 2"),
        ("q", 2, 1, "bound must be at least 2"),
        ("q", 6, 1, "bound must be at least 2"),
        ("disc=-19", 2, 3, below),
        ("disc=-19", 6, 3, below),
        ("q", 2, 2**64, limit.format(2**64)),
        ("disc=-23", 6, 10**20, limit.format(10**20)),
    ):
        args = ["construct", "--field", field, "--n", str(n), "--bound", str(bound)]
        assert run(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_construct_search_cap_exhausted(tmp_path, capsys):
    rc = run(
        [
            "construct",
            "--field", "q",
            "--n", "3",
            "--bound", "50",
            "--cap", "3",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "search exhausted" in err
    assert len(err) < 200 and "cap 3" in err
    # the step it failed on: the target prime and the order it wanted
    assert re.search(r"wanted order 3 at \(\d+,-\) after \d+ pieces", err)


def test_construct_search_stops_at_2_64(tmp_path, capsys):
    # ell = 3, r = 40: the progression step over K(-23) is 3^41 > 2**64,
    # so no entry can be tested for primality
    rc = run(
        [
            "construct",
            "--field", "disc=-23",
            "--n", str(3**40),
            "--bound", "100",
            "--cap", "1000",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("search exhausted:") and "2**64" in err


def test_greedy_skip_flag(tmp_path, capsys):
    # every target short of full degree gets a piece and no other does,
    # so there is no switch for it: the old flag is a usage error
    out = tmp_path / "off.json"
    argv = ["construct", "--field", "q", "--n", "3", "--bound", "3", "--out", str(out)]
    assert run([*argv, "--greedy-skip=false"]) == 1
    assert "unrecognized arguments: --greedy-skip=false" in capsys.readouterr().err
    assert not out.exists()


def test_construct_options_documented():
    # the "Construct options" paragraph of each document lists exactly the
    # optional flags the construct parser accepts
    (subs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    want = {
        a.option_strings[-1]
        for a in subs.choices["construct"]._actions
        if a.option_strings and not a.required and a.dest != "help"
    }
    assert "--cap" in want
    for doc in ("README.md", "PAPER.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        (para,) = re.findall(r"^Construct options:.*?(?=\n\n)", text, re.M | re.S)
        assert set(re.findall(r"`(--[a-z-]+)", para)) == want, doc


def test_construct_outputs_are_byte_identical(tmp_path, capsys):
    a = construct(tmp_path, "a.json", "--field", "q", "--n", "8", "--bound", "20")
    b = construct(tmp_path, "b.json", "--field", "q", "--n", "8", "--bound", "20")
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_class_group_disc_23(capsys):
    assert run(["class-group", "--disc", "-23"]) == 0
    out = capsys.readouterr().out
    assert "(1, 1, 6)" in out
    assert "(2, -1, 3)" in out
    assert "(2, 1, 3)" in out
    assert "h = 3" in out


def test_class_group_invalid_disc(capsys):
    assert run(["class-group", "--disc", "-12"]) == 1
    assert "fundamental" in capsys.readouterr().err


def test_hilbert_places(capsys):
    assert run(["hilbert", "--a", "-1", "--b", "-1"]) == 0
    assert "ramified places of (-1,-1): 2 inf" in capsys.readouterr().out
    assert run(["hilbert", "--a", "1", "--b", "1"]) == 0
    assert "none" in capsys.readouterr().out


def test_hilbert_rejects_zero(capsys):
    assert run(["hilbert", "--a", "0", "--b", "3"]) == 1
    assert "must be nonzero" in capsys.readouterr().err


def test_brauer_split_subcommand(tmp_path, capsys):
    path = construct(tmp_path, "c2.json", "--field", "q", "--n", "2", "--bound", "30")
    capsys.readouterr()
    assert run(["brauer-split", str(path), "--a", "-1", "--b", "-1"]) == 0
    out = capsys.readouterr().out
    assert "splits: yes" in out

    cert = json.loads(path.read_text())
    cert["real_place_degree"] = 1
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    assert run(["brauer-split", str(forged), "--a", "-1", "--b", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failure: at real place:")

    assert run(["brauer-split", str(path), "--a", "-1", "--b", "103"]) == 1
    assert "beyond the certificate bound" in capsys.readouterr().err


def test_brauer_split_usage_errors(tmp_path, capsys):
    # a certificate of odd n or over K, and a zero a or b, exit 1; the
    # even n = 6 over Q splits (-1,-1)
    odd = construct(tmp_path, "q3.json", "--field", "q", "--n", "3", "--bound", "20")
    capsys.readouterr()
    for path in (FIXTURES / "k-8_n2_b200.json", FIXTURES / "k-23_n4_b50.json", odd):
        assert run(["brauer-split", str(path), "--a", "-1", "--b", "-1"]) == 1
        assert capsys.readouterr().err == NOT_EVEN_OVER_Q, path
    assert run(["brauer-split", str(FIXTURES / "q_n6_b20.json"), "--a", "-1", "--b", "-1"]) == 0
    assert "splits: yes" in capsys.readouterr().out
    for a, b in (("0", "-1"), ("-1", "0")):
        assert run(["brauer-split", str(FIXTURES / "q_n2_b100.json"), "--a", a, "--b", b]) == 1
        assert "must be nonzero" in capsys.readouterr().err


def test_brauer_split_verifies_a_forged_document_first(tmp_path, capsys):
    # (-1,-3) ramifies at 3 and the real place; a table cut to the rows
    # for 2 and 3, with no pieces, still claims degree 2 at 3, where the
    # seed alone gives degree 1
    cert = json.loads((FIXTURES / "q_n2_b100.json").read_text(encoding="utf-8"))
    cert["pieces"] = []
    cert["table"] = [row for row in cert["table"] if row["prime"] in ([2, None], [3, None])]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert), encoding="utf-8")
    assert run(["brauer-split", str(forged), "--a", "-1", "--b", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "verification failure: at prime (3,None): certificate claims 2, recomputed 1\n"


# 2**65 + 131 leaves factor a cofactor of 2**64 or more after trial division
UNFACTORABLE = "36893488147419103363"


def test_an_argument_factor_cannot_factor_exits_1(capsys):
    path = str(FIXTURES / "q_n2_b100.json")
    message = f"error: cannot factor a = {UNFACTORABLE}: a cofactor >= 2**64\n"
    for argv in (["hilbert"], ["brauer-split", path]):
        assert run(argv + ["--a", UNFACTORABLE, "--b", "-1"]) == 1, argv
        assert capsys.readouterr().err == message, argv
    assert run(["hilbert", "--a", "-1", "--b", "-" + UNFACTORABLE]) == 1
    assert capsys.readouterr().err == f"error: cannot factor b = -{UNFACTORABLE}: a cofactor >= 2**64\n"


def test_a_value_error_inside_verify_or_brauer_split_exits_4(monkeypatch, capsys):
    # README's usage errors exit 1; any other ValueError raised inside
    # the check is a defect of the verifier
    def broken(*args):
        raise ValueError("broken helper")

    path = str(FIXTURES / "q_n2_b100.json")
    monkeypatch.setattr(verifier, "_walk_table", broken)
    assert run(["verify", path]) == 4
    assert capsys.readouterr().err == "internal inconsistency: verify raised ValueError: broken helper\n"
    monkeypatch.setattr(verifier, "ramified_places", broken)
    assert run(["brauer-split", path, "--a", "-1", "--b", "-1"]) == 4
    err = capsys.readouterr().err
    assert err == "internal inconsistency: brauer_split_check raised ValueError: broken helper\n"
    # the named cases still exit 1 under the patches
    assert run(["verify", path, "--bound", "1"]) == 1
    assert run(["brauer-split", str(FIXTURES / "k-8_n2_b200.json"), "--a", "-1", "--b", "-1"]) == 1
    assert capsys.readouterr().err.endswith(NOT_EVEN_OVER_Q)


def test_usage_errors(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["construct", "--field", "q"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "construct" in capsys.readouterr().out


def test_console_script_entry(tmp_path):
    # Install a copy of this checkout into a throwaway venv with
    # `setup.py develop` (needs neither `wheel` nor the network), then run
    # the `constdeg` script that setuptools generates from [project.scripts].
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy2(root / name, tmp_path / name)
    shutil.copytree(
        root / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / ("Scripts" if os.name == "nt" else "bin")
    python = shutil.which("python", path=str(bin_dir))
    assert python, "venv has no python"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [python, "setup.py", "-q", "develop"],
        cwd=tmp_path,
        env=env,
        check=True,
        timeout=300,
    )

    exe = shutil.which("constdeg", path=str(bin_dir))
    assert exe, "console script should be installed"
    proc = subprocess.run(
        [exe, "hilbert", "--a", "-1", "--b", "-1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "2 inf" in proc.stdout


def test_python_m_constdeg(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "constdeg", "hilbert", "--a", "-1", "--b", "-1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "2 inf" in proc.stdout
