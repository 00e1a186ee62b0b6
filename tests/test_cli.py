import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
import venv
from pathlib import Path

import pytest

from constdeg.cli import _build_parser, run

ROOT = Path(__file__).resolve().parents[1]


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
    # verify raises on any mismatch, so the report has no claim column
    path = construct(tmp_path, "c2.json", "--field", "q", "--n", "2", "--bound", "5")
    capsys.readouterr()
    assert run(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:5]] == [
        ["prime", "degree"],
        ["(2,-)", "2"],
        ["(3,-)", "2"],
        ["(5,-)", "2"],
        ["real", "place", "degree", "2"],
    ]
    assert lines[5].startswith("verdict pass  (3 primes, ")


def test_verify_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(["verify", str(path)]) == 2
    assert "verification failure" in capsys.readouterr().err


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


def test_basis_prime_beyond_the_sieve_round_trip(tmp_path, capsys):
    # the 2-part basis class (7, 7, 142859) of -4000003 has no prime of
    # norm below 10^5 outside the ramified 7; a value of the form gives one
    path = construct(tmp_path, "k.json", "--field", "disc=-4000003", "--n", "2", "--bound", "10")
    cert = json.loads(path.read_text())
    assert cert["t"] == 2 and [142873, 21] in [c["gen_ideal"] for c in cert["class_data"]]
    assert run(["verify", str(path)]) == 0
    assert "verdict pass" in capsys.readouterr().out


def test_construct_rejects_small_n_and_bound(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert run(["construct", "--field", "q", "--n", "1", "--bound", "5", "--out", out]) == 1
    assert run(["construct", "--field", "q", "--n", "2", "--bound", "1", "--out", out]) == 1
    capsys.readouterr()


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
    capsys.readouterr()


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
    assert "splits: no" in capsys.readouterr().out

    assert run(["brauer-split", str(path), "--a", "-1", "--b", "103"]) == 1
    assert "beyond the certificate bound" in capsys.readouterr().err


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
