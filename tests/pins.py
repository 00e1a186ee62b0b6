"""The pin manifest, tests/pins.json: each entry a `constdeg construct`
job and exactly one of sha256 or exhausted (README, "Test").

tests/test_pins.py checks every entry through the library, and
`python tests/pins.py OUTDIR` through the console script, leaving each
certificate in OUTDIR/<name>.json, which `constdeg verify` must then
pass: an exhausted entry must exit 3, print exactly "search exhausted:
<message>" on stderr and write no file.
"""

import json
import subprocess
import sys
from functools import lru_cache
from hashlib import sha256
from pathlib import Path

from constdeg import RATIONAL, compose_for_n, construct, quadratic_field
from constdeg.arith import SearchExhausted, factor
from constdeg.constructor import Config, certificate_json

ENTRIES = json.loads((Path(__file__).resolve().parent / "pins.json").read_text(encoding="utf-8"))
JOB = ("field", "n", "bound", "cap")
assert all(("sha256" in e) != ("exhausted" in e) for e in ENTRIES)


def name(entry) -> str:
    """The job's file stem: k-23_n4_b1000_c25000."""
    cap = f"_c{entry['cap']}" if "cap" in entry else ""
    return f"{entry['field'].replace('disc=', 'k')}_n{entry['n']}_b{entry['bound']}{cap}"


def holds(entry, data, message) -> bool:
    """Whether a run that wrote the bytes data, or exhausted with message,
    gives what the entry pins."""
    if "exhausted" in entry:
        return data is None and message == entry["exhausted"]
    return data is not None and sha256(data).hexdigest() == entry["sha256"]


@lru_cache(maxsize=None)
def _build(field, n, bound, cap):
    fld = RATIONAL if field == "q" else quadratic_field(int(field.removeprefix("disc=")))
    config = Config() if cap is None else Config(cap=cap)
    powers = factor(n)
    try:
        if len(powers) == 1:
            ((ell, r),) = powers
            cert = construct(fld, ell, r, bound, config)
        else:
            cert = compose_for_n(fld, n, bound, config)
    except SearchExhausted as exc:
        return None, str(exc)
    return certificate_json(cert).encode("utf-8"), None


def build(entry):
    """(data, message): the certificate's bytes as cli._cmd_construct
    builds them, or the SearchExhausted message; built once per job."""
    return _build(*(entry.get(key) for key in JOB))


def check_console_script(entry, folder: Path) -> bool:
    out = folder / f"{name(entry)}.json"
    out.unlink(missing_ok=True)
    cmd = ["constdeg", "construct", *(f"--{k}={entry[k]}" for k in JOB if k in entry), f"--out={out}"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if "exhausted" in entry:
        got = (proc.returncode, proc.stderr, out.exists())
        ok = got == (3, f"search exhausted: {entry['exhausted']}\n", False)
    else:
        data = out.read_bytes() if proc.returncode == 0 else None
        got = (proc.returncode, proc.stderr, data and sha256(data).hexdigest())
        ok = proc.returncode == 0 and holds(entry, data, None)
        if ok:
            check = subprocess.run(["constdeg", "verify", str(out)], capture_output=True, text=True)
            got, ok = ("verify", check.returncode, check.stderr), check.returncode == 0
    print("ok  " if ok else "FAIL", *cmd[2:])
    if not ok:
        print("  got (exit, stderr, file or its SHA-256), or verify's exit and stderr:", got)
    return ok


if __name__ == "__main__":
    folder = Path(sys.argv[1])
    folder.mkdir(parents=True, exist_ok=True)
    results = [check_console_script(entry, folder) for entry in ENTRIES]
    print(f"{sum(results)} of {len(results)} pins hold")
    sys.exit(0 if all(results) else 1)
