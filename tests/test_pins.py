"""Every pin of tests/pins.json holds through the library: each job,
built as `constdeg construct` builds it, writes the pinned certificate or
exhausts with the pinned message.  A change that moves a certificate on
purpose edits the manifest; see tests/pins.py for the entry format and
for the same check through the console script.  The K(-23) n=2 B=10000
pin also serves `constdeg verify --bound` at the edge of an inert square."""

from hashlib import sha256

import pytest

import pins
from constdeg.cli import run


@pytest.mark.parametrize("entry", pins.ENTRIES, ids=pins.name)
def test_pin(entry):
    data, message = pins.build(entry)
    assert pins.holds(entry, data, message), message or sha256(data).hexdigest()


def test_verify_walks_k23_up_to_the_inert_square(tmp_path, capsys):
    # the inert prime 53 of K(-23) has norm 2809 = 53**2: verify at that
    # bound walks it as the 407th prime, and one norm short stops at 406
    (entry,) = [e for e in pins.ENTRIES if pins.name(e) == "k-23_n2_b10000"]
    path = tmp_path / "k-23_n2_b10000.json"
    path.write_bytes(pins.build(entry)[0])
    for bound, walked in ((2809, "(407 primes"), (2808, "(406 primes")):
        assert run(["verify", str(path), "--bound", str(bound)]) == 0
        assert walked in capsys.readouterr().out.splitlines()[-1]
