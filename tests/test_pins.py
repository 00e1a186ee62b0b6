"""Every pin of tests/pins.json holds through the library: each job,
built as `constdeg construct` builds it, writes the pinned certificate or
exhausts with the pinned message.  A change that moves a certificate on
purpose edits the manifest; see tests/pins.py for the entry format and
for the same check through the console script."""

from hashlib import sha256

import pytest

import pins


@pytest.mark.parametrize("entry", pins.ENTRIES, ids=pins.name)
def test_pin(entry):
    data, message = pins.build(entry)
    assert pins.holds(entry, data, message), message or sha256(data).hexdigest()
