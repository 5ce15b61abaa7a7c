"""Attribute reports are pinned byte for byte (tests/golden/attributes.json).

The goldens were written by tests/golden/make_attributes.py from the
Fraction-based fiber code; the integer kernel must reproduce every report,
including the seeded rotations and retries behind it.
"""

import json

from golden.make_attributes import PATH, argvs, stdout_of


def test_attribute_reports_match_goldens():
    with open(PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = argvs()
    assert sorted(golden) == sorted(" ".join(a) for a in calls)
    wrong = [" ".join(a) for a in calls if stdout_of(a) != golden[" ".join(a)]]
    assert not wrong, wrong
