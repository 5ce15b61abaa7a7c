"""Verification reports are pinned byte for byte (tests/golden/verify.json).

The goldens were written by tests/golden/make_verify.py while certificates
still stored every intermediate map and were replayed twice, once by the
decoder and once by the verifier; the single replay must give the same
report on every certificate, valid or tampered with.
"""

import json

from golden.make_verify import PATH, entries, stdout_of


def test_verify_reports_match_goldens():
    with open(PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = entries()
    assert sorted(golden) == sorted(key for key, _, _ in calls)
    wrong = [key for key, command, tamper in calls
             if stdout_of(command, tamper) != golden[key]]
    assert not wrong, wrong
