"""Reduction outputs are pinned byte for byte (tests/golden/outputs.json).

The goldens were written by tests/golden/make_outputs.py while
`Poly.substitute` still had a separate path for single-term images and
`substitute_rational` its own accumulation loop; the single substitution
path must give the same exit codes, stdout, stderr, maps and certificates.
"""

import json

from golden.make_outputs import PATH, argvs, record_of


def test_reduction_outputs_match_goldens():
    with open(PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = argvs()
    assert sorted(golden) == sorted(" ".join(argv) for argv, _ in calls)
    wrong = [" ".join(argv) for argv, writes in calls
             if record_of(argv, writes) != golden[" ".join(argv)]]
    assert not wrong, wrong
