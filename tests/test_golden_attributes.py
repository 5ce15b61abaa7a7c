"""Attribute reports are pinned byte for byte (tests/golden/attributes.json).

The goldens were written by tests/golden/make_attributes.py from the
Fraction-based fiber code; the integer kernel must reproduce every report,
including the seeded rotations and retries behind it.
"""

import json

from golden.make_attributes import PATH, argvs, stdout_of
from polyred import maps
from polyred.poly import Poly


def test_attribute_reports_match_goldens():
    with open(PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = argvs()
    assert sorted(golden) == sorted(" ".join(a) for a in calls)
    wrong = [" ".join(a) for a in calls if stdout_of(a) != golden[" ".join(a)]]
    assert not wrong, wrong


def test_plane_attributes_need_no_symbolic_jacobian_or_poly_eval(monkeypatch):
    # nondegeneracy and the sample targets F(p) come from the integer
    # rows: with the symbolic determinant, Poly products and Poly
    # evaluation all refusing, every plane map's report still holds
    def refuse(*args):
        raise AssertionError("the attributes path left the integer rows")

    monkeypatch.setattr(maps, "jacobian_det", refuse)
    monkeypatch.setattr(Poly, "eval_at", refuse)
    monkeypatch.setattr(Poly, "__mul__", refuse)
    with open(PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    calls = [a for a in argvs() if a[3] == "1" and int(a[5]) < 4]
    assert len(calls) == 4 * len({a[1] for a in calls}) >= 40
    for argv in calls:
        assert stdout_of(argv) == golden[" ".join(argv)], argv
