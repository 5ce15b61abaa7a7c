"""Tests of the benchmark harness itself, on the tiny map plane-quad.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import os

import pytest

import harness
import run
import tracing
import workloads
from worker import measure

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = workloads.TINY


def _bench() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def verdicts():
    return workloads.load_json(workloads.VERDICTS)


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_json(workloads.GOLDENS)


@pytest.fixture
def tiny_ops(tmp_path, verdicts):
    """One call of every kind the four workloads make, on plane-quad."""
    from polyred import cli
    setup = tmp_path / "setup"
    setup.mkdir()
    cert = workloads.write_certificate(TINY, 0, str(setup), cli.main)
    return ([workloads.reduce_op(TINY, 0, str(tmp_path)), workloads.verify_op(cert, 0)]
            + workloads.plane_ops([TINY], 0, verdicts)[:1]
            + workloads.corpus_ops([TINY], 0, verdicts))


def _final(lines) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(trace, tiny_ops, goldens):
    result, _ = measure(tiny_ops, goldens, 0.0, trace)
    lines = run.report(trace, [0.5, 0.4, 0.6], result)
    final = _final(lines)
    declared = _bench()["per_layer" if trace else "end_to_end"]
    assert final["correct"] is True and final["failed"] == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(final["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


def test_wrong_golden_raises_fail_ratio(tiny_ops, goldens):
    label = f"analyze {TINY} --json --seed 0"
    assert label in goldens
    ok = _final(run.report(False, [0.5], measure(tiny_ops, goldens, 0.0, False)[0]))
    bad = dict(goldens, **{label: goldens[label].replace("true", "false", 1)})
    got = _final(run.report(False, [0.5], measure(tiny_ops, bad, 0.0, False)[0]))
    assert ok["metrics"]["ok_ratio"]["value"] == 1
    assert got["failed"] == 1 and got["correct"] is False
    assert got["metrics"]["ok_ratio"]["value"] < 1


def test_forced_deadline_raises_fail_ratio_but_is_not_a_wrong_answer(tiny_ops, goldens):
    for op in tiny_ops:
        op.deadline_s = 1e-6
    got = _final(run.report(False, [0.5], measure(tiny_ops, goldens, 0.0, False)[0]))
    assert got["failed"] == got["attempted"] == len(tiny_ops)
    assert got["correct"] is True
    assert got["metrics"]["ok_ratio"]["value"] == 0


def test_deadline_is_not_swallowed_by_polyred_handlers():
    def main(argv):
        try:
            while True:
                pass
        except (ValueError, TypeError, ArithmeticError):
            return 1

    assert not issubclass(harness.DeadlineExceeded, Exception)
    got = harness.run_op(harness.Op(["spin"], deadline_s=0.05), main)
    assert got.deadline and "deadline" in got.problem


def test_tracing_wraps_every_import_site_and_undoes():
    import polyred.attrs
    import polyred.cli
    import polyred.elim
    import polyred.poly
    originals = (polyred.cli.to_yagzhev, polyred.attrs.resultant, polyred.poly.Poly.__rmul__)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert polyred.cli.to_yagzhev is not originals[0]
        assert polyred.attrs.resultant is not originals[1]
        assert polyred.attrs.resultant is polyred.elim.resultant
        assert polyred.poly.Poly.__rmul__ is polyred.poly.Poly.__mul__
        assert polyred.poly.Poly.__rmul__ is not originals[2]
    finally:
        undo()
    assert (polyred.cli.to_yagzhev, polyred.attrs.resultant,
            polyred.poly.Poly.__rmul__) == originals


def test_self_times_add_up_to_the_traced_calls(tiny_ops, goldens):
    _, rec = measure(tiny_ops, goldens, 0.0, True)
    own = rec.self_times()
    roots = [i for i, p in enumerate(rec.parent) if p < 0]
    assert {rec.names[rec.name[i]] for i in roots} == {"cli.main"}
    assert all(t >= -1e-6 for t in own)
    covered = sum(rec.end[i] - rec.start[i] for i in roots)
    assert sum(own) == pytest.approx(covered, rel=1e-6)
    summary = rec.summary()
    assert summary["calls"]["certs.verify_certificate"] == 1
    assert summary["calls"]["elim.resultant"] >= 1
    assert summary["counters"]["textio.json_bytes"] > 0


def test_bench_file_names_the_workloads():
    assert [w["name"] for w in _bench()["workloads"]] == list(workloads.NAMES)
