"""One benchmark process: set up a workload, then (unless --setup-only) measure it.

Started by run.py, which times it from launch to the "ready" line that
this process prints once the workload's inputs exist and one warm-up
call on a tiny map has run.  The last line is the measured result.
Everything runs in this one single-threaded process.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _tally(passes) -> dict:
    outcomes = [o for p in passes for o in p]
    failures = sorted({f"{o.op.label()}: {o.problem}" for o in outcomes if o.problem})
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problem),
        "wrong": sum(1 for o in outcomes if o.problem and not o.deadline),
        "failures": failures,
    }


def _facts(passes) -> dict:
    """Result-quality counts, summed over the calls of the last pass."""
    total = {"out_dim": 0, "moves": 0, "cert_kb": 0.0}
    for o in passes[-1]:
        for k, v in o.facts.items():
            total[k] += v
    return total


def _pass_seconds(passes) -> list:
    """Reference seconds of each pass."""
    return [sum(o.seconds for o in p) for p in passes]


def _pass_walls(passes) -> list:
    return [sum(o.wall for o in p) for p in passes]


def measure(ops, goldens: dict, seconds: float, trace: bool, meter=None):
    """Run the ops for `seconds`; returns (result, recorder or None).

    Traced, the first half is run untraced and the second half with every
    traced function wrapped, so the difference of the two medians is the
    tracing overhead.
    """
    from polyred import cli
    if not trace:
        passes = harness.run_for(ops, cli.main, goldens, seconds, meter=meter)
        result = {"passes": _pass_seconds(passes)}
        rec = None
    else:
        untraced = harness.run_for(ops, cli.main, goldens, seconds / 2, meter=meter)
        rec = tracing.Recorder()
        undo = tracing.install(rec)

        def traced_main(argv):
            rec.active = True
            try:
                return cli.main(argv)  # the wrapper, while installed
            finally:
                rec.active = False

        def count_bytes(outcome):
            cert = outcome.op.cert
            if cert is not None and os.path.exists(cert):
                rec.counters["textio.json_bytes"] += os.path.getsize(cert)

        try:
            traced = harness.run_for(ops, traced_main, goldens, seconds / 2,
                                     count_bytes, meter)
        finally:
            undo()
        passes = untraced + traced
        t_job = statistics.median(_pass_seconds(traced))
        u_job = statistics.median(_pass_seconds(untraced))
        layers = tracing.layer_metrics(rec, len(traced))
        layers["trace.job_s"] = (t_job, "s")
        layers["trace.untraced_job_s"] = (u_job, "s")
        layers["trace.overhead_s"] = (t_job - u_job, "s")
        # wall seconds, the unit of the span times
        layers["trace.wall_s"] = (statistics.median(_pass_walls(traced)), "s")
        layers["trace.spans"] = (len(rec.name), "count")
        for k, v in _facts(passes).items():
            layers[f"result.{k}"] = (v, "KiB" if k == "cert_kb" else "count")
        result = {"passes": _pass_seconds(passes), "layers": layers,
                  "traced_passes": len(traced)}
    result["walls"] = _pass_walls(passes)
    result.update(_tally(passes))
    result["facts"] = _facts(passes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result, rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with harness.SpeedMeter() as meter:
        from polyred import cli
        wl = workloads.build(args.workload, args.seed, args.workdir, cli.main)
        for op in wl.warmup:
            harness.run_op(op, cli.main)
        _emit({"ready": time.time(), "speed": meter.speed()})
        if args.setup_only:
            return 0
        goldens = workloads.load_json(workloads.GOLDENS)
        result, rec = measure(wl.ops, goldens, args.seconds, bool(args.trace), meter)
    if rec is not None:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                  {"workload": args.workload, "seed": args.seed,
                   "environment": harness.environment(ROOT),
                   "traced_passes": result["traced_passes"],
                   "metrics": result["layers"]})
    _emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
