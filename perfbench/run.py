"""polyred benchmark: one workload, measured end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): pinchuk-reduce,
pinchuk-verify, plane-fibers, corpus-sweep.  Each operation is an
in-process call to polyred.cli.main with the argv a user would type.

--trace 0 starts the workload's process SETUPS times and measures set-up
as the median time from launch to ready (interpreter start, import,
inputs, one warm-up call on a tiny map).  The last process then runs
whole passes over the workload's calls for S seconds and reports the
median pass as job_s, its peak resident set, and the share of calls that
succeeded.  Times are in reference seconds: wall seconds scaled by the
interpreter speed sampled while they ran (see harness.py).

--trace 1 starts one process that measures S/2 seconds untraced, then
S/2 seconds with every traced function wrapped, and reports per-module
calls, self times and work counts, plus the tracing overhead; its spans
go to .perfbench-out/.

The last line of stdout is the JSON result.  Runs from the sources in
src/ of the checkout that holds this directory; without them it exits 2.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
RUN_LIMIT_S = 170.0


def _worker(args, workdir, setup_only: bool, deadline: float):
    """Start one worker process; return (setup seconds, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded the {RUN_LIMIT_S:g} s run limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        msg = json.loads(line)
        if "ready" in msg:
            ready = msg
        result = msg.get("result", result)
    if ready is None:
        raise RuntimeError("worker never reported ready")
    # reference seconds, scaled like every call (see harness)
    return (ready["ready"] - launched) * ready["speed"], result


def report(trace: bool, setups: list, res: dict) -> list:
    """Readable lines, one per metric with its unit, then the JSON result."""
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(res["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s": {"value": statistics.median(res["passes"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1 - res["failed"] / res["attempted"], "unit": "ratio"},
        }
    lines = [f"{name:<44} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"passes {len(res['passes'])}: "
                 + " ".join(f"{s:.3f}" for s in res["passes"]) + " reference s, "
                 + " ".join(f"{s:.3f}" for s in res["walls"]) + " wall s")
    lines.append(f"result quality {json.dumps(res['facts'], sort_keys=True)}")
    lines.extend(f"failed: {failure}" for failure in res["failures"])
    lines.append(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                             "failed": res["failed"], "metrics": metrics}))
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "polyred", "cli.py")):
        print(f"perfbench: no polyred sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    env = harness.environment(ROOT)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setups = []
        count = 1 if args.trace else SETUPS
        for i in range(count):
            wd = os.path.join(work, str(i))
            os.mkdir(wd)
            setup, res = _worker(args, wd, i < count - 1, deadline)
            setups.append(setup)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in report(args.trace, setups, res):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
