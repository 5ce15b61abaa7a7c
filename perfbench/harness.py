"""Run polyred CLI operations in-process, each under a deadline, and check them.

An operation is one call to `polyred.cli.main(argv)` with the argv a user
would type.  Its stdout and stderr are captured; its time covers the call
and nothing else.  A failure is a wrong output, an unexpected exit code,
an exception, or a missed deadline.  Only the first three make a run
incorrect: a missed deadline is a known hang, counted as failed.

Times are reported in reference seconds.  On small shared machines the
host alternates between speed states that differ by half (measured on a
2-CPU VM: the same reduction took 1.05 s or 1.65 s, minutes or even
seconds apart), which no number of repetitions averages away.  So while
a call runs, a signal handler times a fixed loop of rational arithmetic
every 20 ms of CPU time (SpeedMeter), and the call's wall time is scaled
by the mean speed those probes saw relative to REF_PROBE_S.  A missed
deadline is not scaled: it counts as the deadline itself, which is
wall-clock.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import platform
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# a guard against hangs that still leaves a run inside its time limit;
# workloads with known hangs set tighter deadlines per operation
DEADLINE_S = 120.0
# the probe loop's time at reference speed; one reference second is the
# time that makes as much progress as a second at that speed
REF_PROBE_S = 140e-6
PROBE_EVERY_S = 0.02
_STEPS = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 11), Fraction(5, 2),
          Fraction(-3, 13)]


def _probe_loop() -> dict:
    # rational multiply-adds into a dict with tuple keys, polyred's own
    # mix: a plain integer loop moved only half as much as polyred did
    # between the host's speed states
    acc: dict = {}
    x = Fraction(3, 7)
    for i in range(12):
        x = x * _STEPS[i % 5] + _STEPS[(i + 2) % 5]
        k = (i & 7, i & 3)
        acc[k] = acc.get(k, 0) + x
    return acc


class SpeedMeter:
    """Times the probe loop every PROBE_EVERY_S of process CPU time while
    it is entered, from a SIGPROF handler, so long calls are sampled
    throughout and no call needs its own timer."""

    def __init__(self):
        self.samples: list = []

    def probe(self, signum=None, frame=None) -> None:
        # a collection of the interrupted call's garbage is not the probe's
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - t)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int = 0) -> float:
        """Mean speed relative to the reference over the samples taken
        since `since`; a call too short to be sampled takes the latest."""
        window = self.samples[since:] or self.samples[-5:]
        return sum(REF_PROBE_S / t for t in window) / len(window)


class DeadlineExceeded(BaseException):
    """An operation ran past its deadline.

    Derives from BaseException, not Exception, so that polyred's
    `except (ValueError, TypeError, ArithmeticError)` handlers cannot
    swallow it on its way out of the operation.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Op:
    """One CLI call.  `check(stdout, stderr, facts)` returns a problem or
    None, and may record result-quality counts in `facts`."""

    argv: list
    check: Optional[Callable] = None
    deadline_s: float = DEADLINE_S
    cert: Optional[str] = None  # certificate file the call writes or reads

    def label(self) -> str:
        return " ".join(os.path.basename(a) if os.sep in a else a for a in self.argv)


@dataclass
class Outcome:
    op: Op
    wall: float
    seconds: float  # reference seconds
    problem: Optional[str] = None
    deadline: bool = False
    facts: dict = field(default_factory=dict)


def run_op(op: Op, main, golden: Optional[str] = None,
           meter: Optional[SpeedMeter] = None) -> Outcome:
    """Call `main(op.argv)` under the op's deadline, then check the output.
    Without a running meter, reference seconds are wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    problem = None
    deadline = False
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    mark = meter.mark() if meter is not None else 0
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        deadline = True
        problem = f"missed its {op.deadline_s:g} s deadline"
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a traceback from polyred is a failed operation
        problem = f"raised {type(e).__name__}: {e}"
    finally:
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    speed = meter.speed(mark) if meter is not None else 1.0
    seconds = op.deadline_s if deadline else wall * speed
    result = Outcome(op, wall, seconds, problem, deadline)
    if problem is None and rc != 0:
        result.problem = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    if result.problem is None and golden is not None and out.getvalue() != golden:
        result.problem = "stdout differs from the golden"
    if result.problem is None and op.check is not None:
        result.problem = op.check(out.getvalue(), err.getvalue(), result.facts)
    return result


def run_pass(ops, main, goldens: dict, on_done=None, meter=None) -> list:
    """Every op once, in order."""
    outcomes = []
    for op in ops:
        o = run_op(op, main, goldens.get(op.label()), meter)
        if on_done is not None:
            on_done(o)
        outcomes.append(o)
    return outcomes


def run_for(ops, main, goldens: dict, seconds: float, on_done=None, meter=None) -> list:
    """Whole passes within `seconds`: one, and then another only while the
    last pass's duration still fits in what is left."""
    passes = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(ops, main, goldens, on_done, meter))
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return passes


def environment(root: str) -> dict:
    """What makes results from different machines incomparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src", "polyred")),
    }


def _source_digest(pkg: str) -> str:
    """Identifies the code under test where no commit can be read."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None
