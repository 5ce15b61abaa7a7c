"""Spans around polyred's public functions, recorded from outside the package.

`install(recorder)` replaces each traced function with a wrapper at every
place polyred holds it: the defining module, every module that imported
it by name (for example `polyred.cli.to_yagzhev` and
`polyred.attrs.resultant`), and the class dictionary for methods.  The
wrappers record nothing until the recorder is switched on, so checks
that the harness runs between operations stay out of the trace.

A span is (name, parent, start, end).  Spans are kept in memory as
columns and written out once, when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from collections import Counter

_MOVE_KIND = {"ExtendFreshVars": "extend", "PostCompose": "post",
              "PreCompose": "pre", "SegreExtend": "segre"}


def _terms(p) -> int:
    return len(getattr(p, "terms", ()))


def _count_mul(counters, args, out):
    a, b = args[0], args[1]
    counters["poly.mul.term_products"] += _terms(a) * _terms(b)


def _count_resultant(counters, args, out):
    counters["elim.resultant.deg_out"] += out.degree() or 0  # None when zero


def _count_lower_degree(counters, args, out):
    counters["reduce.lower_degree.dim_out"] += out[0].n_in


def _count_transport(counters, args, out):
    counters["certs.transport.samples_run"] += out.samples_run
    counters["certs.transport.samples_skipped"] += out.samples_skipped


# (module, owner inside the module or None, attribute, span name, counter)
# A span name ending in "." is completed from the call's arguments.
TARGETS = [
    ("polyred.poly", "Poly", "__mul__", "poly.mul", _count_mul),
    ("polyred.poly", "Poly", "substitute", "poly.substitute", None),
    ("polyred.poly", "Poly", "eval_at", "poly.eval_at", None),
    ("polyred.poly", "Poly", "exact_divide", "poly.exact_divide", None),
    ("polyred.elim", None, "resultant", "elim.resultant", _count_resultant),
    ("polyred.elim", None, "squarefree_part", "elim.squarefree_part", None),
    ("polyred.elim", None, "count_real_roots", "elim.count_real_roots", None),
    ("polyred.elim", None, "poly_matrix_det", "elim.poly_matrix_det", None),
    ("polyred.linalg", None, "sparse_det", "linalg.sparse_det", None),
    ("polyred.linalg", None, "sparse_inverse", "linalg.sparse_inverse", None),
    ("polyred.maps", None, "jacobian_det", "maps.jacobian_det", None),
    ("polyred.maps", None, "classify", "maps.classify", None),
    ("polyred.maps", "PolyMap", "compose", "maps.PolyMap.compose", None),
    ("polyred.certs", None, "apply_move", "certs.apply_move.", None),
    ("polyred.certs", "ShearAutomorphism", "verify_two_sided",
     "certs.verify_two_sided.shear", None),
    ("polyred.certs", "Automorphism", "verify_two_sided",
     "certs.verify_two_sided.general", None),
    ("polyred.certs", None, "verify_certificate", "certs.verify_certificate", None),
    ("polyred.certs", None, "fiber_transport_check",
     "certs.fiber_transport_check", _count_transport),
    ("polyred.textio", None, "certificate_to_json", "textio.certificate_to_json", None),
    ("polyred.textio", None, "certificate_from_json",
     "textio.certificate_from_json", None),
    ("polyred.textio", None, "parse_map", "textio.parse_map", None),
    ("polyred.textio", None, "print_map", "textio.print_map", None),
    ("polyred.reduce", None, "to_yagzhev", "reduce.to_yagzhev", None),
    ("polyred.reduce", None, "lower_degree", "reduce.lower_degree", _count_lower_degree),
    ("polyred.reduce", None, "normalize", "reduce.normalize", None),
    ("polyred.reduce", None, "segre_step", "reduce.segre_step", None),
    ("polyred.reduce", None, "eliminate_quadratic", "reduce.eliminate_quadratic", None),
    ("polyred.gz", None, "pair_up", "gz.pair_up", None),
    ("polyred.gz", None, "verify_pairing", "gz.verify_pairing", None),
    ("polyred.attrs", None, "mfs_sample", "attrs.mfs_sample", None),
    ("polyred.attrs", None, "fiber_count_real", "attrs.fiber_count_real", None),
    ("polyred.attrs", None, "generic_rotation", "attrs.generic_rotation", None),
    ("polyred.cli", None, "main", "cli.main", None),
]

SPAN_NAMES = sorted(
    [t[3] for t in TARGETS if not t[3].endswith(".")]
    + [f"certs.apply_move.{k}" for k in _MOVE_KIND.values()])
# inclusive times: the three stages of verify-cert, which with cli.main's
# self time add up to a traced pass, and the resultant, whose self time is
# shared with the poly.mul spans inside it
TOTALS = ("textio.certificate_from_json", "certs.verify_certificate",
          "certs.fiber_transport_check", "elim.resultant")
COUNTER_NAMES = sorted([
    "poly.mul.term_products", "elim.resultant.deg_out",
    "reduce.lower_degree.dim_out", "certs.transport.samples_run",
    "certs.transport.samples_skipped", "textio.json_bytes",
])


class Recorder:
    """In-memory span store for one traced phase."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list:
        """Self time of every span: duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def _outermost(self, i: int) -> bool:
        """No ancestor of span i has its name, so its time is not counted twice."""
        nid, p = self.name[i], self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return False
            p = self.parent[p]
        return True

    def summary(self) -> dict:
        """Per-name call counts, self times, durations and inclusive
        totals of the names in TOTALS, plus the counters."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        durations: dict = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            d = self.end[i] - self.start[i]
            durations.setdefault(name, []).append(d)
            if name in TOTALS and self._outermost(i):
                total_s[name] += d
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "durations": durations, "counters": self.counters}

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = {"names": self.names, "name": self.name.tolist(),
                        "parent": self.parent.tolist(),
                        "start": self.start.tolist(), "end": self.end.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(rec: Recorder, fn, span: str, count):
    if span.endswith("."):
        kind_ids = {cls: rec.name_id(span + kind) for cls, kind in _MOVE_KIND.items()}

        def name_of(args):
            return kind_ids[type(args[1]).__name__]
    else:
        fixed = rec.name_id(span)

        def name_of(args):
            return fixed

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        i = rec.open(name_of(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            count(rec.counters, args, out)
        return out

    return traced


def install(rec: Recorder):
    """Wrap every target at every import site; returns an undo callable."""
    patched = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "polyred" or n.startswith("polyred."))]
    for modname, owner, attr, span, count in TARGETS:
        holder = sys.modules[modname]
        if owner is not None:
            holder = getattr(holder, owner)
        original = holder.__dict__[attr]
        wrapper = _wrap(rec, original, span, count)
        for place in ([holder] if owner is not None else modules):
            for key, value in list(vars(place).items()):
                if value is original:
                    setattr(place, key, wrapper)
                    patched.append((place, key, original))

    def undo():
        for place, key, original in reversed(patched):
            setattr(place, key, original)

    return undo


def layer_metrics(rec: Recorder, passes: int) -> dict:
    """Per-layer values of one traced phase: calls, self times, counters
    and stage totals per pass of the workload, fiber latencies per call."""
    s = rec.summary()
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (s["calls"][name] / passes, "count")
        out[f"{name}.self_s"] = (s["self_s"][name] / passes, "s")
    for name in COUNTER_NAMES:
        out[name] = (s["counters"][name] / passes,
                     "B" if name == "textio.json_bytes" else "count")
    fib = sorted(s["durations"].get("attrs.fiber_count_real", []))
    p50 = statistics.median(fib) if fib else 0.0
    p90 = statistics.quantiles(fib, n=10)[-1] if len(fib) >= 2 else p50
    out["attrs.fiber_count_real.p50_ms"] = (p50 * 1000, "ms")
    out["attrs.fiber_count_real.p90_ms"] = (p90 * 1000, "ms")
    for name in TOTALS:
        out[f"{name}.total_s"] = (s["total_s"][name] / passes, "s")
    return out
