"""The four workloads: which CLI calls each makes, and how each is checked.

Every check holds for any seed: it tests a property of the answer, not
its bytes.  Byte-exact goldens (goldens/seed0.json) are compared on top,
for the calls whose argv they name: those of workload seed 0, and
symmetrize, which takes no seed.
Exact verdicts that hold for every seed (analyze on the corpus, dex of
the plane maps) are pinned in goldens/verdicts.json.
"""

from __future__ import annotations

import json
import os
import re

from harness import Op, run_op

NAMES = ("pinchuk-reduce", "pinchuk-verify", "plane-fibers", "corpus-sweep")

# fiber samples per verify-cert; each costs seconds on the 497-variable map
VERIFY_SAMPLES = 1
# the cost of an attributes call varies by about 12 % with the seeded
# rotation, so each workload seed fans out to several command seeds with
# one sample each, which averages that out within a run
PLANE_SAMPLES = 1
PLANE_SEEDS = 16
# corpus-sweep calls finish in under 0.5 s or hang for 4 s and more (the
# symbolic Jacobian check in segre_step ignores --budget-ms); pair-up has
# no budget flag and its largest corpus case finishes in about 4 s
SWEEP_DEADLINE_S = 2.0
PAIR_UP_DEADLINE_S = 20.0
TINY = "plane-quad"

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(_HERE, "goldens", "seed0.json")
VERDICTS = os.path.join(_HERE, "goldens", "verdicts.json")
ANALYZE_PINNED = ("dim", "degree", "jacobian_degree_bound", "mode",
                  "nondegenerate", "keller", "yagzhev", "druzkowski")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _polymap(text: str):
    from polyred.textio import parse_map
    return parse_map(text).to_polymap()


def _moves(text: str) -> int:
    m = re.search(r"certificate with (\d+) moves", text)
    return int(m.group(1)) if m else -1


def _check_yagzhev(text: str, facts: dict):
    from polyred.maps import is_yagzhev
    g = _polymap(text)
    if not is_yagzhev(g):
        return "reduce output is not in Yagzhev form"
    facts["out_dim"] = g.n_in
    return None


# -- pinchuk-reduce / pinchuk-verify -------------------------------------------


def reduce_op(m: str, seed: int, workdir: str) -> Op:
    out = os.path.join(workdir, f"{m}.yagzhev.map")
    cert = os.path.join(workdir, f"{m}.cert.json")

    def check(stdout, stderr, facts):
        with open(out, encoding="utf-8") as fh:
            problem = _check_yagzhev(fh.read(), facts)
        if problem:
            return problem
        if load_json(cert).get("format") != "polyred-certificate":
            return "the certificate file is not a certificate"
        facts["moves"] = _moves(stdout)
        facts["cert_kb"] = os.path.getsize(cert) / 1024
        return None

    return Op(["reduce", m, "--to", "yagzhev", "--out", out, "--cert", cert,
               "--seed", str(seed)], check, cert=cert)


def verify_op(cert: str, seed: int) -> Op:
    def check(stdout, stderr, facts):
        rep = json.loads(stdout)
        if not rep["certificate"]["ok"]:
            return f"structure invalid: {rep['certificate']['issues'][:3]}"
        fiber = rep["fiber"]
        if (fiber is None or not fiber["ok"]
                or fiber["samples_run"] != VERIFY_SAMPLES):
            return f"fiber transport not exact on every sample: {fiber}"
        facts["moves"] = rep["certificate"]["moves_checked"]
        facts["cert_kb"] = os.path.getsize(cert) / 1024
        return None

    return Op(["verify-cert", cert, "--fiber-samples", str(VERIFY_SAMPLES),
               "--seed", str(seed), "--json"], check, cert=cert)


def write_certificate(m: str, seed: int, workdir: str, main) -> str:
    """Set-up of pinchuk-verify: the code under test writes the certificate."""
    op = reduce_op(m, seed, workdir)
    got = run_op(op, main)
    if got.problem:
        raise RuntimeError(f"set-up call `{op.label()}` failed: {got.problem}")
    return op.cert


# -- plane-fibers ----------------------------------------------------------------


def plane_maps(verdicts: dict) -> list:
    """Every corpus plane map: those with a pinned dex."""
    return [m for m, v in verdicts.items() if "dex" in v]


def plane_ops(maps, seed: int, verdicts: dict) -> list:
    ops = []
    for j in range(PLANE_SEEDS):
        for m in maps:
            ops.append(Op(["attributes", m, "--samples", str(PLANE_SAMPLES),
                           "--seed", str(seed * PLANE_SEEDS + j), "--json"],
                          _attributes_check(m, verdicts[m])))
    return ops


def _attributes_check(m: str, verdict: dict):
    # real and complex fiber counts share parity wherever the Jacobian
    # never vanishes; elsewhere a sampled target can hit a critical value
    parity = verdict["analyze"]["keller"] or m == "pinchuk"

    def check(stdout, stderr, facts):
        rep = json.loads(stdout)
        if rep["dex"] != verdict["dex"]:
            return f"dex {rep['dex']}, expected {verdict['dex']}"
        if rep["mfs_observed"] > rep["dex"]:
            return f"mfs observed {rep['mfs_observed']} exceeds dex {rep['dex']}"
        if parity and not rep["parity_consistent"]:
            return "fiber counts have inconsistent parity"
        return None

    return check


# -- corpus-sweep ----------------------------------------------------------------


def sweep_maps(verdicts: dict) -> list:
    return [m for m in verdicts if m != "pinchuk"]


def corpus_ops(maps, seed: int, verdicts: dict) -> list:
    ops = []
    for m in maps:
        v = verdicts[m]
        ops.append(Op(["analyze", m, "--json", "--seed", str(seed)],
                      _analyze_check(v["analyze"]), SWEEP_DEADLINE_S))
        ops.append(Op(["symmetrize", m], _symmetrize_check(v["analyze"]["dim"]),
                      SWEEP_DEADLINE_S))
        if v["class"] == "yagzhev":
            ops.append(Op(["pair-up", m, "--json"], _pair_up_check,
                          PAIR_UP_DEADLINE_S))
        if v["class"] == "random":
            ops.append(Op(["reduce", m, "--to", "cubic"], _cubic_check,
                          SWEEP_DEADLINE_S))
        ops.append(Op(["reduce", m, "--to", "yagzhev", "--seed", str(seed)],
                      _yagzhev_stdout_check, SWEEP_DEADLINE_S))
    return ops


def _analyze_check(expected: dict):
    def check(stdout, stderr, facts):
        got = json.loads(stdout)
        wrong = [k for k in ANALYZE_PINNED if got.get(k) != expected[k]]
        return f"analyze verdicts changed: {wrong}" if wrong else None
    return check


def _symmetrize_check(n: int):
    def check(stdout, stderr, facts):
        from polyred.textio import parse_map
        doc = parse_map(stdout)
        if len(doc.variables) != 2 * n or "potential" not in doc.metadata:
            return "symmetrize output is not a doubled map with a potential"
        return None
    return check


def _pair_up_check(stdout, stderr, facts):
    rep = json.loads(stdout)
    if rep.get("axioms_ok") is not True or rep.get("issues"):
        return f"pairing axioms fail: {rep.get('issues')}"
    return None


def _cubic_check(stdout, stderr, facts):
    if _polymap(stdout).degree() > 3:
        return "reduce --to cubic left a component above degree 3"
    return None


def _yagzhev_stdout_check(stdout, stderr, facts):
    problem = _check_yagzhev(stdout, facts)
    if problem is None:
        facts["moves"] = _moves(stderr)
    return problem


# -- assembly --------------------------------------------------------------------


class Workload:
    """The measured calls, plus warm-up calls on a tiny map."""

    def __init__(self, ops, warmup):
        self.ops = ops
        self.warmup = warmup


def build(name: str, seed: int, workdir: str, main) -> Workload:
    """Make a workload's inputs from its seed; pinchuk-verify's set-up
    also runs the reduction that writes the certificate it checks."""
    verdicts = load_json(VERDICTS)
    if name == "pinchuk-reduce":
        return Workload([reduce_op("pinchuk", seed, workdir)],
                        [reduce_op(TINY, seed, workdir)])
    if name == "pinchuk-verify":
        cert = write_certificate("pinchuk", seed, workdir, main)
        tiny = write_certificate(TINY, seed, workdir, main)
        return Workload([verify_op(cert, seed)], [verify_op(tiny, seed)])
    if name == "plane-fibers":
        return Workload(plane_ops(plane_maps(verdicts), seed, verdicts),
                        plane_ops([TINY], seed, verdicts)[:1])
    if name == "corpus-sweep":
        return Workload(corpus_ops(sweep_maps(verdicts), seed, verdicts),
                        corpus_ops([TINY], seed, verdicts))
    raise ValueError(f"unknown workload {name!r}")
