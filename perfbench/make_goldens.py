"""Regenerate goldens/verdicts.json and goldens/seed0.json from the code in src/.

    python3 perfbench/make_goldens.py

Run it only when an output is meant to change, and say why in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from polyred import cli  # noqa: E402
from polyred.examples import corpus  # noqa: E402

import workloads  # noqa: E402
from harness import Op, run_op  # noqa: E402


def _stdout(argv) -> str:
    captured = {}

    def keep(stdout, stderr, facts):
        captured["out"] = stdout

    got = run_op(Op(argv, keep, deadline_s=600), cli.main)
    if got.problem:
        raise SystemExit(f"{' '.join(argv)}: {got.problem}")
    return captured["out"]


def main() -> None:
    verdicts = {}
    for e in corpus():
        a = json.loads(_stdout(["analyze", e.id, "--json", "--seed", "0"]))
        v = {"class": e.document.metadata.get("class"),
             "analyze": {k: a[k] for k in workloads.ANALYZE_PINNED}}
        if len(e.document.variables) == 2:
            rep = json.loads(_stdout(["attributes", e.id, "--samples",
                                      str(workloads.PLANE_SAMPLES),
                                      "--seed", "0", "--json"]))
            v["dex"] = rep["dex"]
        verdicts[e.id] = v
    goldens = {}
    for op in (workloads.plane_ops(workloads.plane_maps(verdicts), 0, verdicts)
               + workloads.corpus_ops(workloads.sweep_maps(verdicts), 0, verdicts)):
        if op.argv[0] in ("analyze", "attributes", "symmetrize"):
            goldens[op.label()] = _stdout(op.argv)
    for path, data in ((workloads.VERDICTS, verdicts), (workloads.GOLDENS, goldens)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
