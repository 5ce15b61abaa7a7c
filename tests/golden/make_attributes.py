"""Regenerate attributes.json: `attributes --json` stdout for the plane corpus.

    PYTHONPATH=src python3 tests/golden/make_attributes.py

It records every corpus plane map at --samples 1 over seeds 0..31, plus
Pinchuk at --samples 200 --seed 0.  Run it only when a report is meant to
change, and say why in the change; tests/test_golden_attributes.py compares
the current output with the file byte for byte.
"""

import contextlib
import io
import json
import os

from polyred import cli
from polyred.examples import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "attributes.json")
SEEDS = range(32)


def argvs() -> list:
    """The recorded calls, in file order."""
    plane = [e.id for e in corpus() if len(e.document.variables) == 2]
    out = [["attributes", m, "--samples", "1", "--seed", str(s), "--json"]
           for m in plane for s in SEEDS]
    out.append(["attributes", "pinchuk", "--samples", "200", "--seed", "0", "--json"])
    return out


def stdout_of(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit {code}")
    return buf.getvalue()


def main() -> None:
    data = {" ".join(argv): stdout_of(argv) for argv in argvs()}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
