"""Regenerate outputs.json: digests of the reduction commands' outputs.

    PYTHONPATH=src python3 tests/golden/make_outputs.py

Each entry runs one CLI call in a fresh temporary directory and records
its exit code and the sha256 of its stdout, its stderr, its `--out` file
and its `--cert` file (None for a file the call does not write or did not
take).  The temporary directory's path is replaced by `TMP` before
hashing, so the digests do not depend on where the run happened.
Covered: `analyze --json`, `reduce --to cubic`, `reduce --to yagzhev`,
`symmetrize` and `segre` on every corpus map, and `pair-up --json` on the
`yagzhev` class.  Run it only when an output is meant to change, and say
why in the change; tests/test_golden_outputs.py compares the current
digests with the file.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from polyred import cli
from polyred.examples import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "outputs.json")


def argvs() -> list:
    """(argv, writes --out and --cert), in file order."""
    out = []
    for e in corpus():
        m = e.id
        out.append((["analyze", m, "--json"], False))
        out.append((["reduce", m, "--to", "cubic"], True))
        out.append((["reduce", m, "--to", "yagzhev"], True))
        out.append((["symmetrize", m], True))
        out.append((["segre", m], True))
        if e.document.metadata.get("class") == "yagzhev":
            out.append((["pair-up", m, "--json"], False))
    return out


def _digest(text, tmp):
    if text is None:
        return None
    return hashlib.sha256(text.replace(tmp, "TMP").encode("utf-8")).hexdigest()


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def record_of(argv, writes) -> dict:
    """Exit code and output digests of one call."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.map")
        cert_path = os.path.join(tmp, "cert.json")
        full = argv + ["--out", out_path, "--cert", cert_path] if writes else argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(full)
        return {"exit": code,
                "stdout": _digest(out.getvalue(), tmp),
                "stderr": _digest(err.getvalue(), tmp),
                "out": _digest(_read(out_path), tmp),
                "cert": _digest(_read(cert_path), tmp)}


def main() -> None:
    data = {" ".join(argv): record_of(argv, writes) for argv, writes in argvs()}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
