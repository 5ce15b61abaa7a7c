"""Regenerate verify.json: `verify-cert --json` stdout for corpus certificates.

    PYTHONPATH=src python3 tests/golden/make_verify.py

Each entry writes a certificate with the CLI (or reads a shipped one,
possibly tampered with) and records the stdout of
`verify-cert --json --fiber-samples 5 --seed 0` on it.  Covered: `reduce
--to yagzhev` and `reduce --to cubic` on every corpus map, `segre` on
every map it accepts, `symmetrize` on every map, the shipped version 1
certificate, and three tampered certificates.  Run it only when a report
is meant to change, and say why in the change; tests/test_golden_verify.py
compares the current output with the file byte for byte.
"""

import contextlib
import io
import json
import os
import tempfile

from polyred import cli
from polyred.examples import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "verify.json")
V1_CERT = os.path.join(HERE, os.pardir, "data", "plane-quad-v1.cert.json")
VERIFY = ["--json", "--fiber-samples", "5", "--seed", "0"]

# segre needs a map of the form x + quadratic + cubic; no random map has it
SEGRE_REFUSED = {"cube-x", "triple-root", "square-x", "pinchuk"}


def _target_swapped(blob):
    lines = blob["target"].splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    blob["target"] = "".join(lines)


def _addend_changed(blob):
    blob["moves"][-1]["automorphism"]["addends"]["0"] = "-2*x3*x5^2"


def _inverse_forged(blob):
    auto = blob["moves"][2]["automorphism"]
    auto["inverse"]["map"] = auto["forward"]


TAMPERS = {"target-swapped": _target_swapped,
           "addend-changed": _addend_changed,
           "inverse-forged": _inverse_forged}


def entries() -> list:
    """(key, command writing the certificate or None, tamper or None), in
    file order; a None command reads the shipped version 1 certificate."""
    ids = [e.id for e in corpus()]
    out = []
    for m in ids:
        out.append((f"reduce {m} --to yagzhev", ["reduce", m, "--to", "yagzhev"], None))
        out.append((f"reduce {m} --to cubic", ["reduce", m, "--to", "cubic"], None))
        if m not in SEGRE_REFUSED and not m.startswith("random-"):
            out.append((f"segre {m}", ["segre", m], None))
        out.append((f"symmetrize {m}", ["symmetrize", m], None))
    out.append(("data/plane-quad-v1.cert.json", None, None))
    for name, tamper in TAMPERS.items():
        out.append((f"reduce plane-quad --to yagzhev, {name}",
                    ["reduce", "plane-quad", "--to", "yagzhev"], tamper))
    return out


def _quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def stdout_of(command, tamper) -> str:
    """The verify-cert report on the certificate an entry describes."""
    with tempfile.TemporaryDirectory() as tmp:
        cert = os.path.join(tmp, "cert.json")
        if command is None:
            cert = V1_CERT
        else:
            argv = command + ["--out", os.path.join(tmp, "out.map"), "--cert", cert]
            code, _ = _quiet(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(command)}: exit {code}")
        if tamper is not None:
            with open(cert, encoding="utf-8") as fh:
                blob = json.load(fh)
            tamper(blob)
            with open(cert, "w", encoding="utf-8") as fh:
                json.dump(blob, fh)
        _, report = _quiet(["verify-cert", cert] + VERIFY)
        if not report:
            raise RuntimeError(f"verify-cert refused the certificate of {command}")
        return report


def main() -> None:
    data = {key: stdout_of(command, tamper) for key, command, tamper in entries()}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
