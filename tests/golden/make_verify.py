"""Regenerate verify.json: `verify-cert --json` stdout for corpus certificates.

    PYTHONPATH=src python3 tests/golden/make_verify.py

Each entry writes a certificate with the CLI (or reads a shipped one,
possibly tampered with) and records the stdout of
`verify-cert --json --fiber-samples 5 --seed 0` on it.  Covered: `reduce
--to yagzhev` and `reduce --to cubic` on every corpus map, `segre` on
every map it accepts, `symmetrize` on every map, the shipped version 1
certificate, five tampered certificates of plane-quad (two of them forge
its permutation in the encoder's form, so it is still read as unit rows)
and two of random-d4-n2, whose affine moves get a forged inverse.  Run
it only when a report
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


def _inverse_lines_transposed(blob):
    """Two index lines of move 2's inverse swapped: still unit rows, wrong ones."""
    inverse = blob["moves"][2]["automorphism"]["inverse"]
    inverse["map"] = inverse["map"].replace("f3 = x4\npoly f4 = x5", "f3 = x5\npoly f4 = x4")


def _forward_index_repeated(blob):
    """Move 2's forward text reads x5 twice and x3 never: not a permutation."""
    auto = blob["moves"][2]["automorphism"]
    auto["forward"] = auto["forward"].replace("poly f4 = x3", "poly f4 = x5")


def _affine_inverse_forged(k):
    """Move k's inverse text replaced by its forward text."""
    def tamper(blob):
        auto = blob["moves"][k]["automorphism"]
        auto["inverse"]["map"] = auto["forward"]
    return tamper


TAMPERS = {"target-swapped": _target_swapped,
           "addend-changed": _addend_changed,
           "inverse-forged": _inverse_forged,
           "inverse-index-lines-transposed": _inverse_lines_transposed,
           "forward-index-repeated": _forward_index_repeated}
# random-d4-n2's moves 6, 7 and 8 are normalize's recentering, base-value
# translation and straightening, all affine in 6 variables
AFFINE_TAMPERS = {"straightening-inverse-forged": _affine_inverse_forged(8),
                  "translation-inverse-forged": _affine_inverse_forged(7)}


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
    for name, tamper in AFFINE_TAMPERS.items():
        out.append((f"reduce random-d4-n2 --to yagzhev, {name}",
                    ["reduce", "random-d4-n2", "--to", "yagzhev"], tamper))
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
