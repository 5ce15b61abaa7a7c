"""Driving the CLI in-process: outputs, schemas, exit codes."""

import contextlib
import functools
import io
import json
import operator
import os
from importlib import resources
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyred import cli, gz, textio
from polyred.affine import AffineAutomorphism
from polyred.cli import main
from polyred.examples import builtin_example
from polyred.linalg import RatMatrix
from polyred.maps import DEFAULT_BUDGET, PolyMap, is_yagzhev
from polyred.reduce import meng_symmetrize, segre_step, to_yagzhev
from polyred.textio import automorphism_to_json, certificate_to_json, parse_map


def load_schema(name: str) -> dict:
    """One of the shipped JSON schemas, by base name ('certificate', ...)."""
    path = resources.files("polyred").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- report commands ---------------------------------------------------------


def test_analyze_json_validates(capsys):
    data = run_json(capsys, "analyze", "druzkowski-toy", "--json")
    jsonschema.validate(data, load_schema("analysis"))
    assert data["dim"] == 2
    assert data["mode"] == "exact"
    assert data["yagzhev"] and data["druzkowski"]
    assert data["keller"] is False


SAMPLED_YAGZHEV_4D_B = """\
{
  "degree": 3,
  "dim": 4,
  "druzkowski": true,
  "jacobian_degree_bound": 4,
  "keller": false,
  "mode": "sampled",
  "nondegenerate": true,
  "nonsingular_sampled": true,
  "notes": [
    "dimension 4 exceeds the exact determinant cap 1",
    "verdicts from seeded sampling; positives are exact",
    "jacobian determinant takes two distinct sampled values"
  ],
  "samples": 200,
  "seed": 0,
  "yagzhev": true
}
"""


def test_sampled_analyze_output_is_pinned(capsys):
    # the sampled route's bytes as they were while it re-derived the
    # Jacobian at every point; deriving once must not change them
    code, out, err = run(capsys, "analyze", "yagzhev-4d-b", "--exact-threshold", "1",
                         "--samples", "200", "--json")
    assert (code, err) == (0, "")
    assert out == SAMPLED_YAGZHEV_4D_B


def test_analyze_human_output(capsys):
    code, out, _ = run(capsys, "analyze", "cube-x")
    assert code == 0
    assert "dimension" in out and "keller" in out


def test_attributes_json_validates(capsys):
    data = run_json(capsys, "attributes", "cube-x", "--samples", "20", "--json")
    jsonschema.validate(data, load_schema("attribute-report"))
    assert data["dex"] == 3
    assert data["mfs_observed"] == 1


def test_attributes_accepts_file_path(capsys, tmp_path):
    path = tmp_path / "m.map"
    path.write_text("vars x y\npoly p = x^3\npoly q = y\n")
    data = run_json(capsys, "attributes", str(path), "--samples", "10", "--json")
    assert data["dex"] == 3
    assert data["sag_external"] is None


def test_attributes_deterministic(capsys):
    a = run(capsys, "attributes", "triple-root", "--samples", "15", "--json")
    b = run(capsys, "attributes", "triple-root", "--samples", "15", "--json")
    assert a == b


# -- reduce and verify-cert --------------------------------------------------


def test_reduce_writes_map_and_certificate(capsys, tmp_path):
    out = tmp_path / "out.map"
    cert = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "reduce", "plane-quad", "--to", "yagzhev",
                          "--out", str(out), "--cert", str(cert))
    assert code == 0
    assert "stages:" in stdout
    g = parse_map(out.read_text()).to_polymap()
    assert is_yagzhev(g)
    blob = json.loads(cert.read_text())
    jsonschema.validate(blob, load_schema("certificate"))

    code, stdout, _ = run(capsys, "verify-cert", str(cert),
                          "--fiber-samples", "5")
    assert code == 0
    assert "valid" in stdout

    data = run_json(capsys, "verify-cert", str(cert), "--fiber-samples", "3",
                    "--json")
    jsonschema.validate(data, load_schema("verify-report"))
    assert data["certificate"]["ok"]
    assert data["fiber"]["ok"]


def test_reduce_to_cubic_stdout(capsys):
    code, out, err = run(capsys, "reduce", "random-d4-n2", "--to", "cubic")
    assert code == 0
    g = parse_map(out).to_polymap()
    assert g.degree() <= 3
    assert "stages:" in err          # summary stays off stdout


def test_verify_cert_flags_tampering(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, "reduce", "plane-quad", "--to", "yagzhev",
        "--out", str(tmp_path / "o.map"), "--cert", str(cert))
    blob = json.loads(cert.read_text())
    blob["target"] = blob["source"]
    cert.write_text(json.dumps(blob))
    code, _, _ = run(capsys, "verify-cert", str(cert))
    assert code == 1


def test_verify_cert_rejects_non_certificates(capsys, tmp_path):
    path = tmp_path / "not.json"
    path.write_text("{\"format\": \"something\"}")
    code, _, err = run(capsys, "verify-cert", str(path))
    assert code == 2
    assert "not a certificate" in err


V1_CERT = os.path.join(os.path.dirname(__file__), "data", "plane-quad-v1.cert.json")


def test_verify_cert_reads_version_1(capsys):
    # written by `reduce plane-quad --to yagzhev --cert` before shears were
    # stored as their addends: every shear is a forward and an inverse map
    with open(V1_CERT, encoding="utf-8") as fh:
        blob = json.load(fh)
    assert blob["version"] == 1
    jsonschema.validate(blob, load_schema("certificate"))
    code, stdout, _ = run(capsys, "verify-cert", V1_CERT, "--fiber-samples", "5")
    assert code == 0
    assert "fiber transport: exact on 5 samples" in stdout


def _plane_quad_cert(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, "reduce", "plane-quad", "--to", "yagzhev",
        "--out", str(tmp_path / "o.map"), "--cert", str(cert))
    return cert, json.loads(cert.read_text())


def _shear(blob):
    """The automorphism of the certificate's last move, a two-addend shear."""
    auto = blob["moves"][-1]["automorphism"]
    assert auto["kind"] == "shear" and auto["dim"] == 5
    assert auto["addends"] == {"0": "-x3*x5^2", "1": "-x4*x5^2"}
    return auto


def _extend(blob):
    """The certificate's extend move, which adds two variables."""
    move = blob["moves"][1]
    assert move == {"move": "extend", "count": 2}
    return move


def _zero_denominator(blob):
    inverse = blob["moves"][2]["automorphism"]["inverse"]
    inverse.update(kind="rational", numerators=inverse.pop("map"),
                   denominator="vars x1 x2 x3 x4 x5\npoly f1 = 0\n")


def _perm_at_dim_4(blob):
    """The certificate's 3-cycle, re-encoded at dim 4 to act on dim 5."""
    auto = blob["moves"][2]["automorphism"]
    assert auto["forward"] == automorphism_to_json(
        AffineAutomorphism.permutation(5, [0, 1, 4, 2, 3], auto["label"]))["forward"]
    auto.update(automorphism_to_json(
        AffineAutomorphism.permutation(4, [0, 3, 1, 2], auto["label"])))


def _two_denominators(blob):
    """A first move whose rational inverse (x*y, y*y) / y is sound only if
    the second poly line of its denominator document, e = x, is dropped."""
    blob["moves"].insert(0, {"move": "post", "automorphism": {
        "label": "", "forward": "vars x y\npoly f1 = x\npoly f2 = y\n",
        "inverse": {"kind": "rational",
                    "numerators": "vars x y\npoly f1 = x*y\npoly f2 = y*y\n",
                    "denominator": "vars x y\npoly d = y\npoly e = x\n"}}})


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda b: b.update(version=99), id="version-99"),
    pytest.param(lambda b: b.update(version="banana"), id="version-banana"),
    pytest.param(lambda b: b.pop("version"), id="version-missing"),
    pytest.param(_zero_denominator, id="zero-denominator"),
    pytest.param(_two_denominators, id="denominator-two-lines"),
    pytest.param(lambda b: b.update(moves="abc"), id="moves-string"),
    pytest.param(lambda b: b.update(moves=[5]), id="moves-int"),
    pytest.param(lambda b: b.update(source=5), id="source-int"),
    pytest.param(lambda b: b["moves"][2].update(automorphism="abc"), id="automorphism-string"),
    pytest.param(lambda b: b["moves"][2]["automorphism"].update(inverse="abc"),
                 id="inverse-string"),
    pytest.param(lambda b: _shear(b).update(addends=["-x3*x5^2"]), id="addends-list"),
    pytest.param(lambda b: _shear(b).update(addends={"a": "x3"}), id="index-word"),
    pytest.param(lambda b: _shear(b).update(addends={"01": "x3"}), id="index-leading-zero"),
    pytest.param(lambda b: _shear(b).update(addends={"5": "x3"}), id="index-too-big"),
    pytest.param(lambda b: _shear(b).update(addends={"-1": "x3"}), id="index-negative"),
    pytest.param(lambda b: _shear(b).update(addends={"0": "x3 +"}), id="addend-unparsable"),
    pytest.param(lambda b: _shear(b).update(addends={"0": 3}), id="addend-number"),
    pytest.param(lambda b: _shear(b).update(addends={"0": "x2", "1": "x3"}),
                 id="addend-reads-shifted"),
    pytest.param(lambda b: _shear(b).update(dim=6), id="dim-disagrees"),
    pytest.param(_perm_at_dim_4, id="perm-dim-disagrees"),
    pytest.param(lambda b: b["moves"][2]["automorphism"].update(label=5), id="perm-label-int"),
    pytest.param(lambda b: _shear(b).update(label=[1]), id="shear-label-list"),
    pytest.param(lambda b: b.update(kind=7), id="kind-int"),
    pytest.param(lambda b: _shear(b).update(dim="5"), id="dim-string"),
    pytest.param(lambda b: _shear(b).update(dim=0), id="dim-zero"),
    pytest.param(lambda b: _shear(b).update(dim=-3), id="dim-negative"),
    pytest.param(lambda b: _shear(b).update(dim=DEFAULT_BUDGET.max_dim + 1),
                 id="dim-over-budget"),
    pytest.param(lambda b: _shear(b).update(dim=1000000, addends={}), id="dim-million"),
    pytest.param(lambda b: _extend(b).update(count=0), id="count-zero"),
    pytest.param(lambda b: _extend(b).update(count=-2), id="count-negative"),
    pytest.param(lambda b: _extend(b).update(count="2"), id="count-string"),
    pytest.param(lambda b: _extend(b).update(count=1000000), id="count-million"),
    pytest.param(lambda b: b["moves"].extend([{"move": "extend", "count": 2000}] * 3),
                 id="extends-past-budget"),
    pytest.param(lambda b: _shear(b).update(addends={"0": "(" * 3000 + "x3" + ")" * 3000}),
                 id="addend-nested-3000"),
    pytest.param(lambda b: _shear(b).update(addends={"0": "x3^99999999999999999999"}),
                 id="addend-huge-exponent"),
    pytest.param(lambda b: _shear(b).update(addends={"0": "9" * 5000 + "*x3"}),
                 id="addend-long-literal"),
])
def test_verify_cert_malformed_is_invalid(capsys, tmp_path, tamper):
    cert, blob = _plane_quad_cert(capsys, tmp_path)
    tamper(blob)
    cert.write_text(json.dumps(blob))
    code, _, err = run(capsys, "verify-cert", str(cert))
    assert code == 1
    assert err.startswith("invalid certificate: ")


def test_verify_cert_catches_tampered_addend(capsys, tmp_path):
    cert, blob = _plane_quad_cert(capsys, tmp_path)
    _shear(blob)["addends"]["0"] = "-2*x3*x5^2"
    cert.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify-cert", str(cert), "--json")
    assert code == 1
    assert json.loads(out)["certificate"]["issues"] == [
        "last intermediate differs from the target"]


# -- loader fuzzing ----------------------------------------------------------


# read afresh from JSON on every draw: a shared list or dict would carry
# one example's later edits into the next
_WRONG_TYPES = st.sampled_from(["null", "true", "0", "-1", "2.5", '""', '"abc"',
                                "[]", "{}", "[5]", '{"a": 1}']).map(json.loads)
_SPLICE = st.text(alphabet=" \n\t+-*^/()=#0123456789xyzf", min_size=1, max_size=3)


@functools.cache
def _cert_text(eid: str) -> str:
    _, trace = to_yagzhev(builtin_example(eid).document.to_polymap())
    return json.dumps(certificate_to_json(trace.certificate))


def _json_paths(node, path=()):
    """(path, value) for every value below node in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _json_paths(value, path + (key,))


def _mutate(draw, blob):
    """One random edit of blob in place: a move duplicated, a key or
    element deleted, a value of the wrong type swapped in, or characters
    spliced into a map text or a shear addend."""
    how = draw(st.sampled_from(["duplicate", "delete", "retype", "splice"]))
    if how == "duplicate":
        moves = blob.get("moves")
        if isinstance(moves, list) and moves:
            move = json.dumps(draw(st.sampled_from(moves)))
            moves.insert(draw(st.integers(0, len(moves))), json.loads(move))
        return
    paths = [(p, v) for p, v in _json_paths(blob) if how != "splice"
             or isinstance(v, str) and (v.startswith("vars") or "addends" in p)]
    if not paths:
        return
    path, value = draw(st.sampled_from(paths))
    parent = functools.reduce(operator.getitem, path[:-1], blob)
    if how == "delete":
        del parent[path[-1]]
    elif how == "retype":
        parent[path[-1]] = draw(_WRONG_TYPES)
    else:
        at = draw(st.integers(0, len(value)))
        parent[path[-1]] = value[:at] + draw(_SPLICE) + value[at:]


def _verify_quietly(path) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-cert", str(path), "--fiber-samples", "2", "--json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_cert_mutated_certificates_end_in_an_exit_code(tmp_path_factory, data):
    # plane-quad's certificate holds shears and two permutations (moves 2
    # and 3), which are affine; random-d4-n2's also holds normalize's three
    # affine moves (6, 7 and 8).  No report may change when the affine
    # reader declines every text, which sends all of these moves down the
    # general route, parsed and checked symbolically
    blob = json.loads(_cert_text(data.draw(st.sampled_from(["plane-quad", "random-d4-n2"]))))
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate(data.draw, blob)
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    path.write_text(json.dumps(blob))
    got = _verify_quietly(path)
    assert got[0] in (0, 1, 2, 3)
    with mock.patch.object(textio, "_affine_rows", lambda text: None):
        assert _verify_quietly(path) == got


# -- pairing commands --------------------------------------------------------


def test_pair_up_json_validates(capsys):
    data = run_json(capsys, "pair-up", "yagzhev-2d-a", "--json")
    jsonschema.validate(data, load_schema("pairing"))
    assert data["axioms_ok"]


def test_pair_round_trip_through_files(capsys, tmp_path):
    data = run_json(capsys, "pair-up", "yagzhev-3d-a", "--json")
    dru = tmp_path / "dru.map"
    dru.write_text(data["f"])
    amat = tmp_path / "a.json"
    amat.write_text(json.dumps(data["a"]))
    back = run_json(capsys, "pair-down", str(dru), "--matrix", str(amat),
                    "--json")
    assert back["g"] == data["g"]
    assert back["axioms_ok"]


def _matrix_text(rows, last_entry=None) -> str:
    """rows as a JSON array, the first entry of the last row replaced by
    the raw JSON text last_entry when given."""
    cells = [[json.dumps(c) for c in row] for row in rows]
    if last_entry is not None:
        cells[-1][0] = last_entry
    return "[" + ", ".join("[" + ", ".join(r) + "]" for r in cells) + "]"


@pytest.mark.parametrize("entry", [
    '"1/0"',          # was an uncaught ZeroDivisionError
    '"1e999999999"',  # was a 10**999999999 in the making
    "true", "false",  # were read as 1 and 0
    "0.1",            # was read at its binary value
    '"1.5"', '"1_0"', '"+1"', '" 1"', '"1/-2"', '"-"', '""', "null", "[1]",
    '"' + "7" * 5000 + '"',
])
def test_pair_down_refuses_a_matrix_entry_that_is_not_rational(capsys, tmp_path, entry):
    data = run_json(capsys, "pair-up", "yagzhev-2d-a", "--json")
    dru = tmp_path / "dru.map"
    dru.write_text(data["f"])
    amat = tmp_path / "a.json"
    amat.write_text(_matrix_text(data["a"], entry))
    code, out, err = run(capsys, "pair-down", str(dru), "--matrix", str(amat))
    assert code == 2 and out == ""
    assert "is not a matrix of rationals" in err


@pytest.mark.parametrize("rows", ['"abc"', '{"a": [1]}', '["12", "34"]', "[[1, 2], [3]]"])
def test_pair_down_refuses_a_matrix_of_the_wrong_shape(capsys, tmp_path, rows):
    dru = tmp_path / "dru.map"
    dru.write_text("vars x y\npoly f1 = x\npoly f2 = y\n")
    amat = tmp_path / "a.json"
    amat.write_text(rows)
    code, _, err = run(capsys, "pair-down", str(dru), "--matrix", str(amat))
    assert code == 2 and "is not a matrix of rationals" in err


@pytest.mark.parametrize("command", [["verify-cert"], ["pair-down", "MAP", "--matrix"]])
@pytest.mark.parametrize("content", [
    b"[" * 100000 + b"]" * 100000,  # past the decoder's recursion limit
    b"[[" + b"7" * 5000 + b"]]",     # an integer longer than int() reads
    b"[[\"1\"]]\xff",              # not UTF-8
])
def test_json_inputs_that_python_cannot_hold_are_usage_errors(capsys, tmp_path,
                                                              command, content):
    dru = tmp_path / "dru.map"
    dru.write_text("vars x\npoly f1 = x\n")
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [str(dru) if a == "MAP" else a for a in command] + [str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: '{bad}' is not JSON: ")


def test_pair_down_reads_json_ints_and_signed_fraction_strings(capsys, tmp_path):
    g = tmp_path / "g.map"
    g.write_text("vars x y\npoly f1 = x - 1/2*x^2*y\npoly f2 = y + x^3\n")
    data = run_json(capsys, "pair-up", str(g), "--json")
    assert any(c.startswith("-") and "/" in c for row in data["a"] for c in row)
    dru = tmp_path / "dru.map"
    dru.write_text(data["f"])
    amat = tmp_path / "a.json"
    # integral entries as JSON ints, the others as "-p/q" strings
    rows = [[int(c) if "/" not in c else c for c in row] for row in data["a"]]
    amat.write_text(json.dumps(rows))
    back = run_json(capsys, "pair-down", str(dru), "--matrix", str(amat), "--json")
    assert back["g"] == data["g"] and back["axioms_ok"]


def _tamper_g(p):
    p.G = PolyMap([c.scale(2) for c in p.G.components])


def _tamper_f(p):
    # x0^3 on F's first component (pair_up's first rows of A are zero):
    # F is no longer X + (AX)^{*3}, and G, recomputed from F, no longer
    # matches either
    rows = list(p.A.rows)
    rows[0] = {0: 1}
    p.F = gz.CubicLinearMap(RatMatrix(rows, p.A.ncols))


def test_pair_up_reports_failed_axioms(capsys, monkeypatch):
    # pair_up only builds the pairing; the command's one verify_pairing
    # sets both axioms_ok and the exit code, and lists every failed axiom
    cases = [
        (_tamper_g, ["G is not identity plus cubic homogeneous", "G is not B F(C x)"]),
        (_tamper_f, ["F is not X + (A X)^{*3}", "G is not B F(C x)"]),
    ]
    for tamper, issues in cases:
        def tampered(g):
            p = gz.pair_up(g)
            tamper(p)
            return p

        monkeypatch.setattr(cli, "pair_up", tampered)
        code, out, _ = run(capsys, "pair-up", "yagzhev-2d-a", "--json")
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, load_schema("pairing"))
        assert data["axioms_ok"] is False
        assert data["issues"] == issues


def test_pairing_commands_never_expand_the_partner(capsys, monkeypatch, tmp_path):
    # build, check and print F from its matrix, in both output modes
    data = run_json(capsys, "pair-up", "yagzhev-3d-a", "--json")
    dru = tmp_path / "dru.map"
    dru.write_text(data["f"])
    amat = tmp_path / "a.json"
    amat.write_text(json.dumps(data["a"]))

    def refuse(self):
        raise AssertionError("the partner was expanded")

    monkeypatch.setattr(gz.CubicLinearMap, "to_polymap", refuse)
    assert run_json(capsys, "pair-up", "yagzhev-3d-a", "--json")["f"] == data["f"]
    for argv in (["pair-up", "yagzhev-3d-a"], ["pair-down", str(dru), "--matrix", str(amat)]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\n\n" + data["f"])


def test_pair_up_rejects_non_cubic(capsys):
    code, _, err = run(capsys, "pair-up", "plane-quad")
    assert code == 1
    assert "check failed" in err


# -- symmetrize and segre ----------------------------------------------------


def test_symmetrize_output_parses(capsys):
    code, out, _ = run(capsys, "symmetrize", "cube-x")
    assert code == 0
    doc = parse_map(out)
    assert len(doc.variables) == 4
    assert "potential" in doc.metadata


def test_segre_output_parses(capsys):
    code, out, _ = run(capsys, "segre", "yagzhev-2d-a")
    assert code == 0
    doc = parse_map(out)
    assert len(doc.variables) == 3


@pytest.mark.parametrize("argv, build", [
    (["reduce", "random-d5-n2", "--to", "yagzhev"], lambda f: to_yagzhev(f)[1].certificate),
    (["symmetrize", "cube-x"], lambda f: meng_symmetrize(f)[1]),
    (["segre", "yagzhev-2d-a"], lambda f: segre_step(f)[1]),
])
def test_cert_file_is_the_indented_certificate(capsys, tmp_path, argv, build):
    path = tmp_path / "out.cert.json"
    code, _, err = run(capsys, *argv, "--cert", str(path))
    assert code == 0, err
    cert = build(builtin_example(argv[1]).document.to_polymap())
    want = json.dumps(certificate_to_json(cert), indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == want


# -- examples ----------------------------------------------------------------


def test_examples_list(capsys):
    code, out, _ = run(capsys, "examples", "list")
    assert code == 0
    assert "pinchuk" in out


def test_examples_show_round_trips(capsys):
    code, out, _ = run(capsys, "examples", "show", "pinchuk")
    assert code == 0
    doc = parse_map(out)
    assert max(p.degree() for _, p in doc.components) == 25


# -- exit codes --------------------------------------------------------------


def test_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "attributes", "nope")
    assert code == 2
    assert "neither a file nor a built-in" in err


def test_parse_error_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("vars x\npoly p = x +\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_deeply_nested_map_is_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.map"
    path.write_text("vars x\npoly p = " + "(" * 3000 + "x" + ")" * 3000 + "\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error: line 2, col ")


def test_long_literal_is_usage_error(capsys, tmp_path):
    path = tmp_path / "long.map"
    path.write_text("vars x\npoly p = x + " + "9" * 5000 + "\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error: line 2, col 14: integer literal of 5000 digits")


def test_huge_exponent_is_usage_error(capsys, tmp_path):
    path = tmp_path / "big.map"
    path.write_text("vars x\npoly p = x^99999999999999999999\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error: line 2, col 12: exponent exceeds")


@pytest.mark.parametrize("argv", [
    ["analyze", "cube-x", "--samples", "-5", "--json"],
    ["attributes", "cube-x", "--samples", "-3", "--json"],
    ["attributes", "cube-x", "--samples", "0"],
    ["attributes", "cube-x", "--samples", "many"],
])
def test_bad_sample_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_negative_fiber_samples_is_usage_error(capsys, tmp_path):
    cert, _ = _plane_quad_cert(capsys, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify-cert", str(cert), "--fiber-samples", "-4"])
    assert exc.value.code == 2
    assert "--fiber-samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["reduce", "random-d4-n2", "--to", "cubic", "--budget-ms", "-1"], "--budget-ms"),
    (["reduce", "random-d4-n2", "--to", "cubic", "--budget-dim", "-1"], "--budget-dim"),
    (["reduce", "random-d4-n2", "--to", "cubic", "--budget-dim", "0"], "--budget-dim"),
    (["analyze", "cube-x", "--exact-threshold", "-1"], "--exact-threshold"),
    (["symmetrize", "cube-x", "--exact-threshold", "-2"], "--exact-threshold"),
])
def test_bad_budget_values_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["segre", "plane-quad", "--budget-ms", "5"],
    ["analyze", "cube-x", "--budget-dim", "3"],
    ["reduce", "cube-x", "--to", "cubic", "--exact-threshold", "3"],
    ["reduce", "cube-x", "--to", "cubic", "--no-group-factors"],
    ["symmetrize", "cube-x", "--budget-ms", "5"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_budget_ms_zero_means_no_time_limit(capsys):
    code, _, err = run(capsys, "reduce", "random-d4-n2", "--to", "cubic",
                       "--budget-ms", "0")
    assert code == 0, err


def test_exact_threshold_still_acts(capsys):
    code, _, err = run(capsys, "symmetrize", "cube-x", "--exact-threshold", "1")
    assert code == 3
    assert "budget exceeded" in err
    data = run_json(capsys, "analyze", "mixed-3d", "--exact-threshold", "1", "--json")
    assert data["mode"] == "sampled"


def test_zero_analyze_samples_is_allowed(capsys):
    data = run_json(capsys, "analyze", "cube-x", "--samples", "0", "--json")
    jsonschema.validate(data, load_schema("analysis"))
    assert data["samples"] == 0


def test_failed_check_is_exit_1(capsys):
    code, _, err = run(capsys, "attributes", "mixed-3d")
    assert code == 1
    assert "plane maps" in err


def test_budget_exceeded_is_exit_3(capsys):
    code, _, err = run(capsys, "reduce", "random-d6-n2", "--to", "cubic",
                       "--budget-dim", "3")
    assert code == 3
    assert "budget exceeded" in err


def test_bad_usage_raises_systemexit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "cube-x"])      # --to is required
    assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_state(capsys, tmp_path, monkeypatch):
    builds = []
    build = cli._build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counting)
    out_map = tmp_path / "o.map"
    code, out, _ = run(capsys, "reduce", "cube-x", "--to", "cubic",
                       "--out", str(out_map))
    assert code == 0 and out.startswith("stages: ")
    written = out_map.read_text()
    # the second call sets neither --out nor --json; neither may leak in
    code, out, _ = run(capsys, "reduce", "cube-x", "--to", "cubic")
    assert code == 0 and out == written
    run_json(capsys, "analyze", "cube-x", "--json")
    code, out, _ = run(capsys, "analyze", "cube-x")
    assert code == 0 and out.startswith("dimension")
    assert len(builds) == 1
    # a usage error still goes to the stderr in place at the time of the call
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["reduce", "cube-x"])
    assert exc.value.code == 2
    assert "--to" in err.getvalue()
    assert capsys.readouterr().err == ""
    assert len(builds) == 1
