"""Acceptance: one test per shipped claim, at its stated tolerance.

Each test prints a single summary line (visible with -s); the pytest
verdict line per test is the pass/fail record.  The heavyweight tests
share their expensive artifacts through cached builders so the suite
stays within a few minutes end to end.
"""

import io
import itertools
import json
import random
import re
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import eval_scaled_int
from polyred.attrs import dex2, mfs_sample
from polyred.certs import apply_move, fiber_transport_check, verify_certificate
from polyred.cli import main as cli_main
from polyred.examples import builtin_example, corpus
from polyred.gz import pair_down, pair_up, pairing_to_equivalence, verify_pairing
from polyred.linalg import sparse_det
from polyred.maps import (DEFAULT_BUDGET, PolyMap, eval_jacobian_sparse,
                          is_nilpotent, is_yagzhev, jacobian, jacobian_det,
                          sample_points, sparse_jacobian)
from polyred.poly import Poly
from polyred.reduce import lower_degree, meng_symmetrize, segre_step, to_yagzhev
from polyred.textio import (attribute_report_to_json, cert_report_to_json,
                            certificate_to_json, default_var_names,
                            pairing_to_json, parse_expression, parse_map,
                            poly_text, polymap_to_document, print_map)


def _map(eid):
    return builtin_example(eid).document.to_polymap()


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


@lru_cache(maxsize=None)
def _pinchuk_attributes():
    """One `attributes pinchuk` run, shared by criteria 1 and 2."""
    t0 = time.monotonic()
    code, out = _run_cli("attributes", "pinchuk", "--seed", "0",
                         "--samples", "200", "--json")
    elapsed = time.monotonic() - t0
    assert code == 0
    return out, json.loads(out), elapsed


# -- criterion 1: the headline fiber degree ----------------------------------


def test_criterion_01_pinchuk_dex():
    _, data, elapsed = _pinchuk_attributes()
    assert data["dex"] == 6, f"dex came out {data['dex']}, expected exactly 6"
    assert elapsed < 60.0, f"attributes pinchuk took {elapsed:.1f}s (limit 60s)"
    print(f"criterion 1: dex(pinchuk) = 6 exactly, {elapsed:.1f}s < 60s")


# -- criterion 2: sampled fiber maximum --------------------------------------


def test_criterion_02_pinchuk_mfs():
    _, data, elapsed = _pinchuk_attributes()
    assert data["samples"] >= 200
    # mfs_observed is the maximum real fiber size seen, so == 2 also
    # means no sampled fiber exceeded 2
    assert data["mfs_observed"] == 2
    assert data["parity_consistent"] is True
    assert data["dex"] % 2 == 0 and data["mfs_observed"] % 2 == 0
    assert elapsed < 120.0, f"took {elapsed:.1f}s (limit 120s)"
    print(f"criterion 2: mfs_observed = 2 over {data['samples']} fibers, "
          f"none above 2, parity consistent, {elapsed:.1f}s < 120s")


# -- criterion 3: Jacobian determinant sign evidence --------------------------


def test_criterion_03_pinchuk_jacobian_sign():
    f = _map("pinchuk")
    j = jacobian_det(f)
    assert not j.is_constant(), "j(pinchuk) must be nonconstant"
    L, items = j.content_and_integer_terms()
    d = j.degree()
    rng = random.Random("acceptance:crit3:0")
    pos = neg = zero = 0
    count = 100_000
    for nums, den in sample_points(rng, 2, count, 200):
        v = eval_scaled_int(items, nums, den, d)
        if v > 0:
            pos += 1
        elif v < 0:
            neg += 1
        else:
            zero += 1
    if L < 0:
        pos, neg = neg, pos
    assert zero == 0, f"j vanished at {zero} sampled points"
    assert pos == count or neg == count, \
        f"mixed signs: {pos} positive, {neg} negative"
    sign = "positive" if pos == count else "negative"
    print(f"criterion 3: j(pinchuk) nonconstant (degree {d}) and {sign} at "
          f"all {count} seeded points; sampled evidence, not a proof")


# -- criterion 4: the full reduction of the Pinchuk map -----------------------


def test_criterion_04_pinchuk_reduction(tmp_path):
    out = tmp_path / "pinchuk-yagzhev.map"
    cert = tmp_path / "pinchuk-yagzhev.cert.json"
    t0 = time.monotonic()
    code, stdout = _run_cli("reduce", "pinchuk", "--to", "yagzhev",
                            "--out", str(out), "--cert", str(cert))
    elapsed = time.monotonic() - t0
    assert code == 0
    assert elapsed < 300.0, f"reduce took {elapsed:.1f}s (limit 300s)"
    dims = [int(m) for m in re.findall(r"\((\d+)\)", stdout)]
    assert dims and max(dims) <= DEFAULT_BUDGET.max_dim

    g = parse_map(out.read_text()).to_polymap()
    assert is_yagzhev(g), "output is not identity plus cubic homogeneous"
    n = g.n_in

    # two sampled points with different exact jacobian values
    rng = random.Random("acceptance:crit4:j")
    values = set()
    jac = sparse_jacobian(g)
    for nums, den in sample_points(rng, n, 20, 8):
        point = [Fraction(a, den) for a in nums]
        values.add(sparse_det(eval_jacobian_sparse(jac, point), n))
        if len(values) >= 2:
            break
    assert len(values) >= 2, "no two distinct j values found"

    # the cubic part has a non-nilpotent differential somewhere
    h = PolyMap([g.components[i] - Poly.variable(n, i) for i in range(n)])
    verdict, witness = is_nilpotent(jacobian(h), n, seed=0)
    assert verdict is False, f"expected a non-nilpotency witness, got {verdict}"

    t1 = time.monotonic()
    code, _ = _run_cli("verify-cert", str(cert), "--fiber-samples", "50")
    transport = time.monotonic() - t1
    assert code == 0, "certificate or fiber transport failed"
    print(f"criterion 4: reduce in {elapsed:.1f}s to dimension {n} "
          f"(stage dims {dims}; reference dims 101/203 reported for "
          f"comparison only), is_yagzhev exact, two exact j values, "
          f"J(H) not nilpotent ({witness if isinstance(witness, str) else 'point witness'}), "
          f"certificate + 50 fiber transports in {transport:.1f}s")


# -- criterion 5: a Keller input stays Keller --------------------------------


def test_criterion_05_keller_map():
    f = _map("yagzhev-2d-a")        # (x + y^3, y)
    g, trace = to_yagzhev(f)
    j = jacobian_det(g)
    assert j.is_constant() and not j.is_zero(), "output must be Keller"
    n = g.n_in
    h = PolyMap([g.components[i] - Poly.variable(n, i) for i in range(n)])
    verdict, note = is_nilpotent(jacobian(h), n)
    assert verdict is True, f"J(H) should be nilpotent: {note}"
    rep = verify_certificate(trace.certificate)
    assert rep.ok
    print(f"criterion 5: (x + y^3, y) reduces to a Keller map with "
          f"nilpotent J(H), both exact ({note})")


# -- criterion 6: the one-variable extension determinant identity -------------


def test_criterion_06_segre_identity():
    checked = outside = 0
    for e in corpus():
        f = e.document.to_polymap()
        if f.n_in > 4:
            continue
        try:
            g, _ = segre_step(f)
        except ValueError:
            outside += 1      # not identity + quadratic + cubic
            continue
        n = f.n_in
        jg = jacobian_det(g)
        t = Poly.variable(n + 1, n)
        scaled = [Poly.variable(n + 1, i) * t for i in range(n)]
        assert jg == jacobian_det(f).substitute(scaled), e.id
        checked += 1
    assert checked >= 18, f"only {checked} corpus maps admit the extension"
    print(f"criterion 6: j(G)(x,t) = j(F)(tx) exactly on {checked} corpus "
          f"maps of dimension <= 4 ({outside} are outside the extension's domain)")


# -- criterion 7: symmetrization ----------------------------------------------


def test_criterion_07_meng():
    # the curated and cubic homogeneous entries, Pinchuk included; the
    # random degree-4..6 maps belong to the degree-lowering criterion and
    # their doubled determinants cost minutes without adding coverage here
    entries = corpus("curated") + corpus("yagzhev")
    checked = 0
    for e in entries:
        f = e.document.to_polymap()
        n = f.n_in
        assert n <= 4
        g, _, _ = meng_symmetrize(f)
        jac = jacobian(g)
        assert all(jac[i][k] == jac[k][i]
                   for i in range(2 * n) for k in range(i)), e.id
        jf = jacobian_det(f)
        jg = jacobian_det(g)
        shifted = [Poly.variable(2 * n, n + i) for i in range(n)]
        rhs = jf.substitute(shifted)
        assert jg == (rhs * rhs).scale((-1) ** n), e.id
        keller_f = jf.is_constant() and not jf.is_zero()
        keller_g = jg.is_constant() and not jg.is_zero()
        assert keller_f == keller_g, e.id
        checked += 1
    assert checked >= 20
    print(f"criterion 7: J(G) symmetric, j(G) = (-1)^n j(F)(v)^2, and "
          f"Keller preserved, all exact, on {checked} corpus maps with n <= 4")


# -- criterion 8: pairing round trip ------------------------------------------


def test_criterion_08_gz_round_trip():
    checked = 0
    for e in corpus():
        g = e.document.to_polymap()
        if g.n_in > 4 or not is_yagzhev(g):
            continue
        p = pair_up(g)
        rep = verify_pairing(p)
        assert rep.ok, (e.id, rep.issues)
        back = pair_down(p.F.to_polymap(), p.A)
        assert back.G == p.G and back.B == p.B and back.C == p.C, e.id
        crep = verify_certificate(pairing_to_equivalence(p))
        assert crep.ok, (e.id, crep.issues)
        checked += 1
    assert checked >= 10, f"only {checked} cubic homogeneous corpus maps"
    print(f"criterion 8: pair_up / pair_down round trip, all axioms, and "
          f"equivalence certificates exact on {checked} maps")


# -- criterion 9: small fiber oracles -----------------------------------------


def test_criterion_09_small_attribute_oracles():
    rep = mfs_sample(_map("cube-x"), seed=0, samples=50)
    assert rep.dex == 3
    assert rep.mfs_observed == 1
    assert rep.dex % 2 == 1 and rep.mfs_observed % 2 == 1
    assert rep.parity_consistent
    assert dex2(_map("identity2")) == 1
    print("criterion 9: dex((x^3, y)) = 3 with mfs_observed = 1 (both odd, "
          "parity consistent); dex(identity) = 1")


# -- criterion 10: degree lowering on the random corpus -----------------------


def _potential(g):
    d = g.degree()
    count = sum(1 for c in g.components for mono in c.terms
                if sum(e for _, e in mono) == d)
    return (d, count)


def test_criterion_10_degree_lowering():
    checked = 0
    for e in corpus("random"):
        f = e.document.to_polymap()
        g, cert = lower_degree(f)
        assert g.degree() <= 3, e.id
        assert verify_certificate(cert).ok, e.id
        # each splitting round is three moves; the (max degree,
        # terms at max) pair must drop strictly round over round
        stops = itertools.accumulate(cert.moves, apply_move, initial=cert.source)
        pots = [_potential(g) for g in list(stops)[::3]]
        for a, b in zip(pots, pots[1:]):
            assert b < a, (e.id, pots)
        checked += 1
    assert checked == 9
    print(f"criterion 10: degree <= 3, strictly decreasing potential, and "
          f"valid certificates on {checked} random maps")


# -- criterion 11: parser round trip -------------------------------------------


def _random_poly(rng, n, maxdeg):
    p = Poly.zero(n)
    for _ in range(rng.randrange(1, 7)):
        mono = Poly.const(n, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for v in range(n):
            mono = mono * Poly.variable(n, v) ** rng.randrange(0, maxdeg + 1)
        p = p + mono
    return p


def test_criterion_11_parser_round_trip():
    for e in corpus():
        assert parse_map(print_map(e.document)) == e.document, e.id
    rng = random.Random("acceptance:crit11:0")
    for k in range(1000):
        n = rng.randrange(1, 5)
        names = default_var_names(n)
        p = _random_poly(rng, n, 3)
        assert parse_expression(poly_text(p, names), names) == p, k
    print(f"criterion 11: parse(print(.)) exact on {len(corpus())} corpus "
          f"documents and 1000 seeded random polynomials")


# -- criterion 12: determinism --------------------------------------------------


def _seeded_snapshot():
    snap = {}
    rep = mfs_sample(_map("cube-x"), seed=3, samples=25)
    snap["cube-attrs"] = attribute_report_to_json(rep)

    j = jacobian_det(_map("pinchuk"))
    L, items = j.content_and_integer_terms()
    d = j.degree()
    rng = random.Random("acceptance:crit3:0")
    signs = [1 if eval_scaled_int(items, nums, den, d) > 0 else -1
             for nums, den in sample_points(rng, 2, 2000, 200)]
    snap["sign-prefix"] = signs

    g, trace = to_yagzhev(_map("pinchuk"))
    snap["pinchuk-cert"] = certificate_to_json(trace.certificate)
    snap["pinchuk-dims"] = list(trace.stage_dims)

    g5, _ = to_yagzhev(_map("yagzhev-2d-a"))
    snap["keller-output"] = print_map(polymap_to_document(g5))

    g6, _ = segre_step(_map("mixed-3d"))
    snap["segre"] = print_map(polymap_to_document(g6))

    g7, _, h7 = meng_symmetrize(_map("cube-x"))
    snap["meng"] = [print_map(polymap_to_document(g7)),
                    poly_text(h7, default_var_names(g7.n_in))]

    snap["gz"] = pairing_to_json(pair_up(_map("yagzhev-3d-a")))

    _, cert10 = lower_degree(_map("random-d5-n2"))
    snap["lower"] = certificate_to_json(cert10)

    _, small = to_yagzhev(_map("plane-quad"))
    fib = fiber_transport_check(small.certificate, seed=7, samples=5)
    snap["fiber"] = cert_report_to_json(verify_certificate(small.certificate),
                                        fib)

    snap["corpus-print"] = {e.id: print_map(e.document) for e in corpus()}
    return snap


def test_criterion_12_determinism():
    first = json.dumps(_seeded_snapshot(), sort_keys=True)
    second = json.dumps(_seeded_snapshot(), sort_keys=True)
    assert first == second, "seeded outputs differ between identical runs"
    # the flagship report reproduces byte for byte as well
    text, _, _ = _pinchuk_attributes()
    _pinchuk_attributes.cache_clear()
    text2, _, _ = _pinchuk_attributes()
    assert text == text2
    print("criterion 12: seeded snapshots and the pinchuk attribute report "
          "reproduce byte for byte")
