"""Poly coefficients are ints when integral and Fractions otherwise.

Two checks.  Every Poly that the reduction commands build over the
corpus stores no float and no Fraction whose denominator is 1.  And the
ring operations, substitute, exact_divide, derive, eval_at and
linear_cube agree term for term with tests/oracles.py's FractionPoly,
the Fraction-only Poly they replaced.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionPoly, from_terms, unsettled_coefficients
from polyred import cli
from polyred.examples import corpus
from polyred.poly import ExactDivisionError, Poly, as_coeff, linear_cube, qdiv
from polyred.textio import certificate_from_json


def test_qdiv_never_gives_a_float():
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(-6, 4) == Fraction(-3, 2)
    assert qdiv(1, -3) == Fraction(-1, 3)
    assert type(qdiv(Fraction(3, 2), Fraction(1, 2))) is int
    assert qdiv(Fraction(3, 2), 2) == Fraction(3, 4)
    assert type(qdiv(4, Fraction(2, 3))) is int
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)


def test_as_coeff_stores_integral_values_as_ints():
    assert type(as_coeff(Fraction(4, 2))) is int
    assert type(as_coeff(True)) is int
    assert as_coeff("3/6") == Fraction(1, 2)
    assert type(as_coeff(5)) is int


def test_integral_results_of_fractions_become_ints():
    x = Poly.variable(1, 0)
    half = x.scale(Fraction(1, 2))
    for p in (half + half, half * Poly.const(1, 2), half.scale(2),
              (x * x).scale(Fraction(1, 2)).derive(0),
              half.substitute([Poly.const(1, 4)]),
              (x * x).scale(Fraction(1, 3)).exact_divide(x.scale(Fraction(1, 3))),
              linear_cube(x.scale(Fraction(2, 3))).scale(Fraction(27, 8))):
        assert not unsettled_coefficients(p), p.terms
        assert all(type(c) is int for c in p.terms.values())


def _commands():
    """The corpus calls whose Polys are checked, and which write a certificate."""
    calls = []
    for e in corpus():
        calls.append((["analyze", e.id, "--json"], False))
        calls.append((["reduce", e.id, "--to", "yagzhev"], True))
        calls.append((["symmetrize", e.id], True))
        if e.document.metadata.get("class") == "yagzhev":
            calls.append((["pair-up", e.id, "--json"], False))
    return calls


def test_corpus_runs_store_only_ints_and_proper_fractions(tmp_path, monkeypatch):
    """Each Poly built while the corpus is analyzed, reduced to Yagzhev
    form, symmetrized and paired up, and while each certificate written
    is decoded, is checked as it is constructed."""
    bad = []
    init = Poly.__init__

    def checked_init(self, varcount, terms=None):
        init(self, varcount, terms)
        if set(map(type, self.terms.values())) - {int}:
            bad.extend(unsettled_coefficients(self))

    monkeypatch.setattr(Poly, "__init__", checked_init)
    certs = 0
    for argv, writes in _commands():
        cert = tmp_path / "cert.json"
        if writes:
            argv = argv + ["--out", str(tmp_path / "out.map"), "--cert", str(cert)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        if writes and cert.exists():
            certificate_from_json(json.loads(cert.read_text()))
            cert.unlink()
            certs += 1
        assert not bad, (argv, bad[:5])
    assert certs > 40


coeffs = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9),
                                                 st.integers(1, 4)))


def polys(varcount, min_terms=0, max_terms=4, max_exp=2):
    """Polys whose coefficients mix ints, integral Fractions and proper ones."""
    exps = st.lists(st.integers(0, max_exp), min_size=varcount, max_size=varcount)
    return st.dictionaries(exps.map(tuple), coeffs, min_size=min_terms,
                           max_size=max_terms).map(lambda d: from_terms(varcount, d))


def same(p, ref, ordered=True):
    """p equals the Fraction-only result term for term, in the same
    insertion order unless told otherwise, and stores its coefficients
    by the rule."""
    assert isinstance(ref, FractionPoly)
    assert all(type(c) is Fraction for c in ref.terms.values())
    if ordered:
        assert list(p.terms.items()) == list(ref.terms.items())
    assert p.terms == ref.terms
    assert not unsettled_coefficients(p)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ring_operations_match_fraction_only_poly(data):
    n = data.draw(st.integers(1, 3))
    a, b = (data.draw(polys(n, max_terms=5, max_exp=3)) for _ in range(2))
    fa, fb = FractionPoly.of(a), FractionPoly.of(b)
    c = data.draw(coeffs)
    k = data.draw(st.integers(0, 4))
    same(a + b, fa + fb)
    same(a - b, fa - fb)
    same(-a, -fa)
    same(a * b, fa * fb)
    same(a.scale(c), fa.scale(c))
    same(a ** k, fa ** k)
    for v in range(n):
        same(a.derive(v), fa.derive(v))
    point = data.draw(st.lists(coeffs, min_size=n, max_size=n))
    value = a.eval_at(point)
    assert value == fa.eval_at(point)
    assert type(value) is not float
    if all(type(c) is int for c in list(point) + list(a.terms.values())):
        assert type(value) is int


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_and_exact_divide_match_fraction_only_poly(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, max_terms=5, max_exp=3))
    images = data.draw(st.lists(polys(m, max_terms=3), min_size=n, max_size=n))
    same(p.substitute(images), FractionPoly.of(p).substitute([FractionPoly.of(g) for g in images]))
    a = data.draw(polys(n, max_terms=5, max_exp=2))
    b = data.draw(polys(n, 1, 4, max_exp=2).filter(lambda q: not q.is_zero()))
    for dividend in (a * b, a * b + data.draw(polys(n, 1, 2, max_exp=3))):
        try:
            want = FractionPoly.of(dividend).exact_divide(FractionPoly.of(b))
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                dividend.exact_divide(b)
            continue
        # a one-term divisor divides term by term, in the dividend's order
        same(dividend.exact_divide(b), want, ordered=len(b.terms) > 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_cube_matches_fraction_only_cube(data):
    n = data.draw(st.integers(1, 5))
    form = Poly(n, {((v, 1),): as_coeff(c) for v in range(n)
                    if (c := data.draw(coeffs))})
    cube = linear_cube(form)
    ref = FractionPoly.of(form) ** 3
    assert cube.terms == ref.terms
    assert not unsettled_coefficients(cube)
