"""Text format and JSON codecs: grammar, errors, round-trips."""

import contextlib
import io
import json
import random
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (affine_maps, from_terms, parse_by_poly_arithmetic, parse_by_terms,
                     permutation_by_maps, permutation_by_parsing, poly_line_by_routes,
                     read_expression_by_routes, vars_line_by_routes)
from polyred import cli, grammar, poly, textio
from polyred.affine import AffineAutomorphism
from polyred.certs import (MOVES, Automorphism, Certificate, RationalMap, ShearAutomorphism,
                           fiber_transport_check, verify_certificate)
from polyred.examples import builtin_example, builtin_ids, corpus
from polyred.linalg import RatMatrix
from polyred.maps import DEFAULT_BUDGET, PolyMap
from polyred.poly import Poly
from polyred.reduce import to_yagzhev
from polyred.textio import (MAX_EXPONENT, MAX_NESTING, MapDocument, ParseError,
                            automorphism_from_json, automorphism_to_json,
                            certificate_from_json, certificate_to_json,
                            default_var_names, matrix_from_json,
                            move_from_json, move_to_json, parse_expression,
                            parse_map, poly_text, polymap_to_document,
                            print_map)


def _expr(text, variables=("x", "y")):
    return parse_expression(text, variables)


# -- expressions -------------------------------------------------------------


def test_expression_basics():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert _expr("x + y") == x + y
    assert _expr("x*y^2 - 3") == x * y ** 2 - Poly.const(2, 3)
    assert _expr("-x + 2/3") == -x + Poly.const(2, Fraction(2, 3))
    assert _expr("(x + y)^3") == (x + y) ** 3
    assert _expr("2 * (x - 1) * (x + 1)") == (x ** 2 - Poly.const(2, 1)).scale(2)


def test_expression_whitespace_and_comments():
    assert _expr("  x +\ty  # trailing") == _expr("x+y")


def test_minus_binds_like_subtraction():
    # -x^2 means -(x^2); a - b - c associates left
    x = Poly.variable(2, 0)
    assert _expr("-x^2") == -(x ** 2)
    assert _expr("6 - 3 - 2") == Poly.const(2, 1)


def _fails_at(text, line, col, fragment, variables=("x", "y")):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, variables)
    err = exc.value
    assert err.line == line and err.col == col, (err.line, err.col, str(err))
    assert fragment in err.message


def test_error_unexpected_character():
    _fails_at("x + $", 1, 5, "unexpected character")


def test_error_negative_exponent():
    _fails_at("x^-2", 1, 3, "negative exponents")


def test_error_missing_exponent():
    _fails_at("x^y", 1, 3, "integer exponent")


def test_error_zero_denominator():
    _fails_at("1/0 + x", 1, 3, "zero denominator")


def test_error_digit_int_cannot_read():
    # '²' is a digit to str.isdigit but not a decimal int() reads
    _fails_at("x^²", 1, 3, "unexpected character '²'")
    _fails_at("x + 3²", 1, 6, "unexpected character '²'")
    _fails_at("x + ²", 1, 5, "unexpected character '²'")
    assert _expr("٣*x") == _expr("3*x")


def test_error_undeclared_variable():
    _fails_at("x + z", 1, 5, "undeclared variable 'z'")


def test_error_implicit_multiplication():
    _fails_at("2x", 1, 2, "unexpected token 'x'")


def test_error_unbalanced_paren():
    _fails_at("(x + y", 1, 7, "expected ')'")


def test_error_nesting_too_deep():
    deep = MAX_NESTING + 1
    _fails_at("(" * deep + "x" + ")" * deep, 1, deep,
              f"parentheses nest deeper than {MAX_NESTING}")
    assert _expr("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == _expr("x")


def test_error_exponent_too_big():
    x = Poly.variable(2, 0)
    assert _expr(f"x^{MAX_EXPONENT}") == x ** MAX_EXPONENT
    assert _expr(f"y*x^000{MAX_EXPONENT}") == _expr(f"x^{MAX_EXPONENT}*y")
    fragment = f"exponent exceeds {MAX_EXPONENT}"
    _fails_at(f"x^{MAX_EXPONENT + 1}", 1, 3, fragment)
    _fails_at("1 + (x + y)^99999999999999999999", 1, 13, fragment)
    # longer than the digit strings int() converts by default
    _fails_at("x^" + "9" * 5000, 1, 3, fragment)


def test_error_literal_too_long():
    # int() refuses digit strings longer than sys.get_int_max_str_digits()
    big = "9" * 5000
    assert _expr("9" * 4000 + " + x") == (
        Poly.variable(2, 0) + Poly.const(2, int("9" * 4000)))
    _fails_at(f"x + {big}", 1, 5, "integer literal of 5000 digits is too long")
    _fails_at(f"x + 1/{big}", 1, 7, "too long")
    _fails_at(f"{big}/2*y", 1, 1, "too long")


def test_map_with_huge_exponent_fails_at_its_position():
    with pytest.raises(ParseError) as exc:
        parse_map("vars x\npoly p = x^99999999999999999999\n")
    assert (exc.value.line, exc.value.col) == (2, 12)


def test_error_empty_expression():
    _fails_at("", 1, 1, "expected a value")


def test_error_trailing_operator():
    _fails_at("x +", 1, 4, "expected a value")


def test_parse_error_message_carries_position():
    try:
        parse_expression("x ? y", ("x", "y"), lineno=7)
    except ParseError as e:
        assert str(e) == "line 7, col 3: unexpected character '?'"
    else:
        pytest.fail("no error raised")


# -- the parser against Poly arithmetic ----------------------------------------


def _outcome(parse, text, varmap, varcount, lineno=1):
    """A parse's Poly as (varcount, [(monomial, coefficient, its type)]),
    in term order, or its ParseError as (message, line, col)."""
    try:
        p = parse(text, varmap, varcount, lineno)
    except ParseError as e:
        return e.message, e.line, e.col
    return p.varcount, [(m, c, type(c)) for m, c in p.terms.items()]


def _by_poly_arithmetic(text, varmap, varcount, lineno):
    # the old parser knows no varcount: it sees only the names below it
    return parse_by_poly_arithmetic(
        text, {name: i for name, i in varmap.items() if i < varcount}, lineno)


XY = ({"x": 0, "y": 1}, 2)


def _assert_parsers_agree(text, cases, lineno=1):
    """Same terms, order and types, or the same error, for each (varmap,
    varcount) case: from Poly arithmetic, from the oracle's lexer and
    term-building parser, and from the one reader."""
    for varmap, varcount in cases:
        want = _outcome(_by_poly_arithmetic, text, varmap, varcount, lineno)
        assert _outcome(parse_by_terms, text, varmap, varcount, lineno) == want, text
        assert _outcome(grammar.read_expression, text, varmap, varcount, lineno) == want, text


def _expressions(names):
    atoms = st.sampled_from(names * 3 + ["0", "1", "2", "7", "1/2", "3/4", "4/2", "0/3"])

    def extend(inner):
        factor = st.one_of(inner, inner.map(lambda e: f"({e})"))
        powered = st.tuples(factor, st.sampled_from(["", "", "^0", "^1", "^2", "^3"]))
        term = st.lists(powered.map("".join), min_size=1, max_size=3).map("*".join)
        ops = st.lists(st.sampled_from([" + ", " - "]), min_size=4, max_size=4)
        return st.tuples(st.sampled_from(["", "-"]), st.lists(term, min_size=2, max_size=5),
                         ops).map(lambda t: t[0] + t[1][0] + "".join(
                             op + term for op, term in zip(t[2], t[1][1:])))

    return st.recursive(atoms, extend, max_leaves=8)


SOUP = ["x", "y", "z", "x1", "x5", "x6", "x7", "é", "x²", "٣", "²", "_", "0", "1", "3",
        "12345678901234567890", "/", "+", "-", "*", "^", "(", ")", "^0", "^2",
        f"^{MAX_EXPONENT + 1}", "^-1", " ", "\t", "#", "$", "=",
        "\u3000", "\xa0", "\x0b", "\n", "  ", " + ", " - ", "^01", "007", "1/0", "x^1000"]


def _texts(names):
    expressions = _expressions(names)
    return st.one_of(st.text(max_size=20), expressions, expressions,
                     st.lists(st.sampled_from(SOUP), max_size=12).map("".join))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_texts(["x", "y"] * 3 + ["z"]).map(lambda t: (t, False)),
                 _texts(["x1", "x4", "x5"] * 2 + ["x6"]).map(lambda t: (t, True))),
       st.integers(1, 3))
def test_parser_matches_poly_arithmetic(case, lineno):
    """Arbitrary text, token soup and well-formed expressions, over x, y
    and over the shared table of default names handed a dim of 5 (x6 and
    x7 are in the table but undeclared)."""
    text, table = case
    names = (textio._default_names(7)[1], 5) if table else XY
    _assert_parsers_agree(text, [names], lineno)


def test_parser_matches_poly_arithmetic_at_the_edges():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    for text in ["0^0", "(x - x)^0", "(x + y)^0", "0^3*(x + y)", "(x + y)*0", "x*0 + y",
                 "0*(x + y)^3 - x", "2*x*(y + 1)*3", "(x + 1)*(x - 1)*2*(y + 1)", "1/2*2*x",
                 "4/2*x - 1/3*y*3", "1/2*x*y + 1/2*y*x", "1/2 + 1/2 - y", "1/2*x + 1/2*x",
                 "x + y - y", "x - x + x", "x*x*y^0*x1", "(x)", "x^1",
                 "1*x", "-x + 2*x", "-(x - y)^2 + (x + y)^2*(x - y)", "x1*x5^2 - x5^2*x1",
                 "x6", "x7", deep, "(" + deep + ")", f"x^{MAX_EXPONENT}*y^0",
                 f"y*x^000{MAX_EXPONENT}", f"x^{MAX_EXPONENT + 1}",
                 f"(x + y)^{MAX_EXPONENT + 1}", "9" * 5000 + "*x"]:
        _assert_parsers_agree(text, [XY, (textio._default_names(7)[1], 5)])


def test_bare_variable_is_the_shared_instance():
    for text in ["x", " (y) ", "x^1", "1*x", "((x))"]:
        p = parse_expression(text, ("x", "y"))
        assert p is Poly.variable(2, next(iter(p.terms))[0][0]), text


# -- documents ---------------------------------------------------------------

GOOD_DOC = """\
# a plane map
vars x y
meta class demo
poly p = x + y^2
poly q = y
"""


def test_parse_map_basic():
    doc = parse_map(GOOD_DOC)
    assert doc.variables == ("x", "y")
    assert doc.names() == ["p", "q"]
    assert doc.metadata == {"class": "demo"}
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert doc.to_polymap() == PolyMap([x + y ** 2, y])


def _doc_fails(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert exc.value.line == line, str(exc.value)
    assert fragment in exc.value.message


def test_doc_error_missing_vars():
    _doc_fails("poly p = 1\n", 1, "vars line must come before")


def test_doc_error_no_vars_at_all():
    _doc_fails("# nothing here\n", 2, "missing vars line")


def test_doc_error_no_components():
    _doc_fails("vars x\n", 2, "no components")


def test_doc_error_duplicate_vars_line():
    _doc_fails("vars x\nvars y\npoly p = x\n", 2, "duplicate vars line")


def test_doc_error_duplicate_variable():
    _doc_fails("vars x x\n", 1, "duplicate variable 'x'")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z", "x1", "x10", "t_2"]), min_size=1, max_size=12))
def test_vars_line_reports_the_first_repeated_name(names):
    text = "vars " + " ".join(names) + "\npoly p = 1\n"
    seen = []
    for k, name in enumerate(names):
        if name in seen:
            col = len("vars ") + sum(len(n) + 1 for n in names[:k]) + 1
            with pytest.raises(ParseError) as exc:
                parse_map(text)
            assert (exc.value.message, exc.value.line, exc.value.col) == (
                f"duplicate variable '{name}'", 1, col)
            return
        seen.append(name)
    assert parse_map(text).variables == tuple(names)


def test_long_vars_line_keeps_order_and_finds_a_late_duplicate():
    names = [f"x{i + 1}" for i in range(497)]
    doc = parse_map("vars " + " ".join(names) + "\npoly p = x497\n")
    assert doc.variables == tuple(names)
    assert doc.to_polymap().components[0] is Poly.variable(497, 496)
    line = "vars " + " ".join(names + ["x3"])
    with pytest.raises(ParseError) as exc:
        parse_map(line + "\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "duplicate variable 'x3'", 1, len(line) - 1)


def test_doc_error_reserved_variable():
    _doc_fails("vars x poly\n", 1, "reserved word")


def test_doc_error_duplicate_component():
    _doc_fails("vars x\npoly p = x\npoly p = x^2\n", 3, "duplicate component 'p'")


def test_doc_error_missing_equals():
    _doc_fails("vars x\npoly p x\n", 2, "expected '='")


def test_doc_error_unknown_directive():
    _doc_fails("vars x\nfoo bar\n", 2, "unknown directive 'foo'")


def test_doc_error_meta_needs_value():
    _doc_fails("vars x\nmeta only\npoly p = x\n", 2, "meta needs a key and a value")


def test_doc_error_duplicate_meta():
    _doc_fails("vars x\nmeta k 1\nmeta k 2\npoly p = x\n", 3, "duplicate meta key")


# -- canonical printing --------------------------------------------------------


def test_poly_text_canonical_forms():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert poly_text(Poly.zero(2), ("x", "y")) == "0"
    assert poly_text(-x + y, ("x", "y")) == "y - x" or \
        poly_text(-x + y, ("x", "y")) == "-x + y"
    assert poly_text(x * x * y.scale(-1), ("x", "y")) == "-x^2*y"
    assert poly_text(x.scale(Fraction(1, 2)), ("x", "y")) == "1/2*x"


def poly_text_oracle(p, names):
    """poly_text as it was when it formatted through Fraction: abs, a
    comparison with 1 and str() of the magnitude."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = []
        if mag != 1 or not mono:
            factors.append(str(mag))
        for v, e in mono:
            factors.append(names[v] if e == 1 else f"{names[v]}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


_coeffs = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(1), Fraction(1, 2), Fraction(-1, 2)]),
    st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeffs,
                       max_size=6))
def test_poly_text_matches_fraction_formatting(terms):
    # the (0, 0) key is the constant term; it prints its coefficient even at 1
    p = from_terms(2, terms)
    assert poly_text(p, ("x", "y")) == poly_text_oracle(p, ("x", "y"))


def test_poly_text_units_halves_and_constants():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    names = ("x", "y")
    cases = [
        (-x, "-x"),
        (x.scale(Fraction(-1, 2)) + y.scale(Fraction(1, 2)), "-1/2*x + 1/2*y"),
        (x - y + Poly.const(2, -1), "x - y - 1"),
        (Poly.const(2, 1), "1"),
        (Poly.const(2, -1), "-1"),
        (Poly.const(2, Fraction(-1, 2)), "-1/2"),
        (x * y.scale(Fraction(-7, 3)) + Poly.const(2, Fraction(1, 2)), "-7/3*x*y + 1/2"),
    ]
    for p, text in cases:
        assert poly_text(p, names) == text
        assert poly_text_oracle(p, names) == text


def test_print_parse_identity_on_builtins():
    for eid in builtin_ids():
        doc = builtin_example(eid).document
        assert parse_map(print_map(doc)) == doc, eid


def test_default_var_names():
    assert default_var_names(2) == ("x", "y")
    assert default_var_names(3) == ("x", "y", "z")
    assert default_var_names(4) == ("x1", "x2", "x3", "x4")


def test_polymap_to_document_defaults():
    f = PolyMap([Poly.variable(2, 1), Poly.variable(2, 0)])
    doc = polymap_to_document(f)
    assert doc.variables == ("x", "y")
    assert doc.names() == ["f1", "f2"]
    assert doc.to_polymap() == f


def _random_poly(rng, n, maxdeg):
    p = Poly.zero(n)
    for _ in range(rng.randrange(1, 7)):
        mono = Poly.const(n, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for v in range(n):
            mono = mono * Poly.variable(n, v) ** rng.randrange(0, maxdeg + 1)
        p = p + mono
    return p


def test_random_polynomials_round_trip():
    rng = random.Random("textio-roundtrip:0")
    for k in range(250):
        n = rng.randrange(1, 5)
        names = default_var_names(n)
        p = _random_poly(rng, n, 3)
        assert parse_expression(poly_text(p, names), names) == p, k


_idents = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in ("vars", "poly", "meta"))
_meta_words = st.from_regex(r"[A-Za-z0-9=#/.,:()*+-]{1,8}", fullmatch=True)


@st.composite
def map_documents(draw):
    variables = draw(st.lists(_idents, min_size=1, max_size=4, unique=True))
    n = len(variables)
    names = draw(st.lists(_idents, min_size=1, max_size=4, unique=True))
    exponent = st.one_of(st.integers(0, 4), st.just(MAX_EXPONENT))
    comps = []
    for name in names:
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            exps = tuple(draw(exponent) for _ in range(n))
            terms[exps] = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 12)))
        comps.append((name, from_terms(n, terms)))
    meta = draw(st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_-]{0,8}", fullmatch=True).filter(lambda s: s != "meta"),
        st.lists(_meta_words, min_size=1, max_size=3).map(" ".join), max_size=3))
    return MapDocument(tuple(variables), tuple(comps), meta)


@settings(max_examples=200, deadline=None)
@given(map_documents())
def test_parse_inverts_print(doc):
    assert parse_map(print_map(doc)) == doc


# -- the one reader against the two-route oracle -------------------------------------


@contextlib.contextmanager
def _oracle_reader():
    """textio with the oracle's two-route reader in place of grammar's, so
    that its canonical route or its lexer and parser read every vars
    line, poly line and expression."""
    with mock.patch.object(textio, "read_expression", read_expression_by_routes), \
            mock.patch.object(textio, "vars_line", vars_line_by_routes), \
            mock.patch.object(textio, "poly_line", poly_line_by_routes):
        yield


def _read(text, varmap, varcount, lineno=1):
    """grammar.read_expression as textio holds it, which _oracle_reader
    replaces."""
    return textio.read_expression(text, varmap, varcount, lineno)


def _shape(p):
    """A Poly's variable count, its terms in order with their coefficient
    types, and whether it is Poly.variable's shared instance."""
    shared = poly._VARIABLES.get((p.varcount, min(p.variables_used(), default=-1)))
    return p.varcount, [(m, c, type(c)) for m, c in p.terms.items()], p is shared


def _assert_routes_agree(shape, read, *args):
    """shape(read(*args)), or its error's type and text (a ParseError's
    text holds its message, line and column), is the same from the one
    reader as from the oracle's."""
    def outcome():
        try:
            return shape(read(*args))
        except ValueError as e:
            return type(e), str(e)

    got = outcome()
    with _oracle_reader():
        assert got == outcome(), args


def _near_canonical(names):
    """Expressions as the printer writes them, with coefficients and
    exponents the parser reads differently or refuses, some with one
    piece of SOUP spliced in."""
    coeff = st.sampled_from(["", "", "", "0*", "1*", "2*", "12*", "1/2*", "3/4*", "4/2*",
                             "0/3*", "007*", "1/0*", "2/06*", "9" * 5000 + "*"])
    power = st.sampled_from(["", "", "", "^0", "^1", "^2", "^3", "^00", "^01",
                             f"^{MAX_EXPONENT}", f"^{MAX_EXPONENT + 1}", "^99999"])
    mono = st.lists(st.tuples(st.sampled_from(names), power).map("".join),
                    min_size=1, max_size=4).map("*".join)
    term = st.one_of(st.tuples(coeff, mono).map("".join), mono,
                     st.sampled_from(["0", "1", "5", "1/2", "2/3", "4/2", "0/7", "1/0", "03"]))
    expr = st.tuples(st.sampled_from(["", "", "-"]), st.lists(term, min_size=1, max_size=5),
                     st.lists(st.sampled_from([" + ", " - "]), min_size=4, max_size=4)).map(
        lambda t: t[0] + t[1][0] + "".join(op + term for op, term in zip(t[2], t[1][1:])))
    spliced = st.tuples(expr, st.integers(0, 60), st.sampled_from(SOUP)).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])
    return st.one_of(expr, expr, spliced)


_XYZ_NAMES = ["x", "y"] * 3 + ["z"]
_TABLE_NAMES = ["x1", "x4", "x5"] * 2 + ["x6", "x7"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_texts(_XYZ_NAMES).map(lambda t: (t, False)),
                 _near_canonical(_XYZ_NAMES).map(lambda t: (t, False)),
                 _texts(_TABLE_NAMES).map(lambda t: (t, True)),
                 _near_canonical(_TABLE_NAMES).map(lambda t: (t, True))),
       st.integers(1, 3))
def test_one_reader_matches_the_oracle(case, lineno):
    """The same terms, order, coefficient types and shared variables, or
    the same ParseError, from the one reader and from the oracle's two
    routes; over x, y and over the default names at dim 5 (x6 and x7
    undeclared)."""
    text, table = case
    varmap, varcount = (textio._default_names(7)[1], 5) if table else XY
    _assert_routes_agree(_shape, _read, text, varmap, varcount, lineno)


def test_one_reader_matches_the_oracle_at_the_edges():
    many = "*".join(["x"] * 70)  # more factors than the whole-term regex takes
    for text in ["0", "-0", "x", "-x", "x^1", "1*x", "x - x + x", "x + y - y", "x^0", "x^0*y",
                 "y*x", "x*x", "1/2*x + 1/2*x", "1/2*x*y + 1/2*x*y", "1/2 + 1/2",
                 "3/4*x^2 - 1/4*x^2", "4/2*x", "0*z + x", "x*y - y*x + 1", "--x",
                 "x - -y", "x +  y", " x", "x ", "- x", "x-y", "x+y", "2x", "x*2", "x^",
                 "x^-1", "1/0*x", "0/5", many, "1*" + many, f"x^{MAX_EXPONENT}",
                 f"x^{MAX_EXPONENT + 1}", "9" * 5000 + "*x", "9" * 5000,
                 "x\u3000+ y", "x\xa0+ y", "x\x0b", "é", "x + ٣", "x²", "x #c", "x\t+ y",
                 # a stray character later in the line is reported first
                 "x + + $", "x ) ²", "(x $", "x^y \u3000"]:
        for varmap, varcount in [XY, ({"x": 0, "y": 1, "z": 2}, 2)]:
            _assert_routes_agree(_shape, _read, text, varmap, varcount)


def _doc_shape(doc):
    return doc.variables, [(name, _shape(p)) for name, p in doc.components], doc.metadata


def _lines(names):
    exprs = st.one_of(_near_canonical(names), _texts(names))
    declared = st.lists(st.sampled_from(names + ["vars", "poly", "meta", "é", "x²", "2x"]),
                        max_size=4)
    vars_lines = st.one_of(declared.map(lambda ns: "vars " + " ".join(ns)),
                           st.sampled_from(["vars", "vars  x y", "vars x\ty", "vars x y ",
                                            "vars x # c", " vars x y", "\u3000vars x y",
                                            "vars\xa0x y"]))
    component = st.sampled_from(["f1", "f2", "p", "poly", "meta", "é"])
    heads = st.one_of(component.map(lambda c: f"poly {c} = "),
                      st.sampled_from(["poly f1=", "poly  f2 = ", "poly f1 =  ", "poly f2 =",
                                       "poly = ", "poly 1 = ", " poly f3 = ", "\u3000poly f3 = ",
                                       "poly\xa0f3 = ", "\tpoly f3 = "]))
    poly_lines = st.tuples(heads, exprs).map("".join)
    others = st.sampled_from(["", "# c", "meta k v", "meta k", "bogus x", "  "])
    return st.one_of(vars_lines, poly_lines, poly_lines, poly_lines, others)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_lines(_XYZ_NAMES), max_size=6),
                 st.lists(_lines(_TABLE_NAMES[:4]), max_size=6)),
       st.booleans())
def test_one_reader_matches_the_oracle_on_documents(lines, vars_first):
    """parse_map with the one reader and with the oracle's two routes for
    vars lines, poly heads and expressions: duplicate and reserved names,
    poly lines before the vars line, Unicode whitespace, tabs, double
    spaces and comments give the same document or the same ParseError."""
    if vars_first:
        lines = ["vars x y z x1 x4 x5 x6"] + lines
    _assert_routes_agree(_doc_shape, parse_map, "\n".join(lines))


def test_one_reader_matches_the_oracle_on_documents_at_the_edges():
    for text in ["vars x y\npoly f1 = x", "vars x x\npoly f1 = x", "vars x x", "vars x poly",
                 "vars é\npoly f1 = é", "vars x 2x", "vars x y\nvars z", "poly f1 = x\nvars x",
                 "vars x\npoly f1 = x\npoly f1 = x", "vars x\npoly vars = x",
                 "vars x\npoly meta = x", "vars x\n\u3000poly f1 = x", "\u3000vars x\npoly f1 = x",
                 "vars x\npoly f1 = x # c", "vars x\npoly f1=x", "vars x\npoly  f1 = x",
                 "vars x\npoly f1 =  x", "vars x\npoly f1 = ", "vars x y \npoly f1 = y",
                 "vars  x\npoly f1 = x", "vars x\tz\npoly f1 = z", "vars x\npoly f1 = y",
                 "vars x\npoly é = x", "vars x\npoly f1 = 2x", "vars x y\npoly f1 = y\x0bx",
                 # a stray character later in the line is reported first
                 "vars x x $", "vars x\nvars y $", "vars x\npoly vars = $", "vars x\npoly f1 x $",
                 "poly f1 = x $\nvars x"]:
        _assert_routes_agree(_doc_shape, parse_map, text)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6),
       st.dictionaries(st.sampled_from(["0", "1", "2", "4", "5", "01"]),
                       st.one_of(_near_canonical(["x", "y", "z", "x1", "x2", "x5", "x6"]),
                                 _texts(["x", "y", "x1", "x5", "x6"])), max_size=3))
def test_one_reader_matches_the_oracle_on_shear_addends(dim, addends):
    """A shear's addends over the default names of its dim, names past the
    dim included, decode to the same shear or fail alike."""
    def shape(a):
        return [(i, _shape(g)) for i, g in sorted(a.additions.items())]

    _assert_routes_agree(shape, automorphism_from_json,
                         {"kind": "shear", "label": "s", "dim": dim, "addends": addends})


def test_written_certificates_decode_without_the_parser(tmp_path):
    """Every certificate that `reduce --to yagzhev` and `symmetrize` write
    for the corpus, Pinchuk's 497-variable one included, decodes with the
    reader's factor-by-factor method refusing, and encodes back to the
    same JSON: every term of the printer's text is read whole by the term
    regex."""
    def refuse(*args):
        raise AssertionError("a term was read factor by factor")

    docs = []
    for e in corpus():
        for argv in (["reduce", e.id, "--to", "yagzhev"], ["symmetrize", e.id]):
            path = tmp_path / f"{len(docs)}.json"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv + ["--cert", str(path)]) == 0, argv
            docs.append(json.loads(path.read_text(encoding="utf-8")))
    with mock.patch.object(grammar._Reader, "_term", refuse):
        certs = [certificate_from_json(d) for d in docs]
    assert max(c.target.n_in for c in certs) == 497
    for cert, d in zip(certs, docs):
        assert certificate_to_json(cert) == d


def _timed(fn):
    """(result, wall seconds) of one call."""
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_hostile_lines_cost_the_route_no_more_than_the_parser():
    """Three long lines for the one reader against the oracle.  A 1 MB
    line that fails at its last character, and a canonical line of 10**5
    terms in parentheses followed by ' + $', each end in the oracle's
    ParseError with a tracemalloc peak under 5 MB (the oracle's lexer
    held each line as tokens, about 100 MB); the canonical line alone,
    timed once each, gives the oracle's Poly no slower than the oracle's
    lexer and parser read it (about 3x faster, room for a loaded
    machine)."""
    varmap = {"x1": 0, "x2": 1}
    long = " + ".join(f"{k}*x1^{k % 9}*x2" for k in range(1, 10 ** 5 + 1))
    for hostile in ["x1*" * (10 ** 6 // 3) + "$", f"({long}) + $"]:
        want = _outcome(read_expression_by_routes, hostile, varmap, 2)
        assert want[0] == "unexpected character '$'"
        tracemalloc.start()
        try:
            got = _outcome(grammar.read_expression, hostile, varmap, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 5 * 2 ** 20, peak

    got, read_s = _timed(lambda: grammar.read_expression(long, varmap, 2))
    want, parsed_s = _timed(lambda: parse_by_terms(long, varmap, 2))
    assert _shape(got) == _shape(want)
    assert read_s < parsed_s


# -- JSON ---------------------------------------------------------------------


def test_matrix_json_round_trip():
    m = RatMatrix.dense([[Fraction(1, 2), Fraction(3)], [Fraction(0), Fraction(-7, 5)]])
    a = AffineAutomorphism.from_linear(m, m.inverse())
    d = automorphism_to_json(a)
    back = automorphism_from_json(json.loads(json.dumps(d)))
    assert affine_maps(back) == affine_maps(a)
    assert back.verify_two_sided() is None


def test_matrix_from_json_parses_fraction_strings():
    m = matrix_from_json([["1/3", "-2"], ["0", "5/7"]])
    assert m.rows[0][0] == Fraction(1, 3)
    assert m.rows[1][1] == Fraction(5, 7)


def test_automorphism_json_rational_inverse():
    two_x = PolyMap([Poly.variable(1, 0).scale(2)])
    half = RationalMap([Poly.variable(1, 0)], Poly.const(1, 2))
    a = Automorphism(two_x, half, label="stretch")
    back = automorphism_from_json(automorphism_to_json(a))
    assert isinstance(back.inverse, RationalMap)
    assert back.label == "stretch"
    assert back.verify_two_sided() is None


def test_move_json_round_trip():
    from polyred.certs import (ExtendFreshVars, PostCompose, PreCompose,
                               SegreExtend, ShearAutomorphism)
    shear = ShearAutomorphism(2, {0: Poly.variable(2, 1) ** 2})
    moves = [ExtendFreshVars(3), PostCompose(shear), PreCompose(shear),
             SegreExtend()]
    for m in moves:
        back = move_from_json(json.loads(json.dumps(move_to_json(m))))
        assert type(back) is type(m)
    back = move_from_json(json.loads(json.dumps(move_to_json(moves[1]))))
    assert isinstance(back.auto, ShearAutomorphism)
    assert back.auto.n == 2 and back.auto.additions == shear.additions
    assert move_from_json(move_to_json(moves[0])).count == 3


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 7, 30]).flatmap(lambda n: st.permutations(range(n))),
       st.sampled_from(["", "read the domain as (X, Y, t)"]))
def test_permutation_json_matches_the_general_encoding(perm, label):
    n = len(perm)
    a = AffineAutomorphism.permutation(n, perm, label)
    d = automorphism_to_json(a)
    assert json.dumps(d) == json.dumps(automorphism_to_json(permutation_by_maps(n, perm, label)))
    back = automorphism_from_json(json.loads(json.dumps(d)))
    assert type(back) is AffineAutomorphism and (back.dim, back.label) == (n, label)
    assert back.m.rows == [{j: 1} for j in perm] and not any(back.shift + back.inv_shift)
    general = permutation_by_maps(n, perm, label)
    assert affine_maps(back) == (general.forward, general.inverse)
    assert back.verify_two_sided() is None


def test_permutation_encoding_builds_no_variables():
    n = 1777
    perm = list(range(1, n)) + [0]
    cached = len(poly._VARIABLES)
    d = automorphism_to_json(AffineAutomorphism.permutation(n, perm))
    assert len(poly._VARIABLES) == cached
    assert d["forward"].splitlines()[1:3] == ["poly f1 = x2", "poly f2 = x3"]
    assert d["inverse"]["map"].splitlines()[1] == f"poly f1 = x{n}"


def test_forged_permutation_inverse_stays_general_and_fails():
    # a 3-cycle is not an involution: its forward map as its own inverse
    # is a map pair of bare variables, but not a mutually inverse one;
    # so is the identity, and so is the forward map written off the
    # index-line form (no final newline, a double space, x1 x2 x3 names).
    # A pair in the encoder's form is read as an affine map, any other
    # pair is parsed, and both fail the check the same way
    d = automorphism_to_json(AffineAutomorphism.permutation(3, [1, 2, 0], "cycle"))
    forward = d["forward"]
    for forged, kind in ((forward, AffineAutomorphism), (forward[:-1], Automorphism),
                         (forward.replace("= ", "=  ", 1), Automorphism),
                         ("vars x y z\npoly f1 = x\npoly f2 = y\npoly f3 = z\n",
                          AffineAutomorphism),
                         ("vars x1 x2 x3\npoly f1 = x2\npoly f2 = x3\npoly f3 = x1\n",
                          Automorphism)):
        d["inverse"]["map"] = forged
        back = automorphism_from_json(d)
        assert type(back) is kind
        assert back.verify_two_sided() == "forward after inverse is not the identity"
    # an involution is its own inverse, so the same edit leaves a permutation
    d = automorphism_to_json(AffineAutomorphism.permutation(3, [1, 0, 2]))
    d["inverse"]["map"] = d["forward"]
    back = automorphism_from_json(d)
    assert type(back) is AffineAutomorphism and back.verify_two_sided() is None


SWAP = "vars x y\npoly f1 = y\npoly f2 = x\n"
# a sound swap written off the index-line form: decoded as a general
# automorphism, it passes the symbolic check, and the oracle agrees
SOUND_NEAR_MISSES = [
    (SWAP[:-1], SWAP),
    (SWAP, "vars x y\npoly f1 =  y\npoly f2 = x\n"),
    ("vars x y\npoly f1 = 1*y\npoly f2 = x\n", SWAP),
    ("vars x1 x2\npoly f1 = x2\npoly f2 = x1\n", SWAP),
    ("vars x y\n# a comment\npoly f1 = y\npoly f2 = x\n", SWAP),
    ("vars x y\npoly g1 = y\npoly g2 = x\n", SWAP),
]


@pytest.mark.parametrize("forward, inverse", [
    ("vars x y\npoly f1 = y\npoly f2 = 2*x\n", SWAP),
    ("vars x y\npoly f1 = y\npoly f2 = x^2\n", SWAP),
    ("vars x y\npoly f1 = y\npoly f2 = y\n", SWAP),
    (SWAP, "vars x y z\npoly f1 = y\npoly f2 = x\n"),
    (SWAP, "vars x y z\npoly f1 = y\npoly f2 = x\npoly f3 = z\n"),
    # index lines in the wrong order: the forward map is the identity
    ("vars x y\npoly f2 = x\npoly f1 = y\n", SWAP),
    *SOUND_NEAR_MISSES,
])
def test_near_permutation_maps_stay_general(forward, inverse):
    d = {"label": "", "forward": forward, "inverse": {"kind": "polynomial", "map": inverse}}
    back = automorphism_from_json(d)
    # a pair of affine texts in the encoder's form is read without the parser
    assert type(back) in (Automorphism, AffineAutomorphism)
    sound = (forward, inverse) in SOUND_NEAR_MISSES
    assert (back.verify_two_sided() is None) == sound
    assert (permutation_by_parsing(forward, inverse) is not None) == sound


_NEAR_MISSES = ("no-final-newline", "double-space", "lines-swapped", "repeated-index",
                "name-past-n", "x1-names-in-small-dim", "not-mutual", "not-bare",
                "inverse-one-longer")


@st.composite
def _permutation_texts(draw):
    """(forward, inverse, written): the two map texts automorphism_to_json
    writes for a random permutation, written True, or with one near miss
    of the index-line form in one of them, written False."""
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 30, 498]))
    perm = draw(st.permutations(range(n)))
    d = automorphism_to_json(AffineAutomorphism.permutation(n, perm))
    texts = [d["forward"], d["inverse"]["map"]]
    how = draw(st.sampled_from((None,) + _NEAR_MISSES))
    if how is None:
        return texts[0], texts[1], True
    side = draw(st.integers(0, 1))
    lines = texts[side].split("\n")  # the vars line, n index lines, ""
    k = draw(st.integers(1, n))
    if how == "no-final-newline":
        lines.pop()
    elif how == "double-space":
        k = draw(st.integers(0, n))  # the vars line too
        spaces = [i for i, c in enumerate(lines[k]) if c == " "]
        i = draw(st.sampled_from(spaces))
        lines[k] = lines[k][:i] + " " + lines[k][i:]
    elif how == "lines-swapped":
        assume(n >= 2)
        lines[1], lines[2] = lines[2], lines[1]
    elif how == "repeated-index":
        assume(n >= 2)
        other = draw(st.integers(1, n).filter(lambda j: j != k))
        lines[k] = lines[k].rpartition(" ")[0] + " " + lines[other].rpartition(" ")[2]
    elif how == "name-past-n":
        past = default_var_names(n + 1)[n] if n < 3 else f"x{draw(st.integers(n + 1, 2 * n + 9))}"
        lines[k] = lines[k].rpartition(" ")[0] + " " + past
    elif how == "not-bare":  # 2*x - x_j, which is x_j itself at dim 1
        lines[k] = lines[k].replace("= ", f"= 2*{default_var_names(n)[0]} - ", 1)
    elif how == "x1-names-in-small-dim":
        assume(n <= 3)
        rename = dict(zip("xyz", default_var_names(4)))
        lines = [" ".join(rename.get(w, w) for w in line.split(" ")) for line in lines]
    else:  # the inverse is the index-line text of another list
        if how == "not-mutual":
            other = draw(st.permutations(range(n)))
        else:  # the true inverse, and one more coordinate mapped to itself
            other = [perm.index(i) for i in range(n)] + [n]
        lines = automorphism_to_json(AffineAutomorphism.permutation(len(other), other))["forward"]
        lines = lines.split("\n")
        side = 1
    texts[side] = "\n".join(lines)
    return texts[0], texts[1], False


@settings(max_examples=200, deadline=None)
@given(_permutation_texts())
def test_index_line_route_matches_the_parsing_oracle(case):
    forward, inverse, written = case
    d = {"label": "", "forward": forward, "inverse": {"kind": "polynomial", "map": inverse}}
    try:
        expected = permutation_by_parsing(forward, inverse)
    except ParseError:
        assert not written
        with pytest.raises(ParseError):
            automorphism_from_json(d)
        return
    back = automorphism_from_json(d)
    # every text the encoder writes is read as unit rows without the
    # parser; every text gets the oracle's verdict
    assert type(back) in (Automorphism, AffineAutomorphism)
    if written:
        assert type(back) is AffineAutomorphism
    if type(back) is AffineAutomorphism and expected is not None:
        assert back.m.rows == [{j: 1} for j in expected]
    assert (back.verify_two_sided() is None) == (expected is not None)


def test_plane_quad_certificate_decodes_its_cycle_as_a_permutation():
    _, trace = to_yagzhev(builtin_example("plane-quad").document.to_polymap())
    blob = json.loads(json.dumps(certificate_to_json(trace.certificate)))
    cert = certificate_from_json(blob)
    perms = [k for k, m in enumerate(cert.moves)
             if isinstance(getattr(m, "auto", None), AffineAutomorphism)]
    assert perms == [k for k, m in enumerate(trace.certificate.moves)
                     if isinstance(getattr(m, "auto", None), AffineAutomorphism)]
    cycle = cert.moves[2].auto  # a 3-cycle, all unit rows
    assert 2 in perms and cycle.m.rows == [{j: 1} for j in (0, 1, 4, 2, 3)]
    assert not any(cycle.shift + cycle.inv_shift)
    assert certificate_to_json(cert) == blob


def test_move_json_rejects_unknown_kind():
    # a tag that is not a string is refused before the tag table is read,
    # where an unhashable one would raise TypeError
    for d in ({"move": "swizzle"}, {"move": []}, {"move": {"a": 1}}, {"move": None}, {}, [],
              {"move": "Extend"}):
        with pytest.raises(ValueError, match="^unknown move kind "):
            move_from_json(d)


def test_schema_move_tags_are_the_tag_table():
    schema = json.loads(resources.files("polyred").joinpath(
        "schemas/certificate.schema.json").read_text(encoding="utf-8"))
    tags = set()
    for entry in schema["definitions"]["move"]["oneOf"]:
        tag = entry["properties"]["move"]
        tags |= {tag["const"]} if "const" in tag else set(tag["enum"])
    assert tags == set(MOVES) == {"extend", "post", "pre", "segre"}


def test_move_json_bounds_sizes_before_building(monkeypatch):
    # a few bytes of JSON must not make the loader build a million names
    built = []
    monkeypatch.setattr(textio, "default_var_names",
                        lambda n: built.append(n) or ())
    monkeypatch.setattr(textio, "_default_names",
                        lambda n: built.append(n) or ((), {}))
    for size in (0, -1, DEFAULT_BUDGET.max_dim + 1, 10 ** 6, 10 ** 12):
        with pytest.raises(ValueError):
            automorphism_from_json({"kind": "shear", "dim": size, "addends": {}})
        with pytest.raises(ValueError):
            move_from_json({"move": "extend", "count": size})
    # a permutation past the budget is counted by its lines, not read by
    # names: it is parsed as a general automorphism, which the certificate
    # loader then refuses by its dim
    names = [f"x{i + 1}" for i in range(DEFAULT_BUDGET.max_dim + 1)]
    text = "\n".join(["vars " + " ".join(names)]
                     + [f"poly f{i + 1} = {v}" for i, v in enumerate(names)] + [""])
    back = automorphism_from_json({"label": "", "forward": text,
                                   "inverse": {"kind": "polynomial", "map": text}})
    assert type(back) is Automorphism and back.dim == DEFAULT_BUDGET.max_dim + 1
    assert built == []


def test_certificate_json_round_trip():
    f = builtin_example("plane-quad").document.to_polymap()
    _, trace = to_yagzhev(f)
    cert = trace.certificate
    blob = json.dumps(certificate_to_json(cert))
    back = certificate_from_json(json.loads(blob))
    assert back.source == cert.source
    assert back.target == cert.target
    assert certificate_to_json(back) == certificate_to_json(cert)
    rep = verify_certificate(back)
    assert rep.ok, rep.issues
    fib = fiber_transport_check(back, seed=1, samples=5)
    assert fib.ok, fib.issues


def test_certificate_json_tampered_target_fails_verify():
    f = builtin_example("plane-quad").document.to_polymap()
    _, trace = to_yagzhev(f)
    cert = trace.certificate
    d = certificate_to_json(cert)
    d["target"] = d["source"]          # claim it reduces to itself
    back = certificate_from_json(d)
    rep = verify_certificate(back)
    assert not rep.ok
    assert rep.issues


def test_certificate_json_tampered_move_fails_verify():
    f = builtin_example("plane-quad").document.to_polymap()
    _, trace = to_yagzhev(f)
    cert = trace.certificate
    d = certificate_to_json(cert)
    assert d["moves"], "expected at least one move"
    d["moves"] = d["moves"][:-1]       # drop the last step
    back = certificate_from_json(d)
    rep = verify_certificate(back)
    assert not rep.ok


def test_certificate_with_huge_addend_exponent_is_rejected():
    f = builtin_example("plane-quad").document.to_polymap()
    _, trace = to_yagzhev(f)
    d = certificate_to_json(trace.certificate)
    auto = d["moves"][-1]["automorphism"]
    assert auto["kind"] == "shear"
    auto["addends"]["0"] = "x3^99999999999999999999"
    with pytest.raises(ParseError, match=f"exponent exceeds {MAX_EXPONENT}"):
        certificate_from_json(d)


def test_certificate_json_rejects_foreign_document():
    with pytest.raises(ValueError):
        certificate_from_json({"format": "something-else"})


def test_pinchuk_decode_formats_each_default_name_once(monkeypatch):
    f = builtin_example("pinchuk").document.to_polymap()
    _, trace = to_yagzhev(f)
    blob = json.loads(json.dumps(certificate_to_json(trace.certificate)))
    formatted = []

    class CountingList(list):
        def append(self, name):
            formatted.append(name)
            super().append(name)

    monkeypatch.setattr(textio, "_X_NAMES", CountingList())
    monkeypatch.setattr(textio, "_X_INDEX", {})
    per_dim = []
    default_var_names = textio.default_var_names
    monkeypatch.setattr(textio, "default_var_names",
                        lambda n: per_dim.append(n) or default_var_names(n))
    cert = certificate_from_json(blob)
    assert per_dim == []
    dims = [m["automorphism"]["dim"] for m in blob["moves"]
            if m.get("automorphism", {}).get("kind") == "shear"]
    assert len(dims) == 248
    assert formatted == [f"x{i + 1}" for i in range(max(dims))]
    polys = list(cert.source.components) + list(cert.target.components)
    unit_rows = []  # (dim, row) of each bare-name line of an affine move
    for move in cert.moves:
        auto = getattr(move, "auto", None)
        if isinstance(auto, ShearAutomorphism):
            polys.extend(auto.additions.values())
        elif isinstance(auto, AffineAutomorphism):  # rows, not Polys
            unit_rows += [(auto.dim, row) for row, c in zip(auto.m.rows + auto.inv.rows,
                                                            auto.shift + auto.inv_shift)
                          if list(row.values()) == [1] and not c]
        elif auto is not None:
            polys.extend(auto.forward.components + auto.inverse.components)
    bare = [p for p in polys if len(p.terms) == 1 and next(iter(p.terms.items()))[1] == 1
            and len(next(iter(p.terms))) == 1 and next(iter(p.terms))[0][1] == 1]
    assert len(bare) + len(unit_rows) > 1000
    for p in bare:
        assert p is Poly.variable(p.varcount, next(iter(p.terms))[0][0])
    for n, row in unit_rows:  # the identity's shared rows, as bare Polys are Poly.variable's
        assert row is RatMatrix.identity(n).rows[next(iter(row))]
    # encoding reuses the table: nothing is formatted again
    assert certificate_to_json(cert) == blob
    assert len(formatted) == max(dims)
