"""The grammar of the map text format: `vars` and `poly` lines and the
expressions they hold.

One reader reads them all: + - * ^ with nonnegative integer exponents,
parentheses, integer or a/b literals and '#' comments.  _Reader takes a
line's tokens one at a time, each matched by one compiled pattern at its
position, so no line is ever held as a list of tokens and its memory is
bounded by the term being read.  At the start of each term one regular
expression tries the whole term as textio prints it (ASCII names and
literals, '*' and '^' written out, terms joined by ' + ' and ' - '),
together with the sign of the next term, and builds it with str.split
and partition.  A term it does not match, or one naming an undeclared
variable, an exponent over MAX_EXPONENT, an integer too long for int()
or a zero denominator, is read factor by factor by the same reader, and
every error comes from there as a ParseError carrying its line and
column.  A stray character anywhere in the line before '#' is reported
before any other error, as though the line were tokenized whole first.
The grammar is a module of its own, apart from textio's documents and
JSON, because compiling a module from source at import (where no
bytecode cache is written) allocates memory in proportion to its size:
textio.py with the grammar inside was the largest such allocation of a
polyred process and set its peak resident size.
"""

from __future__ import annotations

import re

from .poly import Poly, as_coeff, mono_mul, qdiv


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- printing ----------------------------------------------------------------


def _terms_text(terms) -> str:
    """A sum of (coefficient text, monomial text) terms: the coefficient
    as str() prints an int or a Fraction, the monomial '' for a constant.
    A unit coefficient is left out before a monomial, and each term's
    sign is written between the terms."""
    parts = []
    for text, mono in terms:
        positive = text[0] != "-"
        if not positive:
            text = text[1:]
        if mono:
            text = mono if text == "1" else f"{text}*{mono}"
        if not parts:
            parts.append(text if positive else "-" + text)
        else:
            parts.append(("+ " if positive else "- ") + text)
    return " ".join(parts)


def _poly(out: dict, varcount: int) -> Poly:
    """The Poly of a term dict; a bare variable is Poly.variable's."""
    ((m, c),) = out.items() if len(out) == 1 else (((), 0),)
    if c == 1 and len(m) == 1 and m[0][1] == 1:
        return Poly.variable(varcount, m[0][0])
    return Poly(varcount, out)


# -- reading -------------------------------------------------------------------

# Each parenthesis costs the reader four stack frames; capping the depth
# keeps hostile input far from the recursion limit.
MAX_NESTING = 100
# x^1000 expands in well under a second and the corpus peaks at degree
# 25; x^10000 already takes seconds, so larger exponents are refused
MAX_EXPONENT = 1000

# One token after blanks, as (decimal digits, a name, another word, an
# operator, the end of the line at '#' or at the end of the text, a stray
# character).  int() reads any Unicode decimal digits, but not '²'; a word
# is a name if it starts with a letter or '_', so '²x' is a stray '²'.
_TOKEN = re.compile(r"[ \t\r]*(?:(\d+)|([A-Za-z_]\w*)|(\w+)|([-+*^()=/])|(#|\Z)|(.))", re.S)
_KINDS = (None, "int", "ident", "ident", None)

# Names and digits are ASCII; an exponent has at most four digits and
# is checked against MAX_EXPONENT when read.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = _NAME + r"(?:\^(?:0|[1-9][0-9]{0,3}))?"
# The regex engine keeps a frame per repetition of a group, so a term of
# more factors is read factor by factor.
_MONO = rf"{_FACTOR}(?:\*{_FACTOR}){{0,63}}"
# A whole term after blanks: (the leading '-' of an expression,
# numerator, denominator, monomial after a coefficient, bare monomial),
# then the sign of the next term, or no sign before ')', '#' or the end.
_TERM = re.compile(rf"[ \t\r]*(?:(-)[ \t\r]*)?"
                   rf"(?:(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?(?:\*({_MONO}))?|({_MONO}))"
                   r"[ \t\r]*(?:([-+])|(?=[)#]|\Z))")


class _Reader:
    """expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ['^' int]
    atom := int ['/' int] | variable | '(' expr ')'

    read from text[pos:].  _next scans one token ahead: kind is 'int',
    'ident', an operator or None at the end of the line, val its text and
    at its index (len(text) at the end).  varmap sends a name to its index,
    undeclared at or past varcount.  A term folds literals and variable
    powers into one coefficient and one monomial, multiplying Polys only
    for parenthesised factors, and an expression adds its terms into one
    dict, in the order and with the types of Poly arithmetic.
    """

    __slots__ = ("text", "pos", "varmap", "varcount", "lineno", "depth", "kind", "val", "at")

    def __init__(self, text: str, pos: int, varmap: dict, varcount: int, lineno: int):
        self.text = text
        self.pos = pos
        self.varmap = varmap
        self.varcount = varcount
        self.lineno = lineno
        self.depth = 0

    def _next(self) -> None:
        """Scan the token at pos; a stray character raises here."""
        if self.pos == len(self.text):
            self.kind, self.val, self.at = None, "", self.pos
            return
        m = _TOKEN.match(self.text, self.pos)
        i = m.lastindex
        if i == 5:  # pos stays put: '#' ends the line
            self.kind, self.val, self.at, self.pos = None, "", len(self.text), m.start(5)
            return
        val = m[i]
        if i == 6 or i == 3 and not val[0].isalpha():
            raise ParseError(f"unexpected character {val[0]!r}", self.lineno, m.start(i) + 1)
        self.kind = _KINDS[i] or val
        self.val, self.pos = val, m.end()
        self.at = self.pos - len(val)

    def _fail(self, message: str, at: int):
        """Raise message at index at, unless a stray character follows
        somewhere in the line: that is reported instead."""
        while self.kind is not None:
            self._next()
        raise ParseError(message, self.lineno, at + 1)

    def expression(self) -> Poly:
        p = self._expr()
        if self.kind is not None:
            self._fail(f"unexpected token '{self.val}'", self.at)
        return p

    def _expr(self) -> Poly:
        """The expression from pos, no token of it scanned yet; the token
        after it is left ahead."""
        varmap, varcount = self.varmap, self.varcount
        out: dict = {}
        pos, negate = self.pos, None  # None until the first term is read
        while True:
            t = _TERM.match(self.text, pos)
            # a whole term is built here, unless a name, exponent or
            # literal in it is one the reader refuses: c stays None
            c = None
            if t is not None and (negate is None or t[1] is None):
                lead, num, den, mono, bare, sign = t.groups()
                mono = mono or bare
                m, last = (), -1
                for factor in mono.split("*") if mono else ():
                    name, _, e = factor.partition("^")
                    i = varmap.get(name)
                    e = int(e) if e else 1
                    if i is None or i >= varcount or e > MAX_EXPONENT:
                        break
                    if e and i > last:  # printed factors come in index order
                        m, last = m + ((i, e),), i
                    elif e:
                        m = mono_mul(m, ((i, e),))
                else:
                    # int() refuses more digits than sys.get_int_max_str_digits()
                    try:
                        c = 1 if num is None else int(num)
                        if den is not None:
                            c = qdiv(c, int(den))
                    except ValueError:
                        c = None
            if c is not None:
                if negate is None:
                    negate = lead is not None
                pos = t.end()
                terms = ((m, c),) if c else ()
                if sign is None:
                    self.pos = pos
                    self._next()
            else:
                self.pos = pos
                self._next()
                if negate is None:
                    negate = self.kind == "-"
                    if negate:
                        self._next()
                terms = self._term()
                sign = self.kind if self.kind == "+" or self.kind == "-" else None
                pos = self.pos
            for m, c in terms:
                c = -c if negate else c
                s = out.get(m)
                if s is None:
                    out[m] = c
                elif s := s + c:
                    out[m] = as_coeff(s)
                else:
                    del out[m]
            if sign is None:
                return _poly(out, varcount)
            negate = sign == "-"

    def _term(self):
        """The term's (monomial, coefficient) pairs, read factor by
        factor; none for zero."""
        coeff, mono, prod = 1, (), None
        while True:
            atom, k = self._factor()
            if isinstance(atom, Poly):
                prod = atom ** k if prod is None else prod * atom ** k
            elif type(atom) is not tuple:
                coeff = atom if coeff == 1 and k == 1 else coeff * atom ** k
            elif k:
                mono = mono_mul(mono, atom if k == 1 else ((atom[0][0], k),))
            if self.kind != "*":
                break
            self._next()
        term = Poly(self.varcount, {mono: as_coeff(coeff)} if coeff else {})
        return (term if prod is None else prod * term).terms.items()

    def _factor(self):
        a = self._atom()
        if self.kind != "^":
            return a, 1
        self._next()
        if self.kind == "-":
            self._fail("negative exponents are not allowed", self.at)
        if self.kind != "int":
            self._fail("expected an integer exponent after '^'", self.at)
        # compare lengths first: int() refuses very long digit strings
        digits = self.val.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._fail(f"exponent exceeds {MAX_EXPONENT}", self.at)
        self._next()
        return a, int(digits)

    def _literal(self) -> int:
        """The int token ahead, taken."""
        val, at = self.val, self.at
        self._next()
        try:
            return int(val)
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits()
            self._fail(f"integer literal of {len(val)} digits is too long", at)

    def _atom(self):
        """A number, a variable's monomial or a parenthesised Poly."""
        kind, val, at = self.kind, self.val, self.at
        if kind is None:
            self._fail("expected a value", at)
        if kind == "int":
            num = self._literal()
            if self.kind != "/":
                return num
            self._next()
            if self.kind != "int":
                self._fail("expected an integer denominator", self.at)
            den_at = self.at
            d = self._literal()
            if d == 0:
                self._fail("zero denominator", den_at)
            return qdiv(num, d)
        if kind == "ident":
            idx = self.varmap.get(val)
            if idx is None or idx >= self.varcount:
                self._fail(f"undeclared variable '{val}'", at)
            self._next()
            return next(iter(Poly.variable(self.varcount, idx).terms))
        if kind == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nest deeper than {MAX_NESTING}", at)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            if self.kind != ")":
                self._fail("expected ')'", self.at)
            self._next()
            return p
        self._fail(f"unexpected token '{val}'", at)


def read_expression(text: str, varmap: dict, varcount: int, lineno: int = 1) -> Poly:
    """The Poly of text over the names varmap sends below varcount."""
    return _Reader(text, 0, varmap, varcount, lineno).expression()


# -- lines -----------------------------------------------------------------------

RESERVED = frozenset({"vars", "poly", "meta"})
# A head as print_map writes it, in one match: reading its three tokens
# one at a time made parse_map of a 497-line map about a tenth slower.
_POLY_HEAD = re.compile(f"poly ({_NAME}) = ")


def vars_line(raw: str, lineno: int, again: bool) -> dict:
    """The name -> index map a `vars` line declares; again says an earlier
    line declared one, which is an error."""
    r = _Reader(raw, 0, {}, 0, lineno)
    r._next()
    if again:
        r._fail("duplicate vars line", r.at)
    r._next()
    varmap = {}
    while r.kind is not None:
        if r.kind != "ident":
            r._fail("variable names must be identifiers", r.at)
        if r.val in RESERVED:
            r._fail(f"'{r.val}' is a reserved word", r.at)
        if r.val in varmap:
            r._fail(f"duplicate variable '{r.val}'", r.at)
        varmap[r.val] = len(varmap)
        r._next()
    if not varmap:
        r._fail("vars line declares no variables", r.at)
    return varmap


def poly_line(raw: str, lineno: int, varmap, seen: set) -> tuple:
    """(name, Poly) of a `poly` line over varmap, which is None before the
    vars line; seen holds the component names bound so far."""
    r = _Reader(raw, 0, varmap, 0 if varmap is None else len(varmap), lineno)
    head = _POLY_HEAD.match(raw)
    if head:  # the same tokens, with '=' ahead
        start, kind, name, at = 0, "ident", head[1], 5
        r.kind, r.pos = "=", head.end()
    else:
        r._next()
        start = r.at
        r._next()
        kind, name, at = r.kind, r.val, r.at
        r._next()
    if varmap is None:
        r._fail("vars line must come before poly lines", start)
    if kind != "ident":
        r._fail("expected a component name after 'poly'", start + 4)
    if name in RESERVED:
        r._fail(f"'{name}' is a reserved word", at)
    if name in seen:
        r._fail(f"duplicate component '{name}'", at)
    if r.kind != "=":
        r._fail("expected '=' after the component name", at + len(name))
    return name, r.expression()
