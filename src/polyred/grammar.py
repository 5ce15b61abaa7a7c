"""The grammar of the map text format: `vars` and `poly` lines and the
expressions they hold.

An expression is read by one of two routes.  The canonical route takes
text exactly as textio prints it (ASCII names and literals, '*' and '^'
written out, terms joined by ' + ' and ' - ', no other spaces), checks
each term with one regular expression and builds the term dict with
str.split and partition.  Any other text, and any canonical text naming
an undeclared variable, an exponent over MAX_EXPONENT, an integer too
long for int() or a zero denominator, goes unchanged to the lexer and
the recursive-descent parser, which read the whole grammar: + - * ^ with
nonnegative integer exponents, parentheses, integer or a/b literals and
'#' comments.  Both routes build the same terms, in the same order and
with the same coefficient types, and every error comes from the parser
as a ParseError carrying its line and column.  `vars` lines and the head
of `poly` lines have a canonical route of their own, with the same
fallback.  The grammar is a module of its own, apart from textio's
documents and JSON, because compiling a module from source at import
(where no bytecode cache is written) allocates memory in proportion to
its size: textio.py with the grammar inside was the largest such
allocation of a polyred process and set its peak resident size.
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


# -- lexing ----------------------------------------------------------------

_OPS = set("+-*^()=/")


def _lex(text: str, lineno: int, start: int = 0) -> list:
    """Tokens of one line from index start on, as (kind, value, line, col)
    with col counted from the start of the line; '#' ends the line."""
    toks = []
    i = start
    while i < len(text):
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isdecimal():  # int() reads decimal digits only, not '²'
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], lineno, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], lineno, col))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, lineno, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return toks


def _poly(out: dict, varcount: int) -> Poly:
    """The Poly of a term dict; a bare variable is Poly.variable's."""
    ((m, c),) = out.items() if len(out) == 1 else (((), 0),)
    if c == 1 and len(m) == 1 and m[0][1] == 1:
        return Poly.variable(varcount, m[0][0])
    return Poly(varcount, out)


# -- expression parsing ------------------------------------------------------

# Each parenthesis costs the recursive-descent parser four stack frames;
# capping the depth keeps hostile input far from the recursion limit.
MAX_NESTING = 100
# x^1000 expands in well under a second and the corpus peaks at degree
# 25; x^10000 already takes seconds, so larger exponents are refused
MAX_EXPONENT = 1000


class _ExprParser:
    """expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ['^' int]
    atom := int ['/' int] | variable | '(' expr ')'

    varmap sends a name to its index, undeclared at or past varcount.  A
    term folds literals and variable powers into one coefficient and one
    monomial, multiplying Polys only for parenthesised factors, and an
    expression adds its terms into one dict, in the order and with the
    types of Poly arithmetic.  A bare variable is Poly.variable's.
    """

    def __init__(self, toks: list, varmap: dict, varcount: int, lineno: int, line_len: int):
        self.toks = toks
        self.pos = 0
        self.varmap = varmap
        self.varcount = varcount
        self.lineno = lineno
        self.end_col = line_len + 1
        self.depth = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self):
        t = self._peek()
        if t is not None:
            self.pos += 1
        return t

    def _fail(self, message: str, tok=None):
        if tok is None:
            raise ParseError(message, self.lineno, self.end_col)
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Poly:
        p = self._expr()
        left = self._peek()
        if left is not None:
            self._fail(f"unexpected token '{left[1]}'", left)
        return p

    def _expr(self) -> Poly:
        t = self._peek()
        negate = t is not None and t[0] == "-"
        if negate:
            self._take()
        out: dict = {}
        while True:
            for m, c in self._term():
                c = -c if negate else c
                s = out.get(m)
                if s is None:
                    out[m] = c
                elif s := s + c:
                    out[m] = as_coeff(s)
                else:
                    del out[m]
            t = self._peek()
            if t is None or t[0] not in "+-":
                break
            self._take()
            negate = t[0] == "-"
        return _poly(out, self.varcount)

    def _term(self):
        """The term's (monomial, coefficient) pairs; none for zero."""
        coeff, mono, prod = 1, (), None
        while True:
            atom, k = self._factor()
            if isinstance(atom, Poly):
                prod = atom ** k if prod is None else prod * atom ** k
            elif type(atom) is not tuple:
                coeff = atom if coeff == 1 and k == 1 else coeff * atom ** k
            elif k:
                mono = mono_mul(mono, atom if k == 1 else ((atom[0][0], k),))
            t = self._peek()
            if t is None or t[0] != "*":
                break
            self._take()
        term = Poly(self.varcount, {mono: as_coeff(coeff)} if coeff else {})
        return (term if prod is None else prod * term).terms.items()

    def _factor(self):
        a = self._atom()
        t = self._peek()
        if t is None or t[0] != "^":
            return a, 1
        self._take()
        e = self._peek()
        if e is not None and e[0] == "-":
            self._fail("negative exponents are not allowed", e)
        if e is None or e[0] != "int":
            self._fail("expected an integer exponent after '^'", e)
        self._take()
        # compare lengths first: int() refuses very long digit strings
        digits = e[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._fail(f"exponent exceeds {MAX_EXPONENT}", e)
        return a, int(digits)

    def _literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits()
            self._fail(f"integer literal of {len(tok[1])} digits is too long", tok)

    def _atom(self):
        """A number, a variable's monomial or a parenthesised Poly."""
        t = self._take()
        if t is None:
            self._fail("expected a value")
        if t[0] == "int":
            num = self._literal(t)
            nxt = self._peek()
            if nxt is not None and nxt[0] == "/":
                self._take()
                den = self._peek()
                if den is None or den[0] != "int":
                    self._fail("expected an integer denominator", den)
                self._take()
                d = self._literal(den)
                if d == 0:
                    self._fail("zero denominator", den)
                return qdiv(num, d)
            return num
        if t[0] == "ident":
            idx = self.varmap.get(t[1])
            if idx is None or idx >= self.varcount:
                self._fail(f"undeclared variable '{t[1]}'", t)
            return next(iter(Poly.variable(self.varcount, idx).terms))
        if t[0] == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nest deeper than {MAX_NESTING}", t)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            close = self._take()
            if close is None or close[0] != ")":
                self._fail("expected ')'", close)
            return p
        self._fail(f"unexpected token '{t[1]}'", t)


# -- the canonical route -------------------------------------------------------

# Names and digits are ASCII; an exponent has at most four digits and
# is checked against MAX_EXPONENT when read.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = _NAME + r"(?:\^(?:0|[1-9][0-9]{0,3}))?"
# The regex engine keeps a frame per repetition of a group, so a term of
# more factors goes to the parser: a hostile line then fails here at once.
_MONO = rf"{_FACTOR}(?:\*{_FACTOR}){{0,63}}"
# (numerator, denominator, monomial after a coefficient, bare monomial)
_TERM = re.compile(rf"(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?(?:\*({_MONO}))?|({_MONO})")
_IDENT = re.compile(_NAME)


def _canonical(text: str, start: int, varmap: dict, varcount: int):
    """The Poly of text[start:] when it is canonical and every name, exponent
    and literal in it is one the parser accepts, else None."""
    parts = text[start:].split(" ")
    signs = parts[1::2]
    if not len(parts) & 1 or not {"+", "-"}.issuperset(signs):
        return None
    negate = parts[0][:1] == "-"
    signs.insert(0, "-" if negate else "+")
    if negate:
        parts[0] = parts[0][1:]
    out: dict = {}
    try:
        for sign, term in zip(signs, parts[::2]):
            t = _TERM.fullmatch(term)
            if t is None:
                return None
            num, den, mono, bare = t.groups()
            mono = mono or bare
            c = 1 if num is None else int(num) if den is None else qdiv(int(num), int(den))
            m = ()
            for factor in mono.split("*") if mono else ():
                name, _, e = factor.partition("^")
                i = varmap.get(name)
                e = int(e) if e else 1
                if i is None or i >= varcount or e > MAX_EXPONENT:
                    return None
                if e:
                    m = mono_mul(m, ((i, e),))
            if not c:
                continue
            if sign == "-":
                c = -c
            s = out.get(m)
            if s is None:
                out[m] = c
            elif s := s + c:
                out[m] = as_coeff(s)
            else:
                del out[m]
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        return None
    return _poly(out, varcount)


def read_expression(text: str, varmap: dict, varcount: int, lineno: int = 1,
                    start: int = 0) -> Poly:
    """The Poly of text[start:] over the names varmap sends below varcount,
    start being where a token begins: by the canonical route when it
    accepts the text, else by the parser, whose errors count columns from
    the start of text."""
    p = _canonical(text, start, varmap, varcount)
    if p is None:
        p = _ExprParser(_lex(text, lineno, start), varmap, varcount, lineno, len(text)).parse()
    return p


# -- lines -----------------------------------------------------------------------

RESERVED = frozenset({"vars", "poly", "meta"})
_POLY_HEAD = re.compile(f"poly ({_NAME}) = ")


def _canonical_vars(raw: str):
    """The name -> index map of a `vars` line as print_map writes it, its
    names distinct and unreserved, else None."""
    if raw[:5] != "vars ":
        return None
    names = raw[5:].split(" ")
    varmap = dict(zip(names, range(len(names))))
    if len(varmap) == len(names) and all(map(_IDENT.fullmatch, names)) \
            and RESERVED.isdisjoint(varmap):
        return varmap
    return None


def vars_line(raw: str, lineno: int, again: bool) -> dict:
    """The name -> index map a `vars` line declares; again says an earlier
    line declared one, which is an error."""
    varmap = None if again else _canonical_vars(raw)
    if varmap is not None:
        return varmap
    toks = _lex(raw, lineno)
    if again:
        raise ParseError("duplicate vars line", lineno, toks[0][3])
    varmap = {}
    for t in toks[1:]:
        if t[0] != "ident":
            raise ParseError("variable names must be identifiers", t[2], t[3])
        if t[1] in RESERVED:
            raise ParseError(f"'{t[1]}' is a reserved word", t[2], t[3])
        if t[1] in varmap:
            raise ParseError(f"duplicate variable '{t[1]}'", t[2], t[3])
        varmap[t[1]] = len(varmap)
    if not varmap:
        raise ParseError("vars line declares no variables", lineno, len(raw) + 1)
    return varmap


def _canonical_head(raw: str, varmap, seen: set):
    """(name, index its expression starts at) of a `poly` line whose head
    is as print_map writes it, after the vars line and binding a new
    unreserved name, else None."""
    head = _POLY_HEAD.match(raw)
    if head and varmap is not None and head[1] not in RESERVED and head[1] not in seen:
        return head[1], head.end()
    return None


def poly_line(raw: str, lineno: int, varmap, seen: set) -> tuple:
    """(name, Poly) of a `poly` line over varmap, which is None before the
    vars line; seen holds the component names bound so far."""
    head = _canonical_head(raw, varmap, seen)
    if head is not None:
        return head[0], read_expression(raw, varmap, len(varmap), lineno, head[1])
    toks = _lex(raw, lineno)
    if varmap is None:
        raise ParseError("vars line must come before poly lines", toks[0][2], toks[0][3])
    if len(toks) < 2 or toks[1][0] != "ident":
        raise ParseError("expected a component name after 'poly'", lineno, toks[0][3] + 4)
    name = toks[1][1]
    if name in RESERVED:
        raise ParseError(f"'{name}' is a reserved word", toks[1][2], toks[1][3])
    if name in seen:
        raise ParseError(f"duplicate component '{name}'", toks[1][2], toks[1][3])
    if len(toks) < 3 or toks[2][0] != "=":
        raise ParseError("expected '=' after the component name", lineno,
                         toks[1][3] + len(name))
    return name, _ExprParser(toks[3:], varmap, len(varmap), lineno, len(raw)).parse()
