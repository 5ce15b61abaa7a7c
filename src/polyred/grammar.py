"""The expression grammar of the map text format: the lexer and the parser.

textio reads every `poly` line and every certificate addend through
these.  Expressions use + - * ^ with nonnegative integer exponents,
parentheses, and integer or a/b literals, and every error is a
ParseError carrying its line and column.  The grammar is a module of its
own, apart from textio's documents and JSON, because compiling a module
from source at import (where no bytecode cache is written) allocates
memory in proportion to its size: textio.py with the grammar inside was
the largest such allocation of a polyred process and set its peak
resident size.
"""

from __future__ import annotations

from .poly import Poly, as_coeff, mono_mul, qdiv


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- lexing ----------------------------------------------------------------

_OPS = set("+-*^()=/")


def _lex(text: str, lineno: int) -> list:
    """Tokens of one line as (kind, value, line, col); '#' ends the line."""
    toks = []
    i = 0
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
        ((m, c),) = out.items() if len(out) == 1 else (((), 0),)
        if c == 1 and len(m) == 1 and m[0][1] == 1:
            return Poly.variable(self.varcount, m[0][0])
        return Poly(self.varcount, out)

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
