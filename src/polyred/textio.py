"""Text and JSON surfaces: the map document format and report encodings.

The document format is line oriented so that files diff cleanly:

    vars x y
    meta origin corpus
    poly p = x^3 - 1/2*y + 1
    poly q = y

One `vars` line declares the variables, `poly` lines bind component
names to expressions, `meta` lines carry free-form key/value pairs and
`#` starts a comment.  Expressions use + - * ^ with nonnegative integer
exponents, parentheses, and integer or a/b literals.  Multiplication is
always written out; `2x` is a syntax error, not a convenience.  Every
error carries the line and column it was found at.

`print_map` emits a canonical form (terms graded-lex descending,
coefficients in lowest terms, single spaces) and `parse_map` inverts it
exactly, so parse(print(doc)) == doc is an identity the tests lean on.

Rationals inside JSON are strings like "-3/2", never floats; the whole
pipeline stays exact through a round trip.  Certificates embed their
source and target as document strings next to the recorded moves; decoding
only parses and checks shapes, and verify_certificate does the one replay.
Certificate format version 2 stores a shear as its addends alone, as
expressions over default_var_names(dim); version 1 files, which spell
every automorphism out as a forward and an inverse map, still load.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .certs import (Automorphism, Certificate, CertReport, ExtendFreshVars,
                    FiberReport, PostCompose, PreCompose, RationalMap,
                    SegreExtend, ShearAutomorphism)
from .linalg import RatMatrix
from .maps import DEFAULT_BUDGET, PolyMap
from .poly import Poly

_RESERVED = {"vars", "poly", "meta"}


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
    """

    def __init__(self, toks: list, varmap: dict, lineno: int, line_len: int):
        self.toks = toks
        self.pos = 0
        self.varmap = varmap
        self.varcount = len(varmap)
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
        p = self._term()
        if negate:
            p = -p
        while True:
            t = self._peek()
            if t is None or t[0] not in "+-":
                return p
            self._take()
            q = self._term()
            p = p + q if t[0] == "+" else p - q

    def _term(self) -> Poly:
        p = self._factor()
        while True:
            t = self._peek()
            if t is None or t[0] != "*":
                return p
            self._take()
            p = p * self._factor()

    def _factor(self) -> Poly:
        a = self._atom()
        t = self._peek()
        if t is None or t[0] != "^":
            return a
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
        return a ** int(digits)

    def _literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits()
            self._fail(f"integer literal of {len(tok[1])} digits is too long", tok)

    def _atom(self) -> Poly:
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
                return Poly.const(self.varcount, Fraction(num, d))
            return Poly.const(self.varcount, Fraction(num))
        if t[0] == "ident":
            idx = self.varmap.get(t[1])
            if idx is None:
                self._fail(f"undeclared variable '{t[1]}'", t)
            return Poly.variable(self.varcount, idx)
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


def parse_expression(text: str, variables: Sequence[str], lineno: int = 1) -> Poly:
    varmap = {name: i for i, name in enumerate(variables)}
    toks = _lex(text, lineno)
    return _ExprParser(toks, varmap, lineno, len(text)).parse()


# -- documents ---------------------------------------------------------------


@dataclass
class MapDocument:
    """Named components over named variables, plus free-form metadata."""

    variables: tuple
    components: tuple  # of (name, Poly) pairs
    metadata: dict = field(default_factory=dict)

    def names(self) -> list:
        return [name for name, _ in self.components]

    def to_polymap(self) -> PolyMap:
        return PolyMap([p for _, p in self.components])


def parse_map(text: str) -> MapDocument:
    variables = None
    varmap = {}
    comps = []
    seen_names = set()
    meta = {}
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head = stripped.split(None, 1)[0]
        if head == "vars":
            toks = _lex(raw, lineno)
            if variables is not None:
                self_col = toks[0][3]
                raise ParseError("duplicate vars line", lineno, self_col)
            names = []
            for t in toks[1:]:
                if t[0] != "ident":
                    raise ParseError("variable names must be identifiers", t[2], t[3])
                if t[1] in _RESERVED:
                    raise ParseError(f"'{t[1]}' is a reserved word", t[2], t[3])
                if t[1] in names:
                    raise ParseError(f"duplicate variable '{t[1]}'", t[2], t[3])
                names.append(t[1])
            if not names:
                raise ParseError("vars line declares no variables", lineno, len(raw) + 1)
            variables = names
            varmap = {name: i for i, name in enumerate(names)}
        elif head == "meta":
            parts = stripped.split(None, 2)
            if len(parts) < 3:
                raise ParseError("meta needs a key and a value", lineno, len(raw) + 1)
            if parts[1] in meta:
                raise ParseError(f"duplicate meta key '{parts[1]}'", lineno, 1)
            meta[parts[1]] = parts[2]
        elif head == "poly":
            toks = _lex(raw, lineno)
            if variables is None:
                raise ParseError("vars line must come before poly lines", toks[0][2], toks[0][3])
            if len(toks) < 2 or toks[1][0] != "ident":
                raise ParseError("expected a component name after 'poly'", lineno,
                                 toks[0][3] + 4)
            name = toks[1][1]
            if name in _RESERVED:
                raise ParseError(f"'{name}' is a reserved word", toks[1][2], toks[1][3])
            if name in seen_names:
                raise ParseError(f"duplicate component '{name}'", toks[1][2], toks[1][3])
            if len(toks) < 3 or toks[2][0] != "=":
                raise ParseError("expected '=' after the component name", lineno,
                                 toks[1][3] + len(name))
            p = _ExprParser(toks[3:], varmap, lineno, len(raw)).parse()
            seen_names.add(name)
            comps.append((name, p))
        else:
            raise ParseError(f"unknown directive '{head}'", lineno,
                             raw.index(head) + 1)
    if variables is None:
        raise ParseError("missing vars line", last_line + 1, 1)
    if not comps:
        raise ParseError("document has no components", last_line + 1, 1)
    return MapDocument(tuple(variables), tuple(comps), meta)


def poly_text(p: Poly, names: Sequence[str]) -> str:
    """Canonical expression: graded-lex descending, explicit '*'."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        num, den = coeff.numerator, coeff.denominator
        positive = num > 0
        if not positive:
            num = -num
        factors = []
        if num != den or not mono:  # lowest terms: num == den only for 1
            factors.append(str(num) if den == 1 else f"{num}/{den}")
        for v, e in mono:
            factors.append(names[v] if e == 1 else f"{names[v]}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if positive else "-" + body)
        else:
            parts.append(("+ " if positive else "- ") + body)
    return " ".join(parts)


def print_map(doc: MapDocument) -> str:
    lines = ["vars " + " ".join(doc.variables)]
    for key in sorted(doc.metadata):
        lines.append(f"meta {key} {doc.metadata[key]}")
    for name, p in doc.components:
        lines.append(f"poly {name} = {poly_text(p, doc.variables)}")
    return "\n".join(lines) + "\n"


def default_var_names(n: int) -> tuple:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def polymap_to_document(f: PolyMap, var_names: Optional[Sequence[str]] = None,
                        component_names: Optional[Sequence[str]] = None,
                        metadata: Optional[dict] = None) -> MapDocument:
    if var_names is None:
        var_names = default_var_names(f.n_in)
    if component_names is None:
        component_names = [f"f{i + 1}" for i in range(f.n_out)]
    comps = tuple(zip(component_names, f.components))
    return MapDocument(tuple(var_names), comps, dict(metadata or {}))


def _map_text(f: PolyMap) -> str:
    return print_map(polymap_to_document(f))


def _map_from_text(text: str) -> PolyMap:
    return parse_map(text).to_polymap()


# -- JSON encodings ----------------------------------------------------------
#
# dict-shaped, json.dumps-ready; rationals are strings, maps are document
# strings.  The schemas under polyred/schemas mirror these layouts.


def _matrix_to_json(m: RatMatrix) -> list:
    return [[str(c) for c in row] for row in m.rows]


def matrix_from_json(rows: list) -> RatMatrix:
    return RatMatrix([[Fraction(c) for c in row] for row in rows])


def _field(d, key: str, kind: type):
    """d[key], checked to be a JSON value of the given kind."""
    if not isinstance(d, dict):
        raise ValueError(f"expected an object holding '{key}'")
    v = d.get(key)
    if not isinstance(v, kind) or isinstance(v, bool):
        raise ValueError(f"'{key}' is missing or of the wrong type")
    return v


def _dim_field(d: dict, key: str) -> int:
    """d[key], checked to be a dimension in 1..DEFAULT_BUDGET.max_dim before
    anything is built from it."""
    n = _field(d, key, int)
    if not 1 <= n <= DEFAULT_BUDGET.max_dim:
        raise ValueError(f"'{key}' {n} is outside 1..{DEFAULT_BUDGET.max_dim}")
    return n


def automorphism_to_json(a) -> dict:
    if isinstance(a, ShearAutomorphism):
        names = default_var_names(a.n)
        return {"kind": "shear", "label": a.label, "dim": a.n,
                "addends": {str(i): poly_text(g, names)
                            for i, g in sorted(a.additions.items())}}
    fwd = a.forward
    inv = a.inverse
    out = {"label": a.label, "forward": _map_text(fwd)}
    if isinstance(inv, RationalMap):
        out["inverse"] = {
            "kind": "rational",
            "numerators": _map_text(PolyMap(inv.nums)),
            "denominator": _map_text(PolyMap([inv.den])),
        }
    else:
        out["inverse"] = {"kind": "polynomial", "map": _map_text(inv)}
    return out


def automorphism_from_json(d: dict):
    """An Automorphism, or a ShearAutomorphism for a "shear" entry; every
    shape error raises ValueError."""
    label = d.get("label", "")
    if d.get("kind") == "shear":
        n = _dim_field(d, "dim")
        names = default_var_names(n)
        additions = {}
        for key, text in _field(d, "addends", dict).items():
            if not (key.isdecimal() and str(int(key)) == key and isinstance(text, str)):
                raise ValueError(f"shear addend {key!r} needs an index key and "
                                 "an expression string")
            additions[int(key)] = parse_expression(text, names)
        return Automorphism.shear(n, additions, label)
    fwd = _map_from_text(_field(d, "forward", str))
    inv_d = _field(d, "inverse", dict)
    if inv_d.get("kind") == "rational":
        nums = _map_from_text(_field(inv_d, "numerators", str)).components
        den = _map_from_text(_field(inv_d, "denominator", str)).components[0]
        inv = RationalMap(nums, den)
    elif inv_d.get("kind") == "polynomial":
        inv = _map_from_text(_field(inv_d, "map", str))
    else:
        raise ValueError(f"unknown inverse kind {inv_d.get('kind')!r}")
    return Automorphism(fwd, inv, label)


def move_to_json(move) -> dict:
    if isinstance(move, ExtendFreshVars):
        return {"move": "extend", "count": move.count}
    if isinstance(move, PostCompose):
        return {"move": "post", "automorphism": automorphism_to_json(move.auto)}
    if isinstance(move, PreCompose):
        return {"move": "pre", "automorphism": automorphism_to_json(move.auto)}
    if isinstance(move, SegreExtend):
        return {"move": "segre"}
    raise TypeError(f"unknown move {move!r}")


def move_from_json(d: dict):
    kind = d.get("move") if isinstance(d, dict) else None
    if kind == "extend":
        return ExtendFreshVars(_dim_field(d, "count"))
    if kind == "post":
        return PostCompose(automorphism_from_json(_field(d, "automorphism", dict)))
    if kind == "pre":
        return PreCompose(automorphism_from_json(_field(d, "automorphism", dict)))
    if kind == "segre":
        return SegreExtend()
    raise ValueError(f"unknown move kind {kind!r}")


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "format": "polyred-certificate",
        "version": 2,
        "kind": cert.kind,
        "source": _map_text(cert.source),
        "target": _map_text(cert.target),
        "moves": [move_to_json(m) for m in cert.moves],
    }


def certificate_from_json(d: dict) -> Certificate:
    """Parse a certificate document; nothing is replayed here.

    Versions 1 and 2 are read.  The map's shape is followed through the
    moves by arithmetic alone (extend adds its count to both sides, segre
    adds one, post and pre keep both), so a document of the wrong shape,
    an automorphism whose dim disagrees with the map it acts on, and a
    move that takes the map past DEFAULT_BUDGET.max_dim variables all
    raise ValueError before any map is built.  Whether the moves really
    lead from the source to the target is verify_certificate's question.
    """
    if not isinstance(d, dict) or d.get("format") != "polyred-certificate":
        raise ValueError("not a certificate document")
    version = d.get("version")
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unsupported certificate version {version!r}")
    source = _map_from_text(_field(d, "source", str))
    target = _map_from_text(_field(d, "target", str))
    moves = [move_from_json(m) for m in _field(d, "moves", list)]
    n_in, n_out = source.n_in, source.n_out
    for k, m in enumerate(moves):
        if isinstance(m, ExtendFreshVars):
            n_in, n_out = n_in + m.count, n_out + m.count
        elif isinstance(m, SegreExtend):
            n_in, n_out = n_in + 1, n_out + 1
        else:
            n = n_out if isinstance(m, PostCompose) else n_in
            if m.auto.dim != n:
                raise ValueError(f"move {k}: an automorphism of dim "
                                 f"{m.auto.dim} acts on dim {n}")
        if max(n_in, n_out) > DEFAULT_BUDGET.max_dim:
            raise ValueError(f"move {k}: the map would have more than "
                             f"{DEFAULT_BUDGET.max_dim} variables")
    return Certificate(source, target, moves, d.get("kind", "reduction"))


def attribute_report_to_json(rep) -> dict:
    return asdict(rep)


def classification_to_json(c) -> dict:
    return asdict(c)


def cert_report_to_json(rep: CertReport, fiber: Optional[FiberReport] = None) -> dict:
    return {"certificate": asdict(rep),
            "fiber": None if fiber is None else asdict(fiber)}


def pairing_to_json(pairing) -> dict:
    return {
        "a": _matrix_to_json(pairing.A),
        "b": _matrix_to_json(pairing.B),
        "c": _matrix_to_json(pairing.C),
        "f": _map_text(pairing.F),
        "g": _map_text(pairing.G),
    }


def load_schema(name: str) -> dict:
    """One of the shipped JSON schemas, by base name ('certificate', ...)."""
    import json
    from importlib import resources
    path = resources.files("polyred").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))
