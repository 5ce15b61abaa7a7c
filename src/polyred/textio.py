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
error carries the line and column it was found at.  The grammar of
`vars` and `poly` lines and of expressions lives in polyred.grammar,
whose one reader reads each term print_map writes whole, and any other
term factor by factor; ParseError, MAX_NESTING and MAX_EXPONENT are
importable from here too.

`print_map` emits a canonical form (terms graded-lex descending,
coefficients in lowest terms, single spaces) and `parse_map` inverts it
exactly, so parse(print(doc)) == doc is an identity the tests lean on.
`cubic_linear_text` writes the same form for a cubic linear partner
straight from its matrix, without building its terms as a Poly.

Rationals inside JSON are strings like "-3/2", never floats; the whole
pipeline stays exact through a round trip.  Certificates embed their
source and target as document strings next to the recorded moves; decoding
only parses and checks shapes, and verify_certificate does the one replay.
Certificate format version 2 stores a shear as its addends alone, over
the default names of its dim (one table of x1, x2, ... serves every dim,
so a shear's decode costs its text, not its dim); version 1 files, which
spell every automorphism out as a forward and an inverse map, still load.
An affine map, a coordinate permutation among them, is written as a
forward and an inverse map over the default names of its dim, printed
straight from its rows: a unit row, which copies one coordinate, is a
bare name, `poly f1 = x3`.  A pair whose texts are both byte for byte
what the rows read back from them print, at one dim, decodes as an
affine map without the parser.  Any other pair, in either version, is
parsed and decoded as a general automorphism, whose symbolic check gives
the same verdict, replay and transport.  A general automorphism's inverse
is written as a "polynomial" map over the denominator 1, else "rational".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import gcd
from typing import Optional, Sequence

from .certs import (MOVES, Automorphism, Certificate, CertReport, FiberReport, RationalMap,
                    ShearAutomorphism)
from .affine import AffineAutomorphism, affine_text, read_affine
from .grammar import ParseError, _terms_text, poly_line, read_expression, vars_line
from .grammar import MAX_EXPONENT, MAX_NESTING  # noqa: F401  (textio.MAX_EXPONENT is documented)
from .linalg import RatMatrix
from .maps import DEFAULT_BUDGET, PolyMap
from .poly import Poly, cube_numerators, qdiv


def parse_expression(text: str, variables: Sequence[str], lineno: int = 1) -> Poly:
    varmap = {name: i for i, name in enumerate(variables)}
    return read_expression(text, varmap, len(varmap), lineno)


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
    varmap = None
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
            varmap = vars_line(raw, lineno, varmap is not None)
        elif head == "meta":
            parts = stripped.split(None, 2)
            if len(parts) < 3:
                raise ParseError("meta needs a key and a value", lineno, len(raw) + 1)
            if parts[1] in meta:
                raise ParseError(f"duplicate meta key '{parts[1]}'", lineno, 1)
            meta[parts[1]] = parts[2]
        elif head == "poly":
            name, p = poly_line(raw, lineno, varmap, seen_names)
            seen_names.add(name)
            comps.append((name, p))
        else:
            raise ParseError(f"unknown directive '{head}'", lineno,
                             raw.index(head) + 1)
    if varmap is None:
        raise ParseError("missing vars line", last_line + 1, 1)
    if not comps:
        raise ParseError("document has no components", last_line + 1, 1)
    return MapDocument(tuple(varmap), tuple(comps), meta)


def poly_text(p: Poly, names: Sequence[str]) -> str:
    """Canonical expression: graded-lex descending, explicit '*'."""
    if p.is_zero():
        return "0"
    terms = []
    for m, c in p.sorted_terms():
        factors = []
        for v, e in m:
            factors.append(names[v] if e == 1 else f"{names[v]}^{e}")
        terms.append((str(c), "*".join(factors)))
    return _terms_text(terms)


def print_map(doc: MapDocument) -> str:
    lines = ["vars " + " ".join(doc.variables)]
    for key in sorted(doc.metadata):
        lines.append(f"meta {key} {doc.metadata[key]}")
    for name, p in doc.components:
        lines.append(f"poly {name} = {poly_text(p, doc.variables)}")
    lines.append("")  # one join, ending the text with a newline
    return "\n".join(lines)


# x, y, z name up to three variables and x1 ... xn more; one table of
# x1, x2, ..., grown as needed, serves every n (parsers reject names past n)
_XYZ, _XYZ_INDEX = ("x", "y", "z"), {"x": 0, "y": 1, "z": 2}
_X_NAMES, _X_INDEX = [], {}


def _default_names(n: int):
    """(names, name -> index), covering the default names of n variables."""
    if n <= 3:
        return _XYZ, _XYZ_INDEX
    for i in range(len(_X_NAMES), n):
        _X_NAMES.append(f"x{i + 1}")
        _X_INDEX[_X_NAMES[i]] = i
    return _X_NAMES, _X_INDEX


def default_var_names(n: int) -> tuple:
    return tuple(_default_names(n)[0][:n])


def polymap_to_document(f: PolyMap, var_names: Optional[Sequence[str]] = None,
                        component_names: Optional[Sequence[str]] = None,
                        metadata: Optional[dict] = None) -> MapDocument:
    if var_names is None:
        var_names = default_var_names(f.n_in)
    if component_names is None:
        component_names = [f"f{i + 1}" for i in range(f.n_out)]
    comps = tuple(zip(component_names, f.components))
    return MapDocument(tuple(var_names), comps, dict(metadata or {}))


def cubic_linear_text(f) -> str:
    """_map_text(f.to_polymap()) for a CubicLinearMap f, written from its
    matrix A with no Poly built or sorted: component i is the cube of the
    form A_i, whose integer numerators over D**3 cube_numerators gives in
    graded-lex descending order, followed by x_i."""
    names = default_var_names(f.n_in)
    lines = ["vars " + " ".join(names)]
    # powers[e][v] is the text of x_v^e
    powers = (None, names, [v + "^2" for v in names], [v + "^3" for v in names])
    for i, form in enumerate(PolyMap.from_matrix(f.A).components):
        den, cube = cube_numerators(form)
        den3 = den ** 3
        terms = [(_ratio_text(t, den3), "*".join([powers[e][v] for v, e in m]))
                 for m, t in cube.items()]
        terms.append(("1", names[i]))
        lines.append(f"poly f{i + 1} = {_terms_text(terms)}")
    lines.append("")  # one join, ending the text with a newline
    return "\n".join(lines)


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, as str() prints the Fraction; den > 0."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _map_text(f: PolyMap) -> str:
    return print_map(polymap_to_document(f))


def _map_from_text(text: str) -> PolyMap:
    return parse_map(text).to_polymap()


# -- JSON encodings ----------------------------------------------------------
#
# dict-shaped, json.dumps-ready; rationals are strings, maps are document
# strings.  The schemas under polyred/schemas mirror these layouts.


def _matrix_to_json(m: RatMatrix) -> list:
    return [[str(row.get(j, 0)) for j in range(m.ncols)] for row in m.rows]


def _rational_from_json(c):
    """A JSON int (not a bool), or a string -?digits(/digits)? with a
    nonzero denominator, as a stored coefficient.  Digits are decimal
    digits, as the map lexer reads them, and a digit string longer than
    int() reads is refused, as the lexer refuses it.  Anything else
    raises ValueError before a number is built."""
    if type(c) is int:
        return c
    if type(c) is str:
        num, slash, den = c.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdecimal() \
                and (not slash or den.isdecimal()):
            d = int(den) if slash else 1
            if d:
                return qdiv(int(num), d)
    raise ValueError(f"{c!r} is not an integer or a rational string")


def matrix_from_json(rows: list) -> RatMatrix:
    """A list of rows, each a list of _rational_from_json entries."""
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError("a matrix is a list of rows, each a list")
    return RatMatrix.dense([[_rational_from_json(c) for c in row] for row in rows])


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


def _affine_rows(text: str) -> Optional[tuple]:
    """affine.read_affine of text over the default names of its line
    count, which is checked against DEFAULT_BUDGET.max_dim first."""
    n = text.count("\n") - 1
    if not 1 <= n <= DEFAULT_BUDGET.max_dim:
        return None
    return read_affine(text, *_default_names(n), n)


def automorphism_to_json(a) -> dict:
    if isinstance(a, ShearAutomorphism):
        names = _default_names(a.n)[0]
        return {"kind": "shear", "label": a.label, "dim": a.n,
                "addends": {str(i): poly_text(g, names)
                            for i, g in sorted(a.additions.items())}}
    if isinstance(a, AffineAutomorphism):
        names = _default_names(a.dim)[0]
        texts = (affine_text(a.m.rows, a.shift, a.units, names),
                 affine_text(a.inv.rows, a.inv_shift, a.inv_units, names))
    else:
        inv = a.inverse
        texts = _map_text(a.forward), _map_text(PolyMap(inv.nums))
        if inv.den != Poly.const(inv.n_in, 1):
            return {"label": a.label, "forward": texts[0], "inverse": {
                "kind": "rational", "numerators": texts[1],
                "denominator": _map_text(PolyMap([inv.den]))}}
    return {"label": a.label, "forward": texts[0],
            "inverse": {"kind": "polynomial", "map": texts[1]}}


def automorphism_from_json(d: dict):
    """A ShearAutomorphism for a "shear" entry, an AffineAutomorphism for
    a polynomial entry whose two maps are affine_text texts of one dim,
    both read without the parser, and an Automorphism for any other entry,
    which verify_two_sided then checks symbolically; every shape error
    raises ValueError."""
    label = d.get("label", "")
    if type(label) is not str:
        raise ValueError("'label' is not a string")
    if d.get("kind") == "shear":
        n = _dim_field(d, "dim")
        varmap = _default_names(n)[1]
        additions = {}
        for key, text in _field(d, "addends", dict).items():
            if not (key.isdecimal() and str(int(key)) == key and isinstance(text, str)):
                raise ValueError(f"shear addend {key!r} needs an index key and "
                                 "an expression string")
            additions[int(key)] = read_expression(text, varmap, n)
        return ShearAutomorphism(n, additions, label)
    fwd_text = _field(d, "forward", str)
    affine = _affine_rows(fwd_text)
    # an affine text always parses, so parsing it later moves no error
    fwd = _map_from_text(fwd_text) if affine is None else None
    inv_d = _field(d, "inverse", dict)
    if inv_d.get("kind") == "rational":
        nums = _map_from_text(_field(inv_d, "numerators", str)).components
        den = _map_from_text(_field(inv_d, "denominator", str)).components
        if len(den) != 1:
            raise ValueError("a rational inverse's denominator document needs "
                             f"exactly one poly line, not {len(den)}")
        inv = RationalMap(nums, den[0])
    elif inv_d.get("kind") == "polynomial":
        inv_text = _field(inv_d, "map", str)
        back = None if affine is None else _affine_rows(inv_text)
        if back is not None and back[0].nrows == affine[0].nrows:
            return AffineAutomorphism(*affine, *back, label)
        inv = _map_from_text(inv_text)
    else:
        raise ValueError(f"unknown inverse kind {inv_d.get('kind')!r}")
    return Automorphism(_map_from_text(fwd_text) if fwd is None else fwd, inv, label)


# a move is its tag and then its fields, in the order its class declares
# them (dataclass lists them as __match_args__), each by a key, writer, reader
_MOVE_FIELDS = {"count": ("count", int, _dim_field),
                "auto": ("automorphism", automorphism_to_json,
                         lambda d, k: automorphism_from_json(_field(d, k, dict)))}


def move_to_json(move) -> dict:
    d = {"move": move.tag}
    for name in move.__match_args__:
        key, write, _ = _MOVE_FIELDS[name]
        d[key] = write(getattr(move, name))
    return d


def move_from_json(d: dict):
    kind = d.get("move") if isinstance(d, dict) else None
    cls = MOVES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"unknown move kind {kind!r}")
    return cls(*[read(d, key) for key, _, read in map(_MOVE_FIELDS.get, cls.__match_args__)])


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
    moves by each move's dims alone, so a document of the wrong shape,
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
    kind = d.get("kind", "reduction")
    if type(kind) is not str:
        raise ValueError("'kind' is not a string")
    source = _map_from_text(_field(d, "source", str))
    target = _map_from_text(_field(d, "target", str))
    moves = [move_from_json(m) for m in _field(d, "moves", list)]
    n_in, n_out = source.n_in, source.n_out
    for k, m in enumerate(moves):
        try:
            n_in, n_out = m.dims(n_in, n_out)
            if max(n_in, n_out) > DEFAULT_BUDGET.max_dim:
                raise ValueError(f"the map would have more than "
                                 f"{DEFAULT_BUDGET.max_dim} variables")
        except ValueError as e:
            raise ValueError(f"move {k}: {e}") from None
    return Certificate(source, target, moves, kind)


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
        "f": cubic_linear_text(pairing.F),
        "g": _map_text(pairing.G),
    }
