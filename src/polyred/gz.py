"""Pairing of cubic homogeneous maps with cubic linear partners.

A pairing is a triple of matrices (A, B, C) with B C = I and
ker B = ker A, linking F(X) = X + (A X)^{*3} on R^n to the lower
dimensional G(x) = B F(C x) = x + B (A C x)^{*3} on R^m.  The power
``*3`` cubes componentwise, so F's nonlinear part is a vector of cubes
of linear forms while G's can be any cubic homogeneous polynomials.

pair_up builds a partner F for a given G by writing each component of
G - X as a rational combination of cubes of linear forms (polarization
does this monomial by monomial), pair_down recovers G from F's
coefficient matrix, and pairing_to_equivalence turns a verified pairing
into a certificate that the two maps agree up to fresh variables and
invertible coordinate changes.

A linear form is keyed by its sparse integer coefficients,
((var, a), ...) in ascending variable order, from polarization to the
rows of Q.  Polarization only makes forms with entries 1 and 2, all
primitive except 2u, whose cube enters as 8 u^3; so two pieces share a
form exactly when they share a key, and no form is normalized.

F is stored as its matrix A (CubicLinearMap): the pairing axioms are
checked in G's dimension m, and textio prints F from A, so neither
expands F's cubes in n variables.
"""

from dataclasses import dataclass

from .certs import (
    Certificate,
    CertificateBuilder,
    ExtendFreshVars,
    PostCompose,
    PreCompose,
    ShearAutomorphism,
)
from .affine import AffineAutomorphism
from .linalg import RatMatrix
from .maps import PolyMap, is_yagzhev, terms_minus_x
from .poly import Poly, as_coeff, cube_numerators, linear_cube, qdiv


def _polarize(mono, coeff):
    """One cubic monomial as (coefficient, form key) pieces.

    6uvw = (u+v+w)^3 - (u+v)^3 - (v+w)^3 - (u+w)^3 + u^3 + v^3 + w^3,
    specialized when variables repeat.  Every key is primitive with
    positive entries; the one vector that is not, 2u from u^2 w, enters
    as (2u)^3 = 8 u^3.
    """
    exps = list(mono)
    if len(exps) == 1:
        return [(coeff, ((exps[0][0], 1),))]
    s = qdiv(coeff, 6)
    if len(exps) == 2:
        # u^2 w with u the doubled variable
        if exps[0][1] == 2:
            u, w = exps[0][0], exps[1][0]
        else:
            u, w = exps[1][0], exps[0][0]
        return [
            (s, tuple(sorted([(u, 2), (w, 1)]))),
            (-8 * s, ((u, 1),)),
            (-s * 2, tuple(sorted([(u, 1), (w, 1)]))),
            (s * 2, ((u, 1),)),
            (s, ((w, 1),)),
        ]
    u, v, w = (p[0] for p in exps)
    return [
        (s, ((u, 1), (v, 1), (w, 1))),
        (-s, ((u, 1), (v, 1))),
        (-s, ((v, 1), (w, 1))),
        (-s, ((u, 1), (w, 1))),
        (s, ((u, 1),)),
        (s, ((v, 1),)),
        (s, ((w, 1),)),
    ]


def decompose_cubes(h: Poly):
    """Write a cubic form as sum of c * (linear form)^3, exactly.

    Forms are merged when their keys agree; coefficients that cancel to
    zero drop out.  Returns [(coefficient, form key)] in first-seen
    order.
    """
    if h.is_zero():
        return []
    if h.degree() != 3 or not h.is_homogeneous():
        raise ValueError("cube decomposition expects a cubic form")
    acc = {}
    for mono, coeff in h.sorted_terms():
        for c, key in _polarize(mono, coeff):
            acc[key] = acc.get(key, 0) + c
    return [(as_coeff(c), key) for key, c in acc.items() if c]


class CubicLinearMap:
    """F(X) = X + (A X)^{*3} on Q^n, stored as its n x n matrix A.

    Pairing checks, equality and printing all read A.  F determines A:
    over Q, l'^3 = l^3 forces l' = l for linear forms, because
    l'^2 + l' l + l^2 is positive definite.  So two CubicLinearMaps are
    equal when their matrices are, and a PolyMap equals one when it holds
    exactly the terms of X + (A X)^{*3} (_is_cubic_linear_from).
    """

    __slots__ = ("A",)

    def __init__(self, A: RatMatrix):
        if A.nrows != A.ncols:
            raise ValueError("a cubic linear map needs a square matrix")
        self.A = A

    @property
    def n_in(self) -> int:
        return self.A.ncols

    @property
    def n_out(self) -> int:
        return self.A.nrows

    def to_polymap(self) -> PolyMap:
        """The realized map, expanded on each call; pairing, equality and
        printing never build it."""
        n = self.A.nrows
        forms = PolyMap.from_matrix(self.A).components
        return PolyMap([Poly.variable(n, i) + linear_cube(form)
                        for i, form in enumerate(forms)])

    def __eq__(self, other) -> bool:
        if isinstance(other, CubicLinearMap):
            return self.A == other.A
        if isinstance(other, PolyMap):
            return _is_cubic_linear_from(other, self.A)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CubicLinearMap(dim={self.A.nrows})"


@dataclass
class GZPairing:
    """A pairing of G (m variables) with F = X + (A X)^{*3} (n variables).

    F holds its own matrix, which verify_pairing checks against A.  A
    PolyMap F is refused; pair_down pairs one with its matrix.
    """

    A: RatMatrix
    B: RatMatrix
    C: RatMatrix
    F: CubicLinearMap
    G: PolyMap

    def __post_init__(self):
        if not isinstance(self.F, CubicLinearMap):
            raise TypeError("GZPairing.F must be a CubicLinearMap; pair a "
                            "PolyMap with its matrix through pair_down")


@dataclass
class PairingReport:
    ok: bool
    issues: list


def _is_cubic_linear_from(f: PolyMap, A: RatMatrix) -> bool:
    """f == CubicLinearMap(A).to_polymap(), decided term by term without
    expanding a cube into Fractions: component i must hold x_i with
    coefficient 1 and exactly the terms of (A_i x)^3, each coefficient c
    checked against its integer numerator t over D**3 (cube_numerators)
    as c.numerator * D**3 == t * c.denominator."""
    n = A.nrows
    if f.n_out != n or f.n_in != n:
        return False
    for i, form in enumerate(PolyMap.from_matrix(A).components):
        den, cube = cube_numerators(form)
        terms = f.components[i].terms
        if len(terms) != len(cube) + 1 or terms.get(((i, 1),)) != 1:
            return False
        den3 = den ** 3
        for m, t in cube.items():
            c = terms.get(m)
            if c is None or c.numerator * den3 != t * c.denominator:
                return False
    return True


def _pushed_down(B: RatMatrix, A: RatMatrix, C: RatMatrix) -> PolyMap:
    """B F(C x) for F = X + (A X)^{*3}, computed in dimension m = C.ncols
    as (B C) x + B ((A C) x)^{*3}: the n forms of A C are cubed in m
    variables, and B C is multiplied out, not assumed to be I."""
    cubes = [linear_cube(form) for form in PolyMap.from_matrix(A * C).components]
    comps = []
    for row, p in zip(B.rows, PolyMap.from_matrix(B * C).components):
        for k, b in sorted(row.items()):
            if cubes[k].terms:
                p = p + cubes[k].scale(b)
        comps.append(p)
    return PolyMap(comps)


def verify_pairing(p: GZPairing) -> PairingReport:
    """Check every pairing axiom exactly; verdicts, never exceptions.

    F's axiom is its matrix being A, and G's is computed in dimension m
    (_pushed_down), so F is never expanded."""
    issues = []
    m = p.G.n_in
    n = p.F.n_in
    if (p.A.nrows, p.A.ncols) != (n, n) or (p.B.nrows, p.B.ncols) != (m, n) \
            or (p.C.nrows, p.C.ncols) != (n, m):
        return PairingReport(False, ["matrix shapes do not match the maps"])
    if p.B * p.C != RatMatrix.identity(m):
        issues.append("B C is not the identity")
    ra = p.A.rank()
    if ra != m:
        issues.append(f"rank of A is {ra}, not the partner dimension {m}")
    if not (ra == p.B.rank() == p.A.vstack(p.B).rank()):
        issues.append("kernel of B differs from kernel of A")
    if p.F.A != p.A:
        issues.append("F is not X + (A X)^{*3}")
    if not is_yagzhev(p.G):
        issues.append("G is not identity plus cubic homogeneous")
    if p.G != _pushed_down(p.B, p.F.A, p.C):
        issues.append("G is not B F(C x)")
    return PairingReport(not issues, issues)


def _basis_padding(q_rows: list, m: int) -> list:
    """The rows e_i, i ascending, that pad the rows of Q to rank m, each
    e_i kept when it is not in the span of Q and the e_j before it.

    That happens exactly when e_i is not in Q's row space cut to columns
    i..m-1, that is when column i is not a pivot of Q eliminated from its
    last column to its first: one elimination, not a rank per e_i.
    """
    flipped = RatMatrix([{m - 1 - j: a for j, a in row.items()} for row in q_rows], m)
    pivots = {m - 1 - c for c in flipped.rref()[1]}
    return [{i: 1} for i in range(m) if i not in pivots]


def pair_up(g: PolyMap) -> GZPairing:
    """Build a cubic linear partner for a cubic homogeneous map.

    Decomposes G - X into cubes over a shared pool of r linear forms,
    indexed by their keys in first-seen order, stacks the forms into
    Q (r x m) and the coefficients into P (m x r), then pads Q with
    standard basis rows (zero P columns) until it reaches rank m, which
    the kernel axiom needs.  The partner lives in dimension n = m + r with

        A = [[0, 0], [Q, Q P]],   B = [I | P],   C = [I; 0].

    The pairing is only built; verify_pairing checks its axioms.
    """
    if not is_yagzhev(g):
        raise ValueError("pair_up expects an identity-plus-cubic map")
    m = g.n_in
    index = {}
    coeff_rows = []
    for i, c in enumerate(g.components):
        h = Poly(m, dict(terms_minus_x(c, i)))
        coeff_rows.append({index.setdefault(key, len(index)): coeff
                           for coeff, key in decompose_cubes(h)})

    q_rows = [dict(key) for key in index]
    q_rows += _basis_padding(q_rows, m)
    r = len(q_rows)
    n = m + r

    Q = RatMatrix(q_rows, m)
    P = RatMatrix(coeff_rows, r)
    QP = Q * P
    A = RatMatrix.zero(m, n).vstack(Q.hstack(QP))
    B = RatMatrix.identity(m).hstack(P)
    C = RatMatrix.identity(m).vstack(RatMatrix.zero(r, m))
    return GZPairing(A, B, C, CubicLinearMap(A), g)


def pair_down(f: PolyMap, A: RatMatrix) -> GZPairing:
    """Recover the cubic homogeneous partner of F(X) = X + (A X)^{*3}.

    B is the reduced row basis of A, C its right inverse with free
    coordinates zeroed; both are deterministic, so the round trip
    through pair_up reproduces its G exactly.  f is checked term by
    term against A and then stored as CubicLinearMap(A).  The pairing is
    only built; verify_pairing checks its axioms.
    """
    n = f.n_in
    if (A.nrows, A.ncols) != (n, n):
        raise ValueError("coefficient matrix shape does not match the map")
    if not _is_cubic_linear_from(f, A):
        raise ValueError("map is not X + (A X)^{*3} for the given matrix")
    m = A.rank()
    if m == 0:
        raise ValueError(
            "zero coefficient matrix: no partner of positive dimension")
    B = A.row_basis()
    C = B.right_inverse()
    if C is None:
        raise AssertionError("row basis lost full row rank")
    return GZPairing(A, B, C, CubicLinearMap(A), _pushed_down(B, A, C))


def pairing_to_equivalence(p: GZPairing) -> Certificate:
    """Certificate that G, padded by r = n - m fresh variables, reaches F
    through one cubic shear and one linear change of coordinates.

    With D a basis of ker B, the square matrix C' = [C | D] is
    invertible and B' = C'^{-1} stacks B over some E' that kills Im C;
    then B'(F(C'(x, z))) = (G(x), z + E'((A C x)^{*3})), so undoing the
    shear and the two linear moves replays (G, z) into F exactly.
    """
    report = verify_pairing(p)
    if not report.ok:
        raise ValueError(f"refusing an invalid pairing: {report.issues}")
    m = p.G.n_in
    n = p.F.n_in
    r = n - m
    builder = CertificateBuilder(p.G, kind="gz-equivalence")
    if r:
        builder.push(ExtendFreshVars(r))
        kernel = p.B.nullspace_basis()  # rows span ker B
        cprime = p.C.hstack(kernel.transpose())
        bprime = cprime.inverse()
        ac = p.A * p.C
        cubes = [linear_cube(form.extend(n))
                 for form in PolyMap.from_matrix(ac).components]
        additions = {}
        for j in range(r):
            s = Poly(n)
            for k, e in sorted(bprime.rows[m + j].items()):
                if not cubes[k].is_zero():
                    s = s + cubes[k].scale(e)
            if not s.is_zero():
                additions[m + j] = s
        if additions:
            builder.push(PreCompose(ShearAutomorphism(
                n, additions, "carry the cubes along the kernel block")))
    else:
        cprime = p.C
        bprime = p.B
    if cprime != RatMatrix.identity(n):
        builder.push(PostCompose(AffineAutomorphism.from_linear(
            cprime, bprime, "return to the partner's coordinates")))
        builder.push(PreCompose(AffineAutomorphism.from_linear(
            bprime, cprime, "match the partner's parametrization")))
    if p.F != builder.current:
        raise AssertionError("equivalence replay missed the partner map")
    return builder.build()
