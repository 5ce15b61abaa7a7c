"""Polynomial maps, Jacobians, and structural classification.

A PolyMap is a tuple of polynomials sharing one ambient variable count;
an endomorphism has as many components as variables.  Exact questions
about the Jacobian determinant (nonvanishing, constancy, nilpotency of
the homogeneous part) are answered symbolically within a budget and by
seeded rational sampling beyond it.  Sampling verdicts are one-sided: a
nonzero evaluation of a polynomial proves it nonzero, a pair of distinct
evaluations proves it nonconstant, a nonzero power trace proves a matrix
non-nilpotent.  The converse directions stay "unknown" rather than
being guessed.

Evaluation has two kernels.  A single point of ints and Fractions
(PolyMap.eval_at, eval_jacobian_sparse) goes to ratpoint.RationalPoint.
classify's seeded points are tallied by one loop, sample_tally, a block
at a time: within the budget the block's values come from the symbolic
determinant at once (_block_values), above it from sparse_det of the
Jacobian at each point.

Every shape polyred checks relative to the identity is read from F - X
through one helper, terms_minus_x, which walks f_i's own terms with
x_i's coefficient lowered by one: is_yagzhev and is_druzkowski here,
and the stage checks of polyred.reduce and gz.pair_up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import add, mul
from typing import Optional, Sequence

from .elim import poly_matrix_det
from .linalg import RatMatrix, sparse_det
from .poly import Poly, as_coeff, linear_cube, mono_degree, qdiv
from .ratpoint import RationalPoint, evaluator


@dataclass(frozen=True)
class Budget:
    """Caps on the exact-computation paths; crossing one is not an error,
    it routes the question to sampling (or to an Unknown answer)."""

    max_exact_det_dim: int = 12
    max_dim: int = 2000
    max_ms: int = 300_000


DEFAULT_BUDGET = Budget()

# is_nilpotent walks the symbolic power traces up to this dimension
EXACT_NILPOTENT_DIM = 24
# numeric matrix powers whose traces is_nilpotent probes at a sampled point
POWER_PROBE_CAP = 24


@dataclass(frozen=True)
class Unknown:
    reason: str


class BudgetExceeded(RuntimeError):
    pass


class GenericityError(RuntimeError):
    """A seeded search for a generic object (base point, rotation) failed.

    Retrying with another seed is the usual cure; a map for which every
    retry fails is typically degenerate."""


class PolyMap:
    """An ordered tuple of polynomials R^m -> R^n, exact coefficients.

    `tops` summarizes the components for shear replay: entry i is the
    highest variable index component i reads (Poly.top_index), so a
    component whose entry is below every shifted index cannot read a
    shifted variable.  It is None until top_indices() builds it; a caller
    that passes it vouches for it, since it is not checked.
    """

    __slots__ = ("components", "tops")

    def __init__(self, components: Sequence[Poly], tops: Optional[list] = None):
        comps = list(components)
        if not comps:
            raise ValueError("a map needs at least one component")
        vc = comps[0].varcount
        for c in comps:
            if c.varcount != vc:
                raise ValueError("components disagree on variable count")
        self.components = comps
        self.tops = tops

    def top_indices(self) -> list:
        """The summary `tops`, built on first use."""
        if self.tops is None:
            self.tops = [c.top_index() for c in self.components]
        return self.tops

    # -- shape ---------------------------------------------------------

    @property
    def n_in(self) -> int:
        return self.components[0].varcount

    @property
    def n_out(self) -> int:
        return len(self.components)

    def is_endomorphism(self) -> bool:
        return self.n_in == self.n_out

    def degree(self):
        degs = [c.degree() for c in self.components if not c.is_zero()]
        return max(degs) if degs else None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap([Poly.variable(n, i) for i in range(n)])

    @staticmethod
    def from_matrix(m: RatMatrix) -> "PolyMap":
        """x -> m x, one linear form per row."""
        return PolyMap([Poly(m.ncols, {((j, 1),): a for j, a in sorted(row.items())})
                        for row in m.rows])

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def eval_at(self, point: Sequence) -> list:
        """The components' values at a point, through ratpoint.evaluator."""
        value = evaluator(point)
        return [value(c) for c in self.components]

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner."""
        if inner.n_out != self.n_in:
            raise ValueError("shape mismatch in composition")
        return PolyMap([c.substitute(inner.components) for c in self.components])

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        if other.n_out != self.n_out or other.n_in != self.n_in:
            raise ValueError("shape mismatch")
        return PolyMap([a - b for a, b in zip(self.components, other.components)])

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if other.n_out != self.n_out or other.n_in != self.n_in:
            raise ValueError("shape mismatch")
        return PolyMap([a + b for a, b in zip(self.components, other.components)])

    def is_identity(self) -> bool:
        return self.is_endomorphism() and self == PolyMap.identity(self.n_in)

    def __repr__(self) -> str:
        return f"PolyMap({self.n_in}->{self.n_out}, deg={self.degree()})"


def jacobian(f: PolyMap) -> list:
    """Jacobian matrix as nested lists of Polys, row i = gradient of f_i."""
    return [[c.derive(j) for j in range(f.n_in)] for c in f.components]


def jacobian_degree_bound(f: PolyMap) -> int:
    total = 0
    for c in f.components:
        d = c.degree()
        total += max((d or 0) - 1, 0)
    return total


def jacobian_det(f: PolyMap, budget: Budget = DEFAULT_BUDGET):
    """Exact Jacobian determinant, or Unknown when over budget."""
    if not f.is_endomorphism():
        raise ValueError("Jacobian determinant needs an endomorphism")
    if f.n_in > budget.max_exact_det_dim:
        return Unknown(
            f"dimension {f.n_in} exceeds the exact determinant cap "
            f"{budget.max_exact_det_dim}"
        )
    return poly_matrix_det(jacobian(f), f.n_in)


def sparse_jacobian(f: PolyMap) -> list:
    """Rows [(v, d f_i / d x_v)] over the variables each f_i uses: the
    Jacobian's possibly nonzero entries, derived once for many points."""
    return [[(v, c.derive(v)) for v in sorted(c.variables_used())]
            for c in f.components]


def eval_jacobian_sparse(jac: list, point) -> list:
    """A sparse_jacobian, or any rows of (column, Poly) entries, at a
    rational point (a coordinate list or a RationalPoint, evaluated
    through ratpoint.evaluator), as {column: nonzero value} rows of a
    RatMatrix."""
    value = evaluator(point)
    rows = []
    for entries in jac:
        row = {}
        for v, d in entries:
            val = value(d)
            if val:
                row[v] = as_coeff(val)
        rows.append(row)
    return rows


def sample_points(rng: random.Random, n: int, count: int, box: int):
    """Seeded rational sample points as (numerators, shared denominator)."""
    dens = (1, 1, 2, 3, 5)
    for _ in range(count):
        den = dens[rng.randrange(len(dens))]
        yield [rng.randrange(-box, box + 1) for _ in range(n)], den


SAMPLE_BLOCK = 256  # points evaluated together; bounds memory at any --samples


def sample_tally(block_values, rng: random.Random, n: int, samples: int, box: int):
    """(zeros, first zero, first two distinct values) over the seeded
    sample points of sample_points, with the same draws.

    The points are taken in blocks of SAMPLE_BLOCK, and block_values
    maps a block of (numerators, den) points to one value per point, in
    order.  zeros counts the points whose value is 0, the first zero is
    the first such point as ([numerators], den), and the distinct values
    are listed in the order they first appear, at most two.
    """
    zeros = 0
    first_zero = None
    distinct: list = []
    points = sample_points(rng, n, samples, box)
    while block := list(islice(points, SAMPLE_BLOCK)):
        values = block_values(block)
        hits = values.count(0)
        if hits:
            zeros += hits
            if first_zero is None:
                nums, den = block[values.index(0)]
                first_zero = (list(nums), den)
        for v in values:
            if len(distinct) == 2:
                break
            if v not in distinct:
                distinct.append(v)
    return zeros, first_zero, distinct


def poly_block_values(p: Poly):
    """block -> den**D * p(nums / den) / content(p) at each (nums, den) of
    the block, in integers: a nonzero multiple of p's value, so zero
    exactly where p vanishes.  p's integer terms are grouped by degree
    once, for every block; see _block_values."""
    _, items = p.content_and_integer_terms()
    by_degree: dict = {}
    top_exp: dict = {}
    for m, c in items:
        by_degree.setdefault(mono_degree(m), []).append((m, c))
        for v, e in m:
            top_exp[v] = max(top_exp.get(v, 0), e)
    return lambda block: _block_values(by_degree, top_exp, block)


def _block_values(by_degree: dict, top_exp: dict, block: list) -> list:
    """den**D * p(nums / den) at each (nums, den) of block, in integers.

    p is given by its integer terms grouped by degree, D is its top
    degree and top_exp[v] the largest exponent of x_v.  Each coordinate
    becomes a column and its powers nums_v**e columns, each built once;
    a degree's terms are summed column-wise, and the degrees are
    combined by Horner in den.
    """
    size = len(block)
    coords = list(zip(*[nums for nums, _ in block]))
    powers = {}
    for v, top in top_exp.items():
        col = coords[v]
        cols = [col]
        for _ in range(top - 1):
            cols.append(list(map(mul, cols[-1], col)))
        powers[v] = cols
    dens = [den for _, den in block]
    values = None
    for d in range(max(by_degree, default=0) + 1):
        if values is not None:
            values = list(map(mul, values, dens))
        level = None
        for m, c in by_degree.get(d, ()):
            col = repeat(c, size)
            for v, e in m:
                col = map(mul, col, powers[v][e - 1])
            level = list(col) if level is None else list(map(add, level, col))
        if level is not None:
            values = level if values is None else list(map(add, values, level))
    return [0] * size if values is None else values


@dataclass
class Classification:
    dim: int
    degree: Optional[int]
    jacobian_degree_bound: int
    mode: str  # "exact" or "sampled"
    nondegenerate: Optional[bool]
    keller: Optional[bool]
    nonsingular_sampled: Optional[bool]
    samples: int = 0
    seed: Optional[int] = None
    notes: list = field(default_factory=list)


def classify(
    f: PolyMap,
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
    samples: int = 1000,
) -> Classification:
    """Nondegeneracy / Keller / nonvanishing report for an endomorphism.

    Within the exact-determinant budget every verdict is symbolic.  Above
    it the verdicts come from seeded sampling and only the one-sided
    conclusions are claimed; everything else is None with a note.
    """
    if not f.is_endomorphism():
        raise ValueError("classification needs an endomorphism")
    n = f.n_in
    bound = jacobian_degree_bound(f)
    det = jacobian_det(f, budget)
    rng = random.Random(seed)
    box = 2 * max(bound, 1) * 10
    if isinstance(det, Poly):
        mode = "exact"
        nondeg = not det.is_zero()
        keller = det.is_constant() and not det.is_zero()
        notes = ["jacobian determinant computed exactly"]
        # nothing to sample for a zero or a nonzero constant determinant
        block_values = poly_block_values(det) if nondeg and not keller else None
    else:
        # sampled route: evaluate the Jacobian exactly, point by point, in
        # integers over the point's denominator
        mode = "sampled"
        notes = [det.reason, "verdicts from seeded sampling; positives are exact"]
        jac = sparse_jacobian(f)

        def block_values(block):
            return [sparse_det(eval_jacobian_sparse(jac, RationalPoint(nums, den)), n)
                    for nums, den in block]
    if block_values is None:
        nonsing = True if keller else None
        used = samples if nondeg else 0
    else:
        zeros, first_zero, distinct = sample_tally(block_values, rng, n, samples, box)
        if mode == "sampled":
            # exact determinant values, so a nonzero one and two distinct
            # ones are proofs; the exact route's values are only scaled
            nondeg = True if any(distinct) else None
            keller = None
            if len(distinct) == 2:
                keller = False
                notes.append("jacobian determinant takes two distinct sampled values")
        if first_zero is not None:
            notes.append(f"jacobian vanishes at sampled point {first_zero}")
        nonsing = zeros == 0
        used = samples
    return Classification(
        dim=n,
        degree=f.degree(),
        jacobian_degree_bound=bound,
        mode=mode,
        nondegenerate=nondeg,
        keller=keller,
        nonsingular_sampled=nonsing,
        samples=used,
        seed=seed,
        notes=notes,
    )


# -- structural predicates -------------------------------------------------


def terms_minus_x(c: Poly, i: int):
    """Yield the terms of c - x_i, for c the i-th component of a map.

    c's own term dict is read as it stands: only x_i's coefficient is
    lowered by one, dropped when that leaves zero, and yielded as -1
    after the others when c has no x_i term.  Nothing is copied.
    """
    own = ((i, 1),)
    terms = c.terms
    for m, coeff in terms.items():
        if m != own:
            yield m, coeff
        elif coeff != 1:
            yield m, coeff - 1
    if own not in terms:
        yield own, -1


def adjugate(m: list, varcount: int) -> list:
    """Adjugate of a square matrix of Polys: adj(M) @ M = det(M) * I."""
    n = len(m)
    if n == 1:
        return [[Poly.const(varcount, 1)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            d = poly_matrix_det(minor, varcount)
            adj[j][i] = d if (i + j) % 2 == 0 else d.scale(-1)
    return adj


def is_yagzhev(f: PolyMap) -> bool:
    """Identity plus a cubic homogeneous part, componentwise."""
    return f.is_endomorphism() and all(
        mono_degree(m) == 3
        for i, c in enumerate(f.components) for m, _ in terms_minus_x(c, i))


def recognize_cube(h: Poly):
    """Write h = scale * (linear form)^3 if possible.

    Returns (scale, coefficient list of the form, normalized so the
    pivot variable has coefficient 1), or None when h is not such a
    cube.  The zero polynomial yields (0, zero form).
    """
    n = h.varcount
    if h.is_zero():
        return 0, [0] * n
    if h.degree() != 3 or not h.is_homogeneous():
        return None
    pivot = None
    scale = None
    for k in range(n):
        c = h.terms.get(((k, 3),))
        if c:
            pivot = k
            scale = c
            break
    if pivot is None:
        return None
    coeffs = [0] * n
    coeffs[pivot] = 1
    for j in range(n):
        if j == pivot:
            continue
        mono = ((pivot, 2), (j, 1)) if pivot < j else ((j, 1), (pivot, 2))
        coeffs[j] = qdiv(h.terms.get(mono, 0), 3 * scale)
    form = Poly(n, {((j, 1),): c for j, c in enumerate(coeffs) if c})
    if linear_cube(form).scale(scale) == h:
        return scale, coeffs
    return None


def is_druzkowski(f: PolyMap):
    """Identity plus componentwise cubes of linear forms.

    Returns (True, [(scale, coeffs)] per component) or (False, None).
    """
    if not f.is_endomorphism():
        return False, None
    n = f.n_in
    data = []
    for i, c in enumerate(f.components):
        rec = recognize_cube(Poly(n, dict(terms_minus_x(c, i))))
        if rec is None:
            return False, None
        data.append(rec)
    return True, data


# -- nilpotency ---------------------------------------------------------------


def _poly_matrix_is_zero(m: list) -> bool:
    return all(p.is_zero() for row in m for p in row)


def _poly_matmul(a: list, b: list, varcount: int) -> list:
    n = len(a)
    k = len(b)
    cols = len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            s = Poly(varcount)
            for t in range(k):
                if not a[i][t].is_zero() and not b[t][j].is_zero():
                    s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def is_nilpotent(m: list, varcount: int, seed: int = 0):
    """(verdict, witness) for a square matrix of Polys.

    Exact mode (dimension at most EXACT_NILPOTENT_DIM): walks the power
    traces; all of trace(M^k) = 0 for k = 1..n forces nilpotency in
    characteristic 0, and the first nonzero trace is a proof the other
    way.  Above that dimension the matrix is specialized at seeded
    integer points and the numeric power traces give sound "not
    nilpotent" witnesses; if none appears the verdict is None.
    """
    n = len(m)
    if n == 0:
        return True, "empty matrix"
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n <= EXACT_NILPOTENT_DIM:
        power = m
        for k in range(1, n + 1):
            tr = Poly(varcount)
            for i in range(n):
                tr = tr + power[i][i]
            if not tr.is_zero():
                return False, f"trace of power {k} is a nonzero polynomial"
            if _poly_matrix_is_zero(power):
                return True, f"power {k} vanishes"
            if k < n:
                power = _poly_matmul(power, m, varcount)
        return True, f"all power traces through {n} vanish"
    rng = random.Random(seed)
    box = 20
    entries = [[(j, p) for j, p in enumerate(row) if not p.is_zero()]
               for row in m]
    for attempt in range(3):
        nums = [rng.randrange(-box, box + 1) for _ in range(varcount)]
        numeric = RatMatrix(eval_jacobian_sparse(entries, nums), n)
        power = numeric
        for k in range(1, min(n, POWER_PROBE_CAP) + 1):
            tr = sum(row.get(i, 0) for i, row in enumerate(power.rows))
            if tr != 0:
                return False, {
                    "point": nums,
                    "power": k,
                    "trace": str(tr),
                }
            if not any(power.rows):
                break
            if k < min(n, POWER_PROBE_CAP):
                power = power * numeric
    return None, "no non-nilpotency witness found by sampling"
