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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .elim import poly_matrix_det
from .linalg import RatMatrix, sparse_det, sparse_matmul, sparse_trace
from .poly import Poly, eval_scaled_int, linear_cube, mono_degree


@dataclass(frozen=True)
class Budget:
    """Caps on the exact-computation paths; crossing one is not an error,
    it routes the question to sampling (or to an Unknown answer)."""

    max_exact_det_dim: int = 12
    max_exact_nilpotent_dim: int = 24
    max_dim: int = 2000
    max_ms: int = 300_000
    power_probe_cap: int = 24


DEFAULT_BUDGET = Budget()


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
    """An ordered tuple of polynomials R^m -> R^n, exact coefficients."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Poly]):
        comps = list(components)
        if not comps:
            raise ValueError("a map needs at least one component")
        vc = comps[0].varcount
        for c in comps:
            if c.varcount != vc:
                raise ValueError("components disagree on variable count")
        self.components = comps

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
        return PolyMap([Poly(m.ncols, {((j, 1),): Fraction(a) for j, a in enumerate(row) if a})
                        for row in m.rows])

    @staticmethod
    def translation(vec: Sequence) -> "PolyMap":
        n = len(vec)
        return PolyMap(
            [Poly.variable(n, i) + Poly.const(n, Fraction(vec[i])) for i in range(n)]
        )

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def eval_at(self, point: Sequence) -> list:
        return [c.eval_at(point) for c in self.components]

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

    def constant_part(self) -> list:
        return [c.constant_term() for c in self.components]

    def linear_part(self) -> RatMatrix:
        rows = []
        for c in self.components:
            lin = c.homogeneous_part(1)
            row = [Fraction(0)] * self.n_in
            for m, coef in lin.terms.items():
                row[m[0][0]] = coef
            rows.append(row)
        return RatMatrix(rows)

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


def eval_jacobian_sparse(f: PolyMap, point: Sequence) -> list:
    """Jacobian at a point as sparse rows, skipping zero derivatives.

    Derivatives are taken only with respect to variables a component
    actually uses, so this stays cheap in high dimension.
    """
    rows = []
    for c in f.components:
        row = {}
        for v in sorted(c.variables_used()):
            val = c.derive(v).eval_at(point)
            if val:
                row[v] = val
        rows.append(row)
    return rows


def sample_points(rng: random.Random, n: int, count: int, box: int):
    """Seeded rational sample points as (numerators, shared denominator)."""
    dens = (1, 1, 2, 3, 5)
    for _ in range(count):
        den = dens[rng.randrange(len(dens))]
        yield [rng.randrange(-box, box + 1) for _ in range(n)], den


@dataclass
class SampleReport:
    samples: int
    zero_points: int
    nonzero_points: int
    first_zero: Optional[tuple]
    distinct_values: bool


def sample_poly_values(p: Poly, rng: random.Random, samples: int, box: int) -> SampleReport:
    _, items = p.content_and_integer_terms()
    d = p.degree() or 0
    zeros = 0
    nonzeros = 0
    first_zero = None
    seen = None  # (v, den**d) of the first sample; its value is v / (L den**d)
    distinct = False
    for nums, den in sample_points(rng, p.varcount, samples, box):
        v = eval_scaled_int(items, nums, den, d)
        scale = den ** d
        if v == 0:
            zeros += 1
            if first_zero is None:
                first_zero = (list(nums), den)
        else:
            nonzeros += 1
        if seen is None:
            seen = (v, scale)
        elif v * seen[1] != seen[0] * scale:
            distinct = True
    return SampleReport(samples, zeros, nonzeros, first_zero, distinct)


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
        nondeg = not det.is_zero()
        keller = det.is_constant() and not det.is_zero()
        report = None
        nonsing = None
        notes = ["jacobian determinant computed exactly"]
        if nondeg:
            report = sample_poly_values(det, rng, samples, box)
            nonsing = report.zero_points == 0
            if report.first_zero is not None:
                notes.append(
                    f"jacobian vanishes at sampled point {report.first_zero}"
                )
        return Classification(
            dim=n,
            degree=f.degree(),
            jacobian_degree_bound=bound,
            mode="exact",
            nondegenerate=nondeg,
            keller=keller,
            nonsingular_sampled=nonsing,
            samples=samples if report else 0,
            seed=seed,
            notes=notes,
        )
    # sampled route: evaluate the Jacobian numerically, point by point
    notes = [det.reason, "verdicts from seeded sampling; positives are exact"]
    zeros = 0
    first_zero = None
    values = set()
    for nums, den in sample_points(rng, n, samples, box):
        point = [Fraction(a, den) for a in nums]
        rows = eval_jacobian_sparse(f, point)
        d = sparse_det(rows, n)
        if d == 0:
            zeros += 1
            if first_zero is None:
                first_zero = (nums, den)
        if len(values) < 2:
            values.add(d)
    nondeg = True if len(values - {Fraction(0)}) >= 1 else None
    keller: Optional[bool] = None
    if len(values) >= 2:
        keller = False  # two distinct determinant values, exactly computed
        notes.append("jacobian determinant takes two distinct sampled values")
    if first_zero is not None:
        notes.append(f"jacobian vanishes at sampled point {first_zero}")
        if any(v != 0 for v in values):
            keller = False
    return Classification(
        dim=n,
        degree=f.degree(),
        jacobian_degree_bound=bound,
        mode="sampled",
        nondegenerate=nondeg,
        keller=keller,
        nonsingular_sampled=zeros == 0,
        samples=samples,
        seed=seed,
        notes=notes,
    )


# -- structural predicates -------------------------------------------------


def has_identity_linear_part(f: PolyMap) -> bool:
    """True when the degree-1 part of f_i is exactly x_i, for every i.

    Works term by term, so unlike linear_part() it never builds the
    dense n-by-n matrix; fine at a few thousand variables.
    """
    if not f.is_endomorphism():
        return False
    for i, c in enumerate(f.components):
        own = ((i, 1),)
        seen = False
        for m, coeff in c.terms.items():
            if mono_degree(m) != 1:
                continue
            if m != own or coeff != 1:
                return False
            seen = True
        if not seen:
            return False
    return True


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
    if not f.is_endomorphism():
        return False
    n = f.n_in
    for i, c in enumerate(f.components):
        h = c - Poly.variable(n, i)
        if h.is_zero():
            continue
        if not h.is_homogeneous() or h.degree() != 3:
            return False
    return True


def recognize_cube(h: Poly):
    """Write h = scale * (linear form)^3 if possible.

    Returns (scale, coefficient list of the form, normalized so the
    pivot variable has coefficient 1), or None when h is not such a
    cube.  The zero polynomial yields (0, zero form).
    """
    n = h.varcount
    if h.is_zero():
        return Fraction(0), [Fraction(0)] * n
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
    coeffs = [Fraction(0)] * n
    coeffs[pivot] = Fraction(1)
    for j in range(n):
        if j == pivot:
            continue
        mono = ((pivot, 2), (j, 1)) if pivot < j else ((j, 1), (pivot, 2))
        c = h.terms.get(mono, Fraction(0))
        coeffs[j] = c / (3 * scale)
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
        h = c - Poly.variable(n, i)
        rec = recognize_cube(h)
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


def is_nilpotent(
    m: list,
    varcount: int,
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
):
    """(verdict, witness) for a square matrix of Polys.

    Exact mode (dimension within budget): walks the power traces; all of
    trace(M^k) = 0 for k = 1..n forces nilpotency in characteristic 0,
    and the first nonzero trace is a proof the other way.  Beyond the
    budget the matrix is specialized at seeded rational points and the
    numeric power traces give sound "not nilpotent" witnesses; if none
    appears the verdict is None.
    """
    n = len(m)
    if n == 0:
        return True, "empty matrix"
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n <= budget.max_exact_nilpotent_dim:
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
    for attempt in range(3):
        nums = [rng.randrange(-box, box + 1) for _ in range(varcount)]
        point = [Fraction(a) for a in nums]
        numeric = []
        for row in m:
            r = {}
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                v = p.eval_at(point)
                if v:
                    r[j] = v
            numeric.append(r)
        power = numeric
        for k in range(1, min(n, budget.power_probe_cap) + 1):
            tr = sparse_trace(power)
            if tr != 0:
                return False, {
                    "point": nums,
                    "power": k,
                    "trace": str(tr),
                }
            if all(not r for r in power):
                break
            if k < min(n, budget.power_probe_cap):
                power = sparse_matmul(power, numeric)
    return None, "no non-nilpotency witness found by sampling"
