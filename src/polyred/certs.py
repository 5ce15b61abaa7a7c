"""Machine-checkable certificates connecting polynomial maps.

A certificate links a source map to a target map through a sequence of
moves, each one an elementary operation whose effect on a map is fully
determined by its stored data:

  * ExtendFreshVars(k): append k fresh variables, acting as the
    identity on them, at the end of both domain and codomain.
  * PostCompose(A): replace F by A after F.
  * PreCompose(A): replace F by F after A.
  * SegreExtend: replace F (no constant terms) by (F(t x)/t, t) with a
    fresh last variable t.

A certificate is its source, its moves and its target, nothing else.
Verification replays the moves once, from the source, checking each
automorphism on the way, and compares the last map with the target; no
intermediate map is stored or trusted.  Automorphisms carry their
inverses and are checked two-sided and symbolically; an inverse may be
rational, in which case the identity is checked in the fraction field
(denominators cleared, exactly).

A shear x -> x + g is the exception: it is stored as its addends g_i
alone, and it is checked by their shape.  When every addend lives in the
shear's variables and none reads a shifted variable, x - g is an exact
two-sided inverse, so that test proves what the symbolic composition
would.  Replay and transport touch only the shifted coordinates.

Each move also induces a correspondence of graph points: given x and
y = F(x), it says which (x', y') witnesses the next map.  Pushing
sampled fiber points through that correspondence and re-checking the
final equation is an independent, cheap consistency probe; it cannot
replace replay but catches broken bookkeeping fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Union

from .maps import PolyMap
from .poly import ExactDivisionError, Poly


class RationalMap:
    """Numerators over one shared denominator, all exact."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: Poly):
        self.nums = list(nums)
        self.den = den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        for p in self.nums:
            if p.varcount != den.varcount:
                raise ValueError("variable count mismatch in rational map")

    @property
    def n_in(self) -> int:
        return self.den.varcount

    @property
    def n_out(self) -> int:
        return len(self.nums)

    def eval_at(self, point):
        d = self.den.eval_at(point)
        if d == 0:
            return None
        return [p.eval_at(point) / d for p in self.nums]

    def __repr__(self) -> str:
        return f"RationalMap({self.n_in}->{self.n_out})"


def substitute_rational(p: Poly, nums, den: Poly):
    """p(nums/den) written over a single denominator: returns (q, k) with
    p(nums/den) = q / den**k.

    A numerator that den divides exactly is substituted as its quotient.
    Only the remaining, genuinely rational coordinates are homogenized:
    k is the largest degree of a term of p in them, and each term c*x^m
    gains h^(k - that degree) for one extra variable h, with den
    substituted for h.
    """
    images = []
    rational = set()
    for i, num in enumerate(nums):
        try:
            images.append(num.exact_divide(den))
        except ExactDivisionError:
            images.append(num)
            rational.add(i)
    degs = {m: sum(e for v, e in m if v in rational) for m in p.terms}
    k = max(degs.values(), default=0)
    h = p.varcount
    hom = {}
    for m, c in p.terms.items():
        pad = k - degs[m]
        hom[m + ((h, pad),) if pad else m] = c
    return Poly(h + 1, hom).substitute(images + [den]), k


class Automorphism:
    """An invertible polynomial map bundled with its inverse.

    The inverse is a PolyMap for genuine polynomial automorphisms and a
    RationalMap when only a birational inverse exists (then the forward
    direction is injective off the denominator's zero set and the
    composition identities hold in the fraction field).
    """

    __slots__ = ("forward", "inverse", "label")

    def __init__(self, forward: PolyMap, inverse, label: str = ""):
        if forward.n_in != forward.n_out:
            raise ValueError("an automorphism must be an endomorphism")
        self.forward = forward
        self.inverse = inverse
        self.label = label

    @property
    def dim(self) -> int:
        return self.forward.n_in

    def is_polynomial(self) -> bool:
        return isinstance(self.inverse, PolyMap)

    def verify_two_sided(self) -> Optional[str]:
        """None when both composition identities hold exactly, else a
        human-readable reason."""
        n = self.dim
        fwd = self.forward
        inv = self.inverse
        if isinstance(inv, PolyMap):
            if inv.n_in != n or inv.n_out != n:
                return "inverse has the wrong shape"
            if not fwd.compose(inv).is_identity():
                return "forward after inverse is not the identity"
            if not inv.compose(fwd).is_identity():
                return "inverse after forward is not the identity"
            return None
        if inv.n_in != n or inv.n_out != n:
            return "rational inverse has the wrong shape"
        # forward after inverse, in the fraction field
        for i, comp in enumerate(fwd.components):
            q, k = substitute_rational(comp, inv.nums, inv.den)
            expect = Poly.variable(n, i) * inv.den ** k
            if q != expect:
                return f"forward after rational inverse fails on component {i}"
        # inverse after forward: polynomial identities
        den_f = inv.den.substitute(fwd.components)
        for i, num in enumerate(inv.nums):
            if num.substitute(fwd.components) != Poly.variable(n, i) * den_f:
                return f"rational inverse after forward fails on component {i}"
        return None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_linear(m, inverse_m=None, label: str = "") -> "Automorphism":
        from .linalg import RatMatrix

        if inverse_m is None:
            inverse_m = m.inverse()
        return Automorphism(
            PolyMap.from_matrix(m), PolyMap.from_matrix(inverse_m), label
        )

    @staticmethod
    def from_sparse_linear(rows, inv_rows, label: str = "") -> "Automorphism":
        """Linear automorphism from sparse {col: coeff} rows."""
        n = len(rows)

        def mk(rs):
            comps = []
            for r in rs:
                p = Poly(n, {((j, 1),): Fraction(v) for j, v in sorted(r.items()) if v})
                comps.append(p)
            return PolyMap(comps)

        return Automorphism(mk(rows), mk(inv_rows), label)

    @staticmethod
    def translation(vec, label: str = "") -> "Automorphism":
        fwd = PolyMap.translation(vec)
        inv = PolyMap.translation([-Fraction(v) for v in vec])
        return Automorphism(fwd, inv, label)

    @staticmethod
    def shear(n: int, additions: dict, label: str = "") -> "ShearAutomorphism":
        """x_i -> x_i + g_i for (i, g_i) in additions, identity elsewhere.

        No g_i may involve any of the shifted variables; that makes the
        negated shear an exact inverse.
        """
        return ShearAutomorphism(n, additions, label)

    @staticmethod
    def permutation(n: int, perm, label: str = "") -> "Automorphism":
        """Sends x to (x[perm[0]], ..., x[perm[n-1]])."""
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation")
        fwd = PolyMap([Poly.variable(n, perm[i]) for i in range(n)])
        inv_perm = [0] * n
        for i, p in enumerate(perm):
            inv_perm[p] = i
        inv = PolyMap([Poly.variable(n, inv_perm[i]) for i in range(n)])
        return Automorphism(fwd, inv, label)

    def __repr__(self) -> str:
        tag = self.label or ("poly" if self.is_polynomial() else "rational-inverse")
        return f"Automorphism(dim={self.dim}, {tag})"


def _shear_defect(n: int, additions: dict) -> Optional[str]:
    for i, g in additions.items():
        if not 0 <= i < n:
            return "shear index out of range"
        if g.varcount != n:
            return "shear addend has the wrong variable count"
        if not g.variables_used().isdisjoint(additions):
            return "shear addend uses a shifted variable"
    return None


class ShearAutomorphism:
    """x_i -> x_i + g_i on a sparse set of coordinates, stored as its addends.

    Moves, JSON and transport all read the addend dictionary; the full
    forward and inverse maps are never built.
    """

    __slots__ = ("n", "additions", "label")

    def __init__(self, n: int, additions: dict, label: str = ""):
        reason = _shear_defect(n, additions)
        if reason is not None:
            raise ValueError(reason)
        self.n = n
        self.additions = dict(additions)
        self.label = label

    @property
    def dim(self) -> int:
        return self.n

    def verify_two_sided(self) -> Optional[str]:
        """None when every index is in range, every addend lives in n
        variables and none reads a shifted variable, else the reason.
        That shape proves x - g inverts x + g: x + g after x - g sends x_i
        to x_i - g_i(x) + g_i(x - g) = x_i, as g_i reads only coordinates
        x - g leaves alone, and likewise the other way round."""
        return _shear_defect(self.n, self.additions)

    def __repr__(self) -> str:
        return f"ShearAutomorphism(dim={self.n}, shifts={sorted(self.additions)})"


@dataclass(frozen=True)
class ExtendFreshVars:
    count: int


@dataclass(frozen=True)
class PostCompose:
    auto: Automorphism


@dataclass(frozen=True)
class PreCompose:
    auto: Automorphism


@dataclass(frozen=True)
class SegreExtend:
    pass


Move = Union[ExtendFreshVars, PostCompose, PreCompose, SegreExtend]


def apply_move(f: PolyMap, move: Move) -> PolyMap:
    """The map after one move.  Components a shear does not touch are
    carried over as the same objects, which keeps replaying long chained
    certificates cheap."""
    if isinstance(move, ExtendFreshVars):
        k = move.count
        if k < 1:
            raise ValueError("must add at least one fresh variable")
        n = f.n_in + k
        comps = [c.extend(n) for c in f.components]
        comps.extend(Poly.variable(n, f.n_in + i) for i in range(k))
        return PolyMap(comps)
    if isinstance(move, PostCompose):
        a = move.auto
        if a.dim != f.n_out:
            raise ValueError("post-composition shape mismatch")
        if not isinstance(a, ShearAutomorphism):
            return a.forward.compose(f)
        out = list(f.components)
        for i, g in a.additions.items():
            out[i] = f.components[i] + g.substitute(f.components)
        return PolyMap(out)
    if isinstance(move, PreCompose):
        a = move.auto
        if a.dim != f.n_in:
            raise ValueError("pre-composition shape mismatch")
        if not isinstance(a, ShearAutomorphism):
            return f.compose(a.forward)
        images = [Poly.variable(a.n, i) for i in range(a.n)]
        for i, g in a.additions.items():
            images[i] = images[i] + g
        return PolyMap([c if c.variables_used().isdisjoint(a.additions) else c.substitute(images)
                        for c in f.components])
    if isinstance(move, SegreExtend):
        if not f.is_endomorphism():
            raise ValueError("the Segre move needs an endomorphism")
        if any(c.constant_term() != 0 for c in f.components):
            raise ValueError("the Segre move needs zero constant terms")
        n = f.n_in
        t = Poly.variable(n + 1, n)
        scaled = [Poly.variable(n + 1, i) * t for i in range(n)]
        comps = [c.extend(n + 1).substitute(scaled + [t]).exact_divide(t) for c in f.components]
        comps.append(t)
        return PolyMap(comps)
    raise TypeError(f"unknown move {move!r}")


class Certificate:
    """Source, target, and the moves that carry one to the other."""

    def __init__(self, source: PolyMap, target: PolyMap, moves: List[Move],
                 kind: str = "reduction"):
        self.source = source
        self.target = target
        self.moves = moves
        self.kind = kind

    def __repr__(self) -> str:
        return (
            f"Certificate({self.kind}, {self.source.n_in}->{self.target.n_in} vars, "
            f"{len(self.moves)} moves)"
        )


class CertificateBuilder:
    def __init__(self, source: PolyMap, kind: str = "reduction"):
        self.source = source
        self.kind = kind
        self.moves: List[Move] = []
        self.current = source

    def push(self, move: Move) -> PolyMap:
        self.current = apply_move(self.current, move)
        self.moves.append(move)
        return self.current

    def build(self) -> Certificate:
        return Certificate(self.source, self.current, self.moves, self.kind)


@dataclass
class CertReport:
    ok: bool
    moves_checked: int
    autos_checked: int
    issues: list = field(default_factory=list)


def verify_certificate(cert: Certificate) -> CertReport:
    """Replay the moves once from the source, check every automorphism
    inverts exactly, and compare the map reached with the target.  A move
    whose replay raises ends the walk there."""
    issues = []
    autos = 0
    cur = cert.source
    for idx, move in enumerate(cert.moves):
        if isinstance(move, (PostCompose, PreCompose)):
            reason = move.auto.verify_two_sided()
            autos += 1
            if reason is not None:
                issues.append(f"move {idx}: automorphism check failed: {reason}")
        try:
            cur = apply_move(cur, move)
        except (ValueError, TypeError, ArithmeticError) as e:
            issues.append(f"move {idx}: replay raised: {e}")
            return CertReport(False, idx + 1, autos, issues)
    if cur != cert.target:
        issues.append("last intermediate differs from the target")
    return CertReport(not issues, len(cert.moves), autos, issues)


@dataclass
class FiberReport:
    ok: bool
    samples_run: int
    samples_skipped: int
    issues: list = field(default_factory=list)


def _transport(move: Move, x: list, y: list, rng: random.Random):
    """Push a graph point (x, F(x) = y) through one move; None skips."""
    if isinstance(move, ExtendFreshVars):
        z = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(move.count)]
        return x + z, y + z
    if isinstance(move, PostCompose):
        a = move.auto
        if not isinstance(a, ShearAutomorphism):
            return x, a.forward.eval_at(y)
        ny = list(y)
        for i, g in a.additions.items():
            ny[i] = y[i] + g.eval_at(y)
        return x, ny
    if isinstance(move, PreCompose):
        a = move.auto
        if not isinstance(a, ShearAutomorphism):
            nx = a.inverse.eval_at(x)
            return None if nx is None else (nx, y)
        nx = list(x)
        for i, g in a.additions.items():
            nx[i] = x[i] - g.eval_at(x)
        return nx, y
    if isinstance(move, SegreExtend):
        t = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        if rng.randrange(2):
            t = -t
        return [xi / t for xi in x] + [t], [yi / t for yi in y] + [t]
    raise TypeError(f"unknown move {move!r}")


def fiber_transport_check(cert: Certificate, seed: int = 0, samples: int = 20) -> FiberReport:
    """Sample fiber points of the source and chase them through every
    move's point correspondence; the transported points must satisfy the
    target equation exactly.  Samples whose transport hits a rational
    inverse's vanishing denominator are skipped and counted."""
    rng = random.Random(seed)
    n = cert.source.n_in
    run = 0
    skipped = 0
    issues = []
    for s in range(samples):
        x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
        y = cert.source.eval_at(x)
        dead = False
        for idx, move in enumerate(cert.moves):
            nxt = _transport(move, x, y, rng)
            if nxt is None:
                skipped += 1
                dead = True
                break
            x, y = nxt
        if dead:
            continue
        run += 1
        if cert.target.eval_at(x) != y:
            issues.append(f"sample {s}: transported point misses the target graph")
    return FiberReport(not issues, run, skipped, issues)
