"""Reduction to cubic and Yagzhev form, plus the gradient symmetrization.

Each stage returns the transformed map together with a Certificate whose
moves replay from the input to the claimed output, so nothing has to be
taken on faith.  ``to_yagzhev`` chains the four stages:

  1. split high-degree terms until every component has degree <= 3,
  2. move a generic base point to the origin and straighten the
     differential there,
  3. extend by one projective-style variable t (the Segre extension),
  4. absorb the quadratic block into fresh variables, leaving an
     identity-plus-cubic-homogeneous map.

The variable count grows along the way; stage 1 splits off factors
shared by many terms to keep it down but does not minimize it.  The
per-stage dimensions are recorded in the trace.

Which stages run, and what segre_step and eliminate_quadratic accept,
are read from the degrees of F - X, term by term through
maps.terms_minus_x: normalization is skipped when no term has degree 0
or 1, the Segre extension needs every degree to be 2 or 3, and the
(X + tQ + t^2 C, t) shape is split from the same terms.
"""

import random
import time
from dataclasses import dataclass

from .certs import (
    Automorphism,
    Certificate,
    CertificateBuilder,
    ExtendFreshVars,
    PostCompose,
    PreCompose,
    RationalMap,
    SegreExtend,
    ShearAutomorphism,
)
from .affine import AffineAutomorphism
from .linalg import RatMatrix, sparse_inverse
from .maps import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    GenericityError,
    PolyMap,
    Unknown,
    adjugate,
    eval_jacobian_sparse,
    is_yagzhev,
    jacobian,
    jacobian_det,
    sparse_jacobian,
    terms_minus_x,
)
from .poly import (
    GRLEX_KEY,
    Poly,
    mono_degree,
    mono_div,
    mono_divides,
    mono_exponent,
    mono_gcd,
    qdiv,
)


def _check_time(start: float, budget: Budget, what: str) -> None:
    if budget.max_ms and (time.monotonic() - start) * 1000 > budget.max_ms:
        raise BudgetExceeded(f"{what} ran past the {budget.max_ms} ms budget")


# ---------------------------------------------------------------- stage 1


def _take_degree(mono, k: int):
    """Leading sub-monomial of total degree k (greedy, left to right)."""
    out = []
    need = k
    for v, e in mono:
        if need <= 0:
            break
        t = min(e, need)
        out.append((v, t))
        need -= t
    return tuple(out)


def _grouped_split(comp: Poly, d: int):
    """Split off a monomial factor shared by as many top-degree terms as
    possible, so one round of fresh variables removes them all.

    Candidates: the balanced factor of the leading term, plus gcds of
    the leading term with every other degree-d term (capped at degree
    d-2 so both factors keep degree >= 2).  Scored by how many degree-d
    terms die, then by how many terms move in total.
    """
    n = comp.varcount
    top = [m for m in comp.terms if mono_degree(m) == d]
    lead = max(top, key=GRLEX_KEY)
    candidates = {_take_degree(lead, (d + 1) // 2)}
    for m2 in top:
        if m2 == lead:
            continue
        g = mono_gcd(lead, m2)
        if mono_degree(g) > d - 2:
            g = _take_degree(g, d - 2)
        if mono_degree(g) >= 2:
            candidates.add(g)
    best = None
    for cand in sorted(candidates, key=GRLEX_KEY):
        cd = mono_degree(cand)
        collected = []
        killed = 0
        for m, c in comp.terms.items():
            if mono_degree(m) - cd >= 2 and mono_divides(cand, m):
                collected.append((m, c))
                if mono_degree(m) == d:
                    killed += 1
        score = (killed, len(collected), GRLEX_KEY(cand))
        if best is None or score > best[0]:
            best = (score, cand, collected)
    _, cand, collected = best
    a = Poly(n, {cand: 1})
    b = Poly(n, {mono_div(m, cand): c for m, c in collected})
    return a, b


def lower_degree(f: PolyMap, budget: Budget = DEFAULT_BUDGET):
    """Rewrite f, two fresh variables at a time, until every component
    has total degree at most three.

    Each round picks the first component carrying a term of the map's
    maximal degree d, factors a collection of its terms as a*b with
    2 <= deg a, deg b <= d-2, and replaces them by -(y+a)(z+b) plus the
    two new components y+a and z+b.  The (max degree, count at max)
    pair drops strictly each round, so this terminates.

    Returns the cubic map and a certificate of the rewriting.
    """
    if not f.is_endomorphism():
        raise ValueError("degree lowering expects an endomorphism")
    start = time.monotonic()
    builder = CertificateBuilder(f, kind="degree-lowering")
    # component degrees (0 for zero); a round changes only ci and the two it adds
    degs = [c.degree() or 0 for c in f.components]
    while True:
        d = max(degs)
        if d <= 3:
            break
        _check_time(start, budget, "degree lowering")
        n = builder.current.n_in
        if n + 2 > budget.max_dim:
            raise BudgetExceeded(
                f"degree lowering wants {n + 2} variables, over the cap of "
                f"{budget.max_dim}")
        ci = degs.index(d)
        a, b = _grouped_split(builder.current.components[ci], d)
        m = n + 2
        builder.push(ExtendFreshVars(2))
        builder.push(PreCompose(ShearAutomorphism(
            m, {n: a.extend(m), n + 1: b.extend(m)},
            "attach the split factors")))
        prod = Poly.variable(m, n) * Poly.variable(m, n + 1)
        builder.push(PostCompose(ShearAutomorphism(
            m, {ci: prod.scale(-1)}, "cancel the split product")))
        comps = builder.current.components
        degs[ci] = comps[ci].degree() or 0
        degs += [comps[n].degree() or 0, comps[n + 1].degree() or 0]
    return builder.current, builder.build()


# ---------------------------------------------------------------- stage 2


def normalize(f: PolyMap, seed: int = 0, budget: Budget = DEFAULT_BUDGET):
    """Find x0 with det J(f)(x0) != 0, move it to the origin, and
    straighten the differential, so the result G has G(0) = 0 and
    J(G)(0) = I.

    The origin is tried first, then seeded integer points in an
    expanding box.  Each candidate costs one exact sparse elimination,
    which both accepts the point (J(f)(x0) is invertible) and yields the
    straightening inverse; the acceptance is never probabilistic, only
    the point choice is.
    """
    if not f.is_endomorphism():
        raise ValueError("normalization expects an endomorphism")
    start = time.monotonic()
    n = f.n_in
    rng = random.Random(seed)
    jac = sparse_jacobian(f)
    # the origin (box 0), then twelve seeded draws from each box in turn
    boxes = (1, 2, 4, 8, 16, 64, 256, 1024)
    for box in [0] + [b for b in boxes for _ in range(12)]:
        if box:
            _check_time(start, budget, "base point search")
            x0 = [rng.randrange(-box, box + 1) for _ in range(n)]
        else:
            x0 = [0] * n
        rows = eval_jacobian_sparse(jac, x0)
        try:
            inv_rows = sparse_inverse(rows, n)
        except ZeroDivisionError:
            continue  # J(f)(x0) is singular
        break
    else:
        raise GenericityError(
            "no base point with invertible differential was found; "
            "the map looks degenerate")

    builder = CertificateBuilder(f, kind="normalization")
    if any(x0):
        builder.push(PreCompose(AffineAutomorphism.translation(
            x0, "recenter the domain at the base point")))
    fx0 = f.eval_at(x0)
    if any(fx0):
        builder.push(PostCompose(AffineAutomorphism.translation(
            [-v for v in fx0], "send the base value to the origin")))
    jac_x0 = RatMatrix(rows, n)
    if jac_x0 != RatMatrix.identity(n):
        builder.push(PostCompose(AffineAutomorphism.from_linear(
            RatMatrix(inv_rows, n), jac_x0, "straighten the differential at the origin")))
    return builder.current, builder.build()


# ---------------------------------------------------------------- stage 3


def segre_step(f: PolyMap):
    """Extend a normalized cubic map F = X + Q + C to (X + tQ + t^2 C, t).

    Requires every component to be x_i plus homogeneous parts of degree
    exactly 2 and 3.  The determinant identity j(G)(x, t) = j(F)(t x)
    holds by construction: the extension builds each G_i as F_i(t x)/t,
    giving each term of degree d the factor t^(d - 1), so the top-left
    block of J(G) is J(F)(t x) and its last row is e_{n+1}.  tests/
    checks the identity with symbolic determinants.
    """
    if not f.is_endomorphism():
        raise ValueError("the Segre extension expects an endomorphism")
    for i, c in enumerate(f.components):
        if any(mono_degree(m) not in (2, 3) for m, _ in terms_minus_x(c, i)):
            raise ValueError(
                f"component {i} is not x_{i} + quadratic + cubic; "
                "normalize first")
    builder = CertificateBuilder(f, kind="segre-extension")
    builder.push(SegreExtend())
    return builder.current, builder.build()


# ---------------------------------------------------------------- stage 4


def _split_t_shape(f: PolyMap):
    """Check f = (X + t*Q(X) + t^2*C(X), t) and return (n, C) with the
    cubic block as term dicts over the X variables."""
    if not f.is_endomorphism() or f.n_in < 2:
        raise ValueError("expected (X + t Q + t^2 C, t) with t last")
    m = f.n_in
    n = m - 1
    if f.components[n] != Poly.variable(m, n):
        raise ValueError("the last component must be the extension variable")
    c_parts = []
    for i in range(n):
        c_terms = {}
        for mono, coeff in terms_minus_x(f.components[i], i):
            e = mono_exponent(mono, n)
            rest = tuple(p for p in mono if p[0] != n)
            rd = mono_degree(rest)
            if e == 2 and rd == 3:
                c_terms[rest] = coeff
            elif e != 1 or rd != 2:
                raise ValueError(
                    f"component {i} is not x + t*(quadratic in X) "
                    "+ t^2*(cubic in X)")
        c_parts.append(c_terms)
    return n, c_parts


def eliminate_quadratic(f: PolyMap, budget: Budget = DEFAULT_BUDGET):
    """Turn (X + tQ + t^2 C, t) into the cubic homogeneous correction
    form (X + tQ - t^2 Y, Y + C, t) with n fresh variables Y.

    Two shears do the work once t is moved behind the fresh block: one
    adds C to Y on the domain side, the other subtracts t^2 Y from X on
    the range side; the t^2 C block cancels between them.  The output
    passes is_yagzhev exactly.
    """
    n, c_parts = _split_t_shape(f)
    big = 2 * n + 1
    if big > budget.max_dim:
        raise BudgetExceeded(
            f"quadratic elimination doubles the variable count to {big}, "
            f"over the cap of {budget.max_dim}")
    builder = CertificateBuilder(f, kind="quadratic-elimination")
    builder.push(ExtendFreshVars(n))
    # fresh variables landed after t; relabel so the layout is (X, Y, t)
    builder.push(PreCompose(AffineAutomorphism.permutation(
        big, list(range(n)) + [2 * n] + list(range(n, 2 * n)),
        "read the domain as (X, Y, t)")))
    builder.push(PostCompose(AffineAutomorphism.permutation(
        big, list(range(n)) + list(range(n + 1, big)) + [n],
        "list the components as (X, Y, t)")))
    absorb = {
        n + i: Poly(big, terms)
        for i, terms in enumerate(c_parts)
        if terms
    }
    if absorb:
        builder.push(PreCompose(ShearAutomorphism(
            big, absorb, "absorb the cubic block into Y")))
    t = Poly.variable(big, 2 * n)
    t2 = t * t
    cancel = {
        i: (t2 * Poly.variable(big, n + i)).scale(-1)
        for i in range(n)
    }
    builder.push(PostCompose(ShearAutomorphism(
        big, cancel, "trade the degree-five block for -t^2 Y")))
    g = builder.current
    if not is_yagzhev(g):
        raise AssertionError("quadratic elimination left a non-cubic part")
    return g, builder.build()


# ---------------------------------------------------------------- pipeline


@dataclass
class ReductionTrace:
    """What the pipeline did: the end-to-end certificate plus the
    dimension after each stage ('input' names the starting point)."""

    certificate: Certificate
    stage_names: list
    stage_dims: list


def concat_certificates(certs, kind: str) -> Certificate:
    """Chain certificates whose endpoints meet into one."""
    moves = list(certs[0].moves)
    for prev, c in zip(certs, certs[1:]):
        if c.source != prev.target:
            raise ValueError("certificate chain endpoints do not meet")
        moves.extend(c.moves)
    return Certificate(certs[0].source, certs[-1].target, moves, kind)


def to_yagzhev(f: PolyMap, seed: int = 0, budget: Budget = DEFAULT_BUDGET):
    """Run the full reduction and return (yagzhev map, trace).

    Stages that would be no-ops are skipped (an already-cubic map skips
    nothing but contributes no splitting moves; a map fixed at the
    origin with identity differential skips normalization).
    """
    if not f.is_endomorphism():
        raise ValueError("the reduction pipeline expects an endomorphism")
    names = ["input"]
    dims = [f.n_in]
    if is_yagzhev(f):
        cert = Certificate(f, f, [], kind="yagzhev-reduction")
        return f, ReductionTrace(cert, names, dims)
    parts = []
    cur, c1 = lower_degree(f, budget=budget)
    parts.append(c1)
    names.append("lower-degree")
    dims.append(cur.n_in)
    if any(mono_degree(m) < 2 for i, c in enumerate(cur.components)
           for m, _ in terms_minus_x(c, i)):
        cur, c2 = normalize(cur, seed=seed, budget=budget)
        parts.append(c2)
        names.append("normalize")
        dims.append(cur.n_in)
    cur, c3 = segre_step(cur)
    parts.append(c3)
    names.append("segre-extension")
    dims.append(cur.n_in)
    cur, c4 = eliminate_quadratic(cur, budget=budget)
    parts.append(c4)
    names.append("eliminate-quadratic")
    dims.append(cur.n_in)
    cert = concat_certificates(parts, "yagzhev-reduction")
    return cur, ReductionTrace(cert, names, dims)


# ---------------------------------------------------------------- Meng


def meng_symmetrize(f: PolyMap, budget: Budget = DEFAULT_BUDGET):
    """Produce G(x, v) = (F(v), x . J(F)(v)) with symmetric differential.

    G is the gradient of the scalar potential h(x, v) = x . F(v), which
    is returned as well.  The certificate realizes G as the extension
    (F, id) twisted by (x, v) -> (x, v J(F)(x)) and a block swap; the
    twist's inverse divides by det J(F), so it is polynomial exactly
    when F is Keller and a rational map otherwise.
    """
    if not f.is_endomorphism():
        raise ValueError("symmetrization expects an endomorphism")
    n = f.n_in
    j = jacobian_det(f, budget)
    if isinstance(j, Unknown):
        raise BudgetExceeded(
            "symmetrization needs the exact Jacobian determinant: " + j.reason)
    if j.is_zero():
        raise GenericityError(
            "the differential is singular everywhere; the twist has no inverse")
    jac = jacobian(f)
    big = 2 * n
    builder = CertificateBuilder(f, kind="symmetrization")
    builder.push(ExtendFreshVars(n))

    jac_ext = [[e.extend(big) for e in row] for row in jac]
    fwd = [Poly.variable(big, i) for i in range(n)]
    for col in range(n):
        s = Poly.zero(big)
        for i in range(n):
            s = s + Poly.variable(big, n + i) * jac_ext[i][col]
        fwd.append(s)
    adj = adjugate(jac, n)
    back = []
    for col in range(n):
        s = Poly.zero(big)
        for i in range(n):
            s = s + Poly.variable(big, n + i) * adj[i][col].extend(big)
        back.append(s)
    if j.is_constant():
        c = j.constant_term()
        inv = [Poly.variable(big, i) for i in range(n)]
        inv.extend(p.scale(qdiv(1, c)) for p in back)
        inverse = PolyMap(inv)
    else:
        den = j.extend(big)
        nums = [Poly.variable(big, i) * den for i in range(n)]
        nums.extend(back)
        inverse = RationalMap(nums, den)
    builder.push(PreCompose(Automorphism(
        PolyMap(fwd), inverse, "twist by the transposed differential")))
    builder.push(PreCompose(AffineAutomorphism.permutation(
        big, list(range(n, big)) + list(range(n)), "swap the blocks")))
    g = builder.current

    shifted = [Poly.variable(big, n + k) for k in range(n)]
    h = Poly.zero(big)
    for i in range(n):
        h = h + Poly.variable(big, i) * f.components[i].substitute(shifted)
    return g, builder.build(), h
