"""Minimal primes with conservative certification.

Splitting uses generator factorization and zero-divisor saturations;
an ideal is only reported prime when one of the certification routes
succeeds (graph/triangular substitution, irreducible hypersurface,
zero-dimensional field, or prime base with a saturated linear fiber).
Anything else raises CertificationFailure rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy

from .ideal import (
    CertificationFailure,
    DEFAULT_LIMITS,
    EngineLimits,
    Ideal,
    eliminate,
    reduce_exact,
    saturate_element,
    standard_monomials,
)
from .polyring import Polynomial, VarContext, Variable, block_order


@dataclass(frozen=True)
class PrimeWitness:
    ideal: Ideal
    certified: bool
    route: str = ""


# ---------------------------------------------------------------------------
# sympy bridge (factorization only)


@lru_cache(maxsize=None)
def _symbols(names: tuple) -> tuple:
    return tuple(sympy.Symbol(n) for n in names)


def _to_sympy(p: Polynomial):
    syms = _symbols(p.ctx.names())
    terms = []
    for e, c in p.terms.items():
        factors = [sympy.Rational(c.numerator, c.denominator)]
        for s, k in zip(syms, e):
            if k:
                factors.append(s ** k)
        terms.append(sympy.Mul(*factors))
    return sympy.Add(*terms) if terms else sympy.Integer(0)


def _from_sympy(expr, ctx: VarContext) -> Polynomial:
    syms = _symbols(ctx.names())
    poly = sympy.Poly(expr, *syms, domain="QQ")
    terms = {}
    for exp, coeff in poly.terms():
        terms[tuple(int(k) for k in exp)] = Fraction(coeff.p, coeff.q)
    return Polynomial(ctx, terms)


_FACTOR_CACHE: dict = {}


def factor_list(p: Polynomial) -> list:
    """Irreducible factors over Q with multiplicities; constants dropped."""
    if p.is_zero() or p.total_degree() == 0:
        return []
    cached = _FACTOR_CACHE.get(p)
    if cached is not None:
        return cached
    _, factors = sympy.factor_list(_to_sympy(p))
    out = []
    for f, mult in factors:
        q = _from_sympy(f, p.ctx)
        if q.total_degree() > 0:
            out.append((q, int(mult)))
    if len(_FACTOR_CACHE) > 4096:
        _FACTOR_CACHE.clear()
    _FACTOR_CACHE[p] = out
    return out


def is_irreducible(p: Polynomial) -> bool:
    fs = factor_list(p)
    return len(fs) == 1 and fs[0][1] == 1


# ---------------------------------------------------------------------------
# Certification routes


def _substitute_out_linear(gens: list, ctx: VarContext) -> tuple:
    """Eliminate variables occurring linearly with constant coefficient.

    Returns (ideal in a possibly smaller context); quotient rings are
    isomorphic, so primality transfers.
    """
    gens = [g for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for g in gens:
            for v in ctx.variables:
                if g.degree_in(v) != 1:
                    continue
                coeff = g.coefficient_of(v, 1)
                if coeff.total_degree() != 0:
                    continue
                c = coeff.constant_term()
                rest = g - ctx.gen(v) * coeff
                if rest.degree_in(v) > 0:
                    continue
                # v = -rest/c
                small = VarContext([u for u in ctx.variables if u.name != v.name])
                image = (rest * (Fraction(-1) / c)).restrict(small) if rest else small.zero()
                assignment = {
                    u.name: small.gen(u.name) for u in ctx.variables if u.name != v.name
                }
                assignment[v.name] = image
                gens = [h.substitute(assignment) for h in gens if h is not g]
                gens = [h for h in gens if not h.is_zero()]
                ctx = small
                changed = True
                break
            if changed:
                break
    return Ideal(ctx, gens)


def _try_point_field(J: Ideal, limits: EngineLimits) -> tuple:
    """(certified, splitter): field check via a primitive element.

    A reducible minimal polynomial of full degree yields a zero divisor
    that is handed back as a splitting hint.
    """
    basis = standard_monomials(J, limits)
    if not basis:
        return False, None
    d = len(basis)
    if d == 1:
        return True, None
    index = {m: i for i, m in enumerate(basis)}
    ctx = J.ctx
    gb = J.groebner_basis()

    def as_vector(p: Polynomial) -> list:
        r = reduce_exact(p, gb)
        v = [Fraction(0)] * d
        for e, c in r.terms.items():
            if e not in index:
                return None
            v[index[e]] = c
        return v

    candidate_weights = [
        tuple(1 if i == j else 0 for i in range(len(ctx))) for j in range(len(ctx))
    ] + [tuple(range(1, len(ctx) + 1)), tuple((i + 1) ** 2 for i in range(len(ctx)))]
    for weights in candidate_weights:
        theta = ctx.zero()
        for w, v in zip(weights, ctx.variables):
            if w:
                theta = theta + ctx.gen(v) * w
        rows = []
        power = ctx.one()
        for k in range(d + 1):
            vec = as_vector(power)
            if vec is None:
                break
            rows.append(vec)
            power = power * theta
        if len(rows) != d + 1:
            continue
        dep = _first_dependency(rows)
        if dep is None:
            continue
        degree = len(dep) - 1
        if degree < d:
            continue  # theta not primitive; try another
        tctx = VarContext([Variable("_T", "base", 0)])
        minpoly = Polynomial(tctx, {(k,): dep[k] for k in range(len(dep)) if dep[k]})
        if is_irreducible(minpoly):
            return True, None
        f0, _ = factor_list(minpoly)[0]
        splitter = f0.substitute({"_T": theta})
        return False, splitter
    return False, None


def _first_dependency(rows: list) -> list | None:
    """Coefficients c_0..c_k with sum c_i rows[i] = 0, first nontrivial prefix."""
    n = len(rows[0])
    # Gaussian elimination tracking combinations
    reduced: list = []  # (vector, combo)
    for k, row in enumerate(rows):
        vec = list(row)
        combo = [Fraction(0)] * len(rows)
        combo[k] = Fraction(1)
        for rvec, rcombo in reduced:
            pivot = next((i for i, x in enumerate(rvec) if x), None)
            if pivot is not None and vec[pivot]:
                f = vec[pivot] / rvec[pivot]
                vec = [a - f * b for a, b in zip(vec, rvec)]
                combo = [a - f * b for a, b in zip(combo, rcombo)]
        if not any(vec):
            return combo[: k + 1]
        reduced.append((vec, combo))
    return None


_FIBER_KINDS = (("cotangent",), ("projective-tag",), ("cotangent", "projective-tag"))


def _jointly_linear(g: Polynomial, positions: list) -> bool:
    for e in g.terms:
        fiber_degree = sum(e[i] for i in positions)
        if fiber_degree > 1:
            return False
    return True


def _try_linear_fiber(
    J: Ideal, limits: EngineLimits, _depth: int = 0, hints: list | None = None
) -> bool:
    """Prime base + affinely linear fiber, saturated at a pivot product."""
    if _depth > 3:
        return False
    ctx = J.ctx
    gens = list(J.groebner_basis(limits=limits))
    fibersets = [
        tuple(v for v in ctx.variables if v.kind in kinds) for kinds in _FIBER_KINDS
    ]
    all_linear = tuple(
        v
        for i, v in enumerate(ctx.variables)
        if all(g.degree_in(v) <= 1 for g in gens)
    )
    if all_linear:
        fibersets.append(all_linear)
    seen = set()
    for fiber in fibersets:
        if not fiber or fiber in seen:
            continue
        seen.add(fiber)
        if _linear_fiber_with(J, gens, fiber, limits, _depth, hints):
            return True
    return False


def _linear_fiber_with(
    J: Ideal, gens: list, fiber: tuple, limits: EngineLimits, depth: int,
    hints: list | None = None,
) -> bool:
    ctx = J.ctx
    positions = [ctx.position(v) for v in fiber]

    def linear(gs: list) -> list:
        return [g for g in gs
                if any(g.degree_in(v) > 0 for v in fiber) and _jointly_linear(g, positions)]

    linear_gens = linear(gens)
    if not linear_gens:
        return False
    # the base is the honest contraction to the fiber-free subring
    base_ideal = eliminate(J, list(fiber), limits, restrict=True)
    # its elimination basis also holds fiber equations solved over the base
    elim_gb = J.groebner_basis(block_order(positions, len(ctx)), limits)
    linear_gens += linear([g for g in elim_gb if g not in gens])
    base_ctx = base_ideal.ctx
    base_gb = base_ideal.groebner_basis(limits=limits)
    route = _certify(base_ideal, limits, depth + 1)
    if route is None:
        if hints is not None:
            hints.extend(g.lift(ctx) for g in base_gb)
        return False

    # rows: coefficients of each fiber variable plus the fiber-free part
    rows = []
    for g in linear_gens:
        row = []
        for v in fiber:
            row.append(reduce_exact(g.coefficient_of(v, 1).restrict(base_ctx), base_gb))
        const = g
        for v in fiber:
            const = const - ctx.gen(v) * g.coefficient_of(v, 1)
        row.append(reduce_exact(const.restrict(base_ctx), base_gb))
        rows.append(row)

    pivots, residuals = _row_reduce_mod(rows, len(fiber), base_gb)
    if residuals:
        # residuals lie in the contraction, so this cannot happen; bail out
        if hints is not None:
            hints.extend(r.lift(ctx) for r in residuals)
        return False
    if not pivots:
        return False
    witness = base_ctx.one()
    for p in pivots:
        witness = witness * p
    if hints is not None:
        hints.append(witness.lift(ctx))
    witness = witness.lift(ctx)
    candidate = Ideal(ctx, [g.lift(ctx) for g in base_gb] + linear_gens)
    return saturate_element(candidate, witness, limits) == J


def _row_reduce_mod(rows: list, ncols: int, base_gb: tuple) -> tuple:
    """Cross-multiplication elimination mod the base; returns (pivots, residuals)."""
    pivots = []
    used = [False] * len(rows)
    for col in range(ncols):
        pivot_row = None
        for i, row in enumerate(rows):
            if used[i]:
                continue
            if not row[col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        used[pivot_row] = True
        pivot = rows[pivot_row][col]
        pivots.append(pivot)
        for i, row in enumerate(rows):
            if i == pivot_row or row[col].is_zero():
                continue
            factor = row[col]
            rows[i] = [
                reduce_exact(pivot * a - factor * b, base_gb)
                for a, b in zip(row, rows[pivot_row])
            ]
    residuals = []
    for i, row in enumerate(rows):
        if used[i]:
            continue
        if all(row[c].is_zero() for c in range(ncols)) and not row[ncols].is_zero():
            residuals.append(row[ncols])
    return pivots, residuals


def _certify(I: Ideal, limits: EngineLimits, _depth: int = 0) -> str | None:
    """Return a route name when I is certified prime, else None."""
    gb = I.groebner_basis(limits=limits)
    if not gb:
        return "zero-ideal"
    if I.is_trivial():
        return None
    J = _substitute_out_linear(list(gb), I.ctx)
    jgb = J.groebner_basis(limits=limits)
    if not jgb:
        return "graph"
    if J.is_trivial():
        return None
    if len(jgb) == 1:
        return "hypersurface" if is_irreducible(jgb[0]) else None
    if J.dimension(limits) == 0:
        ok, _ = _try_point_field(J, limits)
        if ok:
            return "point"
    if _depth <= 3 and _try_linear_fiber(J, limits, _depth):
        return "linear-fiber"
    return None


def is_certified_prime(I: Ideal, limits: EngineLimits | None = None) -> bool:
    return _certify(I, limits or DEFAULT_LIMITS) is not None


def rational_point(I: Ideal, rng) -> dict | None:
    """A rational point on V(I) when the ideal is a solvable graph.

    Eliminates variables that occur linearly with constant coefficient;
    if the residual ideal is zero, assigns random nonzero rationals to
    the free variables and back-substitutes. Returns None otherwise.

    No engine function calls this any more. It stays only because the
    benchmark tracer (bench/spans.py) wraps it by name; it goes when the
    benchmark drops that span.
    """
    gens = [g for g in I.groebner_basis()]
    ctx = I.ctx
    chain = []
    changed = True
    while changed:
        changed = False
        for g in gens:
            for v in ctx.variables:
                if g.degree_in(v) != 1:
                    continue
                coeff = g.coefficient_of(v, 1)
                if coeff.total_degree() != 0:
                    continue
                c = coeff.constant_term()
                rest = g - ctx.gen(v) * coeff
                small = VarContext([u for u in ctx.variables if u.name != v.name])
                expr = (rest * (Fraction(-1) / c)).restrict(small) if rest else small.zero()
                assignment = {u.name: small.gen(u.name) for u in small.variables}
                assignment[v.name] = expr
                gens = [h.substitute(assignment) for h in gens if h is not g]
                gens = [h for h in gens if not h.is_zero()]
                chain.append((v.name, expr))
                ctx = small
                changed = True
                break
            if changed:
                break
    if gens:
        return None
    values: dict = {}
    for v in ctx.variables:
        values[v.name] = Fraction(rng.choice([c for c in range(-9, 10) if c]))
    for name, expr in reversed(chain):
        values[name] = expr.evaluate(values) if expr.ctx.variables else expr.constant_term()
    return values


# ---------------------------------------------------------------------------
# Decomposition


def _splitter_candidates(J: Ideal, limits: EngineLimits | None = None) -> list:
    seen = []

    def push(p: Polynomial) -> None:
        if p.total_degree() > 0 and all(p != h for h in seen):
            seen.append(p)

    for g in J.groebner_basis():
        for f, _ in factor_list(g):
            push(f)
    # factors hiding behind linear eliminations lift back unchanged
    image = _substitute_out_linear(list(J.groebner_basis()), J.ctx)
    if image.ctx != J.ctx:
        for g in image.groebner_basis():
            for f, _ in factor_list(g):
                push(f.lift(J.ctx))
        # residuals of a failed linear-fiber elimination are zero divisors
        hints: list = []
        _try_linear_fiber(image, limits or DEFAULT_LIMITS, 0, hints)
        for h in hints:
            for f, _ in factor_list(h):
                push(f.lift(J.ctx))
    else:
        hints = []
        _try_linear_fiber(J, limits or DEFAULT_LIMITS, 0, hints)
        for h in hints:
            for f, _ in factor_list(h):
                push(f)
    for v in J.ctx.variables:
        push(J.ctx.gen(v))
    seen.sort(key=lambda p: (p.total_degree(), len(p.terms), str(p)))
    return seen


def minimal_primes(I: Ideal, limits: EngineLimits | None = None) -> list:
    """Certified minimal primes of I; raises CertificationFailure if stuck."""
    limits = limits or DEFAULT_LIMITS
    if I.is_trivial():
        return []
    queue = [I]
    primes: list = []
    guard = 0
    while queue:
        guard += 1
        if guard > 512:
            raise CertificationFailure("decomposition did not terminate at desk scale")
        J = queue.pop()
        if J.is_trivial():
            continue
        route = _certify(J, limits)
        if route is not None:
            primes.append(PrimeWitness(Ideal(J.ctx, J.groebner_basis()), True, route))
            continue

        gb = J.groebner_basis(limits=limits)
        action = False
        for g in gb:
            fs = factor_list(g)
            distinct = [f for f, _ in fs]
            if len(distinct) >= 2:
                for f, _ in fs:
                    queue.append(J.with_extra([f]))
                action = True
                break
            if len(fs) == 1 and fs[0][1] >= 2 and not J.contains(fs[0][0]):
                queue.append(J.with_extra([fs[0][0]]))
                action = True
                break
        if action:
            continue

        if J.dimension(limits) == 0:
            _, splitter = _try_point_field(J, limits)
            if splitter is not None and not J.contains(splitter):
                queue.append(J.with_extra([splitter]))
                queue.append(saturate_element(J, splitter, limits))
                continue

        for h in _splitter_candidates(J, limits):
            if J.contains(h):
                continue
            K = saturate_element(J, h, limits)
            if K.is_trivial():
                queue.append(J.with_extra([h]))
                action = True
                break
            if K != J:
                queue.append(K)
                queue.append(J.with_extra([h]))
                action = True
                break
        if action:
            continue
        # the linear substitution in _certify can hide a fiber that is
        # linear over J's own base
        if _try_linear_fiber(J, limits):
            primes.append(PrimeWitness(Ideal(J.ctx, J.groebner_basis()), True, "linear-fiber"))
            continue
        raise CertificationFailure(
            f"cannot certify or split ideal with basis {[str(g) for g in gb]}"
        )

    return _minimalize(primes)


def _minimalize(witnesses: list) -> list:
    unique: list = []
    for w in witnesses:
        if all(w.ideal != u.ideal for u in unique):
            unique.append(w)
    keep = []
    for w in unique:
        redundant = False
        for u in unique:
            if u.ideal is w.ideal or u.ideal == w.ideal:
                continue
            if all(w.ideal.contains(g) for g in u.ideal.generators):
                # u vanishes on more: V(w) subset V(u) means u subset w as ideals
                redundant = True
                break
        if not redundant:
            keep.append(w)
    return keep
