"""Groebner-basis ideal arithmetic over the rationals.

The Buchberger loop works on integer-primitive term dictionaries
(fraction-free reduction, content stripped as it grows) with
Gebauer-Moeller pair pruning; reduced bases are normalized monic and
cached per monomial order on the owning Ideal.

Hot path. Each Groebner run (and each exact division) memoises the
negated order key of every exponent it meets in one dict, dropped when
the run ends, so no key is computed twice within a run. A reduction
keeps the exponents pending in its working polynomial on a heap of those
keys, popping the order-largest first; an exponent is pushed when it
enters the working polynomial, and one that cancelled out since is stale
and skipped. Live S-pairs map (i, j) to the lcm of their leading
monomials, with a heap ordered by that lcm (smallest first, ties by
(i, j)); pruning deletes a pair from the map only, and its stale heap
entry is skipped without counting against the S-pair budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from .polyring import (
    DEGREVLEX,
    ContextMismatch,
    MonomialOrder,
    Polynomial,
    VarContext,
    Variable,
    block_order,
    exp_div,
    exp_divides,
    exp_lcm,
    exp_mul,
)


class ResourceLimitExceeded(RuntimeError):
    """A configured computation budget ran out; no wrong answer is returned."""


class CertificationFailure(RuntimeError):
    """The engine could not certify a decomposition and refuses to guess."""


class NotZeroDimensional(RuntimeError):
    """Local-degree request for an ideal whose quotient ring is not finite."""


@dataclass
class EngineLimits:
    spair_budget: int = 1_000_000
    saturation_cap: int = 32
    vecdim_cap: int = 200_000


DEFAULT_LIMITS = EngineLimits()

# process-wide counters surfaced on CLI reports
ENGINE_COUNTERS = {"groebner_runs": 0, "spairs": 0}


def engine_counters() -> dict:
    return dict(ENGINE_COUNTERS)


# ---------------------------------------------------------------------------
# Integer term-dict kernel


def _content(terms: dict) -> int:
    g = 0
    for c in terms.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _strip(terms: dict) -> dict:
    g = _content(terms)
    if g > 1:
        return {e: c // g for e, c in terms.items()}
    return terms


def _to_int_poly(p: Polynomial) -> dict:
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    terms = {e: int(c * denom) for e, c in p.terms.items()}
    return _strip(terms)


class _OrderKeys(dict):
    """Negated order key of every exponent met, computed once per exponent.

    One instance lives for one Groebner run (or one division) and is then
    dropped. Negated keys make ``heapq`` pop the order-largest monomial
    first, and ``min`` over them finds the leading monomial.
    """

    __slots__ = ("keyf",)

    def __init__(self, keyf):
        super().__init__()
        self.keyf = keyf

    def __missing__(self, e):
        k = self[e] = tuple(-x for x in self.keyf(e))
        return k


def _lead(terms: dict, keys: _OrderKeys) -> tuple:
    e = min(terms, key=keys.__getitem__)
    return e, terms[e]


def _nf_int(p: dict, basis: list, keys: _OrderKeys) -> dict:
    """Normal form of integer poly dict against [(terms, lm, lc), ...].

    Fraction-free: the result is the true normal form up to a positive
    rational scalar, which every caller is insensitive to. The reduction
    front is a heap of the exponents pending in ``work``; an exponent is
    pushed when it enters ``work``, and a popped one that has since
    cancelled out of ``work`` is stale and skipped.
    """
    work = dict(p)
    front = [(keys[e], e) for e in work]
    heapify(front)
    remainder: dict = {}
    steps = 0
    while front:
        e = heappop(front)[1]
        c = work.pop(e, 0)
        if not c:
            continue
        for terms, lm, lc in basis:
            if exp_divides(lm, e):
                break
        else:
            remainder[e] = c
            continue
        d = math.gcd(c, lc)
        a = lc // d      # scale everything by a
        b = c // d       # subtract b * shift * reducer
        shift = exp_div(e, lm)
        if a != 1:
            for k in work:
                work[k] *= a
            for k in remainder:
                remainder[k] *= a
        _subtract_shifted(work, front, keys, terms, lm, shift, b)
        steps += 1
        if steps % 32 == 0:
            g = math.gcd(_content(work), _content(remainder))
            if g > 1:
                work = {k: v // g for k, v in work.items()}
                remainder = {k: v // g for k, v in remainder.items()}
    return _strip(remainder)


def _subtract_shifted(work: dict, front: list, keys: _OrderKeys, terms: dict,
                      lm: tuple, shift: tuple, factor) -> None:
    """work -= factor * x^shift * (terms less the lm term).

    An exponent entering ``work`` is pushed on the front; one cancelling
    out of it leaves a stale front entry behind.
    """
    for k, v in terms.items():
        if k == lm:
            continue
        ke = exp_mul(k, shift)
        dv = factor * v
        old = work.get(ke)
        if old is None:
            work[ke] = -dv
            heappush(front, (keys[ke], ke))
        elif old == dv:
            del work[ke]
        else:
            work[ke] = old - dv


def _spoly_int(f: tuple, g: tuple) -> dict:
    (ft, flm, flc), (gt, glm, glc) = f, g
    lcm = exp_lcm(flm, glm)
    d = math.gcd(flc, glc)
    a, b = glc // d, flc // d
    sf, sg = exp_div(lcm, flm), exp_div(lcm, glm)
    terms: dict = {}
    for k, v in ft.items():
        terms[exp_mul(k, sf)] = a * v
    for k, v in gt.items():
        ke = exp_mul(k, sg)
        nv = terms.get(ke, 0) - b * v
        if nv:
            terms[ke] = nv
        else:
            terms.pop(ke, None)
    return _strip(terms)


def _normalize_int(terms: dict, keys: _OrderKeys) -> tuple:
    """(terms, lm, lc): content stripped, leading coefficient positive."""
    terms = _strip(terms)
    lm, lc = _lead(terms, keys)
    if lc < 0:
        terms = {e: -c for e, c in terms.items()}
    return terms, lm, abs(lc)


def _buchberger(gens: list, keys: _OrderKeys, budget: int, stats: dict) -> list:
    """Reduced (up to scaling) Groebner basis of nonzero integer poly dicts.

    Returns [(terms, lm, lc), ...] with leading monomials ascending. Live
    pairs map (i, j) to the lcm of their leading monomials; ``queue`` is a
    heap of them by that lcm, ties broken by (i, j). Gebauer-Moeller
    pruning deletes a pair from ``pairs`` only, which leaves its heap
    entry stale: it is skipped and not counted against the budget.
    """
    G: list = []   # (terms, lm, lc)
    pairs: dict = {}
    queue: list = []
    keyf = keys.keyf

    def update(f: tuple) -> None:
        # Gebauer-Moeller pair update.
        flm = f[1]
        lf = [exp_lcm(g[1], flm) for g in G]
        for (i, j), L in list(pairs.items()):
            if exp_divides(flm, L) and L != lf[i] and L != lf[j]:
                del pairs[i, j]
        lcms: dict = {}
        for i, L in enumerate(lf):
            lcms.setdefault(L, []).append(i)
        kept = []
        for k, L in sorted((keyf(L), L) for L in lcms):
            if all(not exp_divides(K, L) for _, K in kept):
                kept.append((k, L))
        t = len(G)
        for k, L in kept:
            if any(lf[i] == exp_mul(G[i][1], flm) for i in lcms[L]):
                continue  # product criterion
            i = lcms[L][0]
            pairs[i, t] = L
            heappush(queue, (k, i, t))
        G.append(f)

    for g in gens:
        f = _normalize_int(g, keys)
        if not any(f[1]):
            return [f]
        update(f)

    processed = 0
    while queue:
        _, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue  # pruned after it was queued
        processed += 1
        if processed > budget:
            raise ResourceLimitExceeded(
                f"S-pair budget {budget} exceeded during Groebner computation"
            )
        r = _nf_int(_spoly_int(G[i], G[j]), G, keys)
        if r:
            stats["nonzero_reductions"] = stats.get("nonzero_reductions", 0) + 1
            f = _normalize_int(r, keys)
            if not any(f[1]):
                stats["spairs"] = stats.get("spairs", 0) + processed
                return [({f[1]: 1}, f[1], 1)]
            update(f)
    stats["spairs"] = stats.get("spairs", 0) + processed

    # minimalize: ascending leading monomials, a stable sort keeping the
    # first of equal ones
    minimal: list = []
    for g in sorted(G, key=lambda g: keys[g[1]], reverse=True):
        if all(not exp_divides(m[1], g[1]) for m in minimal):
            minimal.append(g)
    # interreduce tails; a leading monomial of a minimal basis is irreducible
    # by the others, so it stays leading
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(_normalize_int(_nf_int(g[0], others, keys), keys))
    stats["basis_size"] = len(reduced)
    return reduced


# ---------------------------------------------------------------------------
# Ideals


class Ideal:
    """Ideal of Q[ctx], generators plus a per-order reduced-basis cache."""

    __slots__ = ("ctx", "generators", "_cache", "_stats", "_hash")

    def __init__(self, ctx: VarContext, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatch("generator context differs from ideal context")
            if not g.is_zero():
                gens.append(g)
        self.ctx = ctx
        self.generators = tuple(gens)
        self._cache: dict = {}
        self._stats: dict = {}
        self._hash = None

    # -- construction helpers

    @staticmethod
    def of(ctx: VarContext, *gens: Polynomial) -> "Ideal":
        return Ideal(ctx, gens)

    def with_extra(self, extra: Iterable[Polynomial]) -> "Ideal":
        return Ideal(self.ctx, self.generators + tuple(extra))

    # -- Groebner bases

    def groebner_basis(
        self, order: MonomialOrder = DEGREVLEX, limits: EngineLimits | None = None
    ) -> tuple:
        sig = order.signature()
        if sig in self._cache:
            return self._cache[sig]
        limits = limits or DEFAULT_LIMITS
        keys = _OrderKeys(order.key_function(len(self.ctx)))
        stats: dict = {}
        ints = [_to_int_poly(g) for g in self.generators]
        basis = _buchberger(ints, keys, limits.spair_budget, stats)
        ENGINE_COUNTERS["groebner_runs"] += 1
        ENGINE_COUNTERS["spairs"] += stats.get("spairs", 0)
        # monic, in ascending order of leading monomials as returned
        polys = tuple(
            Polynomial(self.ctx, {e: Fraction(c, lc) for e, c in terms.items()})
            for terms, _, lc in basis
        )
        self._cache[sig] = polys
        self._stats[sig] = stats
        return polys

    def gb_stats(self, order: MonomialOrder = DEGREVLEX) -> dict:
        return dict(self._stats.get(order.signature(), {}))

    def normal_form(self, p: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
        """Exact normal form against the reduced basis (canonical representative)."""
        gb = self.groebner_basis(order)
        return reduce_exact(p, gb, order)

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        return self.normal_form(p).is_zero()

    def __contains__(self, p: Polynomial) -> bool:
        return self.contains(p)

    def is_trivial(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].total_degree() == 0

    def is_zero_ideal(self) -> bool:
        return not self.groebner_basis()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx, self.groebner_basis()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.generators)
        return f"Ideal({inner})"

    def dimension(self, limits: EngineLimits | None = None) -> int:
        return dimension_and_degree(self, limits)[0]


def reduce_exact(p: Polynomial, gb: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Full exact division remainder against monic reducers."""
    if not gb:
        return p
    ctx = p.ctx
    keys = _OrderKeys(order.key_function(len(ctx)))
    leads = [(_lead(g.terms, keys)[0], g) for g in gb]
    work = dict(p.terms)
    front = [(keys[e], e) for e in work]
    heapify(front)
    remainder: dict = {}
    while front:
        e = heappop(front)[1]
        c = work.pop(e, 0)
        if not c:
            continue  # stale: cancelled since it was pushed
        for lm, g in leads:
            if exp_divides(lm, e):
                break
        else:
            remainder[e] = c
            continue
        shift = exp_div(e, lm)
        factor = c / g.terms[lm]
        _subtract_shifted(work, front, keys, g.terms, lm, shift, factor)
    return Polynomial(ctx, remainder)


def dimension_and_degree(I: Ideal, limits: EngineLimits | None = None) -> tuple:
    """(dimension, degree) of the affine scheme V(I); (-1, 0) when I is trivial.

    Read from the degrevlex leading monomials (Bayer-Stillman 1992; Cox,
    Little and O'Shea, ch. 9): the Hilbert series of Q[ctx]/LT(I) is
    N(t)/(1-t)^n, the dimension is n less the order of the zero of N at
    t = 1, and the degree is N(t)/(1-t)^(n-dim) at t = 1. The degree sums
    the lengths times the degrees of the top-dimensional components only.
    """
    gb = I.groebner_basis(limits=limits)
    num = _hilbert_numerator([g.leading(DEGREVLEX)[0] for g in gb])
    if not any(num):
        return -1, 0
    codim = 0
    while sum(num) == 0:
        # N(t) = (1-t) Q(t): Q's coefficients are the prefix sums of N's
        num = list(itertools.accumulate(num))[:-1]
        codim += 1
    return len(I.ctx) - codim, sum(num)


def _hilbert_numerator(gens: list) -> list:
    """Coefficients of N(t), in rising powers of t, for the monomial ideal (gens).

    N(M' + (m)) = N(M') - t^|m| N(M' : m); factors over groups of
    generators with disjoint supports multiply.
    """
    minimal: list = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(exp_divides(h, g) for h in minimal):
            minimal.append(g)
    if not minimal:
        return [1]
    groups: list = []  # [support, generators]
    for g in minimal:
        support = {i for i, x in enumerate(g) if x}
        joined = [grp for grp in groups if grp[0] & support]
        for grp in joined:
            groups.remove(grp)
            support |= grp[0]
        groups.append([support, [g] + [h for grp in joined for h in grp[1]]])
    if len(groups) > 1:
        product = [1]
        for _, members in groups:
            product = _poly_mul(product, _hilbert_numerator(members))
        return product
    m, rest = minimal[-1], minimal[:-1]
    colon = [exp_div(exp_lcm(g, m), m) for g in rest]
    return _poly_sub(_hilbert_numerator(rest), [0] * sum(m) + _hilbert_numerator(colon))


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


# ---------------------------------------------------------------------------
# Spec operations


def groebner_basis(I: Ideal, order: MonomialOrder = DEGREVLEX, limits: EngineLimits | None = None) -> tuple:
    return I.groebner_basis(order, limits)


def selfcheck_groebner(gb: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX) -> bool:
    """Every S-polynomial of the basis reduces to zero."""
    if not gb:
        return True
    keys = _OrderKeys(order.key_function(len(gb[0].ctx)))
    ints = [(t,) + _lead(t, keys) for t in map(_to_int_poly, gb)]
    return not any(
        _nf_int(_spoly_int(f, g), ints, keys) for f, g in itertools.combinations(ints, 2)
    )


def _extend_with(ctx: VarContext, name: str) -> tuple:
    fresh = name
    names = set(ctx.names())
    i = 0
    while fresh in names:
        i += 1
        fresh = f"{name}{i}"
    var = Variable(fresh, "base", len(ctx))
    return ctx.extend([var]), var


def intersect(I: Ideal, J: Ideal, limits: EngineLimits | None = None) -> Ideal:
    """I cap J via the scaling-variable trick."""
    if I.ctx != J.ctx:
        raise ContextMismatch("intersection requires a common context")
    ctx2, tv = _extend_with(I.ctx, "_t")
    t = ctx2.gen(tv)
    gens = [g.lift(ctx2) * t for g in I.generators]
    gens += [g.lift(ctx2) * (ctx2.one() - t) for g in J.generators]
    big = Ideal(ctx2, gens)
    drop_pos = ctx2.position(tv)
    order = block_order([drop_pos], len(ctx2))
    gb = big.groebner_basis(order, limits)
    keep = [g for g in gb if g.degree_in(tv) <= 0]
    return Ideal(I.ctx, [g.restrict(I.ctx) for g in keep])


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f exactly."""
    keys = _OrderKeys(DEGREVLEX.key_function(len(f.ctx)))
    q: dict = {}
    rem = dict(f.terms)
    front = [(keys[e], e) for e in rem]
    heapify(front)
    glm, glc = _lead(g.terms, keys)
    while front:
        e = heappop(front)[1]
        c = rem.pop(e, 0)
        if not c:
            continue  # stale: cancelled since it was pushed
        if not exp_divides(glm, e):
            raise ValueError("division is not exact")
        shift = exp_div(e, glm)
        q[shift] = c / glc
        _subtract_shifted(rem, front, keys, g.terms, glm, shift, q[shift])
    return Polynomial(f.ctx, q)


def ideal_quotient(I: Ideal, p: Polynomial, limits: EngineLimits | None = None) -> Ideal:
    """(I : p) for a single nonzero polynomial."""
    if p.is_zero():
        raise ValueError("quotient by the zero polynomial")
    if p.total_degree() == 0:
        return I
    meet = intersect(I, Ideal(I.ctx, [p]), limits)
    return Ideal(I.ctx, [exact_div(g, p) for g in meet.generators])


def quotient_by_ideal(I: Ideal, J: Ideal, limits: EngineLimits | None = None) -> Ideal:
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        raise ValueError("quotient by the zero ideal")
    result = ideal_quotient(I, gens[0], limits)
    for g in gens[1:]:
        result = intersect(result, ideal_quotient(I, g, limits), limits)
    return result


@dataclass
class SaturationResult:
    ideal: Ideal
    exponent: int


def saturate(I: Ideal, J: Ideal, limits: EngineLimits | None = None) -> SaturationResult:
    """(I : J^infinity) by iterated ideal quotients, reporting the exponent."""
    limits = limits or DEFAULT_LIMITS
    current = I
    for e in range(limits.saturation_cap + 1):
        nxt = quotient_by_ideal(current, J, limits)
        if nxt == current:
            return SaturationResult(current, e)
        current = nxt
    raise ResourceLimitExceeded(
        f"saturation did not stabilize within cap {limits.saturation_cap}"
    )


def saturate_element(I: Ideal, h: Polynomial, limits: EngineLimits | None = None) -> Ideal:
    """(I : h^infinity) via the auxiliary-variable trick (single elimination)."""
    if h.is_zero():
        raise ValueError("saturation by zero")
    if h.total_degree() == 0:
        return I
    ctx2, tv = _extend_with(I.ctx, "_s")
    t = ctx2.gen(tv)
    gens = [g.lift(ctx2) for g in I.generators]
    gens.append(ctx2.one() - t * h.lift(ctx2))
    big = Ideal(ctx2, gens)
    order = block_order([ctx2.position(tv)], len(ctx2))
    gb = big.groebner_basis(order, limits)
    keep = [g for g in gb if g.degree_in(tv) <= 0]
    return Ideal(I.ctx, [g.restrict(I.ctx) for g in keep])


def eliminate(
    I: Ideal,
    drop: Sequence[Variable | str],
    limits: EngineLimits | None = None,
    restrict: bool = False,
) -> Ideal:
    """I cap Q[ctx minus drop], via a block elimination order."""
    if not drop:
        return I if not restrict else I
    positions = [I.ctx.position(v) for v in drop]
    order = block_order(positions, len(I.ctx))
    gb = I.groebner_basis(order, limits)
    names = {I.ctx.variables[p].name for p in positions}
    keep = [g for g in gb if all(g.degree_in(n) <= 0 for n in names)]
    if not restrict:
        return Ideal(I.ctx, keep)
    small = VarContext([v for v in I.ctx.variables if v.name not in names])
    return Ideal(small, [g.restrict(small) for g in keep])


def dimension(I: Ideal, limits: EngineLimits | None = None) -> int:
    return I.dimension(limits)


def radical_contains(I: Ideal, p: Polynomial, limits: EngineLimits | None = None) -> bool:
    """p in sqrt(I), by the auxiliary-variable membership test."""
    if p.is_zero() or I.contains(p):
        return True
    ctx2, tv = _extend_with(I.ctx, "_r")
    t = ctx2.gen(tv)
    gens = [g.lift(ctx2) for g in I.generators]
    gens.append(ctx2.one() - t * p.lift(ctx2))
    return Ideal(ctx2, gens).is_trivial()


def variety_contained_in(I: Ideal, J: Ideal, limits: EngineLimits | None = None) -> bool:
    """V(I) subseteq V(J): every generator of J vanishes on V(I)."""
    return all(radical_contains(I, g, limits) for g in J.generators)


def translate(I: Ideal, point: Mapping[str, Fraction]) -> Ideal:
    """Move the given point to the origin: v -> v + p_v."""
    ctx = I.ctx
    assignment = {
        v.name: ctx.gen(v.name) + ctx.const(point.get(v.name, 0))
        for v in ctx.variables
    }
    return Ideal(ctx, [g.substitute(assignment) for g in I.generators])


def vector_space_dimension(I: Ideal, limits: EngineLimits | None = None) -> int | None:
    """Q-dimension of Q[ctx]/I; None when not zero-dimensional."""
    basis = standard_monomials(I, limits)
    return None if basis is None else len(basis)


def standard_monomials(I: Ideal, limits: EngineLimits | None = None) -> list | None:
    """Monomial basis of Q[ctx]/I when zero-dimensional, in degrevlex order."""
    gb = I.groebner_basis(limits=limits)
    out = staircase([g.leading(DEGREVLEX)[0] for g in gb], len(I.ctx), limits)
    return None if out is None else sorted(out, key=DEGREVLEX.key_function(len(I.ctx)))


def staircase(lms: Sequence[tuple], n: int, limits: EngineLimits | None = None) -> list | None:
    """Exponents in n variables that no exponent of lms divides; None when infinitely many.

    Raises ResourceLimitExceeded past ``limits.vecdim_cap`` monomials.
    """
    limits = limits or DEFAULT_LIMITS
    if not all(any(not any(e[:i] + e[i + 1:]) for e in lms) for i in range(n)):
        return None  # some variable has no pure power (or 1) among the lms
    out: list = []
    stack = [(0,) * n]
    seen = set(stack)
    while stack:
        m = stack.pop()
        if any(exp_divides(lm, m) for lm in lms):
            continue
        out.append(m)
        if len(out) > limits.vecdim_cap:
            raise ResourceLimitExceeded("standard monomial count exceeded cap")
        for i in range(n):
            nm = m[:i] + (m[i] + 1,) + m[i + 1:]
            if nm not in seen:
                seen.add(nm)
                stack.append(nm)
    return out


def local_degree(
    I: Ideal,
    point: Mapping[str, Fraction] | None = None,
    limits: EngineLimits | None = None,
) -> int:
    """Length of the local ring of Q[ctx]/I at the point (0 off V(I)).

    Q[ctx]/I must be finite, else NotZeroDimensional. With D its
    Q-dimension, the local algebra at the point has length at most D, so
    the D-th power of its maximal ideal is zero, while at every other
    point of V(I) some centred coordinate is a unit. Joining the D-th
    power of every centred coordinate therefore leaves exactly the local
    algebra, whose dimension is counted by standard monomials.
    """
    J = translate(I, point) if point else I
    for g in J.generators:
        if g.constant_term() != 0:
            return 0
    D = vector_space_dimension(J, limits)
    if D is None:
        raise NotZeroDimensional(
            "local degree requested for an ideal whose quotient ring is not finite"
        )
    ctx = J.ctx
    powers = tuple(ctx.gen(v) ** D for v in ctx.variables)
    return vector_space_dimension(Ideal(ctx, J.groebner_basis(limits=limits) + powers), limits)
