"""Groebner-basis ideal arithmetic over the rationals.

The Buchberger loop works on integer-primitive term dictionaries
(fraction-free reduction, content stripped as it grows) with
Gebauer-Moeller pair pruning; reduced bases are normalized monic.

Hot path. Inside a run a monomial is one int (``polyring._Packing``): the
exponents packed in fixed-width fields with a guard bit each, below the
order key, which is the exponents' dot product with one integer weight
per variable (the order's weight rows folded in a wide radix). Ints then
compare as the order does, a product is a sum, a quotient a difference,
and divisibility and lcm are guard-bit tests, with no loop over
variables. Leading monomials are read off the packed basis
(``leading_monomials``); no other definition of an order exists. A key is
computed once, when a polynomial enters the kernel; a shifted term's key
comes with the sum. A run starts at the narrowest width that holds its
input; a product that outgrows its field (one guard test per reducer
step, against the reducer's largest exponents) redoes the run twice as
wide, so the answer never depends on the width. One reduction loop serves
Buchberger and normal forms (and the tests' basis self-check): the front
is a heap of the pending monomials, each popped term is reduced by the
first basis element whose leading monomial divides it, and the
fraction-free remainder comes with the scalar it carries, so
``normal_form`` returns the exact remainder. A polynomial with only int
coefficients enters with no common denominator (``_encode``), and what
leaves the kernel is a Polynomial made from its clean term map with no
second pass, an int where a coefficient is integral and a Fraction
otherwise. The pair queue is a heap of (lcm, i, j); pruning deletes a
pair from the live map only, and its stale heap entry is skipped without
counting against the S-pair budget.

Two caches. Each Ideal keeps its reduced basis, the run's stats and its
packed basis per monomial order; a basis that ``eliminate`` hands over
without a run is packed when first used. Inside an ``engine_limits``
block, a memo also keys them by (context, generator set, order), so a
second Ideal with the same generators, in any order or repeated, takes
the basis without a run; a generator enters the key as itself, hashed
once per polynomial. A reduced
basis is unique for its ideal and order, so a memo hit returns exactly
what a run would. The memo is dropped when the block ends; outside any
block there is none. ``block_memo`` keeps in the same memo, on the same
terms, what is built from bases or kept for reuse: the (dimension,
degree) of each degrevlex leading-monomial ideal, conormals, polar
lengths, factorizations, and each cycle component's intersections with
divisors and pushforwards. The zero ideal is its own reduced basis, and
a principal ideal's is its generator, packed and made monic; neither
takes a run.

Derived ideals. A sum ``with_extra``, the auxiliary-variable ideals of
``saturate_element`` and ``radical_contains``, and ``local_degree``'s
I + (x_1^D, ..., x_n^D) start from the parent's reduced degrevlex basis,
computed first when need be, followed by the new generators. A run takes
that basis as a prefix whose own pairs are never formed, but only when
its order ranks the monomials in the prefix's variables as degrevlex
does (``MonomialOrder.ranks_as_degrevlex``): plain degrevlex, or a block
order that eliminates none of them and keeps their relative order; never
lex. A reduced basis lifted into a context that keeps its variables'
order is the extension's reduced basis, handed over with no run
(``lift_ideal``), as is a reduced basis whose variables are renamed in place
(``renamed_ideal``), and every run's basis is memoised as a generator
set of its own too. When I is zero-dimensional and 1 lies in I + (h),
``saturate_element`` returns I's reduced basis with no elimination.

Membership. Every ideal the engine asks about is a certified prime (a
component, a minimal-prime witness, a stratum closure), its own radical,
so V(P) lies in V(J) exactly when J's generators reduce to 0 mod P
(``prime_contains_all``). ``radical_contains``, the auxiliary-variable
test for any ideal, has no engine caller: it is the tests' reference, kept
here while the benchmark tracer (bench/spans.py) wraps it by name.

Limits. Every Groebner run reads its S-pair budget from the context
variable that ``engine_limits`` sets (``DEFAULT_LIMITS`` outside it); the
CLI sets it once around each command.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .polyring import (
    DEGREVLEX,
    EXPONENT_CAP,
    ContextMismatch,
    MonomialOrder,
    Polynomial,
    VarContext,
    Variable,
    _Packing,
    _packing,
    _width,
    _width_for,
    block_order,
    quotient,
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


DEFAULT_LIMITS = EngineLimits()
# (limits, basis memo) of the innermost ``engine_limits`` block; no memo outside one
_SESSION: ContextVar[tuple] = ContextVar("engine_session", default=(DEFAULT_LIMITS, None))

SATURATION_CAP = 32  # largest exponent ``saturate`` reports
VECDIM_CAP = EXPONENT_CAP  # standard monomials counted or enumerated


@contextmanager
def engine_limits(config: EngineLimits):
    """Run every Groebner computation in the block under ``config``.

    The block opens a fresh memo of reduced bases, so a nested block with
    a tighter budget never takes a basis computed under a looser one.
    """
    token = _SESSION.set((config, {}))
    try:
        yield
    finally:
        _SESSION.reset(token)


def block_memo(key: tuple, build):
    """build(), made once per ``engine_limits`` block and kept there under key.

    Objects built from Groebner runs (conormals, polar lengths, the
    dimension and degree of a leading-monomial ideal, a component's
    intersections and pushforwards) and factorizations
    live in the block's memo beside its reduced bases and follow the same
    rule: a nested block builds them again under its own budget, and
    outside any block nothing is kept. Keys start with a string, which no
    basis key does.
    """
    memo = _SESSION.get()[1]
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


# process-wide counters surfaced on CLI reports; a memo hit is not a run
ENGINE_COUNTERS = {"groebner_runs": 0, "spairs": 0, "basis_memo_hits": 0}


def engine_counters() -> dict:
    return dict(ENGINE_COUNTERS)


# ---------------------------------------------------------------------------
# Packed integer kernel


class _Overflow(Exception):
    """A packed exponent outgrew its field; the work is redone wider."""


def _widening(width: int, attempt):
    """attempt(width), redone at twice the width while a product overflows."""
    while True:
        try:
            return attempt(width)
        except _Overflow:
            width *= 2


def _encode(packing: _Packing, p: Polynomial) -> tuple:
    """(integer terms keyed by monomial, d): p times its common denominator d.

    An int coefficient has denominator 1 and adds nothing to d.
    """
    d = 1
    for c in p.terms.values():
        if type(c) is not int:
            d = math.lcm(d, c.denominator)
    weights = packing.weights
    return {sum(map(mul, e, weights)): c.numerator * (d // c.denominator)
            for e, c in p.terms.items()}, d


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


def _element(terms: dict, packing: _Packing) -> tuple:
    """(lm, lc, tail, envelope) of a nonzero integer polynomial; terms is consumed.

    Content stripped and leading coefficient positive; ``tail`` holds the
    other terms in the order given, and ``envelope`` each variable's
    largest exponent, so one guard test bounds every term of a shifted copy.
    """
    terms = _strip(terms)
    lm = max(terms)
    lc = terms[lm]
    if lc < 0:
        terms = {m: -c for m, c in terms.items()}
        lc = -lc
    guard, top = packing.guard, packing.width - 1
    envelope = 0
    for m in terms:  # fieldwise max, by the guard-bit select of _Packing.lcm
        ge = ((envelope | guard) - m) & guard
        envelope = m ^ ((envelope ^ m) & (ge - (ge >> top)))
    del terms[lm]
    return lm, lc, terms, envelope & packing.mask


def _spoly(f: tuple, g: tuple, lcm: int, guard: int) -> dict:
    """The fraction-free S-polynomial of f and g, whose leading monomials have lcm lcm."""
    (flm, flc, ftail, fenv), (glm, glc, gtail, genv) = f, g
    sf, sg = lcm - flm, lcm - glm
    if (fenv + sf) & guard or (genv + sg) & guard:
        raise _Overflow
    d = math.gcd(flc, glc)
    a, b = glc // d, flc // d
    # the shifted leading terms cancel
    terms = {m + sf: a * c for m, c in ftail.items()}
    for m, c in gtail.items():
        m += sg
        nc = terms.get(m, 0) - b * c
        if nc:
            terms[m] = nc
        else:
            del terms[m]
    return _strip(terms)


def _reduce(work: dict, basis: list, guard: int) -> tuple:
    """(remainder, num, den): work fully reduced by basis elements, fraction-free.

    The remainder is num/den times the remainder of exact division. Each
    popped term is reduced by the first basis element whose leading
    monomial divides it. The reduction front is a heap of the negated
    monomials pending in ``work``; a monomial is pushed when it enters
    ``work``, and a popped one that has since cancelled out is stale and
    skipped. ``work`` is consumed.
    """
    front = [-m for m in work]
    heapify(front)
    take, get = work.pop, work.get
    remainder: dict = {}
    num = den = 1
    steps = 0
    while front:
        m = -heappop(front)
        c = take(m, 0)
        if not c:
            continue
        over = m | guard
        for g in basis:  # _Packing.divides, inlined
            if (over - g[0]) & guard == guard:
                break
        else:
            remainder[m] = c
            continue
        lm, lc, tail, envelope = g
        shift = m - lm
        if (envelope + shift) & guard:
            raise _Overflow
        d = math.gcd(c, lc)
        a = lc // d      # scale everything by a
        b = c // d       # subtract b * shift * reducer
        if a != 1:
            num *= a
            for k in work:
                work[k] *= a
            for k in remainder:
                remainder[k] *= a
        for k, v in tail.items():
            k += shift
            dv = b * v
            old = get(k)
            if old is None:
                work[k] = -dv
                heappush(front, -k)
            elif old == dv:
                del work[k]
            else:
                work[k] = old - dv
        steps += 1
        if steps % 32 == 0:
            common = math.gcd(_content(work), _content(remainder))
            if common > 1:
                den *= common
                for k in work:
                    work[k] //= common
                for k in remainder:
                    remainder[k] //= common
    return remainder, num, den


def _buchberger(gens: list, packing: _Packing, budget: int, stats: dict) -> list:
    """Reduced (up to scaling) Groebner basis of nonzero packed integer polys.

    Returns ``_element`` tuples with leading monomials ascending. A
    leading run of gens may be ``_element`` tuples already, the prefix: a
    Groebner basis under the packing's order, so every pair within it
    reduces to zero and none is formed (Buchberger's criterion); only
    pairs with a later element are. Live pairs map (i, j) to the fields of
    the lcm of their leading monomials; ``queue`` is a heap of (lcm
    monomial, i, j). Gebauer-Moeller pruning deletes a pair from ``pairs``
    only, which leaves its heap entry stale: it is skipped and not counted
    against the budget. Raises ``_Overflow`` when a product outgrows the
    packing's fields.
    """
    G: list = []   # _element tuples
    pairs: dict = {}
    queue: list = []
    guard, mask, top = packing.guard, packing.mask, packing.width - 1
    monomial, exponent = packing.monomial, packing.exponent

    def update(f: tuple) -> None:
        # Gebauer-Moeller pair update.
        flm = f[0] & mask
        lf = []
        for g in G:  # _Packing.lcm, inlined
            a = g[0]
            ge = ((a | guard) - flm) & guard
            lf.append((flm ^ ((a ^ flm) & (ge - (ge >> top)))) & mask)
        # flm divides L (_Packing.divides, inlined) and L is neither new lcm
        for ij in [ij for ij, L in pairs.items()
                   if ((L | guard) - flm) & guard == guard and L != lf[ij[0]] and L != lf[ij[1]]]:
            del pairs[ij]
        lcms: dict = {}
        for i, L in enumerate(lf):
            lcms.setdefault(L, []).append(i)
        # the lcms no other one divides; packed fields ascend in a lex order,
        # so a divisor comes first
        kept: list = []
        for L in sorted(lcms):
            over = L | guard
            for K in kept:
                if (over - K) & guard == guard:
                    break
            else:
                kept.append(L)
        t = len(G)
        for L in kept:
            if any(lf[i] == (G[i][0] & mask) + flm for i in lcms[L]):
                continue  # product criterion
            i = lcms[L][0]
            pairs[i, t] = L
            heappush(queue, (monomial(exponent(L)), i, t))
        G.append(f)

    for g in gens:
        prefix = isinstance(g, tuple)
        f = g if prefix else _element(g, packing)
        if not f[0]:
            return [f]
        if prefix:
            G.append(f)
        else:
            update(f)

    processed = 0
    while queue:
        L, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue  # pruned after it was queued
        processed += 1
        if processed > budget:
            raise ResourceLimitExceeded(
                f"S-pair budget {budget} exceeded during Groebner computation"
            )
        r = _reduce(_spoly(G[i], G[j], L, guard), G, guard)[0]
        if r:
            stats["nonzero_reductions"] = stats.get("nonzero_reductions", 0) + 1
            f = _element(r, packing)
            if not f[0]:
                stats["spairs"] = stats.get("spairs", 0) + processed
                return [(0, 1, {}, 0)]
            update(f)
    stats["spairs"] = stats.get("spairs", 0) + processed

    # minimalize: ascending leading monomials, a stable sort keeping the
    # first of equal ones
    minimal: list = []
    divides = packing.divides
    for g in sorted(G, key=itemgetter(0)):
        if not any(divides(m[0], g[0]) for m in minimal):
            minimal.append(g)
    # interreduce tails; a leading monomial of a minimal basis is irreducible
    # by the others, so it stays leading
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        lm, lc, tail, _ = g
        work = dict(tail)
        work[lm] = lc
        reduced.append(_element(_reduce(work, others, guard)[0], packing))
    stats["basis_size"] = len(reduced)
    return reduced


# ---------------------------------------------------------------------------
# Ideals


class Ideal:
    """Ideal of Q[ctx], generators plus a per-order reduced-basis cache.

    A cache miss takes the basis from the memo of the enclosing
    ``engine_limits`` block when that block already computed it for the
    same generator set and order, and runs Buchberger otherwise. The
    first ``_prefix`` generators of a derived ideal are a degrevlex
    Groebner basis, which a run trusts when its order ranks their
    monomials as degrevlex does (``MonomialOrder.ranks_as_degrevlex``).
    """

    __slots__ = ("ctx", "generators", "_prefix", "_cache", "_hash")

    def __init__(self, ctx: VarContext, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatch("generator context differs from ideal context")
            if not g.is_zero():
                gens.append(g)
        self.ctx = ctx
        self.generators = tuple(gens)
        self._prefix = 0
        # order signature -> [reduced basis, stats, packing, packed basis];
        # packing and packed basis are None until first used
        self._cache: dict = {}
        self._hash = None

    # -- construction helpers

    def with_extra(self, extra: Iterable[Polynomial]) -> "Ideal":
        """This ideal plus extra, generated by this one's reduced degrevlex
        basis, as the prefix, and then extra."""
        basis = self.groebner_basis()
        J = Ideal(self.ctx, basis + tuple(extra))
        J._prefix = len(basis)
        return J

    # -- Groebner bases

    def groebner_basis(self, order: MonomialOrder = DEGREVLEX) -> tuple:
        sig = order.signature()
        if sig in self._cache:
            return self._cache[sig][0]
        limits, memo = _SESSION.get()
        if memo is None:
            found = self._run(order, limits.spair_budget)
        else:
            key = (self.ctx, frozenset(self.generators), sig)
            found = memo.get(key)
            if found is None:
                found = memo[key] = self._run(order, limits.spair_budget)
                # the basis, as a generator set, is its own reduced basis
                memo.setdefault((self.ctx, frozenset(found[0]), sig), found)
            else:
                ENGINE_COUNTERS["basis_memo_hits"] += 1
        self._cache[sig] = found
        return found[0]

    def _run(self, order: MonomialOrder, budget: int) -> list:
        """[reduced basis, stats, packing, packed basis] by one Buchberger run.

        The run starts at the narrowest field width that holds the
        generators and is redone twice as wide, prefix and all, whenever a
        product overflows. The prefix enters as a Groebner basis whose own
        pairs are never formed when the order ranks its monomials as
        degrevlex does. The zero ideal's reduced basis is empty, and a
        principal ideal's is its packed generator, made monic as a run's
        basis is; neither takes a run.
        """
        gens = self.generators
        if not gens:
            return [(), {}, None, None]
        n = len(self.ctx)
        prefix = gens[:self._prefix]
        support = {i for i, col in enumerate(zip(*[e for g in prefix for e in g.terms])) if any(col)}
        k = len(prefix) if prefix and order.ranks_as_degrevlex(support, n) else 0

        def attempt(width: int) -> tuple:
            packing = _packing(order, n, width)
            stats: dict = {}
            encoded = [_encode(packing, g)[0] for g in gens]
            if len(encoded) == 1:
                return [_element(encoded[0], packing)], stats, packing
            encoded[:k] = [_element(g, packing) for g in encoded[:k]]
            return _buchberger(encoded, packing, budget, stats), stats, packing

        basis, stats, packing = _widening(_width(gens), attempt)
        if len(gens) > 1:
            ENGINE_COUNTERS["groebner_runs"] += 1
            ENGINE_COUNTERS["spairs"] += stats.get("spairs", 0)
        # monic, in ascending order of leading monomials as returned
        exponent = packing.exponent
        polys = tuple(
            Polynomial.from_clean(
                self.ctx, {exponent(m): quotient(c, lc) for m, c in [(lm, lc), *tail.items()]})
            for lm, lc, tail, _ in basis
        )
        return [polys, stats, packing, basis]

    def _packed(self, order: MonomialOrder, width: int = 16) -> tuple:
        """(packing, packed basis) of the cached reduced basis, at least width wide.

        Packs the basis on first use, and again, kept so, when a wider
        packing is asked for.
        """
        entry = self._cache[order.signature()]
        gb, _, packing, basis = entry
        if packing is None or packing.width < width:
            packing = _packing(order, len(self.ctx), _width(gb, width))
            basis = [_element(_encode(packing, g)[0], packing) for g in gb]
            entry[2:] = packing, basis
        return packing, basis

    def gb_stats(self, order: MonomialOrder = DEGREVLEX) -> dict:
        """Stats of the run that made the basis; bench/spans.py reads them, no command does."""
        found = self._cache.get(order.signature())
        return {} if found is None else dict(found[1])

    def normal_form(self, p: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
        """Exact normal form against the reduced basis (canonical representative).

        Reduces against the packed basis, repacked wider (and kept so)
        when p or a product outgrows its fields, and divides the
        fraction-free remainder by the scalar the reduction tracked.
        """
        if not self.groebner_basis(order):
            return p

        def attempt(width: int) -> Polynomial:
            packing, basis = self._packed(order, width)
            work, d = _encode(packing, p)
            remainder, num, den = _reduce(work, basis, packing.guard)
            scale = num * d
            exponent = packing.exponent
            return Polynomial.from_clean(
                p.ctx, {exponent(m): quotient(c * den, scale) for m, c in remainder.items()})

        return _widening(_width([p], self._packed(order)[0].width), attempt)

    def contains(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        return self.normal_form(p).is_zero()

    def __contains__(self, p: Polynomial) -> bool:
        return self.contains(p)

    def is_trivial(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].total_degree() == 0

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

    def dimension(self) -> int:
        return dimension_and_degree(self)[0]


def dimension_and_degree(I: Ideal) -> tuple:
    """(dimension, degree) of the affine scheme V(I); (-1, 0) when I is trivial.

    Read from the degrevlex leading monomials (Bayer-Stillman 1992; Cox,
    Little and O'Shea, ch. 9): the Hilbert series of Q[ctx]/LT(I) is
    N(t)/(1-t)^n, the dimension is n less the order of the zero of N at
    t = 1, and the degree is N(t)/(1-t)^(n-dim) at t = 1. The degree sums
    the lengths times the degrees of the top-dimensional components only.
    The leading monomials are read off the run's packed basis, and each
    monomial ideal is measured once per ``engine_limits`` block.
    """
    I.groebner_basis()
    packing, basis = I._packed(DEGREVLEX)
    mask = packing.mask
    lms = tuple([g[0] & mask for g in basis])
    return block_memo(("hilbert numerator", packing, lms),
                      lambda: _packed_dimension_and_degree(lms, packing))


def monomial_dimension_and_degree(lms: Sequence[tuple], n: int) -> tuple:
    """(dimension, degree) of Q[x_1..x_n]/(lms) for exponents lms; (-1, 0) when 1 is in lms.

    Read from the Hilbert numerator of the monomial ideal, which no
    monomial order enters. In dimension 0 the degree is the number of
    exponents that no element of lms divides.
    """
    packing = _packing(DEGREVLEX, n, _width_for(max((x for e in lms for x in e), default=0)))
    mask = packing.mask
    return _packed_dimension_and_degree([packing.monomial(e) & mask for e in lms], packing)


def _packed_dimension_and_degree(lms: Sequence[int], packing: _Packing) -> tuple:
    """``monomial_dimension_and_degree`` for the fields of packed monomials."""
    num = _hilbert_numerator(lms, packing)
    if not any(num):
        return -1, 0
    codim = 0
    while sum(num) == 0:
        # N(t) = (1-t) Q(t): Q's coefficients are the prefix sums of N's
        num = list(itertools.accumulate(num))[:-1]
        codim += 1
    return len(packing.shifts) - codim, sum(num)


def _hilbert_numerator(gens: Sequence[int], packing: _Packing) -> list:
    """Coefficients of N(t), in rising powers of t, for the monomial ideal (gens).

    gens are the fields of packed monomials. N(M' + (m)) = N(M') -
    t^|m| N(M' : m); factors over groups of generators with disjoint
    supports multiply. Divisibility, lcm and colon are the packing's
    guard-bit operations; packed fields ascend in a lex order, so a
    divisor sorts before its multiples.
    """
    guard = packing.guard
    minimal: list = []
    for g in sorted(set(gens)):
        over = g | guard
        for h in minimal:  # _Packing.divides, inlined
            if (over - h) & guard == guard:
                break
        else:
            minimal.append(g)
    if not minimal:
        return [1]
    ones = guard >> (packing.width - 1)
    groups: list = []  # [support, generators]; a support has the guard bits of its nonzero fields
    for g in minimal:
        support = ((g | guard) - ones) & guard
        members = [g]
        apart = []
        for grp in groups:
            if grp[0] & support:
                support |= grp[0]
                members += grp[1]
            else:
                apart.append(grp)
        apart.append([support, members])
        groups = apart
    if len(groups) > 1:
        product = [1]
        for _, members in groups:
            product = _poly_mul(product, _hilbert_numerator(members, packing))
        return product
    m, rest = minimal[-1], minimal[:-1]
    colon = [packing.lcm(g, m) - m for g in rest]
    values = packing.values
    degree = sum([(m >> s) & values for s in packing.shifts])
    return _poly_sub(_hilbert_numerator(rest, packing),
                     [0] * degree + _hilbert_numerator(colon, packing))


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


def extend_context(ctx: VarContext, name: str) -> tuple:
    """(ctx plus one auxiliary base variable, that variable).

    The variable is named name, or name1, name2, ... when a variable of
    ctx already has the name. Every auxiliary variable the engine
    eliminates comes from here.
    """
    fresh = name
    names = set(ctx.names())
    i = 0
    while fresh in names:
        i += 1
        fresh = f"{name}{i}"
    var = Variable(fresh, "base", len(ctx))
    return ctx.extend([var]), var


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the scaling-variable trick. Its one caller is ``saturate``,
    which only the benchmark's ``kernel`` workload (bench/worker.py) calls."""
    if I.ctx != J.ctx:
        raise ContextMismatch("intersection requires a common context")
    ctx2, tv = extend_context(I.ctx, "_t")
    t = ctx2.gen(tv)
    gens = [g.lift(ctx2) * t for g in I.generators]
    gens += [g.lift(ctx2) * (ctx2.one() - t) for g in J.generators]
    return eliminate(Ideal(ctx2, gens), [tv], restrict=True)


@dataclass
class SaturationResult:
    ideal: Ideal
    exponent: int


def saturate(I: Ideal, J: Ideal) -> SaturationResult:
    """(I : J^infinity) and the least e with J^e (I : J^infinity) inside I.

    The saturation is the intersection of the I : g^infinity over the
    generators g of J, each by ``saturate_element`` (Cox, Little and
    O'Shea, ch. 4 section 4). The exponent is a membership question: the
    nonzero normal forms mod I of the saturation's generators, multiplied
    by J's generators once per step, until none is left. e is at most
    ``SATURATION_CAP``; past it, ResourceLimitExceeded. No command calls
    it; the benchmark's ``kernel`` workload (bench/worker.py) does.
    """
    if not J.generators:
        raise ValueError("saturation by the zero ideal")
    sat = saturate_element(I, J.generators[0])
    for g in J.generators[1:]:
        sat = intersect(sat, saturate_element(I, g))
    pending = _nonzero_normal_forms(I, sat.generators)
    for e in range(SATURATION_CAP + 1):
        if not pending:
            return SaturationResult(sat, e)
        pending = _nonzero_normal_forms(I, [f * g for f in pending for g in J.generators])
    raise ResourceLimitExceeded(f"saturation exponent exceeds cap {SATURATION_CAP}")


def _nonzero_normal_forms(I: Ideal, polys: Iterable[Polynomial]) -> list:
    """The distinct nonzero normal forms mod I of polys, in first-seen order."""
    forms = dict.fromkeys(I.normal_form(p) for p in polys)
    return [f for f in forms if not f.is_zero()]


def saturate_element(I: Ideal, h: Polynomial) -> Ideal:
    """(I : h^infinity) via the auxiliary-variable trick (single elimination).

    A unit h leaves I: a constant h returns I itself, and when I is
    zero-dimensional and 1 lies in I + (h) (a degrevlex run seeded with
    I's reduced basis) the result is I's reduced basis, with no
    elimination. Only zero-dimensional I are tested: in positive
    dimension the engine's saturations practically never meet a unit,
    and a unit there still takes the elimination, to the same ideal.
    Otherwise I's reduced degrevlex basis, lifted, plus 1 - s*h is
    eliminated under a block order on s, which trusts the lifted basis
    as a prefix.
    """
    if h.is_zero():
        raise ValueError("saturation by zero")
    if h.total_degree() == 0:
        return I
    if _zero_dimensional(I) and I.with_extra([h]).is_trivial():
        return _with_reduced_basis(I.ctx, I.groebner_basis())
    ctx2, tv = extend_context(I.ctx, "_s")
    t = ctx2.gen(tv)
    rabinowitsch = lift_ideal(I, ctx2).with_extra([ctx2.one() - t * h.lift(ctx2)])
    return eliminate(rabinowitsch, [tv], restrict=True)


def eliminate(
    I: Ideal,
    drop: Sequence[Variable | str],
    restrict: bool = False,
) -> Ideal:
    """I cap Q[ctx minus drop], via a block elimination order.

    The order's second block is degrevlex on the kept variables in context
    order, so the kept elements of the reduced block-order basis are the
    reduced degrevlex basis of the result (Elimination Theorem; Cox,
    Little and O'Shea, ch. 3 section 1), in context or restricted. The
    result takes them as its basis with no further run.
    """
    if not drop:
        return I
    positions = [I.ctx.position(v) for v in drop]
    gb = I.groebner_basis(block_order(positions, len(I.ctx)))
    keep = [g for g in gb if not any(e[p] for e in g.terms for p in positions)]
    if not restrict:
        return _with_reduced_basis(I.ctx, keep)
    small = VarContext([v for i, v in enumerate(I.ctx.variables) if i not in positions])
    return _with_reduced_basis(small, [g.restrict(small) for g in keep])


def lift_ideal(I: Ideal, ctx: VarContext) -> Ideal:
    """I's extension to Q[ctx], a context that holds all of I's variables.

    Generated by I's reduced degrevlex basis, lifted. When ctx keeps the
    relative order of I's variables, degrevlex on ctx ranks I's monomials
    as degrevlex on I's context does, so the lifted basis is the
    extension's reduced basis and is handed over with no run.
    """
    lifted = [g.lift(ctx) for g in I.groebner_basis()]
    positions = [ctx.position(v.name) for v in I.ctx.variables]
    if positions == sorted(positions):
        return _with_reduced_basis(ctx, lifted)
    return Ideal(ctx, lifted)


def renamed_ideal(I: Ideal, ctx: VarContext) -> Ideal:
    """I with its variables renamed, position by position, to ctx's.

    Every exponent stays in place, so degrevlex ranks the renamed monomials
    as it ranked I's, and I's reduced basis, renamed, is the result's. It is
    handed over with no run.
    """
    basis = [Polynomial.from_clean(ctx, g.terms) for g in I.groebner_basis()]
    return _with_reduced_basis(ctx, basis)


def _with_reduced_basis(ctx: VarContext, basis: Sequence[Polynomial]) -> Ideal:
    """The ideal that basis, its reduced degrevlex basis in ascending order, generates.

    The basis enters the ideal's cache and the block memo as if a run had
    made it; its packed form is built when first used.
    """
    J = Ideal(ctx, basis)
    sig = DEGREVLEX.signature()
    found = [J.generators, {}, None, None]
    memo = _SESSION.get()[1]
    if memo is not None:
        found = memo.setdefault((ctx, frozenset(J.generators), sig), found)
    J._cache[sig] = found
    return J


def radical_contains(I: Ideal, p: Polynomial) -> bool:
    """p in sqrt(I), by the auxiliary-variable membership test.

    For any ideal, prime or not; no engine path calls it. The engine asks
    only about certified primes, each its own radical, and
    ``prime_contains_all`` answers those by normal forms with no further
    Groebner run. The tests check those answers against this one, and
    bench/spans.py wraps it by name.
    """
    if p.is_zero() or I.contains(p):
        return True
    ctx2, tv = extend_context(I.ctx, "_r")
    t = ctx2.gen(tv)
    return lift_ideal(I, ctx2).with_extra([ctx2.one() - t * p.lift(ctx2)]).is_trivial()


def prime_contains_all(P: Ideal, polys: Iterable[Polynomial]) -> bool:
    """V(P) subseteq V(polys) for a prime P: every poly reduces to 0 mod P.

    A prime is its own radical, so vanishing on V(P) is membership in P
    (Cox, Little and O'Shea, ch. 4 section 2): a normal form against the
    basis P already has. The ideals that qualify are a ``Component``'s, a
    ``minimal_primes`` witness's and a stratum closure of a
    ``StratifiedComplex``, which certifies each when it is built. For an
    ideal that is not prime the answer can be wrong: x is not in (x^2),
    though it vanishes on V(x^2); ``radical_contains`` answers that.
    """
    return all(P.contains(p) for p in polys)


def leading_monomials(I: Ideal, order: MonomialOrder = DEGREVLEX) -> list:
    """The exponents of the leading monomials of I's reduced basis under order.

    In the basis's order, ascending, read off the packed basis.
    """
    I.groebner_basis(order)
    packing, basis = I._packed(order)
    return [packing.exponent(g[0]) for g in basis]


def _zero_dimensional(I: Ideal) -> bool:
    """Q[ctx]/I is finite: every variable has a pure power (or 1) among the
    degrevlex leading monomials, read off the packed basis."""
    I.groebner_basis()
    packing, basis = I._packed(DEGREVLEX)
    values, mask = packing.values, packing.mask
    fields = [g[0] & mask for g in basis]
    return all(any(not m & ~(values << s) for m in fields) for s in packing.shifts)


def local_degree(I: Ideal) -> int:
    """Length of the local ring of Q[ctx]/I at the origin (0 off V(I)).

    Q[ctx]/I must be finite, else NotZeroDimensional; past ``VECDIM_CAP``
    standard monomials, ResourceLimitExceeded. With D its Q-dimension,
    the local algebra at the origin has length at most D, so the D-th
    power of its maximal ideal is zero, while at every other point of
    V(I) some coordinate is a unit. Joining the D-th power of every
    coordinate therefore leaves exactly the local algebra. Both D and the
    length are degrees of zero-dimensional ideals, read by
    ``dimension_and_degree``.
    """
    if any(g.constant_term() != 0 for g in I.generators):
        return 0
    dim, D = dimension_and_degree(I)
    if dim != 0:
        raise NotZeroDimensional(
            "local degree requested for an ideal whose quotient ring is not finite"
        )
    if D > VECDIM_CAP:
        raise ResourceLimitExceeded("standard monomial count exceeded cap")
    ctx = I.ctx
    return dimension_and_degree(I.with_extra([ctx.gen(v) ** D for v in ctx.variables]))[1]
