"""Randomized property suites at desk scale (<= 3 variables, degree <= 4).

Each suite runs at least 200 cases with a fixed seed; the acceptance
module re-invokes the loop functions, so they are plain callables. Each
is cached, so the two callers share one run per session.
"""

import functools
import random
from fractions import Fraction

from gecc_kit.conormal import Stratum, conormal_variety
from gecc_kit.cycles import (
    AmbientSpace,
    EnrichedCycle,
    GradedEnrichedCycle,
    component_from_prime,
    cycle_add,
    divisor_intersect,
    gap_remove,
    proper_pushforward,
    to_ordinary,
)
from gecc_kit.decompose import factor_list
from gecc_kit.ideal import Ideal, saturate, selfcheck_groebner
from gecc_kit.modclass import ModClass, direct_sum, mod_leq, mod_sub, tensor
from gecc_kit.polyring import Polynomial, base_context, parse_polynomial

CTX3 = base_context(["x", "y", "z"])


def random_poly(rng, ctx=CTX3, max_deg=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * len(ctx)
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            e[rng.randrange(len(ctx))] += 1
        c = rng.randint(-5, 5)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return Polynomial(ctx, {e: c for e, c in terms.items() if c})


def random_ideal(rng, ctx=CTX3, max_gens=3):
    gens = [random_poly(rng, ctx) for _ in range(rng.randint(1, max_gens))]
    return Ideal(ctx, [g for g in gens if not g.is_zero()])


@functools.cache
def groebner_selfcheck_suite(cases=200, seed=101):
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        I = random_ideal(rng)
        if not selfcheck_groebner(I.groebner_basis()):
            failures += 1
    return failures


@functools.cache
def saturation_idempotence_suite(cases=200, seed=102):
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        I = random_ideal(rng, max_gens=2)
        J = random_ideal(rng, max_gens=1)
        if not J.generators or J.is_trivial():
            continue
        first = saturate(I, J)
        second = saturate(first.ideal, J)
        if second.ideal != first.ideal or second.exponent != 0:
            failures += 1
    return failures


@functools.cache
def projection_formula_suite(cases=200, seed=103):
    """Prop 3.3 on differential graphs: push(E . V(h o pi)) = push(E) . V(h)."""
    amb_t = AmbientSpace("TstarU", 1, ("x", "y"))
    amb_u = AmbientSpace("U", 1, ("x", "y"))
    tctx = amb_t.context()
    uctx = amb_u.context()
    rng = random.Random(seed)
    failures = 0
    done = 0
    while done < cases:
        g = random_poly(rng, uctx, max_deg=3, max_terms=3)
        graph_gens = [
            tctx.gen("w0") - g.partial("x").lift(tctx),
            tctx.gen("w1") - g.partial("y").lift(tctx),
        ]
        comp = component_from_prime(Ideal(tctx, graph_gens), amb_t)
        coeff = ModClass(rng.randint(1, 3), (2,) if rng.random() < 0.3 else ())
        E = GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {comp: coeff}))
        h = random_poly(rng, uctx, max_deg=2, max_terms=3)
        if h.is_zero() or h.total_degree() == 0:
            continue
        done += 1
        lhs = proper_pushforward(
            divisor_intersect(E, h.lift(tctx)), amb_u, rng
        )
        rhs = divisor_intersect(proper_pushforward(E, amb_u, rng), h)
        if lhs != rhs:
            failures += 1
    return failures


def random_mod(rng):
    rank = rng.randint(0, 3)
    torsion = tuple(rng.choice([2, 3, 4, 9]) for _ in range(rng.randint(0, 2)))
    return ModClass(rank, torsion)


@functools.cache
def modclass_laws_suite(cases=220, seed=104):
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        a, b, c = (random_mod(rng) for _ in range(3))
        ok = (
            direct_sum(a, b) == direct_sum(b, a)
            and direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
            and tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))
            and tensor(a, ModClass.free(1)) == a
            and mod_leq(a, direct_sum(a, b))
            and mod_sub(direct_sum(a, b), a) == b
        )
        if direct_sum(a, c) == direct_sum(b, c) and a != b:
            ok = False
        if mod_leq(a, b) and mod_leq(b, a) and a != b:
            ok = False
        if not ok:
            failures += 1
    return failures


@functools.cache
def conormal_homogeneity_suite(cases=200, seed=105):
    """Conormal outputs of random strata are conic in the fiber variables."""
    amb_u = AmbientSpace("U", 2, ("x", "y", "z"))
    amb_t = amb_u.with_kind("TstarU")
    uctx = amb_u.context()
    wpos = [amb_t.context().position(v) for v in amb_t.cotangent_vars()]
    rng = random.Random(seed)
    failures = 0
    done = 0
    while done < cases:
        kind = rng.random()
        if kind < 0.4:
            # random linear subspace
            count = rng.randint(1, 2)
            gens = []
            for _ in range(count):
                form = random_linear(rng, uctx)
                if form is not None:
                    gens.append(form)
            if not gens:
                continue
            ideal = Ideal(uctx, gens)
        else:
            p = random_poly(rng, uctx, max_deg=3, max_terms=3)
            fs = factor_list(p)
            if len(fs) != 1 or fs[0][1] != 1:
                continue
            ideal = Ideal(uctx, [p])
        dim = ideal.dimension()
        if dim < 0 or dim > 2:
            continue
        try:
            comp = conormal_variety(Stratum("S", ideal, dim, {0: ModClass.free(1)}), amb_t)
        except Exception:
            continue
        done += 1
        for g in comp.ideal.groebner_basis():
            if not g.is_homogeneous_in(wpos):
                failures += 1
                break
        if comp.dim != 3:
            failures += 1
    return failures


def random_linear(rng, ctx):
    terms = {}
    for i in range(len(ctx)):
        c = rng.randint(-3, 3)
        if c:
            e = tuple(1 if j == i else 0 for j in range(len(ctx)))
            terms[e] = Fraction(c)
    if not terms:
        return None
    return Polynomial(ctx, terms)


@functools.cache
def gap_partition_suite(cases=200, seed=106):
    amb_t = AmbientSpace("TstarU", 1, ("x", "y"))
    tctx = amb_t.context()
    rng = random.Random(seed)
    pool = []
    for gens in (["x"], ["y"], ["x", "y"], ["x", "w0"], ["y", "w1"], ["x-y"],
                 ["w0", "w1"], ["x", "y", "w0"], ["x+y", "w1"]):
        pool.append(component_from_prime(
            Ideal(tctx, [parse_polynomial(g, tctx) for g in gens]), amb_t))
    failures = 0
    for _ in range(cases):
        terms = {}
        for comp in rng.sample(pool, rng.randint(1, 4)):
            terms[comp] = random_mod(rng)
        cyc = GradedEnrichedCycle.single(
            rng.randint(-1, 1), EnrichedCycle(amb_t, terms)
        )
        J = Ideal(tctx, [parse_polynomial(g, tctx)
                         for g in rng.choice((["x"], ["y"], ["w0"], ["x", "w1"], []))])
        inside, outside = gap_remove(cyc, J)
        if cycle_add(inside, outside) != cyc:
            failures += 1
    return failures


@functools.cache
def ordinary_additivity_suite(cases=200, seed=107):
    amb_t = AmbientSpace("TstarU", 1, ("x", "y"))
    tctx = amb_t.context()
    rng = random.Random(seed)
    pool = [
        component_from_prime(Ideal(tctx, [parse_polynomial(g, tctx) for g in gens]), amb_t)
        for gens in (["x"], ["y"], ["x", "y"], ["w0"], ["x", "w1"])
    ]
    failures = 0
    for _ in range(cases):
        def rand_cycle():
            degrees = {}
            for k in range(rng.randint(1, 2)):
                terms = {comp: random_mod(rng) for comp in rng.sample(pool, rng.randint(1, 3))}
                terms = {c: m for c, m in terms.items() if not m.is_zero()}
                if terms:
                    degrees[rng.randint(-1, 1)] = EnrichedCycle(amb_t, terms)
            return GradedEnrichedCycle(amb_t, degrees)

        D, E = rand_cycle(), rand_cycle()
        if to_ordinary(cycle_add(D, E)) != to_ordinary(D).plus(to_ordinary(E)):
            failures += 1
    return failures


# -- pytest entry points


def test_groebner_selfcheck_200():
    assert groebner_selfcheck_suite() == 0


def test_saturation_idempotence_200():
    assert saturation_idempotence_suite() == 0


def test_projection_formula_200():
    assert projection_formula_suite() == 0


def test_modclass_laws_200():
    assert modclass_laws_suite() == 0


def test_conormal_homogeneity_200():
    assert conormal_homogeneity_suite() == 0


def test_gap_partition_200():
    assert gap_partition_suite() == 0


def test_ordinary_additivity_200():
    assert ordinary_additivity_suite() == 0
