"""Groebner engine: bases, membership, quotients, saturation, elimination,
dimension, radical membership, decomposition, local degree."""

import random
from fractions import Fraction

import pytest

from gecc_kit import ideal as ideal_module
from gecc_kit.decompose import factor_list, is_certified_prime, minimal_primes
from gecc_kit.ideal import (
    DEGREVLEX,
    EngineLimits,
    Ideal,
    NotZeroDimensional,
    ResourceLimitExceeded,
    dimension,
    dimension_and_degree,
    eliminate,
    ideal_quotient,
    intersect,
    local_degree,
    radical_contains,
    saturate,
    saturate_element,
    selfcheck_groebner,
    variety_contained_in,
    vector_space_dimension,
)
from gecc_kit.polyring import LEX, Polynomial, base_context, block_order, parse_polynomial

CTX = base_context(["x", "y", "t"])
CTX_W = base_context(["x", "y", "t", "w0", "w1", "w2"])


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def I(*gens, ctx=CTX):
    return Ideal(ctx, [P(g, ctx) for g in gens])


def gens_str(ideal, order=DEGREVLEX):
    return sorted(str(g) for g in ideal.groebner_basis(order))


# -- groebner_basis


def test_gb_principal():
    assert gens_str(I("x")) == ["x"]


def test_gb_hand_buchberger():
    # one hand step: S(x^2+y^2, x*y) reduces to y^3
    ctx2 = base_context(["x", "y"])
    basis = Ideal(ctx2, [P("x^2+y^2", ctx2), P("x*y", ctx2)]).groebner_basis()
    assert sorted(str(g) for g in basis) == ["x*y", "x^2 + y^2", "y^3"]
    assert selfcheck_groebner(basis)


def test_gb_linear_elimination():
    ctx3 = base_context(["t", "x", "y"])
    J = Ideal(ctx3, [P("x+t^2", ctx3), P("y", ctx3), P("x", ctx3)])
    assert sorted(str(g) for g in J.groebner_basis(LEX)) == ["t^2", "x", "y"]


def test_gb_selfcheck_property():
    rng = random.Random(8)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(3))
                terms[e] = Fraction(rng.randint(-4, 4))
            gens.append(Polynomial(CTX, terms))
        J = Ideal(CTX, [g for g in gens if not g.is_zero()])
        assert selfcheck_groebner(J.groebner_basis())


# -- kernel regressions: pair-queue budget, orders, stale reduction entries

CTX_XYZ = base_context(["x", "y", "z"])
PRUNED_AFTER_QUEUEING = ("x - y^2", "x^2*y*z^2 + 3*y", "3*y + 3*x*y^2*z^2")


def test_spair_budget_counts_processed_pairs_only(monkeypatch):
    pair_pops = []
    real_pop = ideal_module.heappop

    def counting_pop(heap):
        item = real_pop(heap)
        if len(item) == 3:  # (lcm key, i, j): a pair-queue entry
            pair_pops.append(item)
        return item

    monkeypatch.setattr(ideal_module, "heappop", counting_pop)
    J = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
    J.groebner_basis()
    processed = J.gb_stats()["spairs"]
    # Gebauer-Moeller pruned a queued pair, so its heap entry went stale
    assert len(pair_pops) > processed
    exact = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
    assert exact.groebner_basis(limits=EngineLimits(spair_budget=processed)) == J.groebner_basis()
    with pytest.raises(ResourceLimitExceeded):
        I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis(
            limits=EngineLimits(spair_budget=processed - 1))


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, block_order([2], 3), block_order([0, 2], 3)],
                         ids=["lex", "degrevlex", "block-z", "block-xz"])
def test_gb_selfcheck_under_orders(order):
    rng = random.Random(31)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0, 0, 0]
                for _ in range(rng.randint(0, 3)):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = Fraction(rng.randint(-4, 4))
            gens.append(Polynomial(CTX_XYZ, terms))
        gb = Ideal(CTX_XYZ, [g for g in gens if not g.is_zero()]).groebner_basis(order)
        assert selfcheck_groebner(gb, order)
        assert all(g.leading(order)[1] == 1 for g in gb)


def textbook_remainder(p, gb, order):
    """Division by the basis in exact fractions, leading term first."""
    leads = [(g.leading(order), g) for g in gb]
    work, remainder = p, {}
    while work:
        e, c = work.leading(order)
        for (lm, lc), g in leads:
            if all(a <= b for a, b in zip(lm, e)):
                shift = Polynomial(p.ctx, {tuple(b - a for a, b in zip(lm, e)): c / lc})
                work = work - shift * g
                break
        else:
            remainder[e] = c
            work = work - Polynomial(p.ctx, {e: c})
    return Polynomial(p.ctx, remainder)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_normal_form_with_cancellations(order):
    # reducts of neighbouring terms of the alternating sum cancel, so many
    # queued exponents go stale on the reduction front before they are popped
    J = I("x - y - t", "y^2 - 2*t*y + 3", ctx=CTX)
    terms = {(20 - k, k, 0): Fraction((-1) ** k) for k in range(21)}
    rng = random.Random(12)
    for _ in range(30):
        e = tuple(rng.randint(0, 6) for _ in range(3))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    p = Polynomial(CTX, terms)
    gb = J.groebner_basis(order)
    expected = textbook_remainder(p, gb, order)
    assert J.normal_form(p, order) == expected
    # the fraction-free integer kernel agrees up to a positive scalar, which
    # primitive integer forms remove
    keys = ideal_module._OrderKeys(order.key_function(3))
    ints = [(t,) + ideal_module._lead(t, keys) for t in map(ideal_module._to_int_poly, gb)]
    got = ideal_module._nf_int(ideal_module._to_int_poly(p), ints, keys)
    assert got == ideal_module._to_int_poly(expected)
    assert J.contains(p - expected)


# -- membership


def test_membership_examples():
    ctx2 = base_context(["x", "y"])
    J = Ideal(ctx2, [P("x^2+y^2", ctx2), P("x*y", ctx2)])
    assert P("y^3", ctx2) in J
    assert P("1", ctx2) not in Ideal(ctx2, [P("x", ctx2)])
    assert ctx2.zero() in J


# -- quotient


def test_quotient_examples():
    J = I("x*y", "x*t")
    assert gens_str(ideal_quotient(J, P("y"))) == ["x"]
    assert gens_str(ideal_quotient(I("x^2"), P("x"))) == ["x"]
    assert ideal_quotient(J, CTX.one()) == J


# -- saturation


def test_saturate_moves_component():
    res = saturate(I("x*y", "x*t"), I("y", "t"))
    assert gens_str(res.ideal) == ["x"]
    assert res.exponent >= 1
    # both-ways radical check
    assert radical_contains(res.ideal, P("x"))
    assert variety_contained_in(res.ideal, I("x"))


def test_saturate_nonzerodivisor():
    res = saturate(I("x"), I("y"))
    assert res.ideal == I("x")
    assert res.exponent == 0


def test_saturate_relative_conormal_cycle_level():
    # gap removal of the V(x,y)-part, compared at the level of varieties
    J = Ideal(CTX_W, [P("y^2-x^3-t^2*x^2", CTX_W), P("y*w2+t*x^2*w1", CTX_W)])
    res = saturate(J, Ideal(CTX_W, [P("x", CTX_W), P("y", CTX_W)]))
    expected = Ideal(
        CTX_W,
        [
            P("y^2-x^3-t^2*x^2", CTX_W),
            P("y*w2+t*x^2*w1", CTX_W),
            P("(x+t^2)*w2+y*t*w1", CTX_W),
        ],
    )
    assert variety_contained_in(res.ideal, expected)
    assert variety_contained_in(expected, res.ideal)


def test_saturation_idempotence():
    res1 = saturate(I("x*y", "x*t"), I("y", "t"))
    res2 = saturate(res1.ideal, I("y", "t"))
    assert res2.ideal == res1.ideal and res2.exponent == 0


# -- elimination


def test_eliminate_pushforward_example():
    ctx = base_context(["x", "y", "t", "w0", "w1", "w2"])
    J = Ideal(
        ctx,
        [P(g, ctx) for g in ("w0", "w1-1", "w2", "x+t^2", "y")],
    )
    E = eliminate(J, ["w0", "w1", "w2"])
    assert gens_str(E) == ["t^2 + x", "y"]


def test_eliminate_parametrized_line():
    E = eliminate(I("x-t", "y-t"), ["t"])
    assert gens_str(E) == ["x - y"]


def test_eliminate_empty_drop():
    J = I("x")
    assert eliminate(J, []) == J


# -- dimension


def test_dimension_examples():
    assert dimension(I("x", "y")) == 1
    assert dimension(I("y^2-x^3-t^2*x^2")) == 2
    assert dimension(I("x+t^2", "y", "t")) == 0
    assert dimension(Ideal(CTX, [CTX.one()])) == -1
    assert dimension(Ideal(CTX, [])) == 3


def test_dimension_generic_slice_drop():
    forms = ("3*x-2*y+5*t-7", "x+4*y-t+2", "-6*x+y+9*t+1")
    for J in (I("x", "y"), I("y^2-x^3-t^2*x^2")):
        d = dimension(J)
        for form in forms:
            cut = J.with_extra([P(form)])
            assert not cut.is_trivial() and dimension(cut) == d - 1, form


# -- radical membership / containment


def test_radical_examples():
    assert radical_contains(I("x^2"), P("x"))
    assert not radical_contains(I("x"), P("y"))
    assert radical_contains(I("(x+t^2)^3", "y"), P("x+t^2"))
    # explicit power membership
    assert P("(x+t^2)^3", CTX) in I("(x+t^2)^3", "y")


def test_variety_containment():
    assert variety_contained_in(I("x", "y", "t"), I("x", "y"))
    ctx = CTX_W
    A = Ideal(ctx, [P(g, ctx) for g in ("x+t^2", "y")])
    B = Ideal(ctx, [P(g, ctx) for g in ("w0", "w1-1", "w2")])
    assert not variety_contained_in(A, B)
    C = Ideal(ctx, [P(g, ctx) for g in ("x", "y", "w0", "w1-1", "w2")])
    assert variety_contained_in(C, B)


# -- minimal primes


def test_minimal_primes_factored_generator():
    ps = minimal_primes(I("x^2*(x+t^2)", "y"))
    found = {tuple(gens_str(w.ideal)) for w in ps}
    assert found == {("x", "y"), ("t^2 + x", "y")}
    assert all(w.certified for w in ps)


def test_minimal_primes_xy():
    ps = minimal_primes(I("x*y"))
    assert {tuple(gens_str(w.ideal)) for w in ps} == {("x",), ("y",)}


def test_minimal_primes_relative_conormal():
    J = Ideal(CTX_W, [P("y^2-x^3-t^2*x^2", CTX_W), P("y*w2+t*x^2*w1", CTX_W)])
    ps = minimal_primes(J)
    assert len(ps) == 2
    sets = {tuple(gens_str(w.ideal)) for w in ps}
    assert ("y", "x") in sets or ("x", "y") in sets
    big = next(w for w in ps if len(w.ideal.generators) > 2)
    # the E component contains the paper's three generators
    for g in ("y^2-x^3-t^2*x^2", "y*w2+t*x^2*w1", "(x+t^2)*w2+y*t*w1"):
        assert radical_contains(big.ideal, P(g, CTX_W))


def test_minimal_primes_fiber_linear_over_own_base():
    # The graph of a gradient over the conjugate lines x^2 = x + 1. The
    # linear substitution that certification tries first solves x out of
    # another basis element, after which no fiber is linear; over the base
    # Q[x, y]/(x^2 - x - 1) the fiber (w0, w1) is linear.
    ctx = base_context(["x", "y", "w0", "w1"])
    J = I("x^2-x-1", "w0+4*x*y-5*y^2", "w1+2*x^2-10*x*y", ctx=ctx)
    ps = minimal_primes(J)
    assert [(w.ideal, w.certified, w.route) for w in ps] == [(J, True, "linear-fiber")]


def test_minimal_primes_intersection_property():
    rng = random.Random(10)
    J = I("x^2*(x+t^2)", "y")
    ps = minimal_primes(J)
    meet = ps[0].ideal
    for w in ps[1:]:
        meet = intersect(meet, w.ideal)
    for g in J.generators:
        for w in ps:
            assert radical_contains(w.ideal, g)
    for g in meet.generators:
        assert radical_contains(J, g)


# -- local degree


def test_local_degree_paper_value():
    J = I("3*x+2*t^2", "3*y^2-x^3-t^2*x^2", "t")
    assert local_degree(J) == 2


def test_local_degree_reduced_point():
    assert local_degree(I("x", "y", "t")) == 1


def test_local_degree_double_point():
    # <x+t^2, y, x> = <x, y, t^2>: standard monomials {1, t}
    assert local_degree(I("x+t^2", "y", "x")) == 2


def test_local_degree_off_point():
    assert local_degree(I("x-1", "y", "t")) == 0


def test_local_degree_translated():
    J = I("x-1", "y+2", "t")
    assert local_degree(J, {"x": Fraction(1), "y": Fraction(-2), "t": Fraction(0)}) == 1


def test_local_degree_not_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        local_degree(I("x", "y"))


def test_local_degree_additive_over_disjoint():
    # V(x,y,t) and V(x-1,y,t) are disjoint; local degree at 0 sees only one
    A = I("x", "y", "t^2")
    B = I("x-1", "y", "t")
    meet = intersect(A, B)
    assert local_degree(meet) == local_degree(A) == 2


# -- dimension and degree from the leading monomials


@pytest.mark.parametrize("gens,expected", [
    (("x^2-y*z",), (2, 2)),             # quadric cone
    (("y-x^2", "z-x^3"), (1, 3)),       # twisted cubic
    (("x*y", "x*z"), (2, 1)),           # plane plus a line: the line has lower dimension
    (("x^2", "x*y"), (2, 1)),           # plane x = 0 with an embedded line
    (("x^2", "y^2", "x*y*z"), (1, 3)),  # length 3 along the z-axis
    (("1",), (-1, 0)),
    ((), (3, 1)),
])
def test_dimension_and_degree(gens, expected):
    assert dimension_and_degree(I(*gens, ctx=CTX_XYZ)) == expected


def test_dimension_and_degree_double_line():
    # (x^2, y) in (x, y, t): the t-axis counted twice
    assert dimension_and_degree(I("x^2", "y")) == (1, 2)


def test_vector_space_dimension():
    assert vector_space_dimension(I("x^2", "y", "t")) == 2
    assert vector_space_dimension(I("x", "y")) is None


def test_factor_list_cache_round_trip():
    p = P("y^2*(x+t^2)^2")
    fs = factor_list(p)
    assert sorted((str(f), m) for f, m in fs) == [("t^2 + x", 2), ("y", 2)]


def test_certified_prime_checks():
    assert is_certified_prime(I("x", "y"))
    assert is_certified_prime(I("y^2-x^3-t^2*x^2"))
    assert not is_certified_prime(I("x*y"))
