"""Groebner engine: bases, membership, saturation, elimination,
dimension, radical membership, decomposition, local degree."""

import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from gecc_kit import decompose as decompose_module
from gecc_kit import ideal as ideal_module
from gecc_kit.cli import EXIT_OK, main
from gecc_kit.decompose import (
    _certify,
    _eliminate_linear,
    _linear_pivot,
    factor_list,
    minimal_primes,
)
from gecc_kit.ideal import (
    DEFAULT_LIMITS,
    DEGREVLEX,
    EngineLimits,
    Ideal,
    NotZeroDimensional,
    ResourceLimitExceeded,
    dimension_and_degree,
    eliminate,
    engine_limits,
    intersect,
    leading_monomials,
    lift_ideal,
    local_degree,
    monomial_dimension_and_degree,
    radical_contains,
    saturate,
    saturate_element,
)
from gecc_kit.polyring import (
    LEX,
    Polynomial,
    _packing,
    _width,
    base_context,
    block_order,
    parse_polynomial,
)
from tests.conftest import exponent_divides, reference_key, reference_leading
from tests.reference import selfcheck_groebner, standard_monomials, variety_contained_in

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


def exact_coefficients(p):
    """Every coefficient an int when integral and a Fraction otherwise."""
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in p.terms.values())


def test_gb_is_reduced_monic_and_exact():
    # on rational generators every basis is reduced and monic, and bases and
    # normal forms carry an int wherever a coefficient is integral
    rng = random.Random(9)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                terms[e] = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            gens.append(Polynomial(CTX, terms))
        J = Ideal(CTX, gens)
        for order in (DEGREVLEX, LEX):
            gb = J.groebner_basis(order)
            leads = [reference_leading(g, order) for g in gb]
            for g, (lm, lc) in zip(gb, leads):
                assert lc == 1 and exact_coefficients(g)
                assert not any(exponent_divides(m, e) for e in g.terms for m, _ in leads if m != lm)
            assert all(exact_coefficients(J.normal_form(g * g + 1, order)) for g in gens)


def test_gb_and_normal_form_keep_integral_coefficients_int():
    J = I("2*x - 4*y", "3*y^2 - 6")
    assert gens_str(J) == ["x - 2*y", "y^2 - 2"]
    assert all(type(c) is int for g in J.groebner_basis() for c in g.terms.values())
    assert J.normal_form(P("x^2 + 1/2*t")) == P("8 + 1/2*t")
    assert type(J.normal_form(P("x^2")).terms[(0, 0, 0)]) is int
    assert Ideal(CTX, [P("3*x - 1")]).groebner_basis() == (P("x - 1/3"),)


# -- kernel regressions: pair-queue budget, orders, stale reduction entries

CTX_XYZ = base_context(["x", "y", "z"])
PRUNED_AFTER_QUEUEING = ("x - y^2", "x^2*y*z^2 + 3*y", "3*y + 3*x*y^2*z^2")


def test_spair_budget_counts_processed_pairs_only(monkeypatch):
    pair_pops = []
    real_pop = ideal_module.heappop

    def counting_pop(heap):
        item = real_pop(heap)
        if isinstance(item, tuple):  # (lcm, i, j); the reduction front pops ints
            pair_pops.append(item)
        return item

    monkeypatch.setattr(ideal_module, "heappop", counting_pop)
    J = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
    J.groebner_basis()
    processed = J.gb_stats()["spairs"]
    # Gebauer-Moeller pruned a queued pair, so its heap entry went stale
    assert len(pair_pops) > processed
    exact = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
    with engine_limits(EngineLimits(spair_budget=processed)):
        assert exact.groebner_basis() == J.groebner_basis()
    with engine_limits(EngineLimits(spair_budget=processed - 1)):
        with pytest.raises(ResourceLimitExceeded):
            I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis()


def spy_budgets(monkeypatch) -> list:
    """Record the S-pair budget of every Buchberger run from now on."""
    budgets = []
    real = ideal_module._buchberger

    def spy(gens, keys, budget, stats):
        budgets.append(budget)
        return real(gens, keys, budget, stats)

    monkeypatch.setattr(ideal_module, "_buchberger", spy)
    return budgets


def test_engine_limits_bind_and_reset(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    with engine_limits(EngineLimits(spair_budget=987654)):
        assert I("x^2-y", "y*t").contains(P("x^2*t"))
        assert I("x^2-y").normal_form(P("x^3")) == P("x*y")
        assert I("x-y", "y") == I("x", "y")
        assert radical_contains(I("x^2", "y^3"), P("x+y"))
        assert variety_contained_in(I("x", "y", "t"), I("x*y", "t^2"))
        assert I("x*y", "t").dimension() == 1
        assert local_degree(I("x^2", "y", "t")) == 2
    assert budgets and set(budgets) == {987654}
    budgets.clear()
    assert I("x^2-y", "y*t").contains(P("x^2*t"))
    assert local_degree(I("x^2", "y", "t")) == 2
    assert budgets and set(budgets) == {DEFAULT_LIMITS.spair_budget}


# -- the basis memo of an engine_limits block


def test_basis_memo_serves_the_same_generator_set(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    counters = ideal_module.ENGINE_COUNTERS
    with engine_limits(EngineLimits()):
        first = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
        basis = first.groebner_basis()
        runs, hits = counters["groebner_runs"], counters["basis_memo_hits"]
        for gens in (PRUNED_AFTER_QUEUEING[::-1], PRUNED_AFTER_QUEUEING * 2):
            again = I(*gens, ctx=CTX_XYZ)
            assert again.groebner_basis() == basis
            assert again.gb_stats() == first.gb_stats()
        assert len(budgets) == 1
        assert counters["groebner_runs"] == runs
        assert counters["basis_memo_hits"] == hits + 2
        # another order is another key
        assert selfcheck_groebner(again.groebner_basis(LEX), LEX)
        assert len(budgets) == 2


def test_basis_memo_lives_for_one_block(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis()
    I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis()
    assert len(budgets) == 2  # no memo outside a block
    for _ in range(2):
        with engine_limits(EngineLimits()):
            I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis()
    assert len(budgets) == 4  # each block opens a fresh memo


def test_basis_memo_keys_exact_coefficients(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    with engine_limits(EngineLimits()):
        half = I("x+1/2", "y").groebner_basis()
        two = I("y", "x+2").groebner_basis()
        assert half != two
        assert len(budgets) == 2
        assert I("y", "x+1/2", "y").groebner_basis() == half
        assert len(budgets) == 2


def test_nested_tighter_block_does_not_take_the_outer_basis():
    with engine_limits(EngineLimits()):
        J = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
        J.groebner_basis()
        processed = J.gb_stats()["spairs"]
        with engine_limits(EngineLimits(spair_budget=processed - 1)):
            with pytest.raises(ResourceLimitExceeded):
                I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis()
        assert I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ).groebner_basis() == J.groebner_basis()


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
        assert all(reference_leading(g, order)[1] == 1 for g in gb)


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, block_order([2], 3), block_order([0, 2], 3)],
                         ids=["lex", "degrevlex", "block-z", "block-xz"])
def test_leading_monomials_match_the_reference(order):
    rng = random.Random(32)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0, 0, 0]
                for _ in range(rng.randint(0, 3)):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            gens.append(Polynomial(CTX_XYZ, terms))
        J = Ideal(CTX_XYZ, [g for g in gens if not g.is_zero()])
        gb = J.groebner_basis(order)
        leads = [reference_leading(g, order)[0] for g in gb]
        assert leading_monomials(J, order) == leads
        assert leads == sorted(leads, key=reference_key(order))


def textbook_remainder(p, gb, order):
    """Division by the basis in exact fractions, leading term first."""
    leads = [(reference_leading(g, order), g) for g in gb]
    work, remainder = p, {}
    while work:
        e, c = reference_leading(work, order)
        for (lm, lc), g in leads:
            if all(a <= b for a, b in zip(lm, e)):
                shift = Polynomial(p.ctx, {tuple(b - a for a, b in zip(lm, e)): Fraction(c) / lc})
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
    # the fraction-free packed kernel agrees up to a positive scalar, which
    # primitive integer forms remove
    packing = _packing(order, 3, 16)
    basis = [ideal_module._element(ideal_module._encode(packing, g)[0], packing) for g in gb]
    work = ideal_module._encode(packing, p)[0]
    got = ideal_module._reduce(work, basis, packing.guard)[0]
    assert ideal_module._strip(got) == ideal_module._strip(ideal_module._encode(packing, expected)[0])
    assert J.contains(p - expected)


# -- the packed kernel: exponents and order keys as integers

PACKED_ORDERS = {
    "lex": lambda n: LEX,
    "degrevlex": lambda n: DEGREVLEX,
    "block-0": lambda n: block_order([0], n),
    "block-2-0": lambda n: block_order([2, 0], n),
}


def random_exponent(rng, n, top):
    """Exponents up to top, often at 0, 1 or top itself."""
    return tuple(rng.choice([0, 1, top, top - 1, rng.randint(0, top)]) for _ in range(n))


@pytest.mark.parametrize("width", [16, 32])
def test_packed_arithmetic_matches_tuples(width):
    rng = random.Random(5)
    top = 2 ** (width - 1) - 1  # the largest exponent a field holds
    for n in range(1, 13):
        packing = _packing(DEGREVLEX, n, width)
        for _ in range(60):
            a, b = random_exponent(rng, n, top), random_exponent(rng, n, top)
            if rng.random() < 0.3:
                b = tuple(min(top, x + rng.randint(0, 2)) for x in a)  # often a multiple
            pa, pb = packing.monomial(a), packing.monomial(b)
            assert packing.exponent(pa) == a
            assert packing.divides(pa, pb) == exponent_divides(a, b)
            assert packing.lcm(pa, pb) == packing.monomial(tuple(map(max, a, b))) & packing.mask
            product = tuple(x + y for x, y in zip(a, b))
            if max(product) <= top:
                assert pa + pb == packing.monomial(product)
                assert not (pa + pb) & packing.guard
            else:  # a field just past the boundary sets its guard bit
                assert (pa + pb) & packing.guard
            if exponent_divides(b, a):
                assert pa - pb == packing.monomial(tuple(x - y for x, y in zip(a, b)))
        # one past the largest exponent needs the next width
        assert _width([Polynomial(base_context([f"v{i}" for i in range(n)]),
                                  {(top,) * n: Fraction(1)})], width) == width
        assert _width([Polynomial(base_context([f"v{i}" for i in range(n)]),
                                  {(top + 1,) * n: Fraction(1)})], width) == 2 * width


@pytest.mark.parametrize("name", list(PACKED_ORDERS))
def test_packed_keys_order_as_key_function(name):
    # the packed keys order exponents as the textbook reference order does
    rng = random.Random(6)
    top = 2 ** 15 - 1
    for n in range(1, 13):
        if name == "block-2-0" and n < 3:
            continue
        order = PACKED_ORDERS[name](n)
        key = reference_key(order)
        packing = _packing(order, n, 16)
        for _ in range(60):
            a = random_exponent(rng, n, top)
            b = list(a)
            for _ in range(rng.randint(0, 3)):  # near neighbours test the tie rows
                i = rng.randrange(n)
                b[i] = max(0, min(top, b[i] + rng.choice([-1, 1])))
            b = tuple(b) if rng.random() < 0.7 else random_exponent(rng, n, top)
            pa, pb = packing.monomial(a), packing.monomial(b)
            assert (pa < pb) == (key(a) < key(b))
            assert (pa == pb) == (a == b)


def test_elimination_that_outgrows_its_field_widens():
    # x^200 and y^200 fit 16-bit fields; x^40000 appears only mid-run
    J = I("x^200 - y", "y^200 - z", ctx=CTX_XYZ)
    assert [str(g) for g in eliminate(J, ["y"]).generators] == ["x^40000 - z"]


def test_basis_that_needs_a_wide_field_from_the_start():
    J = I("x^40000 - y", "y - 1", ctx=CTX_XYZ)
    basis = J.groebner_basis()
    assert [str(g) for g in basis] == ["y - 1", "x^40000 - 1"]
    assert selfcheck_groebner(basis)
    assert J.normal_form(P("x^40001*z", CTX_XYZ)) == P("x*z", CTX_XYZ)


def test_normal_form_that_outgrows_its_field_widens():
    J = I("x - y^2", ctx=CTX_XYZ)
    J.groebner_basis(LEX)
    # x^20000 fits a 16-bit field; its normal form y^40000 does not
    assert J.normal_form(P("x^20000 + z", CTX_XYZ), LEX) == P("y^40000 + z", CTX_XYZ)
    assert J.contains(P("x^20000 - y^40000", CTX_XYZ))


# -- membership


def test_membership_examples():
    ctx2 = base_context(["x", "y"])
    J = Ideal(ctx2, [P("x^2+y^2", ctx2), P("x*y", ctx2)])
    assert P("y^3", ctx2) in J
    assert P("1", ctx2) not in Ideal(ctx2, [P("x", ctx2)])
    assert ctx2.zero() in J


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


def test_saturate_multigenerator_exponent_two():
    res = saturate(I("x*y^2", "x*y*t", "x*t^2"), I("y", "t"))
    assert res.ideal == I("x")
    assert res.exponent == 2


def test_saturate_exponent_cap():
    with pytest.raises(ResourceLimitExceeded):
        saturate(I("x^40*y"), I("x"))


def test_saturate_by_zero_ideal():
    with pytest.raises(ValueError):
        saturate(I("x"), Ideal(CTX, [CTX.zero()]))


def test_saturation_idempotence():
    res1 = saturate(I("x*y", "x*t"), I("y", "t"))
    res2 = saturate(res1.ideal, I("y", "t"))
    assert res2.ideal == res1.ideal and res2.exponent == 0


# -- derived ideals: the parent's reduced basis as a trusted prefix


def spy_prefixes(monkeypatch) -> list:
    """The length of the trusted prefix of every Buchberger run from now on."""
    prefixes = []
    real = ideal_module._buchberger

    def spy(gens, packing, budget, stats):
        prefixes.append(sum(isinstance(g, tuple) for g in gens))
        return real(gens, packing, budget, stats)

    monkeypatch.setattr(ideal_module, "_buchberger", spy)
    return prefixes


def random_polynomial(rng, ctx, lead=None):
    """A few terms of degree at most 2, plus a term in lead when given."""
    terms = {}
    for _ in range(rng.randint(2, 4)):
        e = [0] * len(ctx)
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(len(ctx))] += 1
        terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    if lead is not None:
        e = [0] * len(ctx)
        e[ctx.position(lead)] = 1
        e[rng.randrange(len(ctx))] += 1
        terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(ctx, terms)


def random_parents(seed, count=40):
    """(parent ideal, extra generator) pairs in x, y, z; every parent generator holds x."""
    rng = random.Random(seed)
    return [(Ideal(CTX_XYZ, [random_polynomial(rng, CTX_XYZ, "x") for _ in range(2)]),
             random_polynomial(rng, CTX_XYZ)) for _ in range(count)]


def fresh(J):
    """The same generators with no prefix."""
    return Ideal(J.ctx, J.generators)


def test_seeded_degrevlex_runs_equal_fresh_runs(monkeypatch):
    prefixes = spy_prefixes(monkeypatch)
    seeded = spairs = 0
    for parent, f in random_parents(71):
        basis = parent.groebner_basis()
        J = parent.with_extra([f])
        K = fresh(J)
        assert J.generators[:len(basis)] == basis
        assert J.groebner_basis() == K.groebner_basis()
        assert prefixes[-2:] == [len(basis), 0]
        seeded += J.gb_stats().get("spairs", 0)
        spairs += K.gb_stats().get("spairs", 0)
    assert seeded < spairs  # no pair within a parent basis is formed


def test_seeded_runs_under_a_block_order_on_an_added_variable(monkeypatch):
    ctx = base_context(["x", "y", "z", "s"])
    order = block_order([3], 4)
    s = ctx.gen("s")
    prefixes = spy_prefixes(monkeypatch)
    for parent, h in random_parents(72):
        lifted = lift_ideal(parent, ctx)
        J = lifted.with_extra([ctx.one() - s * h.lift(ctx)])
        assert J.groebner_basis(order) == fresh(J).groebner_basis(order)
        assert prefixes[-2:] == [len(lifted.generators), 0]


def test_seeded_runs_after_an_order_keeping_lift(monkeypatch):
    ctx = base_context(["a", "x", "b", "y", "z"])
    rng = random.Random(73)
    prefixes = spy_prefixes(monkeypatch)
    for parent, _ in random_parents(73):
        parent.groebner_basis()
        runs = len(prefixes)
        lifted = lift_ideal(parent, ctx)
        assert len(prefixes) == runs  # handed over with no run
        assert lifted.generators == Ideal(ctx, [g.lift(ctx) for g in parent.generators]).groebner_basis()
        J = lifted.with_extra([random_polynomial(rng, ctx, "a")])
        for order in (DEGREVLEX, block_order([0], 5), block_order([2, 0], 5)):
            assert J.groebner_basis(order) == fresh(J).groebner_basis(order)
            assert prefixes[-2] == len(lifted.generators)


@pytest.mark.parametrize("order", [LEX, block_order([0], 3), block_order([1, 0], 3)],
                         ids=["lex", "block-x", "block-yx"])
def test_prefix_is_not_trusted_where_its_order_changes(monkeypatch, order):
    prefixes = spy_prefixes(monkeypatch)
    for parent, f in random_parents(74):
        J = parent.with_extra([f])
        assert J.groebner_basis(order) == fresh(J).groebner_basis(order)
        assert selfcheck_groebner(J.groebner_basis(order), order)
    assert set(prefixes) == {0}  # every parent basis here involves x


def test_prefix_is_not_trusted_after_a_permuting_lift(monkeypatch):
    ctx = base_context(["z", "x", "y"])
    prefixes = spy_prefixes(monkeypatch)
    for parent, f in random_parents(75):
        parent.groebner_basis()
        runs = len(prefixes)
        lifted = lift_ideal(parent, ctx)
        assert lifted.groebner_basis() == Ideal(ctx, [g.lift(ctx) for g in parent.generators]).groebner_basis()
        assert prefixes[runs] == 0  # the lifted basis is run again, untrusted
        J = lifted.with_extra([f.lift(ctx)])
        assert J.groebner_basis() == fresh(J).groebner_basis()


def spy_orders(monkeypatch) -> list:
    """The order signature of every Groebner run from now on."""
    orders = []
    real = Ideal._run

    def spy(self, order, budget):
        orders.append(order.signature())
        return real(self, order, budget)

    monkeypatch.setattr(Ideal, "_run", spy)
    return orders


FINITE = ("x^2 - 1", "y - x", "z - 2")  # the points (1, 1, 2) and (-1, -1, 2)


def test_unit_exit_returns_the_reduced_basis(monkeypatch):
    finite = I(*FINITE, ctx=CTX_XYZ)
    basis = finite.groebner_basis()
    orders = spy_orders(monkeypatch)
    sat = saturate_element(finite, P("x + 3*z", CTX_XYZ))
    assert orders == [DEGREVLEX.signature()]  # 1 in I + (h); no block-order run
    assert sat.generators == basis and sat.groebner_basis() == basis
    res = saturate(finite, I("x + 3*z", ctx=CTX_XYZ))
    assert res.exponent == 0 and res.ideal.generators == basis
    # the Rabinowitsch route reaches the same ideal
    ctx2 = base_context(["x", "y", "z", "s"])
    rabinowitsch = Ideal(ctx2, [P(g, ctx2) for g in FINITE] + [P("1 - s*x - 3*s*z", ctx2)])
    assert eliminate(rabinowitsch, ["s"], restrict=True).generators == basis


def test_non_unit_on_a_finite_scheme_takes_the_elimination(monkeypatch):
    finite = I(*FINITE, ctx=CTX_XYZ)
    finite.groebner_basis()
    orders = spy_orders(monkeypatch)
    sat = saturate_element(finite, P("x - 1", CTX_XYZ))
    assert sum(sig.startswith("block") for sig in orders) == 1
    assert sat == I("x + 1", "y + 1", "z - 2", ctx=CTX_XYZ)


def test_positive_dimensional_unit_takes_the_elimination(monkeypatch):
    ctx = base_context(["x", "y"])
    line = Ideal(ctx, [P("y", ctx)])
    line.groebner_basis()
    orders = spy_orders(monkeypatch)
    sat = saturate_element(line, P("y - 1", ctx))
    assert orders == [block_order([2], 3).signature()]
    assert sat == line and sat.generators == line.groebner_basis()
    assert saturate(line, Ideal(ctx, [P("y - 1", ctx)])).exponent == 0


def test_spair_budget_binds_a_seeded_run(monkeypatch):
    prefixes = spy_prefixes(monkeypatch)
    parent = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
    extra = [P("x*z - y + 1", CTX_XYZ)]
    J = parent.with_extra(extra)
    J.groebner_basis()
    assert prefixes[-1] == len(parent.groebner_basis())
    processed = J.gb_stats()["spairs"]
    assert processed >= 1
    with engine_limits(EngineLimits(spair_budget=processed)):
        assert parent.with_extra(extra).groebner_basis() == J.groebner_basis()
    with engine_limits(EngineLimits(spair_budget=processed - 1)):
        with pytest.raises(ResourceLimitExceeded):
            parent.with_extra(extra).groebner_basis()
    assert prefixes[-1] == len(parent.groebner_basis())


def test_a_run_is_memoised_under_its_own_basis(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    with engine_limits(EngineLimits()):
        J = I(*PRUNED_AFTER_QUEUEING, ctx=CTX_XYZ)
        basis = J.groebner_basis()
        assert len(budgets) == 1
        canonical = Ideal(CTX_XYZ, basis)
        assert canonical.groebner_basis() == basis
        assert len(budgets) == 1


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


ELIMINATIONS = [
    # (generators, dropped, reduced basis of the result)
    (("x-t", "y-t^2"), ["t"], ["x^2 - y"]),
    (("x-t^2", "y-t^3", "t*x*y-x^2"), ["t"], None),
    (("w0", "w1-1", "w2", "x+t^2", "y"), ["w0", "w1", "w2"], ["t^2 + x", "y"]),
    (("x*t-1", "t"), ["t"], ["1"]),  # trivial
    (("x-t", "y*t-1"), ["t"], ["x*y - 1"]),
    (("x-t",), ["t"], []),  # zero
]


@pytest.mark.parametrize("restrict", [False, True], ids=["in-context", "restricted"])
@pytest.mark.parametrize("gens,drop,expected", ELIMINATIONS)
def test_eliminate_hands_over_its_reduced_basis(monkeypatch, restrict, gens, drop, expected):
    budgets = spy_budgets(monkeypatch)
    E = eliminate(I(*gens, ctx=CTX_W), drop, restrict=restrict)
    runs = int(len(gens) > 1)  # the block-order run only; a principal ideal takes none
    assert len(budgets) == runs
    basis = E.groebner_basis()
    assert basis == E.generators
    p = P("x^3*y + x", ctx=E.ctx)
    form, dim = E.normal_form(p), E.dimension()
    assert len(budgets) == runs
    # the same basis, normal form and dimension as a fresh run outside any block
    fresh = Ideal(E.ctx, E.generators)
    assert fresh.groebner_basis() == basis
    assert len(budgets) == runs + (len(basis) > 1)  # the zero and principal ideals take none
    assert fresh.normal_form(p) == form and fresh.dimension() == dim
    assert selfcheck_groebner(basis)
    if expected is not None:
        assert gens_str(E) == expected
    names = set(E.ctx.names())
    assert not set(drop) & names if restrict else set(drop) <= names


@pytest.mark.parametrize("order", [DEGREVLEX, block_order([2], 3), LEX],
                         ids=["degrevlex", "block", "lex"])
@pytest.mark.parametrize("g", ["2*t - 3*x^2*y + 1/2", "-y^3 + 5*x*t", "7/3*x"])
def test_principal_ideal_takes_no_run(monkeypatch, order, g):
    # a principal ideal's reduced basis is its generator made monic under the order
    budgets = spy_budgets(monkeypatch)
    f, p = P(g), P("x^2*y^2*t")
    principal = Ideal(CTX, [f])
    basis = principal.groebner_basis(order)
    assert budgets == []
    assert len(basis) == 1
    assert reference_leading(basis[0], order) == (reference_leading(f, order)[0], 1)
    # the same basis and normal form as a run on a redundant generator set
    run = Ideal(CTX, [f, f * P("x+y")])
    assert basis == run.groebner_basis(order)
    assert len(budgets) == 1
    assert principal.normal_form(p, order) == run.normal_form(p, order)


def test_eliminate_enters_the_block_memo(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    with engine_limits(EngineLimits()):
        # the twisted cubic: a result of more than one generator, which a fresh ideal
        # outside the block runs again
        E = eliminate(I("x-t", "y-t^2", "w0-t^3", ctx=CTX_W), ["t"], restrict=True)
        assert len(E.generators) > 1 and len(budgets) == 1
        again = Ideal(E.ctx, E.generators[::-1])
        assert again.groebner_basis() == E.groebner_basis()
        assert again.contains(P("x^2-y", ctx=E.ctx))
        assert len(budgets) == 1
    assert Ideal(E.ctx, E.generators).groebner_basis() == E.generators
    assert len(budgets) == 2


# -- dimension


def test_dimension_examples():
    assert I("x", "y").dimension() == 1
    assert I("y^2-x^3-t^2*x^2").dimension() == 2
    assert I("x+t^2", "y", "t").dimension() == 0
    assert Ideal(CTX, [CTX.one()]).dimension() == -1
    assert Ideal(CTX, []).dimension() == 3


def test_dimension_generic_slice_drop():
    forms = ("3*x-2*y+5*t-7", "x+4*y-t+2", "-6*x+y+9*t+1")
    for J in (I("x", "y"), I("y^2-x^3-t^2*x^2")):
        d = J.dimension()
        for form in forms:
            cut = J.with_extra([P(form)])
            assert not cut.is_trivial() and cut.dimension() == d - 1, form


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


def test_minimal_primes_xy():
    ps = minimal_primes(I("x*y"))
    assert {tuple(gens_str(w.ideal)) for w in ps} == {("x",), ("y",)}


def test_minimal_primes_runs_under_caller_limits(monkeypatch):
    budgets = spy_budgets(monkeypatch)
    with engine_limits(EngineLimits(spair_budget=987654)):
        for gens in (["y*(y^2-x^3-t^2*x^2)"], ["x*y", "x*t"], ["x^2*y-y^3", "t*x"]):
            minimal_primes(I(*gens))
    assert budgets and set(budgets) == {987654}


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
    assert [(w.ideal, w.route) for w in ps] == [(J, "linear-fiber")]


def test_minimal_primes_point_field():
    # Q[x, y]/(x^2 - 2, y^2 - 3) is the field Q(sqrt 2, sqrt 3), certified
    # by a primitive element whose minimal polynomial is irreducible
    ctx = base_context(["x", "y"])
    J = I("x^2-2", "y^2-3", ctx=ctx)
    assert [(w.ideal, w.route) for w in minimal_primes(J)] == [(J, "point")]


def test_minimal_primes_point_field_splits():
    # over (x^2 - 2, y^2 - 2) the primitive element's minimal polynomial
    # factors, and its factor splits the point into two conjugate pairs
    ctx = base_context(["x", "y"])
    ps = minimal_primes(I("x^2-2", "y^2-2", ctx=ctx))
    assert {tuple(gens_str(w.ideal)) for w in ps} == {("x + y", "y^2 - 2"), ("x - y", "y^2 - 2")}


def test_minimal_primes_refuses_past_the_monomial_cap():
    # Q[x, y]/(x^500, y^500) has 250000 standard monomials, past VECDIM_CAP
    ctx = base_context(["x", "y"])
    with pytest.raises(ResourceLimitExceeded):
        minimal_primes(I("x^500", "y^500", ctx=ctx))


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


def test_local_degree_not_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        local_degree(I("x", "y"))


def test_local_degree_refuses_past_the_monomial_cap():
    # x^200001 built directly: the parser refuses an exponent above the cap
    big = Polynomial(CTX, {(ideal_module.VECDIM_CAP + 1, 0, 0): Fraction(1)})
    with pytest.raises(ResourceLimitExceeded):
        local_degree(Ideal(CTX, [big, P("y"), P("t")]))


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


def test_dimension_and_degree_finite_quotient():
    assert dimension_and_degree(I("x^2", "y", "t")) == (0, 2)
    assert dimension_and_degree(I("x", "y")) == (1, 1)


def random_tail(rng, top):
    """A random polynomial whose terms have total degree 2 to top."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0, 0, 0]
        for _ in range(rng.randint(2, top)):
            e[rng.randrange(3)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-3, -1, 1, 2]))
    return Polynomial(CTX, terms)


def test_degree_counts_the_standard_monomials():
    # the staircase walk is the reference for the count read from the
    # Hilbert numerator; pure powers make each ideal zero-dimensional, and
    # no generator has a constant term, so 1 stays out of it
    rng = random.Random(12)
    for _ in range(30):
        gens = [random_tail(rng, 3) for _ in range(rng.randint(1, 3))]
        for i in range(3):
            e = [0, 0, 0]
            e[i] = rng.randint(3, 5)
            gens.append(Polynomial(CTX, {tuple(e): Fraction(1)}) + random_tail(rng, e[i] - 1))
        J = Ideal(CTX, gens)
        assert dimension_and_degree(J) == (0, len(standard_monomials(J)))


def test_dimension_and_degree_measured_once_per_block(monkeypatch):
    measured = []
    real = ideal_module._packed_dimension_and_degree

    def spy(lms, packing):
        measured.append(lms)
        return real(lms, packing)

    monkeypatch.setattr(ideal_module, "_packed_dimension_and_degree", spy)
    with engine_limits(EngineLimits()):
        assert dimension_and_degree(I("x*y", "t")) == (1, 2)
        # another ideal with the same leading monomials
        assert dimension_and_degree(I("x*y+t", "t")) == (1, 2)
        assert len(measured) == 1
        with engine_limits(EngineLimits()):
            assert I("x*y", "t").dimension() == 1
        assert len(measured) == 2  # a nested block measures again
    assert I("x*y", "t").dimension() == I("x*y", "t").dimension() == 1
    assert len(measured) == 4  # nothing is kept outside a block


def _independent_dimension(lms, n):
    """The largest set of variables that contains the support of no exponent."""
    for size in range(n, -1, -1):
        for free in itertools.combinations(range(n), size):
            if not any(all(i in free for i, x in enumerate(e) if x) for e in lms):
                return size
    return -1


def test_monomial_dimension_and_degree_by_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        lms = [tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        dim, degree = monomial_dimension_and_degree(lms, n)
        assert dim == _independent_dimension(lms, n)
        if dim == 0:
            box = itertools.product(range(4), repeat=n)  # every pure power is at most 3
            assert degree == sum(1 for m in box if not any(exponent_divides(e, m) for e in lms))
    # exponents past a 16-bit field: the packing widens
    assert monomial_dimension_and_degree([(40000, 0), (0, 3)], 2) == (0, 120000)
    assert monomial_dimension_and_degree([(40000, 1)], 2) == (1, 40001)


def test_factor_list_factors_once_per_block(monkeypatch):
    factored = []
    real = decompose_module.factor_integer

    def spy(f):
        factored.append(f)
        return real(f)

    monkeypatch.setattr(decompose_module, "factor_integer", spy)
    with engine_limits(EngineLimits()):
        assert factor_list(P("y^2*(x+t^2)^2")) == factor_list(P("(t^2+x)^2*y^2"))
    assert len(factored) == 1
    factor_list(P("y^2*(x+t^2)^2"))
    factor_list(P("y^2*(x+t^2)^2"))
    assert len(factored) == 3


def test_factor_list_cache_round_trip():
    p = P("y^2*(x+t^2)^2")
    fs = factor_list(p)
    assert sorted((str(f), m) for f, m in fs) == [("t^2 + x", 2), ("y", 2)]


def _expr_path_factor_list(p):
    """sympy.factor_list on the polynomial as an Expr, read back through Poly.terms()."""
    sympy = pytest.importorskip("sympy")
    syms = [sympy.Symbol(n) for n in p.ctx.names()]
    expr = sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in p.terms.items()
    ))
    out = []
    for f, mult in sympy.factor_list(expr)[1]:
        poly = sympy.Poly(f, *syms, domain="QQ")
        q = Polynomial(p.ctx, {tuple(int(k) for k in e): Fraction(c.p, c.q) for e, c in poly.terms()})
        if q.total_degree() > 0:
            out.append((q, int(mult)))
    return out


def _up_to_sign_and_order(factors):
    """A factor list as sorted (text, multiplicity) pairs, each factor taken
    with whichever sign gives the smaller text."""
    return sorted((min(str(f), str(-f)), m) for f, m in factors)


def _random_factor(rng, ctx):
    gens = [ctx.gen(v) for v in ctx.variables]
    shape = rng.choice(["linear", "univariate", "general"])
    if shape == "univariate":
        v = rng.choice(gens)
        return sum((v**k * Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(rng.randint(1, 3))),
                   v**rng.randint(1, 3))
    if shape == "linear":
        used = rng.sample(gens, rng.randint(1, len(gens)))
        return sum((v * rng.choice([-3, -1, Fraction(1, 2), 2]) for v in used), ctx.const(rng.randint(-2, 2)))
    out = ctx.const(rng.randint(-3, 3))
    for _ in range(rng.randint(2, 4)):
        term = ctx.const(Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.choice([1, 1, 2, 3])))
        for v in rng.sample(gens, rng.randint(1, min(3, len(gens)))):
            term = term * v**rng.randint(1, 2)
        out = out + term
    return out


@pytest.mark.parametrize("names", [
    ("x", "y", "t"), ("y", "x"), ("t", "x", "y", "w0", "w1"), ("w10", "_T", "w1", "w0"),
])
def test_factor_list_matches_sympy_expr_path(names):
    ctx = base_context(list(names))
    gens = [ctx.gen(v) for v in ctx.variables]
    rng = random.Random(len(names))
    for _ in range(30):
        p = ctx.const(Fraction(rng.choice([-6, -1, 1, 5]), rng.choice([1, 2, 9])))
        for v in gens:  # monomial content
            if rng.random() < 0.4:
                p = p * v**rng.randint(1, 3)
        for _ in range(rng.randint(1, 3)):
            f = _random_factor(rng, ctx)
            p = p * f**rng.choice([1, 1, 1, 2])
        if p.total_degree() == 0:
            continue
        assert _up_to_sign_and_order(factor_list(p)) == \
            _up_to_sign_and_order(_expr_path_factor_list(p)), str(p)


@pytest.mark.parametrize("names", [
    ("x", "y"), ("t", "x", "y", "w0"), ("w10", "_T", "w1", "w0", "x"),
    ("x", "y", "t", "w0", "w1", "w2"), ("w1", "z", "w10", "_T", "y", "a"),
])
def test_factor_list_splits_products_as_sympy_does(names):
    # products of 2-4 factors, some repeated or negated, times rational content
    ctx = base_context(list(names))
    rng = random.Random(100 + len(names))
    split = 0
    for _ in range(6):
        p = ctx.const(Fraction(rng.choice([-6, -1, 1, 5]), rng.choice([1, 2, 9])))
        for _ in range(rng.randint(2, 4)):
            f = _random_factor(rng, ctx)
            p = p * (f if rng.random() < 0.5 else -f) ** rng.choice([1, 1, 2])
        if p.total_degree() == 0:
            continue
        expected = _expr_path_factor_list(p)
        assert _up_to_sign_and_order(factor_list(p)) == _up_to_sign_and_order(expected), str(p)
        split += sum(m for _, m in expected) >= 2
    assert split >= 5


@pytest.mark.parametrize("names, text, expected", [
    # Swinnerton-Dyer polynomials split mod every prime
    (("x",), "x^4-10*x^2+1", ["x^4 - 10*x^2 + 1"]),
    (("x",), "x^8-40*x^6+352*x^4-960*x^2+576", ["x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"]),
    (("x",), "x^4+1", ["x^4 + 1"]),
    # the leading coefficient y^2 vanishes at y = 0
    (("x", "y"), "(x*y-1)*(x*y+2)", ["x*y - 1", "x*y + 2"]),
    # the image at y = 0 is x^4, not square-free
    (("x", "y"), "(x^2-y)*(x^2-2*y)", ["x^2 - 2*y", "x^2 - y"]),
    # irreducible, though its images at y = 1 and y = 4 split
    (("x", "y"), "x^2-y", ["x^2 - y"]),
    (("x",), "x^2-1", ["x - 1", "x + 1"]),
    (("x",), "x^2-4", ["x - 2", "x + 2"]),
])
def test_factor_list_hard_cases(names, text, expected):
    ctx = base_context(list(names))
    p = parse_polynomial(text, ctx)
    expected = [(parse_polynomial(f, ctx), 1) for f in expected]
    assert _up_to_sign_and_order(factor_list(p)) == _up_to_sign_and_order(expected)
    assert _up_to_sign_and_order(factor_list(p)) == \
        _up_to_sign_and_order(_expr_path_factor_list(p))


def test_factor_list_order_and_signs():
    # the monomial content's variables first, in context order, then
    # factor_integer's factors in its order, each primitive over Z with a
    # positive lex-leading coefficient in context order
    ctx = base_context(["y", "x", "t"])
    p = parse_polynomial("-3/2*x*y^2*(t - x)*(2*x^2 - y)^2*(y + t)*(x*t + 1)", ctx)
    fs = factor_list(p)
    assert [(str(f), m) for f, m in fs] == [
        ("y", 2), ("x", 1), ("x - t", 1), ("x*t + 1", 1), ("y + t", 1), ("-2*x^2 + y", 2),
    ]
    for f, _ in fs:
        assert f.terms[max(f.terms)] > 0
        assert all(c.denominator == 1 for c in f.terms.values())
        assert gcd(*(c.numerator for c in f.terms.values())) == 1
    product = ctx.one()
    for f, m in fs:
        product = product * f**m
    # -3/2 * (t - x) = 3/2 * (x - t): the unit left over is 3/2
    assert product * Fraction(3, 2) == p


def test_certified_prime_checks():
    assert _certify(I("x", "y"), []) is not None
    assert _certify(I("y^2-x^3-t^2*x^2"), []) is not None
    assert _certify(I("x*y"), []) is None


# -- linear substitution in certification

CTX_XYZ_T = base_context(["x", "y", "z", "t"])


def L(text):
    return parse_polynomial(text, CTX_XYZ_T)


def test_linear_pivot_is_a_variable_whose_only_term_is_linear():
    assert _linear_pivot(L("x*y + z")) == (2, 1)
    assert _linear_pivot(L("-3*z + x*y")) == (2, -3)
    assert _linear_pivot(L("x*y + z*t + 2")) is None
    # a variable of degree 2 is never a pivot, with or without a linear term
    assert _linear_pivot(L("x^2 + x + y^2")) is None
    assert _linear_pivot(L("x^2 + y + t^2")) == (1, 1)
    assert _linear_pivot(L("z*x + x + y*t")) is None
    assert _linear_pivot(L("x + y")) == (0, 1)


def test_linear_pivot_first_by_generator_then_by_variable():
    # the first generator's t comes before the second's x; x comes before z
    gens, ctx, chain = _eliminate_linear([L("y^2 + t + z*x^2"), L("x + z")], CTX_XYZ_T)
    assert [(name, str(image)) for name, image in chain] == [("t", "-x^2*z - y^2"), ("x", "-z")]
    assert gens == [] and ctx.names() == ("y", "z")


def test_linear_elimination_divides_exactly():
    # x = (y - 1)/2 is a Fraction image; x = 2*y keeps int coefficients
    _, _, chain = _eliminate_linear([L("2*x - y + 1")], CTX_XYZ_T)
    assert [(name, str(image)) for name, image in chain] == [("x", "1/2*y - 1/2")]
    assert all(type(c) is Fraction for c in chain[0][1].terms.values())
    _, _, chain = _eliminate_linear([L("-3*x + 6*y")], CTX_XYZ_T)
    assert [(name, str(image)) for name, image in chain] == [("x", "2*y")]
    assert all(type(c) is int for c in chain[0][1].terms.values())


def test_linear_eliminations_chain():
    # x*y - t^2*y + y - t has no pivot until x = t^2 leaves y - t
    before = L("x*y - t^2*y + y - t")
    assert _linear_pivot(before) is None
    gens, ctx, chain = _eliminate_linear([L("x - t^2"), before], CTX_XYZ_T)
    assert [(name, str(image), image.ctx.names()) for name, image in chain] == [
        ("x", "t^2", ("y", "z", "t")), ("y", "t", ("z", "t"))]
    assert gens == [] and ctx.names() == ("z", "t")


def test_every_generator_eliminated_takes_the_graph_route():
    gens, ctx, _ = _eliminate_linear([L("x - t^2"), L("y - t^3"), L("z - x*y")], CTX_XYZ_T)
    assert ctx.names() == ("t",) and not gens
    assert _certify(Ideal(CTX_XYZ_T, [L("x - t^2"), L("y - t^3"), L("z - x*y")]), []) == "graph"
    assert _certify(Ideal(CTX_XYZ_T, [L("x - t^2"), L("y^2 - t^3")]), []) == "hypersurface"


def test_certification_hands_over_the_factors_behind_a_substitution():
    hints = []
    assert _certify(Ideal(CTX_XYZ_T, [L("x - t^2"), L("y^2 - t^2")]), hints) is None
    assert sorted(str(h) for h in hints) == ["y + t", "y - t"]
    assert all(h.ctx == CTX_XYZ_T for h in hints)


def test_minimal_primes_split_behind_a_substitution_of_several_generators():
    # x substitutes out and leaves (y^2 - z^2, t^2 - 2): two generators of
    # dimension 1, no route, every basis element of I irreducible. The
    # split is at the factors of the substituted basis, lifted back.
    ps = minimal_primes(Ideal(CTX_XYZ_T, [L("x - z^2"), L("x - y^2"), L("t^2 - 2")]))
    assert {tuple(gens_str(w.ideal)) for w in ps} == {
        ("t^2 - 2", "y - z", "z^2 - x"), ("t^2 - 2", "y + z", "z^2 - x")}


def test_each_ideal_takes_one_certification_pass(tmp_path, capsys, monkeypatch):
    # nearby cycles of x^2 + y^3 split a conormal ideal at a candidate from
    # its certification's hints. Each certification substitutes at most
    # once, nothing else substitutes, and no certification runs Buchberger
    # on an empty generator set.
    frames, per_pass = [], []
    calls = {"outside": 0, "splits": 0, "empty runs": 0}
    real_certify = decompose_module._certify
    real_eliminate = decompose_module._eliminate_linear
    real_split = decompose_module._candidate_split
    real_run = Ideal._run

    def certify(*args, **kwargs):
        frames.append(0)
        try:
            return real_certify(*args, **kwargs)
        finally:
            per_pass.append(frames.pop())

    def eliminate(gens, ctx):
        if frames:
            frames[-1] += 1
        else:
            calls["outside"] += 1
        return real_eliminate(gens, ctx)

    def split(J, hints):
        found = real_split(J, hints)
        calls["splits"] += bool(found)
        return found

    def run(self, order, budget):
        calls["empty runs"] += bool(frames) and not self.generators
        return real_run(self, order, budget)

    monkeypatch.setattr(decompose_module, "_certify", certify)
    monkeypatch.setattr(decompose_module, "_eliminate_linear", eliminate)
    monkeypatch.setattr(decompose_module, "_candidate_split", split)
    monkeypatch.setattr(Ideal, "_run", run)
    germ = {"ambient": {"n": 1, "coords": ["x", "y"]},
            "strata": [{"name": "U", "ideal": [], "dim": 2, "morse": {"0": {"rank": 1}}}],
            "f": "x^2+y^3", "L": "x"}
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(germ))
    assert main(["nearby", str(path), "--json"]) == EXIT_OK, capsys.readouterr().err
    assert calls["outside"] == 0
    assert max(per_pass) == 1
    assert calls["empty runs"] == 0
    assert calls["splits"]
