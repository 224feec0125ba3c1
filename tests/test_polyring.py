"""Polynomial substrate: arithmetic, derivatives, orders, parsing."""

import random
import re
import time
from fractions import Fraction

import pytest

from gecc_kit.polyring import (
    DEGREVLEX,
    EXPONENT_CAP,
    PRODUCT_CAP,
    ContextMismatch,
    ExponentTooLarge,
    MonomialOrder,
    ParseError,
    Polynomial,
    base_context,
    _packing,
    parse_polynomial,
)
from tests.conftest import reference_key

CTX = base_context(["x", "y", "t"])


def P(text):
    return parse_polynomial(text, CTX)


def random_poly(rng, ctx=CTX, max_deg=3, terms=4):
    out = ctx.zero()
    n = len(ctx)
    for _ in range(rng.randint(0, terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.randint(-5, 5)
        out = out + Polynomial(ctx, {e: Fraction(c)})
    return out


def test_difference_of_squares():
    assert P("(x+y)*(x-y)") == P("x^2 - y^2")


def test_additive_identity():
    p = P("x^2*y - 3*t")
    assert p + CTX.zero() == p


def test_sub_hand_expansion():
    # cross-checked by evaluation at random rational points
    lhs = P("y^2-x^3-t^2*x^2") - P("y^2")
    rhs = P("-x^3-t^2*x^2")
    assert lhs == rhs
    rng = random.Random(0)
    for _ in range(20):
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in ("x", "y", "t")}
        assert lhs.evaluate(pt) == rhs.evaluate(pt)


def test_context_mismatch_raises():
    other = base_context(["x", "y"])
    with pytest.raises(ContextMismatch):
        P("x") + other.gen("x")


@pytest.mark.parametrize(
    "poly,var,expected",
    [
        ("y*(y^2-x^3-t^2*x^2)", "x", "y*(-3*x^2-2*t^2*x)"),
        ("y*(y^2-x^3-t^2*x^2)", "y", "3*y^2-x^3-t^2*x^2"),
        ("x", "t", "0"),
    ],
)
def test_partial_derivatives(poly, var, expected):
    assert P(poly).partial(var) == P(expected)


def test_leibniz_rule_random():
    rng = random.Random(1)
    for _ in range(50):
        p, q = random_poly(rng), random_poly(rng)
        v = rng.choice(["x", "y", "t"])
        lhs = (p * q).partial(v)
        rhs = p * q.partial(v) + q * p.partial(v)
        assert lhs == rhs


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == CTX.zero()
        assert a * b == b * a


ORDERS = [DEGREVLEX, MonomialOrder((0,)), MonomialOrder((2, 0)), MonomialOrder((1, 2))]


@pytest.mark.parametrize("order", ORDERS)
def test_order_axioms_random(order):
    # the engine's packed key and the textbook reference, each an order
    for key in (_packing(order, 3, 16).monomial, reference_key(order)):
        rng = random.Random(3)
        zero = (0, 0, 0)
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            # totality and antisymmetry
            assert (key(a) < key(b)) + (key(b) < key(a)) + (key(a) == key(b)) == 1
            # multiplicativity
            ac = tuple(i + j for i, j in zip(a, c))
            bc = tuple(i + j for i, j in zip(b, c))
            if key(a) < key(b):
                assert key(ac) < key(bc)
            # 1 is minimal
            assert not key(a) < key(zero)
            # transitivity spot check
            if key(a) < key(b) and key(b) < key(c):
                assert key(a) < key(c)


def test_degrevlex_classic_comparison():
    x2y = (2, 1, 0)
    xy2 = (1, 2, 0)
    for key in (_packing(DEGREVLEX, 3, 16).monomial, reference_key(DEGREVLEX)):
        assert key(x2y) > key(xy2)


def test_parse_implicit_multiplication():
    assert P("2x") == P("2*x")
    assert P("t^2x^2") == P("t^2*x^2")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q", CTX)
    assert "q" in str(err.value)


def test_parse_round_trip():
    rng = random.Random(4)
    for _ in range(30):
        p = random_poly(rng)
        assert parse_polynomial(str(p), CTX) == p


def test_str_lists_terms_in_descending_degrevlex_order():
    # exponents past 2^15 need a packing wider than 16-bit fields
    rng = random.Random(14)
    for n in range(1, 13):
        ctx = base_context([f"v{i}" for i in range(n)])
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                e = tuple(rng.choice([0, 0, 1, 2, 2 ** 15 - 1, 2 ** 15, rng.randint(0, 2 ** 17)])
                          for _ in range(n))
                terms[e] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
            p = Polynomial(ctx, terms)
            text = str(p)
            chunks = re.split(r" [+-] ", text.lstrip("-"))
            printed = [next(iter(parse_polynomial(c, ctx).terms)) for c in chunks]
            assert printed == sorted(p.terms, key=reference_key(DEGREVLEX), reverse=True)
            assert parse_polynomial(text, ctx) == p


def test_homogeneity_detector():
    assert P("x^2+y*t").is_homogeneous_in([0, 1, 2])
    assert not P("x^2+y").is_homogeneous_in([0, 1, 2])
    assert P("x^2*y+t*y").is_homogeneous_in([1])


# -- substitution

TARGET = base_context(["a", "b", "x"])


def expanded(p, images):
    """Sum of c * prod image^k over p's terms, by ring operations only."""
    out = TARGET.zero()
    for e, c in p.terms.items():
        term = TARGET.const(c)
        for v, k in zip(CTX.variables, e):
            term = term * images[v.name] ** k
        out = out + term
    return out


def random_image(rng):
    kind = rng.choice(["rename", "zero", "one", "constant", "monomial", "polynomial"])
    if kind == "rename":
        return TARGET.gen(rng.choice(TARGET.names()))
    if kind == "zero":
        return TARGET.zero()
    if kind == "one":
        return TARGET.one()
    if kind == "constant":
        return TARGET.const(Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])))
    if kind == "monomial":
        return parse_polynomial(rng.choice(["-2*a*b", "a^2", "1/3*b*x^2"]), TARGET)
    image = TARGET.zero()
    while len(image.terms) < 2:
        image = random_poly(rng, TARGET, max_deg=2, terms=3)
    return image


def test_substitute_matches_the_ring_expansion():
    rng = random.Random(5)
    spread_cubes = 0
    for _ in range(300):
        p = random_poly(rng, max_deg=4, terms=5)
        images = {v: random_image(rng) for v in ("x", "y", "t")}
        assignment = dict(images)
        if rng.random() < 0.3:
            del assignment["x"]  # x maps to its namesake in the target
            images["x"] = TARGET.gen("x")
        got = p.substitute(assignment)
        assert got == expanded(p, images), (p, images)
        assert got.ctx == TARGET and all(got.terms.values())
        spread_cubes += any(
            len(images[v.name].terms) > 1 and e[i] >= 3
            for e in p.terms for i, v in enumerate(CTX.variables))
    assert spread_cubes > 20


def test_substitute_renames_and_pins():
    p = P("x^3*y - 2*t^2*y + 5")
    images = {"x": TARGET.gen("b"), "y": TARGET.one(), "t": TARGET.gen("a")}
    assert p.substitute(images) == parse_polynomial("b^3 - 2*a^2 + 5", TARGET)
    images["y"] = TARGET.zero()
    assert p.substitute(images) == TARGET.const(5)
    images["x"] = parse_polynomial("a - b", TARGET)
    images["y"] = parse_polynomial("a + b", TARGET)
    assert p.substitute(images) == parse_polynomial("(a-b)^3*(a+b) - 2*a^2*(a+b) + 5", TARGET)


def test_substitute_cancels_to_zero():
    p = P("x^2 - y")
    images = {"x": parse_polynomial("a + b", TARGET), "y": parse_polynomial("(a+b)^2", TARGET),
              "t": TARGET.zero()}
    assert p.substitute(images).is_zero()


def test_substitute_rejects_a_mixed_target():
    other = base_context(["x", "y"])
    with pytest.raises(ContextMismatch):
        P("x*y").substitute({"x": TARGET.gen("a"), "y": other.gen("y")})


# -- coefficients: an int when integral, a Fraction otherwise, never a float


def all_ints(p):
    return all(type(c) is int for c in p.terms.values())


@pytest.mark.parametrize("make", [
    lambda: Polynomial(CTX, {(1, 0, 0): 2.0}),
    lambda: Polynomial(CTX, {(1, 0, 0): 0.5}),
    lambda: CTX.const(1.5),
    lambda: P("x") * 2.0,
    lambda: 0.5 * P("x"),
    lambda: P("x") + 1.0,
    lambda: P("x") - 1.0,
], ids=["init-integral", "init", "const", "mul", "rmul", "add", "sub"])
def test_float_coefficient_is_refused(make):
    with pytest.raises(TypeError):
        make()


def test_integral_coefficients_are_ints():
    p = P("2*x - 4/2*y + 1/3*t^2 + 6/3")
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction, int]
    assert all_ints(P("(1/2*x + 1/3*y)*(2*x)") - P("2/3*x*y"))  # sum and product
    assert all_ints(P("1/2*x + 1/2*y") + P("1/2*x + 1/2*y"))
    assert all_ints(-P("3/4*x - 1/2*y") * 4)  # negation and scaling
    assert all_ints(P("1/2*x^2 + 1/3*y^3").partial("x"))
    assert P("1/3*y^3").partial("y") == P("y^2") and all_ints(P("1/3*y^3").partial("y"))
    images = {"x": TARGET.const(Fraction(3, 2)), "y": parse_polynomial("2/3*a", TARGET),
              "t": TARGET.one()}
    assert all_ints(P("x*y + t").substitute(images))


def test_integral_fraction_and_int_coefficients_agree():
    e = (2, 0, 1)
    a, b = Polynomial(CTX, {e: Fraction(2)}), Polynomial(CTX, {e: 2})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert str(a) == str(b) == "2*x^2*t"
    assert type(a.terms[e]) is int
    half = Polynomial(CTX, {e: Fraction(1, 2)})
    assert half != b and str(half) == "1/2*x^2*t"


def test_power_is_square_and_multiply():
    p = P("x - 2*y + 1/2*t")
    product = CTX.one()
    for k in range(12):
        assert p ** k == product
        product = product * p
    # k products would not finish; square-and-multiply takes about 80
    assert (P("x") ** 10 ** 12).terms == {(10 ** 12, 0, 0): 1}
    assert P("2*y") ** 100 == Polynomial(CTX, {(0, 100, 0): 2 ** 100})


@pytest.mark.parametrize("text, message", [
    ("x^1000000000000", "exponent 1000000000000 is above the cap 200000"),
    ("(x^1000)^1000", "exponent 1000 makes a power of degree 1000000 in one variable"),
    ("(x+y)^200001", "exponent 200001 is above the cap 200000"),
    ("(x+y)^200000", "exponent 200000 on 2 terms allows a power of more than 200000 terms"),
    ("(x+y+t)^631", "exponent 631 on 3 terms allows a power of more than 200000 terms"),
    ("x^150000*x^150000", "a product has degree 300000 in one variable"),
    ("(x+y+t)^200", "products would multiply more than 1000000 term pairs (line 1, col 11)"),
    ("(x+y+t)^40*(x+y+t)^40*(x+y+t)^40", "products would multiply more than 1000000 term pairs"),
], ids=["literal", "power-of-power", "sum", "two-terms", "three-terms", "product",
        "pairs-power", "pairs-product"])
def test_parse_refuses_an_exponent_above_the_cap(text, message):
    with pytest.raises(ExponentTooLarge) as err:
        parse_polynomial(text, CTX)
    assert message in str(err.value)
    assert isinstance(err.value, ParseError)


def test_parse_accepts_a_power_at_the_cap():
    # (x+y+t)^631 may have C(633, 2) = 200028 terms; x^200000 has one
    assert EXPONENT_CAP == 200_000
    assert parse_polynomial("x^200000*y^200000", CTX).total_degree() == 400_000
    assert parse_polynomial("(x^2*y)^100000", CTX).terms == {(200_000, 100_000, 0): 1}


def test_parse_accepts_products_under_the_pair_cap():
    # each call has its own count of the term pairs its products multiply
    assert PRODUCT_CAP == 1_000_000
    for _ in range(2):
        assert len(parse_polynomial("(x+y+t)^50", CTX).terms) == 1326
    assert parse_polynomial("(x+y+t)^25*(x+y+t)^25", CTX) == P("(x+y+t)^50")


def test_parse_of_a_long_sum_is_linear():
    # 16,000 distinct monomials: each summand is added into one term map.
    # Copying the running map per summand made this quadratic, about 6.5 s
    # of CPU where the linear parse takes about 1.8 s (Python 3.11, one
    # core of a shared x86-64 host); CPU time leaves out waits on other
    # processes
    terms = {(i % 40, i // 40 % 20, i // 800): i % 7 - 3 or 5 for i in range(16_000)}
    text = " + ".join(f"{c}*x^{a}*y^{b}*t^{d}" for (a, b, d), c in terms.items())
    started = time.process_time()
    parsed = parse_polynomial(text, CTX)
    assert time.process_time() - started < 5.0
    assert parsed == Polynomial(CTX, terms)


def test_an_order_is_its_block():
    # the order itself keys per-order caches
    assert MonomialOrder((2, 0)) == MonomialOrder((2, 0)) != MonomialOrder((0, 2))
    assert hash(MonomialOrder((2, 0))) == hash(MonomialOrder((2, 0)))
    assert MonomialOrder() == DEGREVLEX and hash(MonomialOrder()) == hash(DEGREVLEX)
