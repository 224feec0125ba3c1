"""Integer-polynomial factoriser internals: both GCD routes, Yun's
square-free decomposition, univariate Zassenhaus recombination and
multivariate lifting."""

import random

from gecc_kit.factor import (
    _content,
    _divexact,
    _exact_gcd,
    _factor_lifted,
    _factor_univariate,
    _gcd,
    _heuristic_gcd,
    _mul,
    _mul_z,
    _scale,
    _shift,
    _yun,
    factor_integer,
)


def random_poly(rng, nvars, terms=3, degree=2):
    f = {}
    while len(f) < terms:
        e = tuple(rng.randint(0, degree) for _ in range(nvars))
        f[e] = rng.choice([-3, -2, -1, 1, 2, 5])
    return f


def positive(f):
    return {e: -c for e, c in f.items()} if f[max(f)] < 0 else f


def test_gcd_routes_agree_on_products_with_a_common_factor():
    rng = random.Random(5)
    answered = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        f, g = (_scale(h, _content(h)) for h in (_mul(a, c), _mul(b, c)))
        h = _gcd(f, g)
        assert _divexact(f, h) is not None and _divexact(g, h) is not None
        assert _divexact(h, _scale(c, _content(c))) is not None
        assert _exact_gcd(f, g) == h
        heuristic = _heuristic_gcd(f, g)
        assert heuristic in (None, h)
        answered += heuristic is not None
    assert answered >= 30


def test_exact_gcd_route_alone():
    # (x + y) (x - 2) and (x + y) (y + 3): the PRS route finds x + y
    f = _mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 0): -2})
    g = _mul({(1, 0): 1, (0, 1): 1}, {(0, 1): 1, (0, 0): 3})
    assert _exact_gcd(f, g) == {(1, 0): 1, (0, 1): 1}


def test_yun_splits_multiplicities():
    a = {(1, 0): 1, (0, 1): 1, (0, 0): 1}   # x + y + 1
    b = {(2, 0): 1, (0, 1): -1}             # x^2 - y
    c = {(1, 1): 1, (0, 0): 2}              # x*y + 2
    f = _mul(_mul(a, _mul(b, b)), _mul(c, _mul(c, c)))
    assert sorted((m, sorted(p.items())) for p, m in _yun(f, 0)) == sorted(
        (m, sorted(positive(p).items())) for p, m in [(a, 1), (b, 2), (c, 3)])


def test_univariate_recombination():
    # eight linear factors: the mod-p images split further, and the
    # Hensel-lifted factors recombine into exactly these
    rng = random.Random(2)
    roots = [rng.randint(-9, 9) for _ in range(8)]
    factors = [[-r, 1] for r in set(roots)]
    u = [1]
    for f in factors:
        u = _mul_z(u, f)
    assert sorted(_factor_univariate(u)) == sorted(factors)
    # x^4 + 1 splits mod every prime and is irreducible
    assert _factor_univariate([1, 0, 0, 0, 1]) == [[1, 0, 0, 0, 1]]


def test_factor_integer_signs_and_content():
    # -6 (x - y)^2 (1 - x y): content and signs go, multiplicities stay
    x_minus_y = {(1, 0): 1, (0, 1): -1}
    one_minus_xy = {(0, 0): 1, (1, 1): -1}
    f = _mul(_mul({(0, 0): -6}, _mul(x_minus_y, x_minus_y)), one_minus_xy)
    got = sorted((sorted(p.items()), m) for p, m in factor_integer(f))
    assert got == sorted([
        (sorted(x_minus_y.items()), 2), (sorted({(1, 1): 1, (0, 0): -1}.items()), 1)])


def test_lifting_recombines_extraneous_image_factors():
    # at y = 1, (x^2 - y)(x + 2y) has the image (x - 1)(x + 1)(x + 2): two of
    # the lifted factors belong to one true factor, found by the failed trial
    # of each alone
    x2_minus_y = {(2, 0): 1, (0, 1): -1}
    x_plus_2y = {(1, 0): 1, (0, 1): 2}
    shifted = _shift(_mul(x2_minus_y, x_plus_2y), (0, 1))
    images = [[-1, 1], [1, 1], [2, 1]]
    found = [_shift(h, (0, 1), -1) for h in _factor_lifted(shifted, 0, images)]
    assert sorted(sorted(positive(h).items()) for h in found) == sorted(
        sorted(f.items()) for f in (x2_minus_y, x_plus_2y))
    # x^2 - y alone at y = 1: no lifted factor divides, so it stays whole
    shifted = _shift(x2_minus_y, (0, 1))
    assert _factor_lifted(shifted, 0, [[-1, 1], [1, 1]]) == [shifted]
