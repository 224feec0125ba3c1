"""Shared fixtures: the running hypersurface example in both coordinate
orders, two concrete plane curves, and a textbook reference for the
monomial orders that the engine defines by weight rows."""

from functools import cmp_to_key

import pytest

from gecc_kit.conormal import Stratum, StratifiedComplex
from gecc_kit.cycles import AmbientSpace, component_from_prime
from gecc_kit.ideal import Ideal
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import parse_polynomial

Z = ModClass.free
SURFACE = "y^2-x^3-t^2*x^2"


def make_stratum(amb, name, gens, dim, morse):
    ctx = amb.context()
    return Stratum(name, Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), dim, morse)


def P(text, sc):
    """text as a polynomial in the coordinates of the complex sc."""
    return parse_polynomial(text, sc.ambient.context())


def component(amb, *gens):
    """The component V(gens) of amb; gens must generate a prime."""
    ctx = amb.context()
    return component_from_prime(Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), amb)


def tcomp(sc, *gens):
    return component(sc.tstar_ambient(), *gens)


def ucomp(sc, *gens):
    return component(sc.ambient, *gens)


def running_example(coords):
    """X = V(y) union V(y^2-x^3-t^2 x^2) with the 2-shifted constant sheaf."""
    amb = AmbientSpace("U", 2, coords)
    strata = [
        make_stratum(amb, "S1", ["y"], 2, {0: Z(1)}),
        make_stratum(amb, "S2", [SURFACE], 2, {0: Z(1)}),
        make_stratum(amb, "S3", ["x", "y"], 1, {0: Z(2)}),
        make_stratum(amb, "S4", ["x+t^2", "y"], 1, {0: Z(1)}),
        make_stratum(amb, "S0", ["t", "x", "y"], 0, {0: Z(2)}),
    ]
    return StratifiedComplex(amb, strata, "running")


@pytest.fixture(scope="session")
def sc_xyt():
    return running_example(("x", "y", "t"))


@pytest.fixture(scope="session")
def sc_txy():
    return running_example(("t", "x", "y"))


def cusp_line_complex():
    """X = V(y^2-x^3) union V(y) in C^2; A = 1-shifted constant sheaf.

    Point Morse module Z^(m-1) with m = 3.
    """
    amb = AmbientSpace("U", 1, ("x", "y"))
    strata = [
        make_stratum(amb, "cusp", ["y^2-x^3"], 1, {0: Z(1)}),
        make_stratum(amb, "line", ["y"], 1, {0: Z(1)}),
        make_stratum(amb, "origin", ["x", "y"], 0, {0: Z(2)}),
    ]
    return StratifiedComplex(amb, strata, "cusp-line")


def tangent_triple_complex():
    """Three smooth branches through the origin: V(y), V(y-x^2), V(y+x^2)."""
    amb = AmbientSpace("U", 1, ("x", "y"))
    strata = [
        make_stratum(amb, "b0", ["y"], 1, {0: Z(1)}),
        make_stratum(amb, "b1", ["y-x^2"], 1, {0: Z(1)}),
        make_stratum(amb, "b2", ["y+x^2"], 1, {0: Z(1)}),
        make_stratum(amb, "origin", ["x", "y"], 0, {0: Z(2)}),
    ]
    return StratifiedComplex(amb, strata, "tangent-triple")


@pytest.fixture(scope="session")
def curve_cusp_line():
    return cusp_line_complex()


@pytest.fixture(scope="session")
def curve_tangent_triple():
    return tangent_triple_complex()


# -- reference monomial orders on exponent tuples, from the textbook
# definitions (Cox, Little and O'Shea, ch. 2 section 2), independent of the
# weight rows that define the engine's orders


def _lex_compare(a, b) -> int:
    """The first differing exponent decides: the larger is above."""
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0


def _degrevlex_compare(a, b) -> int:
    """The larger total degree is above; on a tie, the last differing
    exponent decides and the smaller is above."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x > y else 1
    return 0


def reference_compare(order, a, b) -> int:
    """-1, 0 or 1 as exponent a is below, equal to or above b under order.

    The slots are read in the order's permutation first; a block order
    compares its leading block by degrevlex and, on a tie, the rest.
    """
    perm = order.perm if order.perm is not None else range(len(a))
    a, b = [a[i] for i in perm], [b[i] for i in perm]
    if order.kind == "lex":
        return _lex_compare(a, b)
    if order.kind == "degrevlex":
        return _degrevlex_compare(a, b)
    assert order.kind == "block"
    s = order.split
    return _degrevlex_compare(a[:s], b[:s]) or _degrevlex_compare(a[s:], b[s:])


def reference_key(order):
    """A sort key for exponent tuples under order, by ``reference_compare``."""
    return cmp_to_key(lambda a, b: reference_compare(order, a, b))


def reference_leading(p, order) -> tuple:
    """(exponent, coefficient) of p's leading term under order."""
    e = max(p.terms, key=reference_key(order))
    return e, p.terms[e]


def exponent_divides(a, b) -> bool:
    """The monomial of exponent a divides that of b."""
    return all(x <= y for x, y in zip(a, b))
