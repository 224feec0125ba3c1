"""Shared fixtures: the running hypersurface example in both coordinate
orders, and two concrete plane curves."""

import pytest

from gecc_kit.conormal import Stratum, StratifiedComplex
from gecc_kit.cycles import AmbientSpace
from gecc_kit.ideal import Ideal
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import parse_polynomial

Z = ModClass.free
SURFACE = "y^2-x^3-t^2*x^2"


def make_stratum(amb, name, gens, dim, morse):
    ctx = amb.context()
    return Stratum(name, Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), dim, morse)


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
