"""Conormal builder: conormal/relative conormal varieties, gecc assembly,
differential graphs, structural invariants."""

import pytest

from gecc_kit.conormal import (
    FConstantOnStratum,
    StratificationError,
    Stratum,
    StratifiedComplex,
    conormal_variety,
    gecc_assemble,
    im_d,
    relative_conormal,
    relative_conormal_cycle,
)
from gecc_kit.cycles import AmbientSpace
from gecc_kit.ideal import Ideal
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import parse_polynomial
from tests.reference import variety_contained_in

Z = ModClass.free

AMB_TXY = AmbientSpace("U", 2, ("t", "x", "y"))   # ordering of the vanishing run
AMB_XYT = AmbientSpace("U", 2, ("x", "y", "t"))   # ordering of the polar runs
G = "y^2-x^3-t^2*x^2"


def P(text, amb):
    return parse_polynomial(text, amb.context())


def stratum(amb, name, gens, dim, morse=None):
    ctx = amb.context()
    return Stratum(
        name,
        Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]),
        dim,
        morse or {0: Z(1)},
    )


def running_complex(amb):
    return StratifiedComplex(
        amb,
        [
            stratum(amb, "S1", ["y"], 2),
            stratum(amb, "S2", [G], 2),
            stratum(amb, "S3", ["x", "y"], 1, {0: Z(2)}),
            stratum(amb, "S4", ["x+t^2", "y"], 1),
            stratum(amb, "S0", ["t", "x", "y"], 0, {0: Z(2)}),
        ],
    )


def ideal_equal_as_variety(I, J):
    return variety_contained_in(I, J) and variety_contained_in(J, I)


# -- conormal varieties (Ex 7.5 pairing: w0 dt + w1 dx + w2 dy)


def test_conormal_line():
    amb_t = AMB_TXY.with_kind("TstarU")
    c = conormal_variety(stratum(AMB_TXY, "S3", ["x", "y"], 1), amb_t)
    assert list(c.key) == ["w0", "x", "y"]
    assert c.dim == 3


def test_conormal_plane():
    amb_t = AMB_TXY.with_kind("TstarU")
    c = conormal_variety(stratum(AMB_TXY, "S1", ["y"], 2), amb_t)
    assert list(c.key) == ["w0", "w1", "y"]


def test_conormal_point_full_fiber():
    amb_t = AMB_TXY.with_kind("TstarU")
    c = conormal_variety(stratum(AMB_TXY, "S0", ["t", "x", "y"], 0), amb_t)
    assert list(c.key) == ["t", "x", "y"]


def test_conormal_golden_eight_generator_ideal():
    # printed closure of the conormal to the singular surface stratum
    amb_t = AMB_TXY.with_kind("TstarU")
    ctx = amb_t.context()
    c = conormal_variety(stratum(AMB_TXY, "S2", [G], 2), amb_t)
    golden = Ideal(
        ctx,
        [
            parse_polynomial(s, ctx)
            for s in (
                "y^2-x^3-t^2*x^2",
                "2*t*w0*w1-w0^2-2*t^2*w2^2*x",
                "-w0*w1+2*t*w1^2-t*w2^2*(2*t^2+3*x)",
                "2*w1*x+t*w0+3*w2*y",
                "w0^2*(t^2+x)-t^2*w2^2*x^2",
                "w0*y+t*w2*x^2",
                "2*w1*y+w2*(2*t^2+3*x)*x",
                "t*w2*y+w0*(t^2+x)",
            )
        ],
    )
    assert ideal_equal_as_variety(c.ideal, golden)
    assert c.dim == 3


def test_conormal_smooth_curve_stratum():
    amb_t = AMB_TXY.with_kind("TstarU")
    ctx = amb_t.context()
    c = conormal_variety(stratum(AMB_TXY, "S4", ["x+t^2", "y"], 1), amb_t)
    # conormal directions at (t, -t^2, 0): span(d(x+t^2), dy) = {w0 = 2t w1}
    expected = Ideal(
        ctx, [parse_polynomial(s, ctx) for s in ("2*t*w1-w0", "t^2+x", "y")]
    )
    assert c.ideal == expected


def test_conormal_ambient_zero_section():
    amb_t = AMB_TXY.with_kind("TstarU")
    ctx = AMB_TXY.context()
    c = conormal_variety(Stratum("U", Ideal(ctx, []), 3, {0: Z(1)}), amb_t)
    assert list(c.key) == ["w0", "w1", "w2"]


# -- relative conormal (Ex 4.7 pairing: w0 dx + w1 dy + w2 dt)


def test_relative_conormal_plane_stratum():
    amb_t = AMB_XYT.with_kind("TstarU")
    c = relative_conormal(stratum(AMB_XYT, "S1", ["y"], 2), P("x", AMB_XYT), amb_t)
    assert list(c.key) == ["w2", "y"]
    assert c.dim == 4


def test_relative_conormal_singular_surface():
    amb_t = AMB_XYT.with_kind("TstarU")
    ctx = amb_t.context()
    c = relative_conormal(stratum(AMB_XYT, "S2", [G], 2), P("x", AMB_XYT), amb_t)
    target = Ideal(
        ctx,
        [
            parse_polynomial(s, ctx)
            for s in ("y^2-x^3-t^2*x^2", "y*w2+t*x^2*w1", "(x+t^2)*w2+y*t*w1")
        ],
    )
    assert ideal_equal_as_variety(c.ideal, target)
    assert c.dim == 4


def test_relative_conormal_curve_stratum_whole_space():
    amb_t = AMB_XYT.with_kind("TstarU")
    c = relative_conormal(stratum(AMB_XYT, "S4", ["x+t^2", "y"], 1), P("x", AMB_XYT), amb_t)
    assert list(c.key) == ["t^2 + x", "y"]
    assert c.dim == 4


def test_relative_conormal_constant_function_rejected():
    amb_t = AMB_XYT.with_kind("TstarU")
    s3 = stratum(AMB_XYT, "S3", ["x", "y"], 1)
    with pytest.raises(FConstantOnStratum):
        relative_conormal(s3, P("x", AMB_XYT), amb_t)


def test_conormal_contained_in_relative_conormal():
    amb_t = AMB_XYT.with_kind("TstarU")
    for name, gens, dim in (("S2", [G], 2), ("S4", ["x+t^2", "y"], 1)):
        s = stratum(AMB_XYT, name, gens, dim)
        cono = conormal_variety(s, amb_t)
        rel = relative_conormal(s, P("x", AMB_XYT), amb_t)
        assert variety_contained_in(cono.ideal, rel.ideal)


# -- differential graphs


def test_im_d_coordinate_orderings():
    amb_t1 = AMB_TXY.with_kind("TstarU")
    ctx1 = amb_t1.context()
    assert im_d(P("t", AMB_TXY), amb_t1) == Ideal(
        ctx1, [parse_polynomial(s, ctx1) for s in ("w0-1", "w1", "w2")]
    )
    amb_t2 = AMB_XYT.with_kind("TstarU")
    ctx2 = amb_t2.context()
    assert im_d(P("x", AMB_XYT), amb_t2) == Ideal(
        ctx2, [parse_polynomial(s, ctx2) for s in ("w0-1", "w1", "w2")]
    )
    assert im_d(P("x^2", AMB_XYT), amb_t2) == Ideal(
        ctx2, [parse_polynomial(s, ctx2) for s in ("w0-2*x", "w1", "w2")]
    )


# -- gecc assembly


def test_gecc_assemble_running_example():
    SC = running_complex(AMB_XYT)
    cyc = gecc_assemble(SC)
    assert list(cyc.degrees) == [0]
    terms = cyc.degree(0).terms
    assert len(terms) == 5
    ranks = sorted(m.rank for m in terms.values())
    assert ranks == [1, 1, 1, 2, 2]


def test_gecc_assemble_two_degrees():
    # X = V(z) union V(x,y) with a shifted constant sheaf: degrees -1 and 0
    amb = AmbientSpace("U", 2, ("x", "y", "z"))
    SC = StratifiedComplex(
        amb,
        [
            stratum(amb, "S2", ["z"], 2, {0: Z(1)}),
            stratum(amb, "S1", ["x", "y"], 1, {-1: Z(1)}),
            stratum(amb, "S0", ["x", "y", "z"], 0, {-1: Z(1)}),
        ],
    )
    cyc = gecc_assemble(SC)
    assert sorted(cyc.degrees) == [-1, 0]
    assert len(cyc.degree(-1).terms) == 2
    assert len(cyc.degree(0).terms) == 1


def test_gecc_assemble_empty_tables():
    amb = AMB_XYT
    SC = StratifiedComplex(amb, [stratum(amb, "S1", ["y"], 2, {0: ModClass.zero()})])
    assert not gecc_assemble(SC)


def test_gecc_shift_consistency():
    SC = running_complex(AMB_XYT)
    base = gecc_assemble(SC)
    shifted_strata = [
        Stratum(s.name, s.closure_ideal, s.dim, {k + 1: m for k, m in s.morse.items()})
        for s in SC.strata
    ]
    shifted = gecc_assemble(StratifiedComplex(AMB_XYT, shifted_strata))
    assert shifted == GradedEnrichedCycle_shift(base, -1)


def GradedEnrichedCycle_shift(cyc, j):
    return cyc.shift(j)


def test_relative_conormal_cycle_three_terms():
    SC = running_complex(AMB_XYT)
    cyc = relative_conormal_cycle(SC, P("x", AMB_XYT))
    assert list(cyc.degrees) == [0]
    assert len(cyc.degree(0).terms) == 3


def test_relative_conormal_cycle_empty_when_f_constant_everywhere():
    amb = AMB_XYT
    SC = StratifiedComplex(
        amb,
        [stratum(amb, "S3", ["x", "y"], 1, {0: Z(2)})],
    )
    assert not relative_conormal_cycle(SC, P("x", amb))


def test_conic_invariant():
    amb_t = AMB_XYT.with_kind("TstarU")
    wpos = [amb_t.context().position(v) for v in amb_t.cotangent_vars()]
    SC = running_complex(AMB_XYT)
    for s in SC.strata:
        c = conormal_variety(s, amb_t)
        for g in c.ideal.groebner_basis():
            assert g.is_homogeneous_in(wpos)
        assert c.dim == 3


def test_stratification_validation_errors():
    amb = AMB_XYT
    with pytest.raises(StratificationError):
        StratifiedComplex(amb, [stratum(amb, "bad", ["x", "y"], 2)])
    with pytest.raises(StratificationError):
        StratifiedComplex(
            amb,
            [stratum(amb, "a", ["y"], 2), stratum(amb, "b", ["y"], 2)],
        )
