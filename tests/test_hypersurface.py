"""Polar curves, genericity diagnostics, point Morse formulas, ordinary
characteristic-cycle identities, and the curve oracle."""

import pytest

from gecc_kit.conormal import StratifiedComplex, conormal_variety, gecc_assemble
from gecc_kit.cycles import AmbientSpace, OrdinaryCycle, component_from_prime, to_ordinary
from gecc_kit.hypersurface import (
    CurveBranch,
    GenericityFailure,
    cc_of_tables,
    check_complement_restriction,
    check_polar_genericity,
    check_triangle,
    curve_gecc_oracle,
    nearby_gecc,
    nearby_morse_at_origin,
    polar_curve,
    shriek_morse_at_origin,
    star_equals_shriek,
    vanishing_morse_at_origin,
)
from gecc_kit.ideal import Ideal
from gecc_kit.modclass import ModClass, mod_leq
from gecc_kit.polyring import parse_polynomial
from tests.conftest import SURFACE, P, make_stratum
from tests.reference import (
    analyze_curve_branches,
    classical_polar_cycle,
    classical_polar_mu,
    variety_contained_in,
)

Z = ModClass.free


# -- classical polar curve (ambient smooth case)


def test_classical_polar_running_example(sc_xyt):
    amb = sc_xyt.ambient
    f = P(f"y*({SURFACE})", sc_xyt)
    pieces = classical_polar_cycle(f, P("t", sc_xyt), amb)
    # the polar cycle is V(3x+2t^2, 3y^2-x^3-t^2x^2) with multiplicity one;
    # the engine splits it into its two rational branches
    assert all(m == 1 for _, m in pieces)
    ctx = amb.context()
    target = Ideal(ctx, [parse_polynomial("3*x+2*t^2", ctx),
                         parse_polynomial(f"3*y^2-x^3-t^2*x^2", ctx)])
    for comp, _ in pieces:
        assert variety_contained_in(comp.ideal, target)
    total = sum(m * 1 for _, m in pieces)
    assert total == 2  # two branches, multiplicity one each
    assert classical_polar_mu(f, P("t", sc_xyt), amb) == 2


def test_classical_polar_a1_point():
    amb = AmbientSpace("U", 2, ("x", "y", "t"))
    ctx = amb.context()
    f = parse_polynomial("x^2+y^2+t^2", ctx)
    l = parse_polynomial("x+2*y+3*t", ctx)
    assert classical_polar_mu(f, l, amb) == 1


def test_classical_polar_smooth_function_empty():
    amb = AmbientSpace("U", 2, ("x", "y", "t"))
    ctx = amb.context()
    assert classical_polar_cycle(parse_polynomial("x", ctx),
                                 parse_polynomial("t", ctx), amb) == []
    assert classical_polar_mu(parse_polynomial("x", ctx),
                              parse_polynomial("t", ctx), amb) == 0


# -- relative polar curve


def test_polar_curve_running_example(sc_xyt):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    ctx = sc_xyt.ambient.context()
    curve = component_from_prime(
        Ideal(ctx, [parse_polynomial("x+t^2", ctx), parse_polynomial("y", ctx)]),
        sc_xyt.ambient,
    )
    assert rep.polar.degree(0).terms == {curve: Z(2)}
    # stratum S1 contributes the empty intersection
    assert rep.per_stratum["S1"] == []
    assert rep.per_stratum["S2"] == [(curve, 1)]
    assert rep.per_stratum["S4"] == [(curve, 1)]


def test_polar_genericity_running_example(sc_xyt, sc_txy):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    amb_t = sc_xyt.tstar_ambient()
    bound = [
        conormal_variety(sc_xyt.stratum("S3"), amb_t),
        conormal_variety(sc_xyt.stratum("S0"), amb_t),
    ]
    gen = check_polar_genericity(rep, P("x", sc_xyt), P("t", sc_xyt), bound)
    assert gen.dim_vf and gen.dim_vl and gen.componentwise and gen.covector
    assert gen.all_pass()
    # L = x fails the covector test: (0, d_0 x) lies on the conormal of S3
    gen_bad = check_polar_genericity(rep, P("x", sc_xyt), P("x", sc_xyt), bound)
    assert gen_bad.covector is False


def test_polar_genericity_empty_polar(sc_xyt):
    # a function smooth on every visible stratum has an empty polar
    amb = AmbientSpace("U", 2, ("x", "y", "t"))
    ctx = amb.context()
    SC = StratifiedComplex(amb, [make_stratum(amb, "U0", ["y"], 2, {0: Z(1)})])
    rep = polar_curve(SC, parse_polynomial("x", ctx), parse_polynomial("t", ctx))
    assert not rep.polar
    gen = check_polar_genericity(rep, parse_polynomial("x", ctx), parse_polynomial("t", ctx))
    assert gen.all_pass()


def test_polar_extension_independence_spot_check(sc_xyt):
    # adding f * (poly) to the extension leaves the polar germ unchanged
    # when no polar component lies in V(f); far components may appear
    ctx = sc_xyt.ambient.context()
    origin = [ctx.gen(v) for v in sc_xyt.ambient.base_vars()]

    def through_origin(c):
        return [] if c.ideal.with_extra(origin).is_trivial() else [(c, 1)]

    f = P("x", sc_xyt)
    base = polar_curve(sc_xyt, f, P("t", sc_xyt))
    perturbed = polar_curve(sc_xyt, f, P("t + x*x", sc_xyt))
    assert base.polar == perturbed.polar
    perturbed2 = polar_curve(sc_xyt, f, P("t + x*(t - 2*x)", sc_xyt))
    assert (perturbed2.polar.map(through_origin, sc_xyt.ambient)
            == base.polar.map(through_origin, sc_xyt.ambient))


# -- nearby cycles


def test_nearby_gecc_running_example(sc_xyt):
    psi = nearby_gecc(sc_xyt, P("x", sc_xyt))
    ctx = sc_xyt.ambient.context()
    amb_t = sc_xyt.tstar_ambient()
    tctx = amb_t.context()
    c_w = component_from_prime(
        Ideal(tctx, [parse_polynomial(g, tctx) for g in ("x", "y", "w2")]), amb_t
    )
    c_0 = component_from_prime(
        Ideal(tctx, [parse_polynomial(g, tctx) for g in ("x", "y", "t")]), amb_t
    )
    assert psi.degree(0).terms == {c_w: Z(3), c_0: Z(4)}


def test_nearby_morse_running_example(sc_xyt):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    morse = nearby_morse_at_origin(rep, P("x", sc_xyt))
    assert morse.table == {0: Z(4)}
    assert morse.exponents == {"S1": 0, "S2": 2, "S4": 2}


def test_shriek_morse_running_example(sc_xyt):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    morse = shriek_morse_at_origin(rep, P("t", sc_xyt))
    assert morse.table == {0: Z(2)}
    assert morse.exponents == {"S1": 0, "S2": 1, "S4": 1}


def test_vanishing_morse_running_example(sc_xyt):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    m0 = {0: Z(2)}
    morse = vanishing_morse_at_origin(rep, P("x", sc_xyt), P("t", sc_xyt), m0)
    assert morse.table == {0: Z(4)}
    assert morse.exponents == {"S1": 0, "S2": 1, "S4": 1}
    assert morse.diagnostics["alpha"] == {"S1": 0, "S2": 2, "S4": 2}
    assert morse.diagnostics["beta"] == {"S1": 0, "S2": 1, "S4": 1}
    assert morse.diagnostics["genericity"]["componentwise_f_geq_l"]


def test_vanishing_morse_smooth_point():
    amb = AmbientSpace("U", 2, ("x", "y", "t"))
    ctx = amb.context()
    SC = StratifiedComplex(amb, [make_stratum(amb, "M", ["y"], 2, {0: Z(1)})])
    rep = polar_curve(SC, parse_polynomial("x", ctx), parse_polynomial("t", ctx))
    morse = vanishing_morse_at_origin(
        rep, parse_polynomial("x", ctx), parse_polynomial("t", ctx), {}
    )
    assert morse.table == {}


def test_star_equals_shriek_records(sc_xyt):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    shr = shriek_morse_at_origin(rep, P("t", sc_xyt))
    near = nearby_morse_at_origin(rep, P("x", sc_xyt))
    records = star_equals_shriek(shr, near)
    assert all(r.passed for r in records)
    # Cor 6.2 monotonicity appears among the records
    assert any("<=" in r.name for r in records)
    assert mod_leq(shr.table[0], near.table[0])


def test_genericity_failure_raises(sc_xyt):
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    # x is constant on the polar curve V(x+t^2, y)? no -- but f = x+t^2 is
    bad_f = P("x+t^2", sc_xyt)
    with pytest.raises(GenericityFailure):
        nearby_morse_at_origin(rep, bad_f)


# -- ordinary characteristic-cycle identities


def test_shift_identity(sc_xyt):
    cyc = gecc_assemble(sc_xyt)
    assert to_ordinary(cyc.shift(1)) == to_ordinary(cyc).scaled(-1)


def test_triangle_and_prop66_on_curve(curve_cusp_line):
    # CC(P) = CC(Q) + CC(Z_{V(f)}) on the cusp-line curve with f = y
    SC = curve_cusp_line
    ctx = SC.ambient.context()
    f = parse_polynomial("y", ctx)
    branches = analyze_curve_branches(SC, f, parse_polynomial("x", ctx))
    oracle = curve_gecc_oracle(branches)
    amb_t = SC.tstar_ambient()
    point_conormal = conormal_variety(SC.stratum("origin"), amb_t)
    line_conormal = conormal_variety(SC.stratum("line"), amb_t)
    cc_P = OrdinaryCycle(amb_t, {point_conormal: oracle["cc_point"]["P"]})
    cc_Q = OrdinaryCycle(
        amb_t, {point_conormal: oracle["cc_point"]["Q"], line_conormal: 1}
    )
    # CC(Z_{V(f)}) = -CC(Z_{V(f)}[1]) and V(f) = V(y) is smooth:
    # CC(Z_{V(y)}[1]) = [T*_{V(y)}] + (m_sub - 1)[T*_0] with m_sub = 1
    cc_vf = OrdinaryCycle(amb_t, {line_conormal: -1})
    rec = check_triangle("nearby = vanishing + restriction", cc_Q.plus(cc_vf), cc_P, cc_vf.scaled(0))
    # directly: CC(P) == CC(Q) + CC(Z_{V(f)})
    assert cc_P == cc_Q.plus(cc_vf)


def test_prop66_running_example(sc_xyt):
    # CC(j_* j^* F) = CC(F) - CC(i_! i^! F); the S3 coefficient of the
    # shriek complex comes from a hand-built transversal slice problem
    tables_F = {s.name: s.morse for s in sc_xyt.strata}
    cc_F = cc_of_tables(sc_xyt, tables_F)
    beta_slice = _slice_shriek_multiplicity()
    tables_shriek = {
        "S1": {0: Z(1)},
        "S2": {0: Z(1)},
        "S4": {0: Z(1)},
        "S3": {0: Z(beta_slice)},
        "S0": {0: Z(2)},
    }
    cc_shriek = cc_of_tables(sc_xyt, tables_shriek)
    # j_* j^* F is the shifted constant sheaf on the smooth line V(x, y)
    jstar = cc_of_tables(sc_xyt, {"S3": {0: Z(1)}}).scaled(-1)
    rec = check_complement_restriction(cc_F, cc_shriek, jstar)
    assert rec.passed, f"{rec.lhs} vs {rec.rhs}"


def _slice_shriek_multiplicity():
    """m^0_{S3}(i_! i^! F) via the transversal slice at (0,0,1):
    a three-branch curve germ cut out of the running example."""
    amb = AmbientSpace("U", 1, ("x", "y"))
    ctx = amb.context()
    # slice t = 1 of V(y (y^2 - x^3 - t^2 x^2)): three branches at the origin
    SC = StratifiedComplex(
        amb,
        [
            make_stratum(amb, "line", ["y"], 1, {0: Z(1)}),
            make_stratum(amb, "node", ["y^2-x^3-x^2"], 1, {0: Z(1)}),
            make_stratum(amb, "pt", ["x", "y"], 0, {0: Z(2)}),
        ],
    )
    f = parse_polynomial("x", ctx)
    # y - x is tangent to a node branch: the covector diagnostic flags it
    amb_t = SC.tstar_ambient()
    bound = [
        conormal_variety(SC.stratum("node"), amb_t),
        conormal_variety(SC.stratum("line"), amb_t),
    ]
    bad = check_polar_genericity(
        polar_curve(SC, f, parse_polynomial("y-x", ctx)),
        f,
        parse_polynomial("y-x", ctx),
        bound,
    )
    assert bad.covector is False
    L = parse_polynomial("y-2*x", ctx)
    rep = polar_curve(SC, f, L)
    good = check_polar_genericity(rep, f, L, bound)
    assert good.all_pass()
    morse = shriek_morse_at_origin(rep, L)
    return morse.table[0].rank


# -- curve oracle


def test_curve_oracle_cusp_line():
    branches = [CurveBranch("cusp", 2, False, 3), CurveBranch("line", 1, True, 0)]
    oracle = curve_gecc_oracle(branches)
    assert oracle["m"] == 3 and oracle["e"] == 2
    assert oracle["point"]["A"] == Z(2)
    assert oracle["point"]["B"] == Z(3) == oracle["point"]["C"]
    assert oracle["point"]["I"] == Z(1)
    assert oracle["point"]["P"] == Z(3)
    assert oracle["point"]["Q"] == Z(3)
    assert set(oracle["branches"]["Q"]) == {"line"}


def test_curve_oracle_single_smooth_branch():
    oracle = curve_gecc_oracle([CurveBranch("b", 1, False, 1)])
    assert oracle["point"]["A"].is_zero()
    assert oracle["point"]["B"] == Z(1) == oracle["point"]["C"]
    assert oracle["point"]["I"].is_zero()


def test_analyze_curve_branches_cusp_line(curve_cusp_line):
    SC = curve_cusp_line
    ctx = SC.ambient.context()
    measured = analyze_curve_branches(SC, parse_polynomial("y", ctx), parse_polynomial("x", ctx))
    data = {b.name: (b.mult, b.in_vf, b.eta) for b in measured}
    assert data == {"cusp": (2, False, 3), "line": (1, True, 0)}


def test_curve_engine_vs_oracle_nearby_and_vanishing(curve_cusp_line):
    SC = curve_cusp_line
    ctx = SC.ambient.context()
    f = parse_polynomial("y", ctx)
    L = parse_polynomial("x", ctx)
    measured = analyze_curve_branches(SC, f, L)
    oracle = curve_gecc_oracle(measured)
    rep = polar_curve(SC, f, L)
    near = nearby_morse_at_origin(rep, f)
    assert near.table[0] == oracle["point"]["P"]
    van = vanishing_morse_at_origin(rep, f, L, {0: oracle["point"]["A"]})
    assert van.table[0] == oracle["point"]["Q"]
    # full nearby gecc: Z^eta over the point conormal
    psi = nearby_gecc(SC, f)
    amb_t = SC.tstar_ambient()
    point_conormal = conormal_variety(SC.stratum("origin"), amb_t)
    assert psi.degree(0).terms == {point_conormal: oracle["point"]["P"]}
