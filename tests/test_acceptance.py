"""Acceptance criteria: every worked value reproduced exactly, in budget.

One test per criterion; each prints a single PASS line with its runtime.
All comparisons are exact equalities of canonical forms.
"""

import random
import time

import pytest

from gecc_kit.conormal import conormal_variety, gecc_assemble
from gecc_kit.cycles import (
    AmbientSpace,
    EnrichedCycle,
    GradedEnrichedCycle,
    OrdinaryCycle,
    component_from_prime,
    divisor_intersect,
    ci_intersect,
    to_ordinary,
)
from gecc_kit.hypersurface import (
    analyze_curve_branches,
    cc_constant_sheaf_shifted,
    cc_of_tables,
    check_complement_restriction,
    check_polar_genericity,
    check_triangle,
    classical_polar_cycle,
    classical_polar_mu,
    curve_gecc_oracle,
    nearby_gecc,
    nearby_morse_at_origin,
    polar_curve,
    shriek_morse_at_origin,
    vanishing_morse_at_origin,
)
from gecc_kit.ideal import Ideal, saturate_element, variety_contained_in
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import parse_polynomial
from gecc_kit.vanishing import projectivize, vanishing_pipeline
import test_properties
from tests.conftest import SURFACE, make_stratum

Z = ModClass.free


def P(text, sc):
    return parse_polynomial(text, sc.ambient.context())


def report(criterion, started, detail=""):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {criterion} ({elapsed:.1f}s) {detail}")


def tcomp(sc, *gens):
    amb_t = sc.tstar_ambient()
    ctx = amb_t.context()
    return component_from_prime(Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), amb_t)


def ucomp(sc, *gens):
    ctx = sc.ambient.context()
    return component_from_prime(Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), sc.ambient)


def test_criterion_1_classical_polar(sc_xyt):
    started = time.monotonic()
    amb = sc_xyt.ambient
    ctx = amb.context()
    f = parse_polynomial(f"y*({SURFACE})", ctx)
    pieces = classical_polar_cycle(f, parse_polynomial("t", ctx), amb)
    target = Ideal(ctx, [parse_polynomial("3*x+2*t^2", ctx),
                         parse_polynomial("3*y^2-x^3-t^2*x^2", ctx)])
    assert pieces and all(m == 1 for _, m in pieces)
    for comp, _ in pieces:
        assert variety_contained_in(comp.ideal, target)
    # the components exhaust the polar cycle: total slice degree 2 = deg of target
    assert classical_polar_mu(f, parse_polynomial("t", ctx), amb) == 2
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, started, "Gamma^1_{f,t} and (Gamma . V(t))_0 = 2")


def test_criterion_2_relative_conormal_cycle(sc_xyt):
    from gecc_kit.conormal import relative_conormal_cycle

    started = time.monotonic()
    cyc = relative_conormal_cycle(sc_xyt, P("x", sc_xyt))
    terms = cyc.degree(0).terms
    assert len(terms) == 3
    ctx = sc_xyt.tstar_ambient().context()
    paper_ideal = Ideal(
        ctx,
        [
            parse_polynomial(s, ctx)
            for s in ("y^2-x^3-t^2*x^2", "y*w2+t*x^2*w1", "(x+t^2)*w2+y*t*w1")
        ],
    )
    s2_component = None
    for comp, m in terms.items():
        assert m == Z(1)
        if variety_contained_in(comp.ideal, paper_ideal) and variety_contained_in(
            paper_ideal, comp.ideal
        ):
            s2_component = comp
    assert s2_component is not None, "S2 component matches the printed ideal"
    assert tcomp(sc_xyt, "y", "w2") in terms
    assert tcomp(sc_xyt, "x+t^2", "y") in terms
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, started, "three-term relative conormal cycle, S2 ideal exact")


def test_criterion_3_polar_curve(sc_xyt):
    started = time.monotonic()
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    curve = ucomp(sc_xyt, "x+t^2", "y")
    assert rep.polar.degree(0).terms == {curve: Z(2)}
    # intermediate identity: E . V(w0, w1, w2-1) = V(x+t^2, y, w0, w1, w2-1)
    ctx = sc_xyt.tstar_ambient().context()
    amb_t = sc_xyt.tstar_ambient()
    E_full = Ideal(
        ctx,
        [
            parse_polynomial(s, ctx)
            for s in ("y^2-x^3-t^2*x^2", "y*w2+t*x^2*w1", "(x+t^2)*w2+y*t*w1")
        ],
    )
    E = component_from_prime(saturate_element(E_full, parse_polynomial("y", ctx)), amb_t)
    chain = ci_intersect(
        GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {E: Z(1)})),
        [parse_polynomial(s, ctx) for s in ("w0", "w1", "w2-1")],
    )
    assert chain.degree(0).terms == {tcomp(sc_xyt, "x+t^2", "y", "w0", "w1", "w2-1"): Z(1)}
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(3, started, "(Gamma^1_{x,t})^0 = Z^2[V(x+t^2, y)]")


def test_criterion_4_nearby_cycles(sc_xyt):
    started = time.monotonic()
    psi = nearby_gecc(sc_xyt, P("x", sc_xyt))
    assert psi.degree(0).terms == {
        tcomp(sc_xyt, "x", "y", "w2"): Z(3),
        tcomp(sc_xyt, "x", "y", "t"): Z(4),
    }
    # E . V(x) sub-cycle
    ctx = sc_xyt.tstar_ambient().context()
    amb_t = sc_xyt.tstar_ambient()
    E_full = Ideal(
        ctx,
        [
            parse_polynomial(s, ctx)
            for s in ("y^2-x^3-t^2*x^2", "y*w2+t*x^2*w1", "(x+t^2)*w2+y*t*w1")
        ],
    )
    E = component_from_prime(saturate_element(E_full, parse_polynomial("y", ctx)), amb_t)
    sub = divisor_intersect(
        GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {E: Z(1)})),
        parse_polynomial("x", ctx),
    )
    assert sub.degree(0).terms == {
        tcomp(sc_xyt, "x", "y", "t"): Z(2),
        tcomp(sc_xyt, "x", "y", "w2"): Z(2),
    }
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(4, started, "gecc^0(nearby) = Z^3[V(x,y,w2)] + Z^4[V(x,y,t)]")


def test_criterion_5_vanishing_pipeline(sc_txy):
    started = time.monotonic()
    rep = vanishing_pipeline(sc_txy, P("x", sc_txy), route="pidelta")
    assert rep.isolating["pass"] and rep.isolating["per_j"] == {0: True}
    trace = rep.trace
    assert trace.pi(0, 2).terms == {
        tcomp(sc_txy, "y", "t^2+x", "2*t*w1-w0", "w2"): Z(2),
        tcomp(sc_txy, "x", "y", "w0", "w2"): Z(2),
        tcomp(sc_txy, "t", "x", "y", "w2"): Z(2),
    }
    assert trace.delta(0, 1).terms == {
        tcomp(sc_txy, "x", "y", "w0", "w1-1", "w2"): Z(2)
    }
    assert trace.delta(0, 0).terms == {
        tcomp(sc_txy, "t", "x", "y", "w0", "w1-1", "w2"): Z(4)
    }
    assert rep.lambdas.get(0, 1).terms == {ucomp(sc_txy, "x", "y"): Z(2)}
    assert rep.lambdas.get(0, 0).terms == {ucomp(sc_txy, "t", "x", "y"): Z(4)}
    assert rep.gecc_phi.degree(0).terms == {
        tcomp(sc_txy, "x", "y", "w0"): Z(2),
        tcomp(sc_txy, "t", "x", "y"): Z(4),
    }
    assert rep.cc_phi.terms == {
        tcomp(sc_txy, "x", "y", "w0"): 2,
        tcomp(sc_txy, "t", "x", "y"): 4,
    }
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(5, started, "Pi/Delta trace, Lambda cycles, gecc(phi), CC(phi)")


def test_criterion_6_vanishing_morse(sc_xyt):
    started = time.monotonic()
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    morse = vanishing_morse_at_origin(
        rep, P("x", sc_xyt), P("t", sc_xyt), {0: Z(2)}
    )
    assert morse.table == {0: Z(4)}
    assert morse.diagnostics["alpha"] == {"S1": 0, "S2": 2, "S4": 2}
    assert morse.diagnostics["beta"] == {"S1": 0, "S2": 1, "S4": 1}
    assert morse.exponents == {"S1": 0, "S2": 1, "S4": 1}
    assert morse.diagnostics["genericity"]["componentwise_f_geq_l"] is True
    # agreement with criterion 5's T*_0 coefficient (Z^4)
    report(6, started, "m^0_0(phi) = Z^4 with alpha=2, beta=1, delta=1")


CURVE_CASES = [
    ("cusp-line", "curve_cusp_line", {"cusp": (2, False, 3), "line": (1, True, 0)}),
    (
        "tangent-triple",
        "curve_tangent_triple",
        {"b0": (1, True, 0), "b1": (1, False, 2), "b2": (1, False, 2)},
    ),
]


@pytest.mark.parametrize("label,fixture,expected", CURVE_CASES)
def test_criterion_7_curve_oracle(label, fixture, expected, request):
    started = time.monotonic()
    SC = request.getfixturevalue(fixture)
    ctx = SC.ambient.context()
    f = parse_polynomial("y", ctx)
    L = parse_polynomial("x", ctx)
    measured = analyze_curve_branches(SC, f, L)
    assert {b.name: (b.mult, b.in_vf, b.eta) for b in measured} == expected
    oracle = curve_gecc_oracle(measured)
    # engine routes for the nearby and vanishing complexes
    rep = polar_curve(SC, f, L)
    near = nearby_morse_at_origin(rep, f)
    assert near.table.get(0, ModClass.zero()) == oracle["point"]["P"]
    van = vanishing_morse_at_origin(rep, f, L, {0: oracle["point"]["A"]})
    assert van.table.get(0, ModClass.zero()) == oracle["point"]["Q"]
    shr = shriek_morse_at_origin(rep, L)
    # B-complex point coefficient: Z^m = off-V(f) strata pass-through + beta sum
    m_off = sum(b.mult for b in measured if not b.in_vf)
    assert sum(shr.exponents.values()) == m_off
    psi = nearby_gecc(SC, f)
    amb_t = SC.tstar_ambient()
    origin_conormal = conormal_variety(SC.stratum("origin"), amb_t)
    assert psi.degree(0).terms.get(origin_conormal) == oracle["point"]["P"]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(7, started, f"curve {label}: A,B,I,P,Q coefficients match the oracle")


def test_criterion_8_cc_identities():
    started = time.monotonic()
    from gecc_kit.conormal import StratifiedComplex

    amb = AmbientSpace("U", 2, ("x", "y", "z"))
    SC = StratifiedComplex(
        amb,
        [
            make_stratum(amb, "S2", ["z"], 2, {0: Z(1)}),
            make_stratum(amb, "S1", ["x", "y"], 1, {0: Z(1)}),
            make_stratum(amb, "S0", ["x", "y", "z"], 0, {0: Z(1)}),
        ],
    )
    tables = {
        "A": {"S2": {0: Z(1)}, "S1": {-1: Z(1)}, "S0": {-1: Z(1)}},
        "B": {"S2": {0: Z(1)}, "S1": {-1: Z(1)}, "S0": {-1: Z(2)}},
        "C": {"S2": {0: Z(1)}, "S1": {-1: Z(1)}, "S0": {-1: Z(1), 1: Z(1)}},
        "JSTAR": {"S0": {-2: Z(1)}},
    }
    cc = {name: cc_of_tables(SC, tbl) for name, tbl in tables.items()}
    # triangle B -> A -> j_* j^* A
    assert check_triangle("triangle", cc["B"], cc["A"], cc["JSTAR"]).passed
    # CC(j_* j^*) = CC(F) - CC(i_! i^!) and CC(B) = CC(C)
    assert check_complement_restriction(cc["A"], cc["B"], cc["JSTAR"]).passed
    assert cc["B"] == cc["C"]
    # second triangle: j_! j^! A -> A -> C with CC(j_! j^!) = CC(JSTAR)
    assert check_triangle("triangle-2", cc["JSTAR"], cc["A"], cc["C"]).passed
    report(8, started, "Prop 2.4(3) triangles and Prop 6.6 on the two-axis example")


def test_criterion_9_property_suites():
    started = time.monotonic()
    assert test_properties.groebner_selfcheck_suite() == 0
    assert test_properties.saturation_idempotence_suite() == 0
    assert test_properties.projection_formula_suite() == 0
    assert test_properties.modclass_laws_suite() == 0
    assert test_properties.conormal_homogeneity_suite() == 0
    assert test_properties.gap_partition_suite() == 0
    assert test_properties.ordinary_additivity_suite() == 0
    report(9, started, "seven randomized suites, >= 200 cases each, zero failures")


def test_criterion_10_two_route_oracle(sc_txy):
    started = time.monotonic()
    rep = vanishing_pipeline(sc_txy, P("x", sc_txy), route="both")
    assert rep.agreement is True
    vp = rep.blowup.vanishing_part(P("x", sc_txy))
    assert vp == projectivize(rep.gecc_phi)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(10, started, "tau_*(Ex) agrees with P(gecc(phi))")
