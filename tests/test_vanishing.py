"""Vanishing-cycle engine: isolating coordinates, Pi/Delta trace,
characteristic polar cycles, reconstruction, blow-up cross-check."""

import pytest

from gecc_kit.conormal import Stratum, StratifiedComplex, conormal_variety, gecc_assemble
from gecc_kit.cycles import (
    AmbientSpace,
    EnrichedCycle,
    GradedEnrichedCycle,
    to_ordinary,
)
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import parse_polynomial
from gecc_kit.vanishing import (
    NonConicCycle,
    _polar_slice,
    blowup_exceptional,
    isolating_check,
    lambda_cycles,
    microsupport_phi_bound,
    phi_support_dimension,
    pi_delta,
    projectivize,
    reconstruct_gecc,
    vanishing_pipeline,
)
from tests.conftest import P, component, make_stratum, tcomp, ucomp

Z = ModClass.free


def pcomp(sc, *gens):
    return component(sc.ambient.with_kind("UxP"), *gens)


# -- microsupport bound


def test_microsupport_bound_running_example(sc_txy):
    bound = microsupport_phi_bound(sc_txy, P("x", sc_txy))
    expected = {tcomp(sc_txy, "x", "y", "w0"), tcomp(sc_txy, "t", "x", "y")}
    assert set(bound.lower[0]) == expected
    assert set(bound.upper[0]) == expected  # the sandwich collapses here
    assert phi_support_dimension(sc_txy, P("x", sc_txy)) == 1


def test_microsupport_bound_f_off_strata():
    amb = AmbientSpace("U", 2, ("t", "x", "y"))
    SC = StratifiedComplex(amb, [make_stratum(amb, "M", ["y"], 2, {0: Z(1)})])
    ctx = amb.context()
    bound = microsupport_phi_bound(SC, parse_polynomial("x", ctx))
    assert bound.lower == {}


# -- isolating coordinates


def test_isolating_check_good_order(sc_txy):
    bound = microsupport_phi_bound(sc_txy, P("x", sc_txy))
    iso = isolating_check(sc_txy, P("x", sc_txy), bound.upper_components())
    assert iso["s"] == 1
    assert iso["per_j"] == {0: True}
    assert iso["pass"]


def test_isolating_check_bad_order(sc_xyt):
    bound = microsupport_phi_bound(sc_xyt, P("x", sc_xyt))
    iso = isolating_check(sc_xyt, P("x", sc_xyt), bound.upper_components())
    assert iso["per_j"] == {0: False}
    assert not iso["pass"]


def test_isolating_check_vacuous_for_point_support():
    # f with an isolated critical point: s = 0, nothing to check
    amb = AmbientSpace("U", 2, ("t", "x", "y"))
    SC = StratifiedComplex(amb, [make_stratum(amb, "M", [], 3, {0: Z(1)})])
    ctx = amb.context()
    f = parse_polynomial("t^2+x^2+y^2", ctx)
    bound = microsupport_phi_bound(SC, f)
    iso = isolating_check(SC, f, bound.upper_components())
    assert iso["s"] == 0
    assert iso["per_j"] == {} and iso["pass"]


def test_isolating_check_smooth_function_vacuous():
    amb = AmbientSpace("U", 2, ("t", "x", "y"))
    SC = StratifiedComplex(amb, [make_stratum(amb, "M", [], 3, {0: Z(1)})])
    ctx = amb.context()
    f = parse_polynomial("t", ctx)
    bound = microsupport_phi_bound(SC, f)
    iso = isolating_check(SC, f, bound.upper_components())
    assert iso["s"] == -1 and iso["pass"]


# -- Pi/Delta trace (the worked vanishing-cycle iteration)


@pytest.fixture(scope="module")
def trace_txy(sc_txy):
    gecc_F = gecc_assemble(sc_txy)
    return pi_delta(gecc_F, parse_polynomial("x", sc_txy.ambient.context()))


def test_pi_delta_step_two(sc_txy, trace_txy):
    pi2 = trace_txy.pi(0, 2)
    expected = {
        tcomp(sc_txy, "y", "t^2+x", "2*t*w1-w0", "w2"): Z(2),
        tcomp(sc_txy, "x", "y", "w0", "w2"): Z(2),
        tcomp(sc_txy, "t", "x", "y", "w2"): Z(2),
    }
    assert pi2.terms == expected
    assert not trace_txy.delta(0, 2)


def test_pi_delta_step_one(sc_txy, trace_txy):
    delta1 = trace_txy.delta(0, 1)
    assert delta1.terms == {tcomp(sc_txy, "x", "y", "w0", "w1-1", "w2"): Z(2)}
    pi1 = trace_txy.pi(0, 1)
    expected = {
        tcomp(sc_txy, "y", "t^2+x", "2*t-w0", "w1-1", "w2"): Z(2),
        tcomp(sc_txy, "t", "x", "y", "w1-1", "w2"): Z(2),
    }
    assert pi1.terms == expected


def test_pi_delta_step_zero(sc_txy, trace_txy):
    delta0 = trace_txy.delta(0, 0)
    assert delta0.terms == {tcomp(sc_txy, "t", "x", "y", "w0", "w1-1", "w2"): Z(4)}
    assert not trace_txy.pi(0, 0)


def test_pi_delta_trace_identity(sc_txy, trace_txy):
    # every step: total intersection = pi + delta + discarded, exactly
    for step in trace_txy.by_degree[0]:
        recombined = step.pi.plus(step.delta).plus(step.discarded)
        assert recombined == step.total


def test_lambda_cycles_running_example(sc_txy, trace_txy):
    lam = lambda_cycles(trace_txy)
    assert lam.get(0, 1).terms == {ucomp(sc_txy, "x", "y"): Z(2)}
    assert lam.get(0, 0).terms == {ucomp(sc_txy, "t", "x", "y"): Z(4)}
    assert lam.dims(0) == [1, 0]


# -- projectivization


def test_projectivize_conormal(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    c = tcomp(sc_txy, "x", "y", "w0")
    cyc = GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {c: Z(2)}))
    proj = projectivize(cyc)
    assert proj.degree(0).terms == {pcomp(sc_txy, "x", "y", "u0"): Z(2)}


def test_projectivize_point_conormal(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    c = tcomp(sc_txy, "t", "x", "y")
    proj = projectivize(GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {c: Z(3)})))
    assert proj.degree(0).terms == {pcomp(sc_txy, "t", "x", "y"): Z(3)}


def test_projectivize_drops_zero_section(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    c = tcomp(sc_txy, "w0", "w1", "w2")
    proj = projectivize(GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {c: Z(1)})))
    assert not proj


def test_projectivize_rejects_graph(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    c = tcomp(sc_txy, "w0", "w1-1", "w2")
    with pytest.raises(NonConicCycle):
        projectivize(GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {c: Z(1)})))


# -- characteristic polar cycles


def test_char_polar_cycles_line_conormal(sc_txy):
    proj = projectivize(
        GradedEnrichedCycle.single(
            0, EnrichedCycle(sc_txy.tstar_ambient(), {tcomp(sc_txy, "x", "y", "w0"): Z(2)})
        )
    )
    assert _polar_slice(proj.degree(0), 1).terms == {ucomp(sc_txy, "x", "y"): Z(2)}
    # j = 0: the slice excludes [1:0:0], which the u0 = 0 plane misses
    assert not _polar_slice(proj.degree(0), 0)


def test_char_polar_cycles_point_conormal(sc_txy):
    proj = projectivize(
        GradedEnrichedCycle.single(
            0, EnrichedCycle(sc_txy.tstar_ambient(), {tcomp(sc_txy, "t", "x", "y"): Z(4)})
        )
    )
    assert _polar_slice(proj.degree(0), 0).terms == {ucomp(sc_txy, "t", "x", "y"): Z(4)}


# -- reconstruction


def test_reconstruct_running_example(sc_txy, trace_txy):
    lam = lambda_cycles(trace_txy)
    gecc_phi = reconstruct_gecc(lam)
    expected = {
        tcomp(sc_txy, "x", "y", "w0"): Z(2),
        tcomp(sc_txy, "t", "x", "y"): Z(4),
    }
    assert gecc_phi.degree(0).terms == expected
    cc = to_ordinary(gecc_phi)
    assert cc.terms == {
        tcomp(sc_txy, "x", "y", "w0"): 2,
        tcomp(sc_txy, "t", "x", "y"): 4,
    }


def test_reconstruct_point_supported(sc_txy):
    from gecc_kit.vanishing import CharPolarCycles

    lam = CharPolarCycles(
        sc_txy.ambient, {(0, 0): EnrichedCycle(sc_txy.ambient, {ucomp(sc_txy, "t", "x", "y"): Z(5)})}
    )
    rebuilt = reconstruct_gecc(lam)
    assert rebuilt.degree(0).terms == {tcomp(sc_txy, "t", "x", "y"): Z(5)}


def test_reconstruct_subtracts_the_higher_correction():
    # A1 singularities along W = V(y, t - x^2): Lambda^1 = [W], and the
    # slice of P(T*_W) at level 0 accounts for all of Lambda^0, so the
    # downward induction must subtract it and leave CC = [T*_W].
    amb = AmbientSpace("U", 2, ("t", "x", "y"))
    SC = StratifiedComplex(amb, [make_stratum(amb, "U", [], 3, {0: Z(1)})])
    rep = vanishing_pipeline(SC, P("y^2+(t-x^2)^2", SC), route="both")
    W = ucomp(SC, "y", "x^2-t")
    assert rep.lambdas.get(0, 1).terms == {W: Z(1)}
    assert rep.lambdas.get(0, 0).terms == {ucomp(SC, "t", "x", "y"): Z(1)}
    conormal_w = tcomp(SC, "y", "x*w0 + 1/2*w1", "t*w0 + 1/2*x*w1", "x^2 - t")
    assert conormal_w == conormal_variety(Stratum("W", W.ideal, 1), SC.tstar_ambient())
    assert rep.gecc_phi.degree(0).terms == {conormal_w: Z(1)}
    assert rep.cc_phi.terms == {conormal_w: 1}
    assert rep.agreement is True


# -- blow-up route


def test_blowup_disjoint_component(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    cyc = GradedEnrichedCycle.single(
        0, EnrichedCycle(amb_t, {tcomp(sc_txy, "y", "w0", "w1"): Z(1)})
    )
    result = blowup_exceptional(cyc, P("x", sc_txy))
    assert result.per_component[0].status == "disjoint"
    assert not result.exceptional


def test_blowup_center_component_rejected(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    graph = tcomp(sc_txy, "w0", "w1-1", "w2")
    cyc = GradedEnrichedCycle.single(0, EnrichedCycle(amb_t, {graph: Z(1)}))
    result = blowup_exceptional(cyc, P("x", sc_txy))
    assert result.per_component[0].status == "inside-center"
    assert not result.exceptional


def test_blowup_point_conormal(sc_txy):
    amb_t = sc_txy.tstar_ambient()
    cyc = GradedEnrichedCycle.single(
        0, EnrichedCycle(amb_t, {tcomp(sc_txy, "t", "x", "y"): Z(2)})
    )
    result = blowup_exceptional(cyc, P("x", sc_txy))
    push = result.pushforward.degree(0)
    assert push.terms == {pcomp(sc_txy, "t", "x", "y"): Z(2)}


def test_two_route_agreement(sc_txy):
    rep = vanishing_pipeline(sc_txy, P("x", sc_txy), route="both")
    assert rep.agreement is True
    vp = rep.blowup.vanishing_part(P("x", sc_txy))
    assert vp == projectivize(rep.gecc_phi)
    assert vp.degree(0).terms == {
        pcomp(sc_txy, "x", "y", "u0"): Z(2),
        pcomp(sc_txy, "t", "x", "y"): Z(4),
    }


@pytest.mark.parametrize("route", ["blowup", "foo"])
def test_pipeline_refuses_an_unknown_route(sc_txy, route):
    with pytest.raises(ValueError, match="route"):
        vanishing_pipeline(sc_txy, P("x", sc_txy), route=route)


def test_pipeline_report_json(sc_txy):
    rep = vanishing_pipeline(sc_txy, P("x", sc_txy))
    data = rep.to_json()
    assert data["isolating"]["pass"] is True
    assert data["cc_phi"] == [
        {"ideal": ["t", "x", "y"], "multiplicity": 4},
        {"ideal": ["w0", "x", "y"], "multiplicity": 2},
    ]
