"""Cycle calculus: sums, scalars, divisor intersections, gap removal,
pushforward, ordinary cycles."""

import pytest

from gecc_kit.cycles import (
    _field_degree,
    AmbientSpace,
    EnrichedCycle,
    GenericInjectivityFailure,
    GradedEnrichedCycle,
    ImproperIntersection,
    ci_intersect,
    component_from_prime,
    divisor_intersect,
    gap_remove,
    intersection_multiplicity,
    proper_pushforward,
    pushforward_with_degree,
    to_ordinary,
)
from gecc_kit import cycles as cycles_module
from gecc_kit.ideal import CertificationFailure, EngineLimits, Ideal, engine_limits
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import base_context, parse_polynomial
from gecc_kit.vanishing import projectivize

AMB_T = AmbientSpace("TstarU", 2, ("x", "y", "t"))
AMB_U = AmbientSpace("U", 2, ("x", "y", "t"))
CTX = AMB_T.context()
Z = ModClass.free


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


def comp(*gens, amb=AMB_T):
    ctx = amb.context()
    return component_from_prime(Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), amb)


def enriched(component, m):
    return EnrichedCycle(component.ambient, {component: m})


def single(component, m, degree=0):
    return GradedEnrichedCycle.single(degree, enriched(component, m))


E_GENS = ("y^2-x^3-t^2*x^2", "y*w2+t*x^2*w1", "(x+t^2)*w2+y*t*w1")


def E_component():
    from gecc_kit.ideal import saturate_element

    full = Ideal(CTX, [P(g) for g in E_GENS])
    sat = saturate_element(full, P("y"))
    return component_from_prime(sat, AMB_T)


def test_cycle_add_identity():
    D = enriched(comp("x", "y", "t"), Z(2))
    assert D.plus(EnrichedCycle(AMB_T)) == D


def test_cycle_add_merges_coefficients():
    c = comp("x", "y", "t")
    total = enriched(c, Z(2)).plus(enriched(c, Z(2)))
    assert total.terms[c] == Z(4)
    c2 = comp("x", "y", "w2")
    total2 = enriched(c2, Z(1)).plus(enriched(c2, Z(2)))
    assert total2.terms[c2] == Z(3)


def test_scalar_multiply():
    c = comp("x+t^2", "y")
    E = enriched(c, Z(1))
    assert E.scale(Z(1)) == E
    assert E.scale(Z(2)).terms[c] == Z(2)
    twisted = enriched(c, Z(2)).scale(ModClass.cyclic(2))
    assert twisted.terms[c] == ModClass(0, (2, 2))


def test_divisor_intersect_paper_e_component():
    # E . V(x) = 2[V(x,y,t)] + 2[V(x,y,w2)]
    E = single(E_component(), Z(1))
    result = divisor_intersect(E, P("x"))
    expected = {comp("x", "y", "t"): Z(2), comp("x", "y", "w2"): Z(2)}
    assert result.degree(0).terms == expected


def test_divisor_intersect_parametrization_oracles():
    # frozen via the parametrization (x,y,t) = (-s^2, 0, s):
    # order of vanishing of t is 1, of x is 2
    c = comp("x+t^2", "y")
    assert divisor_intersect(single(c, Z(1)), P("t")).degree(0).terms == {
        comp("x", "y", "t"): Z(1)
    }
    assert divisor_intersect(single(c, Z(1)), P("x")).degree(0).terms == {
        comp("x", "y", "t"): Z(2)
    }


AMB_PLANE = AmbientSpace("U", 1, ("x", "y"))
AMB_PLANE_TAGS = AmbientSpace("UxP", 1, ("x", "y"))


def plane_ideal(*gens, amb=AMB_PLANE):
    ctx = amb.context()
    return Ideal(ctx, [parse_polynomial(g, ctx) for g in gens])


def test_intersection_multiplicity_tangency():
    J = plane_ideal("y-x^2", "y")
    assert intersection_multiplicity(J, comp("x", "y", amb=AMB_PLANE), []) == 2


def test_intersection_multiplicity_separates_siblings():
    J = plane_ideal("y", "x^2*(x-1)")
    origin = comp("x", "y", amb=AMB_PLANE)
    other = comp("x-1", "y", amb=AMB_PLANE)
    assert intersection_multiplicity(J, origin, [other]) == 2
    assert intersection_multiplicity(J, other, [origin]) == 1


def test_intersection_multiplicity_tag_ambient():
    # (x^2, y) meet (u0, u1): the irrelevant component V(u0, u1) has the same
    # affine dimension as the piece and is not among the siblings
    J = plane_ideal("x^2*u0", "x^2*u1", "y*u0", "y*u1", amb=AMB_PLANE_TAGS)
    assert intersection_multiplicity(J, comp("x", "y", amb=AMB_PLANE_TAGS), []) == 2


def test_intersection_multiplicity_refuses_to_guess():
    # a sibling left out keeps a second top-dimensional component: degree 3
    # over a piece of degree 2
    J = plane_ideal("y", "x^3-2*x")
    with pytest.raises(CertificationFailure):
        intersection_multiplicity(J, comp("y", "x^2-2", amb=AMB_PLANE), [])


def test_divisor_intersect_improper():
    c = comp("x+t^2", "y")
    with pytest.raises(ImproperIntersection):
        divisor_intersect(single(c, Z(1)), P("y"))


def test_ci_intersect_empty_list():
    E = single(comp("x+t^2", "y"), Z(1))
    assert ci_intersect(E, []) == E


def test_ci_intersect_graph_chain():
    # E . V(w0, w1, w2-1) = [V(x+t^2, y, w0, w1, w2-1)]
    E = single(E_component(), Z(1))
    result = ci_intersect(E, [P("w0"), P("w1"), P("w2-1")])
    assert result.degree(0).terms == {
        comp("x+t^2", "y", "w0", "w1", "w2-1"): Z(1)
    }


def test_ci_intersect_whole_graph():
    c = comp("x+t^2", "y")
    result = ci_intersect(single(c, Z(1)), [P("w0"), P("w1"), P("w2-1")])
    assert result.degree(0).terms == {
        comp("x+t^2", "y", "w0", "w1", "w2-1"): Z(1)
    }


def test_gap_remove_split():
    cyc = GradedEnrichedCycle.single(0, EnrichedCycle(AMB_T, {
        comp("x", "y", "w0", "w1-1", "w2"): Z(2),
        comp("y", "t^2+x", "2*t*w1-w0", "w2"): Z(2),
    }))
    graph = Ideal(CTX, [P("w0"), P("w1-1"), P("w2")])
    inside, outside = gap_remove(cyc, graph)
    assert list(inside.degree(0).terms) == [comp("x", "y", "w0", "w1-1", "w2")]
    assert list(outside.degree(0).terms) == [comp("y", "t^2+x", "2*t*w1-w0", "w2")]
    # exact partition
    assert inside.degree(0).plus(outside.degree(0)) == cyc.degree(0)
    # split by the zero ideal: everything inside
    allin, allout = gap_remove(cyc, Ideal(CTX, []))
    assert allin == cyc and not allout


def test_proper_pushforward_examples():
    big = single(comp("t", "x", "y", "w0", "w1-1", "w2"), Z(4))
    image = proper_pushforward(big, AMB_U)
    assert image.degree(0).terms == {comp("t", "x", "y", amb=AMB_U): Z(4)}
    small = single(comp("x", "y", "w0", "w1-1", "w2"), Z(2))
    image2 = proper_pushforward(small, AMB_U)
    assert image2.degree(0).terms == {comp("x", "y", amb=AMB_U): Z(2)}
    assert proper_pushforward(GradedEnrichedCycle.zero(AMB_T), AMB_U) == \
        GradedEnrichedCycle.zero(AMB_U)


def test_proper_pushforward_rejects_collapse():
    # fibers of V(y) over U are the whole cotangent plane
    with pytest.raises(GenericInjectivityFailure):
        proper_pushforward(single(comp("y"), Z(1)), AMB_U)


def test_proper_pushforward_rejects_degree_two():
    amb1 = AmbientSpace("TstarU", 0, ("x",))
    ctx1 = amb1.context()
    c = component_from_prime(Ideal(ctx1, [parse_polynomial("x-w0^2", ctx1)]), amb1)
    with pytest.raises(GenericInjectivityFailure):
        proper_pushforward(
            GradedEnrichedCycle.single(0, EnrichedCycle(amb1, {c: Z(1)})),
            AmbientSpace("U", 0, ("x",)),
        )


def conormal_in_two_degrees():
    """The conormal of the t-axis: Z in degree 0, Z + Z/2 in degree 1."""
    N = comp("x", "y", "w2")
    return N, GradedEnrichedCycle(AMB_T, {
        0: EnrichedCycle(AMB_T, {N: Z(1)}),
        1: EnrichedCycle(AMB_T, {N: ModClass(1, (2,))}),
    })


def test_operations_act_degree_by_degree():
    N, G = conormal_in_two_degrees()
    doubled = divisor_intersect(G, P("w1^2"))  # length 2 along V(x, y, w2, w1)
    assert doubled.degree(1).terms == {comp("x", "y", "w2", "w1"): ModClass(2, (2, 2))}
    graph = ci_intersect(G, [P("w0"), P("w1-1")])  # one-to-one onto the t-axis
    for H, op in [
        (G, lambda E: divisor_intersect(E, P("w1^2"))),
        (graph, lambda E: proper_pushforward(E, AMB_U)),
        (G, projectivize),
    ]:
        assert op(H)
        for k in (0, 1):
            assert op(H).degree(k) == op(H.degree(k))


def test_a_component_is_intersected_and_pushed_once_per_block(monkeypatch):
    N, G = conormal_in_two_degrees()
    calls = []

    def spy_on(name):
        real = getattr(cycles_module, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cycles_module, name, spy)

    spy_on("_intersect_component")
    spy_on("_pushforward_component")
    with engine_limits(EngineLimits()):
        graph = ci_intersect(G, [P("w0"), P("w1-1")])
        assert ci_intersect(G.degree(1), [P("w0"), P("w1-1")]) == graph.degree(1)
        image = proper_pushforward(graph, AMB_U)
        assert proper_pushforward(graph.degree(0), AMB_U) == image.degree(0)
    assert calls == ["_intersect_component"] * 2 + ["_pushforward_component"]
    assert image.degree(1).terms == {comp("x", "y", amb=AMB_U): ModClass(1, (2,))}


# Mapping degrees of projections, including tag ambients. The values agree
# with counting the points of a generic fiber.
@pytest.mark.parametrize("source, gens, target, image, degree", [
    ("TstarU", ["w0^2-x", "w1"], "U", [], 2),
    ("TstarU", ["w0^3-x*w0-y", "w1-1"], "U", [], 3),
    ("UxP", ["u1^3*x-u0^3*y-u0*u1^2*x"], "U", [], 3),
    ("TstarUxP", ["u0", "w0*w1-1", "y-w1^2"], "UxP", ["u0"], 2),
    # a singular image: the cusp
    ("TstarU", ["w1", "w0-1", "x^3-y^2"], "U", ["x^3-y^2"], 1),
])
def test_pushforward_with_degree(source, gens, target, image, degree):
    src, tgt = (AmbientSpace(kind, 1, ("x", "y")) for kind in (source, target))
    pushed = pushforward_with_degree(single(comp(*gens, amb=src), Z(1)), tgt)
    assert pushed.degree(0).terms == {comp(*image, amb=tgt): Z(degree)}


def test_field_degree_of_a_double_cover():
    ctx = base_context(["x", "y"])
    # K(x)[y]/(y^2 - x) has degree 2 over K(x); the unit ideal counts 0
    assert _field_degree(Ideal(ctx, [parse_polynomial("y^2-x", ctx)]), {"x"}) == 2
    assert _field_degree(Ideal(ctx, [ctx.one()]), {"x"}) == 0


def test_to_ordinary_alternating():
    c = comp("x", "y", "t")
    cyc = GradedEnrichedCycle(
        AMB_T,
        {-1: EnrichedCycle(AMB_T, {c: Z(1)}), 0: EnrichedCycle(AMB_T, {c: Z(1)})},
    )
    assert not to_ordinary(cyc)
    shifted = single(c, Z(3)).shift(1)
    assert to_ordinary(shifted).terms == {c: -3}


def test_to_ordinary_additivity():
    c1, c2 = comp("x", "y", "t"), comp("x", "y", "w2")
    D = single(c1, Z(2))
    E = GradedEnrichedCycle.single(0, EnrichedCycle(AMB_T, {c1: Z(1), c2: ModClass(1, (2,))}))
    lhs = to_ordinary(GradedEnrichedCycle.single(0, D.degree(0).plus(E.degree(0))))
    rhs = to_ordinary(D).plus(to_ordinary(E))
    assert lhs == rhs
