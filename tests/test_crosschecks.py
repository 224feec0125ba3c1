"""Cross-route consistency checks tying separate theorems together."""

from gecc_kit.conormal import gecc_assemble
from gecc_kit.cycles import (
    AmbientSpace,
    EnrichedCycle,
    GradedEnrichedCycle,
    component_from_prime,
    divisor_intersect,
)
from gecc_kit.hypersurface import (
    check_polar_genericity,
    nearby_gecc,
    nearby_morse_at_origin,
    polar_curve,
    vanishing_morse_at_origin,
)
from gecc_kit.ideal import Ideal, dimension_and_degree, local_degree
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import parse_polynomial
from gecc_kit.vanishing import lambda_cycles, pi_delta, reconstruct_gecc
from tests.conftest import P

Z = ModClass.free


def test_rank_consistency_nearby_routes(sc_xyt):
    """Thm 5.1 vs Thm 5.2: the point coefficient of the nearby gecc equals
    the Morse module computed from the polar curve."""
    psi = nearby_gecc(sc_xyt, P("x", sc_xyt))
    amb_t = sc_xyt.tstar_ambient()
    ctx = amb_t.context()
    point_conormal = component_from_prime(
        Ideal(ctx, [parse_polynomial(g, ctx) for g in ("x", "y", "t")]), amb_t
    )
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    morse = nearby_morse_at_origin(rep, P("x", sc_xyt))
    assert psi.degree(0).terms[point_conormal].rank == morse.table[0].rank


def test_morse_cross_check_vanishing(sc_txy, sc_xyt):
    """Thm 7.2 vs the reconstruction: the point coefficient of gecc(phi)
    equals the vanishing Morse module at the origin."""
    gecc_F = gecc_assemble(sc_txy)
    trace = pi_delta(gecc_F, P("x", sc_txy))
    phi = reconstruct_gecc(lambda_cycles(trace))
    amb_t = sc_txy.tstar_ambient()
    ctx = amb_t.context()
    point_conormal = component_from_prime(
        Ideal(ctx, [parse_polynomial(g, ctx) for g in ("t", "x", "y")]), amb_t
    )
    rep = polar_curve(sc_xyt, P("x", sc_xyt), P("t", sc_xyt))
    morse = vanishing_morse_at_origin(rep, P("x", sc_xyt), P("t", sc_xyt), {0: Z(2)})
    assert phi.degree(0).terms[point_conormal] == morse.table[0]


def test_lambda_slice_oracle(sc_txy):
    """Slicing Lambda^j by j generic hyperplanes at the origin reproduces
    the iterated point ranks (2 for Lambda^1, 4 for Lambda^0)."""
    gecc_F = gecc_assemble(sc_txy)
    trace = pi_delta(gecc_F, P("x", sc_txy))
    lam = lambda_cycles(trace)
    ctx = sc_txy.ambient.context()
    lam1 = lam.get(0, 1)
    sliced = divisor_intersect(
        GradedEnrichedCycle.single(0, lam1), parse_polynomial("t", ctx)
    )
    total = sum(
        m.rank * local_degree(c.ideal)
        for c, m in sliced.degree(0).terms.items()
    )
    assert total == 2
    lam0 = lam.get(0, 0)
    total0 = sum(
        m.rank * local_degree(c.ideal) for c, m in lam0.terms.items()
    )
    assert total0 == 4


def test_prop_6_4_equivalence(sc_xyt):
    """When the covector condition holds, the V(L) and V(f) dimension
    diagnostics agree; checked for several linear forms."""
    from gecc_kit.conormal import conormal_variety

    f = P("x", sc_xyt)
    amb_t = sc_xyt.tstar_ambient()
    bound_off_vf = [
        conormal_variety(sc_xyt.stratum(s), amb_t) for s in ("S1", "S2", "S4")
    ]
    for L_text in ("t", "t+y", "t-2*y", "y+3*t"):
        L = P(L_text, sc_xyt)
        rep = polar_curve(sc_xyt, f, L)
        gen = check_polar_genericity(rep, f, L, bound_off_vf)
        if gen.covector:
            assert gen.dim_vl == gen.dim_vf


def test_divisor_bilinearity(sc_xyt):
    """The hypersurface product is additive over cycle sums and commutes
    with scalar multiplication."""
    amb_t = sc_xyt.tstar_ambient()
    ctx = amb_t.context()

    def comp(*gens):
        return component_from_prime(
            Ideal(ctx, [parse_polynomial(g, ctx) for g in gens]), amb_t
        )

    D = EnrichedCycle(amb_t, {comp("x+t^2", "y"): Z(1)})
    E = EnrichedCycle(amb_t, {comp("x", "y"): ModClass(1, (2,))})
    g = parse_polynomial("t", ctx)
    lhs = divisor_intersect(D.plus(E), g)
    rhs = divisor_intersect(D, g).plus(divisor_intersect(E, g))
    assert lhs == rhs
    q = ModClass(2, (3,))
    assert divisor_intersect(D.scale(q), g) == divisor_intersect(D, g).scale(q)


def test_bezout_degree_spot_check():
    """Homogeneous instance: a quadric cone cut by a generic plane has
    total multiplicity-weighted degree 2 = deg(V) * deg(g)."""
    amb = AmbientSpace("U", 2, ("x", "y", "z"))
    ctx = amb.context()
    cone = component_from_prime(Ideal(ctx, [parse_polynomial("x^2-y*z", ctx)]), amb)
    cyc = GradedEnrichedCycle.single(0, EnrichedCycle(amb, {cone: Z(1)}))
    cut = divisor_intersect(cyc, parse_polynomial("x+2*y+5*z", ctx))
    total = 0
    for compnt, m in cut.degree(0).terms.items():
        dim, degree = dimension_and_degree(compnt.ideal)
        assert dim == compnt.dim == 1
        total += m.rank * degree
    assert total == 2


def test_perversity_preservation(sc_xyt):
    """Degree-0 inputs give degree-0 nearby output."""
    psi = nearby_gecc(sc_xyt, P("x", sc_xyt))
    assert list(psi.degrees) == [0]
