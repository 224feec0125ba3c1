"""Vanishing-cycle machinery: isolating coordinates, the Pi/Delta
iteration, characteristic polar cycles, downward reconstruction of the
graded cycle, and the blow-up / exceptional-divisor cross-check.

The iteration cuts the input graded cycle by the graph equations of df
one coordinate at a time, splitting off at each step the part supported
on the graph; pushforwards of those parts determine the vanishing-cycle
gecc by downward induction over dimension. Each candidate of the induction
gets one conormal and one projectivization. Conormals are built once per
command (``conormal``): the bound, the support dimension, the assembled
gecc and a candidate whose closure is a stratum closure share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import modclass as mc
from .cycles import (
    AmbientSpace,
    Component,
    Cycle,
    EnrichedCycle,
    GradedEnrichedCycle,
    ImproperIntersection,
    OrdinaryCycle,
    TSTAR_KIND,
    TSTAR_P_KIND,
    U_KIND,
    U_P_KIND,
    ci_intersect,
    component_from_prime,
    decompose_components,
    divisor_intersect,
    first_chart,
    gap_remove,
    intersection_multiplicity,
    irrelevant_ideal,
    proper_pushforward,
    pushforward_with_degree,
    to_ordinary,
)
from .conormal import (
    StratifiedComplex,
    Stratum,
    conormal_variety,
    gecc_assemble,
    im_d,
)
from .hypersurface import nearby_gecc
from .ideal import (
    Ideal,
    eliminate,
    extend_context,
    lift_ideal,
    prime_contains_all,
    renamed_ideal,
)
from .modclass import ModClass
from .polyring import Polynomial


class InconsistencyError(RuntimeError):
    """Reconstruction arithmetic failed; inputs contradict the theory."""


class NonConicCycle(ValueError):
    """Projectivization requested for a non-homogeneous component."""


class ImproperStep(RuntimeError):
    """A Pi/Delta or slicing step met a non-proper intersection."""


# ---------------------------------------------------------------------------
# Microsupport bound and isolating coordinates


@dataclass
class MicrosupportBound:
    """Per-degree sandwich for the vanishing-cycle microsupport."""

    lower: dict
    upper: dict

    def upper_components(self) -> list:
        out: list = []
        for comps in self.upper.values():
            for c in comps:
                if c not in out:
                    out.append(c)
        return out

    def support_dimension(self) -> int:
        """Dimension of the base projection of the upper bound."""
        best = -1
        for comp in self.upper_components():
            dropped = [v for v in comp.ideal.ctx.variables if v.kind == "cotangent"]
            image = eliminate(comp.ideal, dropped, restrict=True)
            best = max(best, image.dimension())
        return best


def microsupport_phi_bound(
    SC: StratifiedComplex,
    ft: Polynomial,
) -> MicrosupportBound:
    """Lower/upper bounds for |gecc(vanishing cycles)| per degree."""
    ambient_t = SC.tstar_ambient()
    psi = nearby_gecc(SC, ft)
    lower: dict = {}
    upper: dict = {}
    for s in SC.visible_strata():
        if not prime_contains_all(s.closure_ideal, [ft]):
            continue
        comp = conormal_variety(s, ambient_t)
        for k, m in s.morse_items():
            lower.setdefault(k, [])
            if comp not in lower[k]:
                lower[k].append(comp)
    for k in sorted(set(lower) | set(psi.degrees)):
        comps = list(lower.get(k, []))
        for comp in psi.degree(k).support():
            if comp not in comps:
                comps.append(comp)
        if comps:
            upper[k] = comps
    return MicrosupportBound(lower, upper)


def phi_support_dimension(
    SC: StratifiedComplex,
    ft: Polynomial,
) -> int:
    """Upper bound for dim supp of the vanishing cycles: the dimension of
    the base projection of |gecc(F)| meet the graph of df."""
    ambient_t = SC.tstar_ambient()
    graph = im_d(ft, ambient_t)
    wvars = list(ambient_t.cotangent_vars())
    best = -1
    for s in SC.visible_strata():
        comp = conormal_variety(s, ambient_t)
        cut = comp.ideal.with_extra(graph.generators)
        if cut.is_trivial():
            continue
        image = eliminate(cut, wvars, restrict=True)
        best = max(best, image.dimension())
    return best


def isolating_check(
    SC: StratifiedComplex,
    ft: Polynomial,
    ss_bound: Sequence[Component],
) -> dict:
    """Isolating-coordinate diagnostics for the ambient coordinate order.

    For each j below the support dimension, the projectivized bound must
    meet the coordinate plane of the first j+1 cotangent directions
    properly, with the origin isolated in the sliced base image.
    """
    ambient_t = SC.tstar_ambient()
    ambient_u = SC.ambient
    ctx = ambient_t.context()
    uctx = ambient_u.context()
    wvars = list(ambient_t.cotangent_vars())
    zvars = list(ambient_u.base_vars())
    s_dim = phi_support_dimension(SC, ft)
    results: dict = {"s": s_dim, "per_j": {}, "pass": True}
    for j in range(max(s_dim, 0)):
        ok = True
        notes = []
        for comp in ss_bound:
            cut = comp.ideal.with_extra([ctx.gen(w) for w in wvars[j + 1 :]])
            if cut.is_trivial():
                continue
            visible = [ctx.gen(w) for w in wvars[: j + 1]]
            pieces = [
                p
                for p in decompose_components(cut, ambient_t)
                if not prime_contains_all(p.ideal, visible)
            ]
            for p in pieces:
                # proper slice of the projectivized cone: affine dim j+1
                if p.ideal.dimension() != j + 1:
                    ok = False
                    notes.append(f"{p!r}: improper slice at j={j}")
                    continue
                image = eliminate(p.ideal, wvars, restrict=True)
                K = lift_ideal(image, uctx).with_extra([uctx.gen(z) for z in zvars[:j]])
                if K.is_trivial():
                    continue
                if K.dimension() <= 0:
                    continue
                for w in decompose_components(K, ambient_u):
                    through = all(g.constant_term() == 0 for g in w.ideal.generators)
                    if w.dim >= 1 and through:
                        ok = False
                        notes.append(f"{w!r}: positive-dimensional through the origin at j={j}")
        results["per_j"][j] = ok
        if notes:
            results.setdefault("notes", []).extend(notes)
        if not ok:
            results["pass"] = False
    return results


# ---------------------------------------------------------------------------
# Pi/Delta iteration


@dataclass
class PiDeltaStep:
    j: int
    divisor: Polynomial
    total: EnrichedCycle
    pi: EnrichedCycle
    delta: EnrichedCycle
    discarded: EnrichedCycle


@dataclass
class PiDeltaTrace:
    ambient: AmbientSpace
    graph: Ideal
    by_degree: dict

    def delta(self, k: int, j: int) -> EnrichedCycle:
        for step in self.by_degree.get(k, []):
            if step.j == j:
                return step.delta
        return EnrichedCycle(self.ambient)

    def pi(self, k: int, j: int) -> EnrichedCycle:
        for step in self.by_degree.get(k, []):
            if step.j == j:
                return step.pi
        return EnrichedCycle(self.ambient)


def pi_delta(
    gecc_F: GradedEnrichedCycle,
    ft: Polynomial,
) -> PiDeltaTrace:
    """The graph-cutting iteration, top cotangent coordinate first."""
    ambient = gecc_F.ambient
    if ambient.kind != TSTAR_KIND:
        raise ValueError("pi_delta expects a cycle in the cotangent space")
    graph = im_d(ft, ambient)
    graph_gens = list(graph.generators)
    by_degree: dict = {}
    for k in sorted(gecc_F.degrees):
        # components disjoint from the graph never contribute to any Delta
        pi_current = gecc_F.degree(k).map(
            lambda c: [] if c.ideal.with_extra(graph_gens).is_trivial() else [(c, 1)], ambient
        )
        steps = []
        for j in range(ambient.n, -1, -1):
            divisor = graph_gens[j]
            try:
                total = divisor_intersect(pi_current, divisor)
            except ImproperIntersection as exc:
                raise ImproperStep(f"degree {k}, step j={j}: {exc}") from exc
            delta_terms: dict = {}
            pi_terms: dict = {}
            discard_terms: dict = {}
            for comp, m in total.terms.items():
                if prime_contains_all(comp.ideal, graph_gens):
                    delta_terms[comp] = m
                elif comp.ideal.with_extra(graph_gens).is_trivial():
                    discard_terms[comp] = m
                else:
                    pi_terms[comp] = m
            step = PiDeltaStep(
                j,
                divisor,
                total,
                EnrichedCycle(ambient, pi_terms),
                EnrichedCycle(ambient, delta_terms),
                EnrichedCycle(ambient, discard_terms),
            )
            steps.append(step)
            pi_current = step.pi
            if not pi_current:
                break
        by_degree[k] = steps
    return PiDeltaTrace(ambient, graph, by_degree)


@dataclass
class CharPolarCycles:
    """(degree, dimension) -> enriched cycle in the base space."""

    ambient: AmbientSpace
    cycles: dict

    def get(self, k: int, j: int) -> EnrichedCycle:
        return self.cycles.get((k, j), EnrichedCycle(self.ambient))

    def degrees(self) -> list:
        return sorted({k for k, _ in self.cycles})

    def dims(self, k: int) -> list:
        return sorted({j for kk, j in self.cycles if kk == k}, reverse=True)


def lambda_cycles(
    trace: PiDeltaTrace,
) -> CharPolarCycles:
    """Pushforward of the graph parts: the characteristic polar cycles of
    the vanishing cycles."""
    ambient_u = trace.ambient.with_kind(U_KIND)
    out: dict = {}
    for k, steps in trace.by_degree.items():
        for step in steps:
            if not step.delta:
                continue
            image = proper_pushforward(step.delta, ambient_u)
            for comp in image.terms:
                if comp.dim != step.j:
                    raise InconsistencyError(
                        f"Lambda component {comp!r} has dim {comp.dim}, expected {step.j}"
                    )
            if image:
                out[(k, step.j)] = image
    return CharPolarCycles(ambient_u, out)


# ---------------------------------------------------------------------------
# Projectivization and characteristic polar cycles


def projectivize(E: Cycle) -> Cycle:
    """Reinterpret a conic cotangent cycle inside U x P^n (tags as rays)."""
    source = E.ambient
    if source.kind != TSTAR_KIND:
        raise ValueError("projectivize expects a cotangent-space cycle")
    target = source.with_kind(U_P_KIND)
    tctx = target.context()
    wpos = [source.context().position(v) for v in source.cotangent_vars()]
    irr = irrelevant_ideal(target)

    def rule(comp: Component) -> list:
        for g in comp.ideal.groebner_basis():
            if not g.is_homogeneous_in(wpos):
                raise NonConicCycle(f"component {comp!r} is not conic: {g}")
        ideal = renamed_ideal(comp.ideal, tctx)  # w_i -> u_i, base names kept
        if prime_contains_all(ideal, irr.generators):
            return []  # pure zero-section: empty in the projectivization
        return [(component_from_prime(ideal, target), 1)]

    return E.map(rule, target)


def char_polar_cycles(
    geccP: GradedEnrichedCycle,
    js: Sequence[int],
) -> CharPolarCycles:
    """Slice the projectivized cycle by tag planes and push to the base."""
    if geccP.ambient.kind != U_P_KIND:
        raise ValueError("char_polar_cycles expects a projectivized cycle")
    out: dict = {}
    for j in js:
        for k in sorted(geccP.degrees):
            image = _polar_slice(geccP.degree(k), j)
            if image:
                out[(k, j)] = image
    return CharPolarCycles(geccP.ambient.with_kind(U_KIND), out)


def _polar_slice(P: EnrichedCycle, j: int) -> EnrichedCycle:
    """eta_*(P . U x P^j x {0}): a projectivized cycle sliced at level j, in U."""
    ctx = P.ambient.context()
    cuts = [ctx.gen(f"u{i}") for i in range(P.ambient.n, j, -1)]
    return pushforward_with_degree(ci_intersect(P, cuts), P.ambient.with_kind(U_KIND))


def reconstruct_gecc(
    cpc: CharPolarCycles,
) -> GradedEnrichedCycle:
    """Downward induction over dimension: recover the graded cycle whose
    characteristic polar cycles are the given ones.

    Each candidate W gets one conormal and one projectivization P(T*_W):
    the coefficient c of [W] in its slice divides the leftover class, and
    P(T*_W) times the resulting Morse class joins the sum that corrects the
    lower steps.
    """
    ambient_u = cpc.ambient
    ambient_t = ambient_u.with_kind(TSTAR_KIND)
    result_degrees: dict = {}
    for k in cpc.degrees():
        dims = cpc.dims(k)
        if not dims:
            continue
        acc = EnrichedCycle(ambient_t)
        projective_sum = EnrichedCycle(ambient_u.with_kind(U_P_KIND))  # D_{>= j+1}
        for j in range(max(dims), -1, -1):
            M: dict = dict(cpc.get(k, j).terms)
            for comp, m in _polar_slice(projective_sum, j).terms.items():
                have = M.get(comp, ModClass.zero())
                if not mc.mod_leq(m, have):
                    raise InconsistencyError(
                        f"correction {m} at {comp!r} exceeds available {have}"
                    )
                rest = mc.mod_sub(have, m)
                if rest.is_zero():
                    M.pop(comp, None)
                else:
                    M[comp] = rest
            for W, coeff in sorted(M.items(), key=lambda t: t[0].key):
                if W.dim != j:
                    raise InconsistencyError(
                        f"leftover cycle {W!r} has dim {W.dim} at induction step {j}"
                    )
                stratum = Stratum("_rec", W.ideal, W.dim, {0: ModClass.free(1)})
                conormal = conormal_variety(stratum, ambient_t)
                P = projectivize(EnrichedCycle(ambient_t, {conormal: ModClass.free(1)}))
                c = _polar_slice(P, j).terms.get(W)
                if c is None:
                    raise InconsistencyError(
                        f"candidate conormal of {W!r} does not slice onto its base"
                    )
                morse = mc.divide_free(coeff, c.rank)
                acc = acc.add_term(conormal, morse)
                projective_sum = projective_sum.plus(P.scale(morse))
        if acc:
            result_degrees[k] = acc
    return GradedEnrichedCycle(ambient_t, result_degrees)


# ---------------------------------------------------------------------------
# Blow-up route


@dataclass
class BlowupComponentResult:
    source: Component
    status: str  # "blown-up" | "disjoint" | "inside-center"
    exceptional: list | None = None  # [(piece, multiplicity)] when blown up


@dataclass
class BlowupResult:
    per_component: list
    exceptional: GradedEnrichedCycle
    pushforward: GradedEnrichedCycle

    def vanishing_part(self, ft: Polynomial) -> GradedEnrichedCycle:
        """Components of the pushforward whose base image lies in V(f)."""
        ctx = self.pushforward.ambient.context()
        inside, _ = gap_remove(self.pushforward, Ideal(ctx, [ft.lift(ctx)]))
        return inside


def _blowup_cone(
    comp: Component,
    graph_gens: list,
    ambient_b: AmbientSpace,
) -> Component:
    """Closure of the graph cone of the center equations over the component."""
    ctx_b = ambient_b.context()
    big, aux = extend_context(ctx_b, "_s")
    s = big.gen(aux)
    graph = [big.gen(f"u{i}") - s * h.lift(big) for i, h in enumerate(graph_gens)]
    # the restriction drops only the auxiliary variable, so the cone lives in ctx_b
    cone = eliminate(lift_ideal(comp.ideal, big).with_extra(graph), [aux], restrict=True)
    return component_from_prime(cone, ambient_b)


def blowup_exceptional(
    gecc_F: GradedEnrichedCycle,
    ft: Polynomial,
) -> BlowupResult:
    """Blow up each component along the graph of df; collect the
    exceptional divisors and push them to U x P^n."""
    ambient_t = gecc_F.ambient
    if ambient_t.kind != TSTAR_KIND:
        raise ValueError("blowup_exceptional expects a cotangent-space cycle")
    ambient_b = ambient_t.with_kind(TSTAR_P_KIND)
    ambient_p = ambient_t.with_kind(U_P_KIND)
    ctx_b = ambient_b.context()
    graph = im_d(ft, ambient_t)
    graph_gens = [g.lift(ctx_b) for g in graph.generators]
    results = {
        comp: _exceptional_of_component(comp, graph, graph_gens, ambient_b)
        for comp in gecc_F.components()
    }
    exceptional = gecc_F.map(lambda c: results[c].exceptional or [], ambient_b)
    push = pushforward_with_degree(exceptional, ambient_p)
    return BlowupResult(list(results.values()), exceptional, push)


def _exceptional_of_component(
    comp: Component,
    graph: Ideal,
    graph_gens: list,
    ambient_b: AmbientSpace,
):
    if prime_contains_all(comp.ideal, graph.generators):
        return BlowupComponentResult(comp, "inside-center", None)
    meet = comp.ideal.with_extra(graph.generators)
    if meet.is_trivial():
        return BlowupComponentResult(comp, "disjoint", None)
    bl = _blowup_cone(comp, graph_gens, ambient_b)
    center_cut = bl.ideal.with_extra(graph_gens)
    pieces = [
        p
        for p in decompose_components(center_cut, ambient_b)
        if p.dim == bl.dim - 1
    ]
    out = []
    ctx_b = ambient_b.context()
    for piece in pieces:
        chart = first_chart(piece)
        # on the chart u_chart != 0 the exceptional divisor is cut out by
        # the chart's center equation; its components are the pieces there
        tag = ctx_b.gen(f"u{chart}")
        others = [q for q in pieces if q is not piece and not q.ideal.contains(tag)]
        mult = intersection_multiplicity(
            bl.ideal.with_extra([graph_gens[chart]]), piece, others
        )
        out.append((piece, mult))
    return BlowupComponentResult(comp, "blown-up", out)


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class VanishingReport:
    complex: StratifiedComplex
    function: Polynomial
    bound: MicrosupportBound
    isolating: dict
    trace: PiDeltaTrace | None
    lambdas: CharPolarCycles | None
    gecc_phi: GradedEnrichedCycle | None
    cc_phi: OrdinaryCycle | None
    blowup: BlowupResult | None = None
    agreement: bool | None = None

    def to_json(self) -> dict:
        data: dict = {
            "function": str(self.function),
            "isolating": {
                "s": self.isolating.get("s"),
                "pass": self.isolating.get("pass"),
                "per_j": {str(j): v for j, v in self.isolating.get("per_j", {}).items()},
            },
        }
        if self.gecc_phi is not None:
            data["gecc_phi"] = self.gecc_phi.to_json()
        if self.cc_phi is not None:
            data["cc_phi"] = self.cc_phi.to_json()
        if self.trace is not None:
            data["trace"] = {
                str(k): [
                    {
                        "j": step.j,
                        "divisor": str(step.divisor),
                        "pi": step.pi.to_json(0),
                        "delta": step.delta.to_json(0),
                        "discarded": step.discarded.to_json(0),
                    }
                    for step in steps
                ]
                for k, steps in self.trace.by_degree.items()
            }
        if self.lambdas is not None:
            data["lambda"] = {
                f"{k},{j}": cyc.to_json(0)
                for (k, j), cyc in sorted(self.lambdas.cycles.items())
            }
        if self.agreement is not None:
            data["two_route_agreement"] = self.agreement
        return data


def vanishing_pipeline(
    SC: StratifiedComplex,
    ft: Polynomial,
    route: str = "pidelta",
) -> VanishingReport:
    """Full germ-at-the-origin vanishing-cycle computation by the Pi/Delta
    route; ``both`` adds the blow-up and checks that the two agree. Nothing
    past the bounds when the isolating check fails."""
    if route not in ("pidelta", "both"):
        raise ValueError(f"unknown route {route!r}; expected pidelta or both")
    gecc_F = gecc_assemble(SC)
    bound = microsupport_phi_bound(SC, ft)
    iso = isolating_check(SC, ft, bound.upper_components())
    if not iso["pass"]:
        return VanishingReport(SC, ft, bound, iso, None, None, None, None)
    trace = pi_delta(gecc_F, ft)
    lambdas = lambda_cycles(trace)
    gecc_phi = reconstruct_gecc(lambdas)
    blowup = agreement = None
    if route == "both":
        blowup = blowup_exceptional(gecc_F, ft)
        agreement = blowup.vanishing_part(ft) == projectivize(gecc_phi)
    return VanishingReport(
        SC, ft, bound, iso, trace, lambdas, gecc_phi, to_ordinary(gecc_phi), blowup, agreement
    )
