"""Enriched and graded, enriched cycles with module coefficients.

Components are certified prime ideals in one of four ambient spaces;
coefficients are ModClass values. Intersection with hypersurfaces takes
each multiplicity exactly, as a degree ratio after saturating away the
sibling components. Pushforward uses elimination plus a mapping degree
counted over sampled rational points (or generic slices) of the image;
that sampling is the only randomness, and it comes from an explicit
seeded generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import modclass as mc
from .decompose import minimal_primes, rational_point
from .ideal import (
    DEFAULT_LIMITS,
    CertificationFailure,
    EngineLimits,
    Ideal,
    dimension_and_degree,
    eliminate,
    radical_contains,
    saturate_element,
    variety_contained_in,
    vector_space_dimension,
)
from .modclass import ModClass
from .polyring import (
    BASE,
    COTANGENT,
    PROJECTIVE,
    Polynomial,
    VarContext,
    Variable,
)


class ImproperIntersection(RuntimeError):
    """A cycle component is contained in the divisor being intersected."""


class GenericInjectivityFailure(RuntimeError):
    """Pushforward requested along a projection that is not generically 1-1."""


class DegenerateSlice(RuntimeError):
    """Random slicing failed repeatedly; inputs are likely not as assumed."""


# ---------------------------------------------------------------------------
# Ambient spaces


U_KIND = "U"
TSTAR_KIND = "TstarU"
TSTAR_P_KIND = "TstarUxP"
U_P_KIND = "UxP"


@dataclass(frozen=True)
class AmbientSpace:
    """Base space, cotangent space, or their projectivized companions."""

    kind: str
    n: int
    coords: tuple

    def __post_init__(self):
        if self.kind not in (U_KIND, TSTAR_KIND, TSTAR_P_KIND, U_P_KIND):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if len(self.coords) != self.n + 1:
            raise ValueError("coords length must be n+1")

    def context(self) -> VarContext:
        return _ambient_context(self.kind, self.n, self.coords)

    def base_vars(self) -> tuple:
        ctx = self.context()
        return tuple(v for v in ctx.variables if v.kind == BASE)

    def cotangent_vars(self) -> tuple:
        ctx = self.context()
        return tuple(v for v in ctx.variables if v.kind == COTANGENT)

    def projective_vars(self) -> tuple:
        ctx = self.context()
        return tuple(v for v in ctx.variables if v.kind == PROJECTIVE)

    def with_kind(self, kind: str) -> "AmbientSpace":
        return AmbientSpace(kind, self.n, self.coords)

    def is_projective(self) -> bool:
        return self.kind in (TSTAR_P_KIND, U_P_KIND)


_CTX_CACHE: dict = {}


def _ambient_context(kind: str, n: int, coords: tuple) -> VarContext:
    key = (kind, n, coords)
    if key not in _CTX_CACHE:
        vs = [Variable(c, BASE, i) for i, c in enumerate(coords)]
        if kind in (TSTAR_KIND, TSTAR_P_KIND):
            vs += [Variable(f"w{i}", COTANGENT, i) for i in range(n + 1)]
        if kind in (TSTAR_P_KIND, U_P_KIND):
            vs += [Variable(f"u{i}", PROJECTIVE, i) for i in range(n + 1)]
        _CTX_CACHE[key] = VarContext(vs)
    return _CTX_CACHE[key]


# ---------------------------------------------------------------------------
# Components


@dataclass(frozen=True)
class Component:
    """Irreducible variety: certified prime ideal in an ambient space."""

    ideal: Ideal
    ambient: AmbientSpace
    dim: int

    def __hash__(self):
        return hash((self.ambient, self.ideal.groebner_basis()))

    def __eq__(self, other):
        if not isinstance(other, Component):
            return NotImplemented
        return self.ambient == other.ambient and self.ideal == other.ideal

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal.generators)
        return f"V({gens})"

    def gen_strings(self) -> list:
        return [str(g) for g in self.ideal.generators]


def geometric_dimension(I: Ideal, ambient: AmbientSpace, limits: EngineLimits | None = None) -> int:
    """Affine dimension, less one for the projective tag directions."""
    d = I.dimension(limits)
    if ambient.is_projective():
        return d - 1
    return d


def component_from_prime(I: Ideal, ambient: AmbientSpace, limits: EngineLimits | None = None) -> Component:
    canonical = Ideal(I.ctx, I.groebner_basis(limits=limits))
    return Component(canonical, ambient, geometric_dimension(canonical, ambient, limits))


def irrelevant_ideal(ambient: AmbientSpace) -> Ideal | None:
    if not ambient.is_projective():
        return None
    ctx = ambient.context()
    return Ideal(ctx, [ctx.gen(v) for v in ambient.projective_vars()])


def decompose_components(
    I: Ideal, ambient: AmbientSpace, limits: EngineLimits | None = None
) -> list:
    """Certified minimal primes as components, dropping the irrelevant locus."""
    out = []
    irr = irrelevant_ideal(ambient)
    for w in minimal_primes(I, limits):
        if irr is not None and variety_contained_in(w.ideal, irr):
            continue
        out.append(component_from_prime(w.ideal, ambient, limits))
    return out


# ---------------------------------------------------------------------------
# Cycles


class EnrichedCycle:
    """Formal sum of components with nonzero ModClass coefficients."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: AmbientSpace, terms: Mapping[Component, ModClass] | None = None):
        self.ambient = ambient
        clean: dict = {}
        if terms:
            for comp, m in terms.items():
                if comp.ambient != ambient:
                    raise ValueError("component ambient mismatch")
                if not m.is_zero():
                    clean[comp] = m
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, EnrichedCycle)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({m})[{c!r}]" for c, m in self._sorted())

    def _sorted(self):
        return sorted(self.terms.items(), key=lambda t: sorted(t[0].gen_strings()))

    def support(self) -> list:
        return [c for c, _ in self._sorted()]

    def add_term(self, comp: Component, m: ModClass) -> "EnrichedCycle":
        terms = dict(self.terms)
        terms[comp] = mc.direct_sum(terms.get(comp, ModClass.zero()), m)
        return EnrichedCycle(self.ambient, terms)

    def plus(self, other: "EnrichedCycle") -> "EnrichedCycle":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch in cycle sum")
        result = dict(self.terms)
        for c, m in other.terms.items():
            result[c] = mc.direct_sum(result.get(c, ModClass.zero()), m)
        return EnrichedCycle(self.ambient, result)

    def scale(self, q: ModClass) -> "EnrichedCycle":
        return EnrichedCycle(
            self.ambient, {c: mc.tensor(q, m) for c, m in self.terms.items()}
        )


class GradedEnrichedCycle:
    """Finitely many degrees, each an enriched cycle in a common ambient."""

    __slots__ = ("ambient", "degrees")

    def __init__(self, ambient: AmbientSpace, degrees: Mapping[int, EnrichedCycle] | None = None):
        self.ambient = ambient
        clean: dict = {}
        if degrees:
            for k, cyc in degrees.items():
                if cyc.ambient != ambient:
                    raise ValueError("ambient mismatch in graded cycle")
                if cyc:
                    clean[int(k)] = cyc
        self.degrees = clean

    @staticmethod
    def zero(ambient: AmbientSpace) -> "GradedEnrichedCycle":
        return GradedEnrichedCycle(ambient, {})

    @staticmethod
    def single(degree: int, cyc: EnrichedCycle) -> "GradedEnrichedCycle":
        return GradedEnrichedCycle(cyc.ambient, {degree: cyc})

    def __bool__(self):
        return bool(self.degrees)

    def __eq__(self, other):
        return (
            isinstance(other, GradedEnrichedCycle)
            and self.ambient == other.ambient
            and self.degrees == other.degrees
        )

    def __repr__(self):
        if not self.degrees:
            return "0"
        chunks = [f"deg {k}: {cyc!r}" for k, cyc in sorted(self.degrees.items())]
        return "; ".join(chunks)

    def degree(self, k: int) -> EnrichedCycle:
        return self.degrees.get(k, EnrichedCycle(self.ambient))

    def support(self) -> list:
        seen: list = []
        for k in sorted(self.degrees):
            for c in self.degrees[k].support():
                if c not in seen:
                    seen.append(c)
        return seen

    def shift(self, j: int) -> "GradedEnrichedCycle":
        return GradedEnrichedCycle(
            self.ambient, {k - j: cyc for k, cyc in self.degrees.items()}
        )

    def map_cycles(self, f: Callable[[EnrichedCycle], EnrichedCycle]) -> "GradedEnrichedCycle":
        out: dict = {}
        for k, cyc in self.degrees.items():
            img = f(cyc)
            if img:
                out[k] = img
        ambient = next(iter(out.values())).ambient if out else self.ambient
        return GradedEnrichedCycle(ambient, out)

    def to_json(self) -> list:
        rows = []
        for k in sorted(self.degrees):
            for comp, m in self.degrees[k]._sorted():
                rows.append(
                    {
                        "degree": k,
                        "ideal": sorted(comp.gen_strings()),
                        "ambient": comp.ambient.kind,
                        "dim": comp.dim,
                        "coefficient": m.to_json(),
                    }
                )
        return rows


class OrdinaryCycle:
    """Integer-coefficient cycle (alternating ranks of a graded cycle)."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: AmbientSpace, terms: Mapping[Component, int] | None = None):
        self.ambient = ambient
        self.terms = {c: int(v) for c, v in (terms or {}).items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, OrdinaryCycle)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: sorted(t[0].gen_strings()))
        return " + ".join(f"{v}[{c!r}]" for c, v in items)

    def plus(self, other: "OrdinaryCycle") -> "OrdinaryCycle":
        terms = dict(self.terms)
        for c, v in other.terms.items():
            terms[c] = terms.get(c, 0) + v
        return OrdinaryCycle(self.ambient, terms)

    def minus(self, other: "OrdinaryCycle") -> "OrdinaryCycle":
        terms = dict(self.terms)
        for c, v in other.terms.items():
            terms[c] = terms.get(c, 0) - v
        return OrdinaryCycle(self.ambient, terms)

    def scaled(self, a: int) -> "OrdinaryCycle":
        return OrdinaryCycle(self.ambient, {c: a * v for c, v in self.terms.items()})

    def to_json(self) -> list:
        items = sorted(self.terms.items(), key=lambda t: sorted(t[0].gen_strings()))
        return [
            {"ideal": sorted(c.gen_strings()), "multiplicity": v} for c, v in items
        ]


# ---------------------------------------------------------------------------
# Spec operations


def cycle_add(D: GradedEnrichedCycle, E: GradedEnrichedCycle) -> GradedEnrichedCycle:
    if D.ambient != E.ambient:
        raise ValueError("ambient mismatch")
    out = dict(D.degrees)
    for k, cyc in E.degrees.items():
        out[k] = out[k].plus(cyc) if k in out else cyc
    return GradedEnrichedCycle(D.ambient, out)


def scalar_multiply(q: ModClass, E: GradedEnrichedCycle) -> GradedEnrichedCycle:
    return GradedEnrichedCycle(
        E.ambient, {k: cyc.scale(q) for k, cyc in E.degrees.items()}
    )


def to_ordinary(E: GradedEnrichedCycle) -> OrdinaryCycle:
    terms: dict = {}
    for k, cyc in E.degrees.items():
        sign = -1 if k % 2 else 1
        for comp, m in cyc.terms.items():
            terms[comp] = terms.get(comp, 0) + sign * m.rank
    return OrdinaryCycle(E.ambient, terms)


def gap_remove(E: GradedEnrichedCycle, J: Ideal) -> tuple:
    """Split terms by containment of the component in V(J); inside first."""
    inside: dict = {}
    outside: dict = {}
    for k, cyc in E.degrees.items():
        ins: dict = {}
        outs: dict = {}
        for comp, m in cyc.terms.items():
            if variety_contained_in(comp.ideal, J):
                ins[comp] = m
            else:
                outs[comp] = m
        if ins:
            inside[k] = EnrichedCycle(E.ambient, ins)
        if outs:
            outside[k] = EnrichedCycle(E.ambient, outs)
    return (
        GradedEnrichedCycle(E.ambient, inside),
        GradedEnrichedCycle(E.ambient, outside),
    )


def germ_part(
    E: GradedEnrichedCycle,
    point: Mapping | None = None,
    limits: EngineLimits | None = None,
) -> GradedEnrichedCycle:
    """Components whose fiber over the given base point is nonempty.

    For base-space cycles this keeps components through the point; for
    cotangent or tag ambients it keeps those meeting the fiber over it.
    """
    ambient = E.ambient
    ctx = ambient.context()
    pins = [
        ctx.gen(v) - ctx.const((point or {}).get(v.name, 0))
        for v in ambient.base_vars()
    ]
    out: dict = {}
    for k, cyc in E.degrees.items():
        keep = {
            comp: m
            for comp, m in cyc.terms.items()
            if not comp.ideal.with_extra(pins).is_trivial()
        }
        if keep:
            out[k] = EnrichedCycle(ambient, keep)
    return GradedEnrichedCycle(ambient, out)


def random_affine_form(ctx: VarContext, rng: random.Random, through_origin: bool = False) -> Polynomial:
    while True:
        terms = {}
        n = len(ctx)
        for i, v in enumerate(ctx.variables):
            c = rng.randint(-9, 9)
            if c:
                e = tuple(1 if j == i else 0 for j in range(n))
                terms[e] = Fraction(c)
        if not terms:
            continue
        if not through_origin:
            c0 = rng.randint(-9, 9)
            if c0:
                terms[(0,) * n] = Fraction(c0)
        return Polynomial(ctx, terms)


def _slice_forms(ambient: AmbientSpace, count: int, rng: random.Random) -> list:
    """Generic hyperplane sections: affine forms, or tag-linear forms with
    affine coefficients (over every non-tag variable) in tag ambients."""
    ctx = ambient.context()
    out = []
    if not ambient.is_projective():
        for _ in range(count):
            out.append(random_affine_form(ctx, rng))
        return out
    affine = [ctx.gen(v) for v in ctx.variables if v.kind != PROJECTIVE]
    tags = [ctx.gen(v) for v in ambient.projective_vars()]
    for _ in range(count):
        form = ctx.zero()
        while form.is_zero():
            form = ctx.zero()
            for u in tags:
                coeff = ctx.const(rng.randint(-9, 9))
                for z in affine:
                    c = rng.randint(-3, 3)
                    if c:
                        coeff = coeff + z * c
                form = form + coeff * u
        out.append(form)
    return out


def _chart_restrict(I: Ideal, ambient: AmbientSpace, chart: int) -> Ideal:
    """Dehomogenize at tag chart u_chart = 1 (tags below the chart set to 0)."""
    ctx = ambient.context()
    tags = ambient.projective_vars()
    keep = [v for v in ctx.variables if v not in tags[: chart + 1]]
    small = VarContext(keep)
    assignment = {v.name: small.gen(v.name) for v in keep}
    for j, tv in enumerate(tags):
        if j < chart:
            assignment[tv.name] = small.zero()
        elif j == chart:
            assignment[tv.name] = small.one()
    gens = [g.substitute(assignment) for g in I.generators]
    return Ideal(small, [g for g in gens if not g.is_zero()])


def _fiber_point_count(
    I: Ideal, ambient: AmbientSpace, slices: list, limits: EngineLimits
) -> int | None:
    """Stratified-chart count of the points of V(I + slices), exact on Proj."""
    if not ambient.is_projective():
        v = vector_space_dimension(I.with_extra(slices), limits)
        return v
    total = 0
    tags = ambient.projective_vars()
    for chart in range(len(tags)):
        J = _chart_restrict(I.with_extra(slices), ambient, chart)
        v = vector_space_dimension(J, limits)
        if v is None:
            return None
        total += v
    return total


def separator_polynomial(target: Component, others: Sequence[Component]) -> Polynomial:
    """Product vanishing on every other component but not on the target."""
    prod = target.ideal.ctx.one()
    for o in others:
        pick = None
        for g in o.ideal.generators:
            if not target.ideal.contains(g):
                pick = g
                break
        if pick is None:
            raise ValueError("components are not incomparable")
        prod = prod * pick
    return prod


def first_chart(comp: Component) -> int:
    """Index of the first tag not vanishing on a component of a tag ambient."""
    ctx = comp.ideal.ctx
    return next(
        i for i, u in enumerate(comp.ambient.projective_vars())
        if not comp.ideal.contains(ctx.gen(u))
    )


def intersection_multiplicity(
    parent_with_divisor: Ideal,
    piece: Component,
    others: Sequence[Component],
    limits: EngineLimits | None = None,
) -> int:
    """Length of V(J) along the component, as deg(J : s^inf) / deg(piece).

    ``others`` holds every other component of V(J) outside the irrelevant
    locus, and s is their separator polynomial; in a tag ambient s also
    carries the tag of the piece's first chart, which vanishes on the
    irrelevant locus. The saturation then has the piece as its only
    top-dimensional component, with the length of V(J) along it, and
    embedded components of lower dimension do not change its degree.
    """
    limits = limits or DEFAULT_LIMITS
    s = separator_polynomial(piece, others)
    if piece.ambient.is_projective():
        s = s * piece.ideal.ctx.gen(piece.ambient.projective_vars()[first_chart(piece)])
    local = saturate_element(parent_with_divisor, s, limits)
    dim, degree = dimension_and_degree(local, limits)
    piece_dim, piece_degree = dimension_and_degree(piece.ideal, limits)
    if dim != piece_dim or degree % piece_degree:
        raise CertificationFailure(
            f"saturation along {piece!r} has dimension {dim} and degree {degree}, "
            f"against {piece_dim} and {piece_degree} for the component"
        )
    return degree // piece_degree


def divisor_intersect(
    E: GradedEnrichedCycle,
    g: Polynomial,
    limits: EngineLimits | None = None,
) -> GradedEnrichedCycle:
    """Proper intersection with the hypersurface V(g), per Fulton lengths."""
    limits = limits or DEFAULT_LIMITS
    ambient = E.ambient
    ctx = ambient.context()
    if g.ctx != ctx:
        g = g.lift(ctx)
    out: dict = {}
    cache: dict = {}
    for k, cyc in E.degrees.items():
        acc = EnrichedCycle(ambient)
        for comp, m in cyc.terms.items():
            if comp not in cache:
                cache[comp] = _intersect_component(comp, g, ambient, limits)
            for piece, mult in cache[comp]:
                acc = acc.add_term(piece, mc.tensor(m, ModClass.free(mult)))
        if acc:
            out[k] = acc
    return GradedEnrichedCycle(ambient, out)


def _intersect_component(
    comp: Component,
    g: Polynomial,
    ambient: AmbientSpace,
    limits: EngineLimits,
) -> list:
    if radical_contains(comp.ideal, g, limits):
        raise ImproperIntersection(
            f"component {comp!r} is contained in the divisor V({g})"
        )
    J = comp.ideal.with_extra([g])
    if J.is_trivial():
        return []
    pieces = decompose_components(J, ambient, limits)
    if not pieces:
        return []
    expected = comp.dim - 1
    for p in pieces:
        if p.dim != expected:
            raise ImproperIntersection(
                f"component {p!r} of the intersection has dimension {p.dim}, expected {expected}"
            )
    out = []
    for p in pieces:
        others = [q for q in pieces if q is not p]
        out.append((p, intersection_multiplicity(J, p, others, limits)))
    return out


def ci_intersect(
    E: GradedEnrichedCycle,
    gs: Sequence[Polynomial],
    limits: EngineLimits | None = None,
) -> GradedEnrichedCycle:
    """Left fold of divisor intersections (complete-intersection second factor)."""
    current = E
    for i, g in enumerate(gs):
        try:
            current = divisor_intersect(current, g, limits)
        except ImproperIntersection as exc:
            raise ImproperIntersection(f"step {i} ({g}): {exc}") from exc
        if not current:
            break
    return current


def _dropped_variables(source: AmbientSpace, target: AmbientSpace) -> list:
    src = source.context()
    tgt_names = set(target.context().names())
    return [v for v in src.variables if v.name not in tgt_names]


def _pushforward_component(
    comp: Component,
    source: AmbientSpace,
    target: AmbientSpace,
    rng: random.Random,
    limits: EngineLimits,
) -> tuple:
    """(image component, mapping degree) or (None, 0) on fiber collapse."""
    dropped = _dropped_variables(source, target)
    image_ideal = eliminate(comp.ideal, dropped, limits, restrict=True)
    tgt_ctx = target.context()
    image_ideal = Ideal(tgt_ctx, [g.lift(tgt_ctx) for g in image_ideal.generators])
    image = component_from_prime(image_ideal, target, limits)
    if image.dim < comp.dim:
        return None, 0
    deg = _fiber_degree_at_point(comp, image, source, target, rng, limits)
    if deg is not None:
        return image, deg
    for _ in range(5):
        slices = _slice_forms(target, image.dim, rng)
        A = _fiber_point_count(image.ideal, target, slices, limits)
        if not A:
            continue
        lifted = [s.lift(source.context()) for s in slices]
        B = _fiber_point_count(comp.ideal, source, lifted, limits)
        if B is None or B == 0 or B % A:
            continue
        return image, B // A
    raise DegenerateSlice(f"pushforward degree check failed for {comp!r}")


def _fiber_degree_at_point(
    comp: Component,
    image: Component,
    source: AmbientSpace,
    target: AmbientSpace,
    rng: random.Random,
    limits: EngineLimits,
) -> int | None:
    """Mapping degree counted over a rational point of the image.

    Pinning every target variable (tags at an affine representative)
    slices the source cone transversally; the fiber count over a generic
    reduced point is the degree. Upper-semicontinuity again: agreeing
    samples, else the minimum of three.
    """
    src_ctx = source.context()
    samples: list = []
    target_has_tags = target.is_projective()
    source_extra_tags = source.is_projective() and not target_has_tags
    for _ in range(6):
        point = rational_point(image.ideal, rng)
        if point is None:
            return None
        pins = [
            src_ctx.gen(v.name) - src_ctx.const(point[v.name])
            for v in image.ideal.ctx.variables
        ]
        fiber = comp.ideal.with_extra(pins)
        if source_extra_tags:
            B = _fiber_point_count(fiber, source, [], limits)
        else:
            B = vector_space_dimension(fiber, limits)
        if B:
            samples.append(B)
        if len(samples) >= 2 and samples[-1] == samples[-2]:
            return samples[-1]
        if len(samples) >= 3:
            return min(samples)
    return min(samples) if samples else None


def proper_pushforward(
    E: GradedEnrichedCycle,
    target: AmbientSpace,
    rng: random.Random,
    limits: EngineLimits | None = None,
) -> GradedEnrichedCycle:
    """Coefficient-preserving pushforward; restricted to generically 1-1 maps."""
    limits = limits or DEFAULT_LIMITS
    out: dict = {}
    cache: dict = {}
    for k, cyc in E.degrees.items():
        acc = EnrichedCycle(target)
        for comp, m in cyc.terms.items():
            if comp not in cache:
                cache[comp] = _pushforward_component(comp, E.ambient, target, rng, limits)
            image, deg = cache[comp]
            if image is None or deg != 1:
                raise GenericInjectivityFailure(
                    f"projection is not generically one-to-one on {comp!r} "
                    f"(degree {deg if image else 'infinite'})"
                )
            acc = acc.add_term(image, m)
        if acc:
            out[k] = acc
    return GradedEnrichedCycle(target, out)


def pushforward_with_degree(
    E: GradedEnrichedCycle,
    target: AmbientSpace,
    rng: random.Random,
    limits: EngineLimits | None = None,
) -> GradedEnrichedCycle:
    """Degree-weighted pushforward; components with positive-dimensional
    fibers push to zero (used by the blow-up cross-check)."""
    limits = limits or DEFAULT_LIMITS
    out: dict = {}
    cache: dict = {}
    for k, cyc in E.degrees.items():
        acc = EnrichedCycle(target)
        for comp, m in cyc.terms.items():
            if comp not in cache:
                cache[comp] = _pushforward_component(comp, E.ambient, target, rng, limits)
            image, deg = cache[comp]
            if image is None:
                continue
            acc = acc.add_term(image, mc.tensor(m, ModClass.free(deg)))
        if acc:
            out[k] = acc
    return GradedEnrichedCycle(target, out)
