"""Enriched and graded, enriched cycles with module coefficients.

Components are certified prime ideals in one of four ambient spaces;
coefficients are ModClass values. The operations are linear: each acts on
one component at a time and carries its coefficient along, so each is a
per-component rule applied by ``map``, to an enriched cycle or degree by
degree to a graded one. Intersection with a hypersurface takes each
multiplicity exactly, as a degree ratio after saturating away the
sibling components. Pushforward uses elimination plus a mapping degree
read exactly, as a ratio of field degrees over an independent set of the
image. A component's intersection with a divisor and its pushforward are
computed once per ``engine_limits`` block (``block_memo``), whichever
cycle, degree or call meets them. Nothing here is sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from . import modclass as mc
from .decompose import minimal_primes
from .ideal import (
    VECDIM_CAP,
    CertificationFailure,
    Ideal,
    ResourceLimitExceeded,
    block_memo,
    dimension_and_degree,
    eliminate,
    leading_monomials,
    lift_ideal,
    monomial_dimension_and_degree,
    prime_contains_all,
    saturate_element,
)
from .modclass import ModClass
from .polyring import (
    BASE,
    COTANGENT,
    PROJECTIVE,
    Polynomial,
    VarContext,
    Variable,
    block_order,
)


class ImproperIntersection(RuntimeError):
    """A cycle component is contained in the divisor being intersected."""


class GenericInjectivityFailure(RuntimeError):
    """Pushforward requested along a projection that is not generically 1-1."""


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
    """Irreducible variety: certified prime ideal in an ambient space.

    Each constructor's ideal is prime by how it is made:
    - ``decompose_components``: a ``minimal_primes`` witness, certified by
      one of the decomposition engine's routes;
    - ``_pushforward_component``: the elimination of a prime, the ideal of
      the image of an irreducible variety;
    - ``vanishing._blowup_cone``: the graph u = s h over a prime with s
      eliminated; before the elimination the quotient is a polynomial
      ring in s over the prime's domain;
    - ``conormal``: the saturation at a rank witness of the Jacobian-minor
      ideal over a prime closure, the decomposition engine's
      prime-fiber route;
    - ``vanishing.projectivize``: a component's ideal with the cotangent
      variables renamed to the tags.
    So V(ideal) lies in V(J) exactly when J lies in the ideal, which
    ``prime_contains_all`` tests by normal forms. The engine's other
    membership questions are about stratum closures, certified prime when
    their ``StratifiedComplex`` is built, and take the same test.
    """

    ideal: Ideal
    ambient: AmbientSpace
    dim: int

    def __hash__(self):
        return hash((self.ambient, self.ideal))

    def __eq__(self, other):
        if not isinstance(other, Component):
            return NotImplemented
        return self.ambient == other.ambient and self.ideal == other.ideal

    def __repr__(self):
        return f"V({', '.join(self.gens)})"

    @cached_property
    def gens(self) -> tuple:
        """The generators as text, in the reduced basis's order."""
        return tuple(map(str, self.ideal.generators))

    @cached_property
    def key(self) -> tuple:
        """The generators as text, sorted: the order of every listing of components."""
        return tuple(sorted(self.gens))


def geometric_dimension(I: Ideal, ambient: AmbientSpace) -> int:
    """Affine dimension, less one for the projective tag directions."""
    d = I.dimension()
    if ambient.is_projective():
        return d - 1
    return d


def component_from_prime(I: Ideal, ambient: AmbientSpace) -> Component:
    canonical = Ideal(I.ctx, I.groebner_basis())
    return Component(canonical, ambient, geometric_dimension(canonical, ambient))


def irrelevant_ideal(ambient: AmbientSpace) -> Ideal | None:
    if not ambient.is_projective():
        return None
    ctx = ambient.context()
    return Ideal(ctx, [ctx.gen(v) for v in ambient.projective_vars()])


def decompose_components(I: Ideal, ambient: AmbientSpace) -> list:
    """Certified minimal primes as components, dropping the irrelevant locus,
    in the order of their keys."""
    out = []
    irr = irrelevant_ideal(ambient)
    for w in minimal_primes(I):
        if irr is not None and prime_contains_all(w.ideal, irr.generators):
            continue
        out.append(component_from_prime(w.ideal, ambient))
    return sorted(out, key=lambda c: c.key)


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
        return sorted(self.terms.items(), key=lambda t: t[0].key)

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

    def components(self) -> list:
        return list(self.terms)

    def map(self, rule, target: AmbientSpace) -> "EnrichedCycle":
        """The linear extension of rule, which sends a component to
        [(piece, mult)]: each term (m)[C] becomes the sum of
        (m (x) Z^mult)[piece] over rule(C), a cycle in target."""
        out: dict = {}
        for comp, m in self.terms.items():
            for piece, mult in rule(comp):
                out[piece] = mc.direct_sum(
                    out.get(piece, ModClass.zero()), mc.tensor(m, ModClass.free(mult))
                )
        return EnrichedCycle(target, out)

    def to_json(self, degree: int) -> list:
        return [
            {
                "degree": degree,
                "ideal": list(comp.key),
                "ambient": comp.ambient.kind,
                "dim": comp.dim,
                "coefficient": m.to_json(),
            }
            for comp, m in self._sorted()
        ]


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

    def shift(self, j: int) -> "GradedEnrichedCycle":
        return GradedEnrichedCycle(
            self.ambient, {k - j: cyc for k, cyc in self.degrees.items()}
        )

    def components(self) -> list:
        """The components of every degree, each once, in first-seen order."""
        return list(dict.fromkeys(c for cyc in self.degrees.values() for c in cyc.terms))

    def map(self, rule, target: AmbientSpace) -> "GradedEnrichedCycle":
        """``EnrichedCycle.map`` degree by degree."""
        return GradedEnrichedCycle(
            target, {k: cyc.map(rule, target) for k, cyc in self.degrees.items()}
        )

    def to_json(self) -> list:
        return [row for k in sorted(self.degrees) for row in self.degrees[k].to_json(k)]


# what the linear operations below take and return: either kind of cycle
Cycle = EnrichedCycle | GradedEnrichedCycle


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
        return " + ".join(f"{v}[{c!r}]" for c, v in self._sorted())

    def _sorted(self):
        return sorted(self.terms.items(), key=lambda t: t[0].key)

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
        return [{"ideal": list(c.key), "multiplicity": v} for c, v in self._sorted()]


# ---------------------------------------------------------------------------
# Spec operations


def to_ordinary(E: GradedEnrichedCycle) -> OrdinaryCycle:
    terms: dict = {}
    for k, cyc in E.degrees.items():
        sign = -1 if k % 2 else 1
        for comp, m in cyc.terms.items():
            terms[comp] = terms.get(comp, 0) + sign * m.rank
    return OrdinaryCycle(E.ambient, terms)


def gap_remove(E: Cycle, J: Ideal) -> tuple:
    """Split an enriched or graded cycle by containment of each component
    in V(J), one membership test per component; inside first."""
    inside = {c for c in E.components() if prime_contains_all(c.ideal, J.generators)}
    return (
        E.map(lambda c: [(c, 1)] if c in inside else [], E.ambient),
        E.map(lambda c: [] if c in inside else [(c, 1)], E.ambient),
    )


def _chart_restrict(I: Ideal, ambient: AmbientSpace, chart: int) -> Ideal:
    """Dehomogenize at tag chart u_chart = 1 (tags below the chart set to 0)."""
    ctx = ambient.context()
    tags = ambient.projective_vars()
    small = VarContext([v for v in ctx.variables if v not in tags[: chart + 1]])
    assignment = {tv.name: small.zero() for tv in tags[:chart]}
    assignment[tags[chart].name] = small.one()
    gens = [g.substitute(assignment) for g in I.generators]
    return Ideal(small, [g for g in gens if not g.is_zero()])


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
) -> int:
    """Length of V(J) along the component, as deg(J : s^inf) / deg(piece).

    ``others`` holds every other component of V(J) outside the irrelevant
    locus, and s is their separator polynomial; in a tag ambient s also
    carries the tag of the piece's first chart, which vanishes on the
    irrelevant locus. The saturation then has the piece as its only
    top-dimensional component, with the length of V(J) along it, and
    embedded components of lower dimension do not change its degree.
    """
    s = separator_polynomial(piece, others)
    if piece.ambient.is_projective():
        s = s * piece.ideal.ctx.gen(piece.ambient.projective_vars()[first_chart(piece)])
    local = saturate_element(parent_with_divisor, s)
    dim, degree = dimension_and_degree(local)
    piece_dim, piece_degree = dimension_and_degree(piece.ideal)
    if dim != piece_dim or degree % piece_degree:
        raise CertificationFailure(
            f"saturation along {piece!r} has dimension {dim} and degree {degree}, "
            f"against {piece_dim} and {piece_degree} for the component"
        )
    return degree // piece_degree


def divisor_intersect(E: Cycle, g: Polynomial) -> Cycle:
    """Proper intersection with the hypersurface V(g), per Fulton lengths."""
    ctx = E.ambient.context()
    if g.ctx != ctx:
        g = g.lift(ctx)
    return E.map(
        lambda comp: block_memo(("intersection", comp, g), lambda: _intersect_component(comp, g)),
        E.ambient,
    )


def _intersect_component(comp: Component, g: Polynomial) -> list:
    """[(piece, length)] of comp . V(g), in the component's ambient."""
    if prime_contains_all(comp.ideal, [g]):
        raise ImproperIntersection(
            f"component {comp!r} is contained in the divisor V({g})"
        )
    J = comp.ideal.with_extra([g])
    if J.is_trivial():
        return []
    pieces = decompose_components(J, comp.ambient)
    expected = comp.dim - 1
    for p in pieces:
        if p.dim != expected:
            raise ImproperIntersection(
                f"component {p!r} of the intersection has dimension {p.dim}, expected {expected}"
            )
    return [
        (p, intersection_multiplicity(J, p, [q for q in pieces if q is not p]))
        for p in pieces
    ]


def ci_intersect(E: Cycle, gs: Sequence[Polynomial]) -> Cycle:
    """Left fold of divisor intersections (complete-intersection second factor)."""
    current = E
    for i, g in enumerate(gs):
        try:
            current = divisor_intersect(current, g)
        except ImproperIntersection as exc:
            raise ImproperIntersection(f"step {i} ({g}): {exc}") from exc
        if not current:
            break
    return current


def _pushforward_component(comp: Component, target: AmbientSpace) -> list:
    """[(image, mapping degree)], or [] when the fibers are positive-dimensional."""
    kept = set(target.context().names())
    dropped = [v for v in comp.ambient.context().variables if v.name not in kept]
    image_ideal = eliminate(comp.ideal, dropped, restrict=True)
    image = component_from_prime(lift_ideal(image_ideal, target.context()), target)
    if image.dim < comp.dim:
        return []
    return [(image, _mapping_degree(comp, image))]


def _mapping_degree(comp: Component, image: Component) -> int:
    """Field degree [K(P):K(Q)] of the source component P over its image Q.

    In a tag ambient both are read in the chart of P's first tag (Q too
    when the target keeps the tags). With u a maximal independent set of
    Q, read off its degrevlex leading monomials (Kredel-Weispfenning
    1988), the degree is [K(P):K(u)] / [K(Q):K(u)]; each field degree
    counts the standard monomials, in the variables outside u, of the
    leading monomials under the block order that puts those variables
    first (Becker-Weispfenning, ch. 6).
    """
    P, Q = comp.ideal, image.ideal
    if comp.ambient.is_projective():
        chart = first_chart(comp)
        P = _chart_restrict(P, comp.ambient, chart)
        if image.ambient.is_projective():
            Q = _chart_restrict(Q, image.ambient, chart)
    supports = [{v.name for v, x in zip(Q.ctx.variables, e) if x} for e in leading_monomials(Q)]
    free = next((
        set(u) for u in itertools.combinations(Q.ctx.names(), image.dim)
        if not any(s <= set(u) for s in supports)
    ), None)
    if free is None:
        raise CertificationFailure(f"no independent set of size {image.dim} for {image!r}")
    counts = [_field_degree(I, free) for I in (P, Q)]
    if None in counts or 0 in counts or counts[0] % counts[1]:
        raise CertificationFailure(
            f"field degrees {counts} of {comp!r} over {image!r} give no mapping degree"
        )
    return counts[0] // counts[1]


def _field_degree(I: Ideal, free: set) -> int | None:
    """[K(I):K(free)] for a prime I in which the named variables are independent."""
    bound = [i for i, v in enumerate(I.ctx.variables) if v.name not in free]
    order = block_order(bound, len(I.ctx))
    leads = leading_monomials(I, order)
    dim, count = monomial_dimension_and_degree([tuple(e[i] for i in bound) for e in leads], len(bound))
    if dim > 0:
        return None
    if count > VECDIM_CAP:
        raise ResourceLimitExceeded("standard monomial count exceeded cap")
    return count


def proper_pushforward(E: Cycle, target: AmbientSpace) -> Cycle:
    """Coefficient-preserving pushforward; restricted to generically 1-1 maps."""
    return _pushforward(E, target, injective=True)


def pushforward_with_degree(E: Cycle, target: AmbientSpace) -> Cycle:
    """Degree-weighted pushforward; components with positive-dimensional
    fibers push to zero (used by the blow-up cross-check)."""
    return _pushforward(E, target, injective=False)


def _pushforward(E: Cycle, target: AmbientSpace, injective: bool) -> Cycle:
    """Push each component, weighting its class by the mapping degree;
    with ``injective``, a degree other than 1 raises."""

    def rule(comp: Component) -> list:
        pushed = block_memo(
            ("pushforward", comp, target), lambda: _pushforward_component(comp, target)
        )
        if injective and [deg for _, deg in pushed] != [1]:
            raise GenericInjectivityFailure(
                f"projection is not generically one-to-one on {comp!r} "
                f"(degree {pushed[0][1] if pushed else 'infinite'})"
            )
        return pushed

    return E.map(rule, target)
