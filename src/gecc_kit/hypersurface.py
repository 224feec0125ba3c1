"""Relative polar curves, genericity checks, and the point Morse formulas.

The polar curve is the pushforward of the relative conormal cycle
intersected with the graph of the second function's differential; the
nearby / complement-restriction / vanishing Morse modules at the origin
are tensor combinations of the input Morse tables with local intersection
numbers of the per-stratum polar cycles. The germ is always at the
origin, and each local intersection number is the length of a
zero-dimensional local ring there, read as a degree from the Hilbert
numerator (``ideal.local_degree``). A command measures each polar length
once (``polar_length``), and the genericity checks and the three Morse
tables read that one measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import modclass as mc
from .cycles import (
    Component,
    EnrichedCycle,
    GradedEnrichedCycle,
    OrdinaryCycle,
    ci_intersect,
    divisor_intersect,
    proper_pushforward,
)
from .conormal import (
    FConstantOnStratum,
    StratifiedComplex,
    conormal_variety,
    im_d,
    relative_conormal,
    relative_conormal_cycle,
)
from .ideal import block_memo, local_degree, prime_contains_all
from .modclass import ModClass
from .polyring import Polynomial


class PolarNotCurve(RuntimeError):
    """The relative polar set is not purely one-dimensional."""


class GenericityFailure(RuntimeError):
    """A stated genericity precondition fails for the supplied linear form."""


@dataclass
class PolarReport:
    """Polar cycle data: graded cycle in U plus per-stratum pieces."""

    polar: GradedEnrichedCycle
    per_stratum: dict
    extension: Polynomial
    function: Polynomial
    complex: StratifiedComplex
    diagnostics: dict = field(default_factory=dict)

    def components(self) -> list:
        out = []
        for pieces in self.per_stratum.values():
            for comp, _ in pieces:
                if comp not in out:
                    out.append(comp)
        return out

    def to_json(self) -> dict:
        return {
            "extension": str(self.extension),
            "function": str(self.function),
            "polar": self.polar.to_json(),
            "per_stratum": {
                name: [
                    {"ideal": list(c.key), "multiplicity": m}
                    for c, m in pieces
                ]
                for name, pieces in sorted(self.per_stratum.items())
            },
            "diagnostics": dict(self.diagnostics),
        }


@dataclass
class MorseAtPoint:
    """Per-degree Morse modules of a derived functor at the origin."""

    table: dict
    exponents: dict
    kind: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "point": {},  # the germ is at the origin
            "table": {str(k): m.to_json() for k, m in sorted(self.table.items())},
            "exponents": dict(sorted(self.exponents.items())),
            "diagnostics": dict(self.diagnostics),
        }


def polar_curve(
    SC: StratifiedComplex,
    ft: Polynomial,
    gt: Polynomial,
) -> PolarReport:
    """Graded enriched relative polar curve of f with respect to gt."""
    ambient_t = SC.tstar_ambient()
    ambient_u = SC.ambient
    graph = im_d(gt, ambient_t)
    per_stratum: dict = {}
    degrees: dict = {}
    diagnostics: dict = {"strata": {}}
    for s in SC.visible_strata():
        try:
            rel = relative_conormal(s, ft, ambient_t)
        except FConstantOnStratum:
            continue
        inter = ci_intersect(
            EnrichedCycle(ambient_t, {rel: ModClass.free(1)}), list(graph.generators)
        )
        if not inter:
            per_stratum[s.name] = []
            diagnostics["strata"][s.name] = "empty"
            continue
        image = proper_pushforward(inter, ambient_u)
        pieces = []
        for comp, m in image.terms.items():
            if comp.dim != 1:
                raise PolarNotCurve(
                    f"polar piece {comp!r} from stratum {s.name} has dimension {comp.dim}"
                )
            pieces.append((comp, m.rank))
        pieces.sort(key=lambda t: t[0].key)
        per_stratum[s.name] = pieces
        diagnostics["strata"][s.name] = f"{len(pieces)} component(s)"
        for k, morse in s.morse_items():
            acc = degrees.setdefault(k, EnrichedCycle(ambient_u))
            for comp, mult in pieces:
                acc = acc.add_term(comp, mc.tensor(morse, ModClass.free(mult)))
            degrees[k] = acc
    polar = GradedEnrichedCycle(ambient_u, degrees)
    return PolarReport(polar, per_stratum, gt, ft, SC, diagnostics)


# ---------------------------------------------------------------------------
# Genericity diagnostics


@dataclass
class GenericityReport:
    dim_vf: bool
    dim_vl: bool
    componentwise: bool
    covector: bool | None
    details: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        checks = [self.dim_vf, self.dim_vl, self.componentwise]
        if self.covector is not None:
            checks.append(self.covector)
        return all(checks)

    def to_json(self) -> dict:
        return {
            "dim0_polar_meet_vf": self.dim_vf,
            "dim0_polar_meet_vl": self.dim_vl,
            "componentwise_f_geq_l": self.componentwise,
            "covector": self.covector,
            "details": dict(self.details),
        }


def check_polar_genericity(
    report: PolarReport,
    ft: Polynomial,
    lt: Polynomial,
    ss_bound: Sequence[Component] | None = None,
) -> GenericityReport:
    """Dimension, componentwise, and covector genericity diagnostics."""
    details: dict = {}
    dim_vf = True
    dim_vl = True
    componentwise = True
    for comp in report.components():
        inside_f = prime_contains_all(comp.ideal, [ft])
        inside_l = prime_contains_all(comp.ideal, [lt])
        if inside_f:
            dim_vf = False
        if inside_l:
            dim_vl = False
        if inside_f or inside_l:
            details[repr(comp)] = "contained in a level set"
            continue
        a = polar_length(comp, ft)
        b = polar_length(comp, lt)
        details[repr(comp)] = {"f_degree": a, "l_degree": b}
        if a < b:
            componentwise = False
    covector = None
    if ss_bound is not None:
        covector = _covector_test(ss_bound, lt)
        details["covector_bound_size"] = len(list(ss_bound))
    return GenericityReport(dim_vf, dim_vl, componentwise, covector, details)


def _covector_test(ss_bound: Sequence[Component], lt: Polynomial) -> bool:
    """(0, d_0 lt) avoids every component of the bound but the origin's conormal."""
    for comp in ss_bound:
        ambient = comp.ambient
        ctx = comp.ideal.ctx
        base_vars = ambient.base_vars()
        if all(comp.ideal.contains(ctx.gen(v)) for v in base_vars):
            continue
        values = {v.name: Fraction(0) for v in base_vars}
        for zv, wv in zip(base_vars, ambient.cotangent_vars()):
            values[wv.name] = lt.partial(zv.name).constant_term()
        if all(g.evaluate(values) == 0 for g in comp.ideal.generators):
            return False
    return True


# ---------------------------------------------------------------------------
# Nearby cycles and Morse modules at the origin


def nearby_gecc(
    SC: StratifiedComplex,
    ft: Polynomial,
) -> GradedEnrichedCycle:
    """gecc of the shifted nearby cycles: relative conormal cycle cut by V(f)."""
    rel = relative_conormal_cycle(SC, ft)
    if not rel:
        return rel
    return divisor_intersect(rel, ft.lift(SC.tstar_ambient().context()))


def polar_length(comp: Component, divisor: Polynomial) -> int:
    """(comp . V(divisor))_0 for a polar component, measured once per
    ``engine_limits`` block: genericity and the Morse tables share it."""
    return block_memo(
        ("polar length", comp, divisor),
        lambda: local_degree(comp.ideal.with_extra([divisor])),
    )


def _stratum_local_degrees(report: PolarReport, divisor: Polynomial) -> dict:
    return {
        name: sum(mult * polar_length(comp, divisor) for comp, mult in pieces)
        for name, pieces in report.per_stratum.items()
    }


def _weighted_morse(SC: StratifiedComplex, weights: Mapping[str, int], table: dict) -> dict:
    """table plus each visible stratum's Morse modules times its weight."""
    for s in SC.visible_strata():
        w = weights.get(s.name, 0)
        if not w:
            continue
        for k, m in s.morse_items():
            table[k] = mc.direct_sum(table.get(k, ModClass.zero()), mc.tensor(m, ModClass.free(w)))
    return table


def nearby_morse_at_origin(report: PolarReport, ft: Polynomial) -> MorseAtPoint:
    """Morse modules of the shifted nearby cycles at the origin."""
    gen = check_polar_genericity(report, ft, report.extension)
    if not gen.dim_vf:
        raise GenericityFailure("polar set meets V(f) in positive dimension")
    alphas = _stratum_local_degrees(report, ft)
    table = _weighted_morse(report.complex, alphas, {})
    return MorseAtPoint(table, alphas, "nearby", {"genericity": gen.to_json()})


def shriek_morse_at_origin(report: PolarReport, lt: Polynomial) -> MorseAtPoint:
    """Morse modules of i_! i^! at the origin (complement extension)."""
    gen = check_polar_genericity(report, report.function, lt)
    if not gen.dim_vl:
        raise GenericityFailure("polar set meets V(L) in positive dimension")
    betas = _stratum_local_degrees(report, lt)
    table = _weighted_morse(report.complex, betas, {})
    return MorseAtPoint(table, betas, "shriek", {"genericity": gen.to_json()})


def vanishing_morse_at_origin(
    report: PolarReport,
    ft: Polynomial,
    lt: Polynomial,
    m0: Mapping[int, ModClass],
    ss_bound: Sequence[Component] | None = None,
) -> MorseAtPoint:
    """Morse modules of the shifted vanishing cycles at the origin.

    No command calls it; bench/spans.py wraps it by name.
    """
    gen = check_polar_genericity(report, ft, lt, ss_bound)
    if not gen.dim_vl:
        raise GenericityFailure("polar set meets V(L) in positive dimension")
    if not gen.componentwise:
        raise GenericityFailure(
            "componentwise intersection-number condition (f vs L) fails"
        )
    if gen.covector is False:
        raise GenericityFailure("covector lies in the microsupport bound")
    alphas = _stratum_local_degrees(report, ft)
    betas = _stratum_local_degrees(report, lt)
    deltas = {name: alphas.get(name, 0) - betas.get(name, 0) for name in alphas}
    table = _weighted_morse(report.complex, deltas, {k: m for k, m in m0.items() if not m.is_zero()})
    return MorseAtPoint(
        table,
        deltas,
        "vanishing",
        {"genericity": gen.to_json(), "alpha": alphas, "beta": betas},
    )


@dataclass
class AssertionRecord:
    name: str
    passed: bool
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "lhs": self.lhs, "rhs": self.rhs}


def star_equals_shriek(
    shriek: MorseAtPoint,
    nearby: MorseAtPoint | None = None,
) -> list:
    """Emit the shared i_*i^* = i_!i^! table with duality-rank consistency."""
    records = [
        AssertionRecord(
            "gecc(i_*i^*) equals gecc(i_!i^!)",
            True,
            str({k: str(m) for k, m in sorted(shriek.table.items())}),
            "re-emitted by duality",
        )
    ]
    for k, m in sorted(shriek.table.items()):
        dual = mc.dual_morse(m, shriek.table.get(k + 1, ModClass.zero()))
        records.append(
            AssertionRecord(
                f"duality rank consistency (degree {k})",
                dual.rank == m.rank,
                str(dual.rank),
                str(m.rank),
            )
        )
    if nearby is not None:
        for k in sorted(set(shriek.table) | set(nearby.table)):
            a = shriek.table.get(k, ModClass.zero())
            b = nearby.table.get(k, ModClass.zero())
            records.append(
                AssertionRecord(
                    f"m^{k}(i_!i^!) <= m^{k}(nearby)",
                    mc.mod_leq(a, b),
                    str(a),
                    str(b),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Ordinary characteristic-cycle identities


def cc_of_tables(SC: StratifiedComplex, tables: Mapping[str, Mapping[int, ModClass]]) -> OrdinaryCycle:
    """CC from per-stratum graded Morse tables (keyed by stratum name)."""
    ambient_t = SC.tstar_ambient()
    terms: dict = {}
    for name, table in tables.items():
        s = SC.stratum(name)
        comp = conormal_variety(s, ambient_t)
        c = sum((-1) ** k * m.rank for k, m in table.items())
        if c:
            terms[comp] = terms.get(comp, 0) + c
    return OrdinaryCycle(ambient_t, terms)


def check_triangle(name: str, A: OrdinaryCycle, B: OrdinaryCycle, C: OrdinaryCycle) -> AssertionRecord:
    lhs = B
    rhs = A.plus(C)
    return AssertionRecord(name, lhs == rhs, repr(lhs), repr(rhs))


def check_complement_restriction(
    F: OrdinaryCycle, shriek: OrdinaryCycle, jstar: OrdinaryCycle
) -> AssertionRecord:
    lhs = jstar
    rhs = F.minus(shriek)
    return AssertionRecord(
        "CC(j_*j^*) = CC(F) - CC(i_!i^!)", lhs == rhs, repr(lhs), repr(rhs)
    )


# ---------------------------------------------------------------------------
# Curve oracle (closed forms for one-dimensional germs)


@dataclass
class CurveBranch:
    name: str
    mult: int
    in_vf: bool
    eta: int = 0


def curve_gecc_oracle(branches: Sequence[CurveBranch]) -> dict:
    """Closed-form degree-0 point coefficients and branch tables.

    Input data: branch multiplicities, the partition by containment in
    V(f), and the intersection numbers with V(f) for the branches not
    contained in it.
    """
    m = sum(b.mult for b in branches)
    e = len(branches)
    m_sub = sum(b.mult for b in branches if b.in_vf)
    eta = sum(b.eta for b in branches if not b.in_vf)
    point = {
        "A": ModClass.free(m - 1),
        "B": ModClass.free(m),
        "C": ModClass.free(m),
        "I": ModClass.free(m - e),
        "P": ModClass.free(eta),
        "Q": ModClass.free(m_sub + eta - 1),
    }
    branch_tables = {
        "A": {b.name: ModClass.free(1) for b in branches},
        "B": {b.name: ModClass.free(1) for b in branches},
        "C": {b.name: ModClass.free(1) for b in branches},
        "I": {b.name: ModClass.free(1) for b in branches},
        "P": {},
        "Q": {b.name: ModClass.free(1) for b in branches if b.in_vf},
    }
    cc_point = {key: val.rank for key, val in point.items()}
    return {"point": point, "branches": branch_tables, "cc_point": cc_point,
            "m": m, "e": e, "m_sub": m_sub, "eta": eta}
