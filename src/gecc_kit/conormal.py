"""Conormal and relative conormal varieties from stratified input.

Construction is Jacobian-minor based: the fiber conditions are linear in
the cotangent coordinates with coefficients the Jacobian minors, and the
rank-drop locus is removed by a single-witness saturation. That shape is
exactly the prime-certification route of the decomposition engine, so
every emitted component is certified by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .cycles import (
    AmbientSpace,
    Component,
    EnrichedCycle,
    GradedEnrichedCycle,
    TSTAR_KIND,
    U_KIND,
    component_from_prime,
)
from .decompose import minimal_primes
from .ideal import (
    Ideal,
    block_memo,
    lift_ideal,
    saturate_element,
)
from .polyring import Polynomial, VarContext


class RankAnomaly(RuntimeError):
    """Jacobian rank does not match the stratum codimension."""


class FConstantOnStratum(RuntimeError):
    """Relative conormal requested for a function constant on the stratum."""


class StratificationError(ValueError):
    """Stratified-complex descriptor violates a structural invariant.

    ``index`` is the offending stratum's position and ``key`` the field at
    fault (``ideal`` or ``dim``), when one stratum is at fault.
    """

    def __init__(self, message: str, index: int | None = None, key: str | None = None):
        super().__init__(message)
        self.index = index
        self.key = key


@dataclass
class Stratum:
    """Closure ideal, dimension, Morse table.

    The closure must be prime. A ``StratifiedComplex`` certifies it when
    it is built; a stratum built on its own is taken on trust.
    """

    name: str
    closure_ideal: Ideal
    dim: int
    morse: dict = field(default_factory=dict)

    def visible(self) -> bool:
        return any(not m.is_zero() for m in self.morse.values())

    def morse_items(self) -> list:
        return sorted((k, m) for k, m in self.morse.items() if not m.is_zero())


class StratifiedComplex:
    """Ambient base space plus strata; the full engine input descriptor."""

    def __init__(self, ambient: AmbientSpace, strata: Sequence[Stratum]):
        if ambient.kind != U_KIND:
            raise StratificationError("stratified complexes live in a base space U")
        self.ambient = ambient
        self.strata = list(strata)
        self._validate()

    def _validate(self) -> None:
        """Each closure lives in the base space, has its declared dimension,
        is a certified prime (its one minimal prime is itself) and is not
        another stratum's closure."""
        for i, s in enumerate(self.strata):
            closure = s.closure_ideal
            if closure.ctx != self.ambient.context():
                raise StratificationError(f"stratum {s.name}: wrong context", i, "ideal")
            d = closure.dimension()
            if d != s.dim:
                raise StratificationError(
                    f"stratum {s.name}: declared dim {s.dim}, computed {d}", i, "dim"
                )
            primes = [w.ideal for w in minimal_primes(closure)]
            if primes != [closure]:
                comps = sorted((component_from_prime(P, self.ambient) for P in primes),
                               key=lambda c: c.key)
                found = ", ".join(f"[{', '.join(c.gens)}]" for c in comps)
                raise StratificationError(
                    f"stratum {s.name}: closure is not a prime ideal; "
                    f"its minimal primes are {found}",
                    i, "ideal",
                )
            for t in self.strata[:i]:
                if t.closure_ideal == closure:
                    raise StratificationError(
                        f"stratum {s.name}: same closure as stratum {t.name}", i, "ideal"
                    )

    def visible_strata(self) -> list:
        return [s for s in self.strata if s.visible()]

    def tstar_ambient(self) -> AmbientSpace:
        return self.ambient.with_kind(TSTAR_KIND)

    def stratum(self, name: str) -> Stratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Jacobian-minor machinery


def _det(matrix: list) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    ctx = matrix[0][0].ctx
    total = ctx.zero()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        term = entry * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _gradient(p: Polynomial, base_names: Sequence[str], ctx: VarContext) -> list:
    return [p.partial(n).lift(ctx) if p.degree_in(n) > 0 else ctx.zero() for n in base_names]


def _minors_with_last_row(rows: list, size: int, ncols: int) -> list:
    """Determinants of size x size submatrices forced to use the final row."""
    if size > len(rows) or size > ncols:
        return []
    head = rows[:-1]
    out = []
    for rsel in itertools.combinations(range(len(head)), size - 1):
        for csel in itertools.combinations(range(ncols), size):
            matrix = [[head[i][j] for j in csel] for i in rsel]
            matrix.append([rows[-1][j] for j in csel])
            d = _det(matrix)
            if not d.is_zero():
                out.append(d)
    return out


def _rank_witness(rows: list, size: int, ncols: int, modulus: Ideal) -> Polynomial | None:
    """A size x size minor of the given rows nonzero mod the ideal, or None.

    A nonzero constant minor when there is one, since saturating at a unit
    takes no Groebner run; else the first minor nonzero mod the ideal.
    """
    minors = []
    for rsel in itertools.combinations(range(len(rows)), size):
        for csel in itertools.combinations(range(ncols), size):
            matrix = [[rows[i][j] for j in csel] for i in rsel]
            d = _det(matrix)
            if d.is_zero():
                continue
            if d.total_degree() == 0:
                return d
            minors.append(d)
    return next((d for d in minors if not modulus.contains(d)), None)


def _conormal(stratum: Stratum, extra_rows: list, ambient_t: AmbientSpace) -> Component | None:
    """The stratum's conormal relative to the functions whose gradients are
    the extra rows (None when they are constant on it), built once per
    ``engine_limits`` block and keyed by the closure's reduced basis, the
    extra rows and the ambient."""
    key = ("conormal", ambient_t, stratum.closure_ideal.groebner_basis(),
           tuple(map(tuple, extra_rows)))
    return block_memo(key, lambda: _conormal_from_rows(stratum, extra_rows, ambient_t))


def _conormal_from_rows(
    stratum: Stratum,
    extra_rows: list,
    ambient_t: AmbientSpace,
) -> Component | None:
    """I_S + minors([J; extras; w]) saturated at a rank witness of [J; extras];
    None when there is none, which for [J; df] means that d(f|_S) = 0."""
    ctx = ambient_t.context()
    base_names = [v.name for v in ambient_t.base_vars()]
    closure = lift_ideal(stratum.closure_ideal, ctx)
    rows = [_gradient(g, base_names, ctx) for g in stratum.closure_ideal.generators]
    rows += extra_rows
    c = (ambient_t.n + 1) - stratum.dim + len(extra_rows)
    ncols = ambient_t.n + 1
    witness = _rank_witness(rows, c, ncols, closure) if c else None
    if c and witness is None:
        if extra_rows:
            return None
        raise RankAnomaly(
            f"stratum {stratum.name}: expected generic rank {c} not attained"
        )
    wrow = [ctx.gen(v) for v in ambient_t.cotangent_vars()]
    minors = _minors_with_last_row(rows + [wrow], c + 1, ncols)
    full = closure.with_extra(minors)
    if witness is not None:
        full = saturate_element(full, witness)
    comp = component_from_prime(full, ambient_t)
    expected = ncols + len(extra_rows)
    if comp.dim != expected:
        what = "relative conormal" if extra_rows else "conormal"
        raise RankAnomaly(
            f"{what} of {stratum.name} has dimension {comp.dim}, expected {expected}"
        )
    _assert_conic(comp, ambient_t)
    return comp


def conormal_variety(
    stratum: Stratum,
    ambient_t: AmbientSpace,
) -> Component:
    """Closure of the conormal space to the stratum, as a certified component."""
    return _conormal(stratum, [], ambient_t)


def relative_conormal(
    stratum: Stratum,
    ft: Polynomial,
    ambient_t: AmbientSpace,
) -> Component:
    """Closure of the relative conormal of f on the stratum."""
    base_names = [v.name for v in ambient_t.base_vars()]
    frow = _gradient(ft, base_names, ambient_t.context())
    comp = _conormal(stratum, [frow], ambient_t)
    if comp is None:
        raise FConstantOnStratum(
            f"{ft} is constant on stratum {stratum.name}"
        )
    return comp


def _assert_conic(comp: Component, ambient_t: AmbientSpace) -> None:
    positions = [comp.ideal.ctx.position(v) for v in ambient_t.cotangent_vars()]
    for g in comp.ideal.groebner_basis():
        if not g.is_homogeneous_in(positions):
            raise RankAnomaly(f"non-conic conormal output: {g}")


def im_d(gt: Polynomial, ambient_t: AmbientSpace) -> Ideal:
    """Graph ideal of the differential of gt inside the cotangent space."""
    ctx = ambient_t.context()
    gens = []
    for zv, wv in zip(ambient_t.base_vars(), ambient_t.cotangent_vars()):
        gens.append(ctx.gen(wv) - gt.partial(zv.name).lift(ctx))
    return Ideal(ctx, gens)


def gecc_assemble(SC: StratifiedComplex) -> GradedEnrichedCycle:
    """Graded enriched characteristic cycle from the Morse tables."""
    ambient_t = SC.tstar_ambient()
    degrees: dict = {}
    for s in SC.visible_strata():
        comp = conormal_variety(s, ambient_t)
        for k, m in s.morse_items():
            cyc = degrees.setdefault(k, EnrichedCycle(ambient_t))
            degrees[k] = cyc.add_term(comp, m)
    return GradedEnrichedCycle(ambient_t, degrees)


def relative_conormal_cycle(SC: StratifiedComplex, ft: Polynomial) -> GradedEnrichedCycle:
    """Graded enriched relative conormal cycle of f."""
    ambient_t = SC.tstar_ambient()
    degrees: dict = {}
    for s in SC.visible_strata():
        try:
            comp = relative_conormal(s, ft, ambient_t)
        except FConstantOnStratum:
            continue
        for k, m in s.morse_items():
            cyc = degrees.setdefault(k, EnrichedCycle(ambient_t))
            degrees[k] = cyc.add_term(comp, m)
    return GradedEnrichedCycle(ambient_t, degrees)
