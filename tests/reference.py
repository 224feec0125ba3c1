"""Reference implementations that the tests check the engine against.

None is on an engine path. The basis self-check and the standard monomials
use the Groebner kernel's packed monomials; the rest are closed forms or
second routes: containment of varieties by the radical test, the classical
polar curve of acceptance criterion 1, and a curve's branch data.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from gecc_kit.conormal import StratifiedComplex
from gecc_kit.cycles import AmbientSpace, EnrichedCycle, ci_intersect, component_from_prime
from gecc_kit.hypersurface import CurveBranch, PolarNotCurve
from gecc_kit.ideal import (
    VECDIM_CAP,
    Ideal,
    ResourceLimitExceeded,
    _element,
    _encode,
    _reduce,
    _spoly,
    _widening,
    _zero_dimensional,
    local_degree,
    prime_contains_all,
    radical_contains,
)
from gecc_kit.modclass import ModClass
from gecc_kit.polyring import DEGREVLEX, MonomialOrder, Polynomial, _packing, _width


def selfcheck_groebner(gb: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX) -> bool:
    """Every S-polynomial of the basis reduces to zero."""
    if not gb:
        return True
    n = len(gb[0].ctx)

    def attempt(width: int) -> bool:
        packing = _packing(order, n, width)
        basis = [_element(_encode(packing, g)[0], packing) for g in gb]
        for f, g in itertools.combinations(basis, 2):
            lcm = packing.monomial(packing.exponent(packing.lcm(f[0], g[0])))
            if _reduce(_spoly(f, g, lcm, packing.guard), basis, packing.guard)[0]:
                return False
        return True

    return _widening(_width(gb), attempt)


def variety_contained_in(I: Ideal, J: Ideal) -> bool:
    """V(I) subseteq V(J): every generator of J vanishes on V(I).

    By ``radical_contains``, for an I with no primality certificate; for a
    certified prime, ``prime_contains_all(I, J.generators)``.
    """
    return all(radical_contains(I, g) for g in J.generators)


def standard_monomials(I: Ideal) -> list | None:
    """Monomial basis of Q[ctx]/I when zero-dimensional, in degrevlex order.

    Walks the staircase of the degrevlex leading monomials as packed
    monomials, whose fields hold every standard monomial; raises
    ResourceLimitExceeded past ``VECDIM_CAP`` monomials. It is the
    reference for the count that ``dimension_and_degree`` reads from the
    Hilbert numerator.
    """
    if not _zero_dimensional(I):
        return None
    packing, basis = I._packed(DEGREVLEX)
    lms = [g[0] for g in basis]
    out: list = []
    stack = [0]
    seen = set(stack)
    while stack:
        m = stack.pop()
        if any(packing.divides(lm, m) for lm in lms):
            continue
        out.append(m)
        if len(out) > VECDIM_CAP:
            raise ResourceLimitExceeded("standard monomial count exceeded cap")
        for w in packing.weights:
            if m + w not in seen:
                seen.add(m + w)
                stack.append(m + w)
    return [packing.exponent(m) for m in sorted(out)]

def _kernel_directions(lt: Polynomial, ambient_u: AmbientSpace) -> list:
    """Integer basis of directions annihilated by the linear form's differential."""
    coords = [v.name for v in ambient_u.base_vars()]
    coeffs = []
    for name in coords:
        d = lt.partial(name)
        if d.total_degree() > 0:
            raise ValueError("second function must be linear for the classical polar")
        coeffs.append(d.constant_term())
    pivot = next((i for i, c in enumerate(coeffs) if c), None)
    if pivot is None:
        raise ValueError("linear form is constant")
    dirs = []
    for j, c in enumerate(coeffs):
        if j == pivot:
            continue
        vec = [Fraction(0)] * len(coords)
        vec[pivot] = c
        vec[j] = -coeffs[pivot]
        dirs.append(vec)
    return dirs


def classical_polar_cycle(
    ft: Polynomial,
    lt: Polynomial,
    ambient_u: AmbientSpace,
) -> list:
    """Hamm-Le-Teissier polar curve of an ambient function as [(component, mult)].

    Directional derivatives of f along the kernel of the linear form cut
    the ambient space; components inside the critical locus are removed.
    """
    ctx = ambient_u.context()
    coords = [v.name for v in ambient_u.base_vars()]
    partials = {name: ft.partial(name) for name in coords}
    sigma = Ideal(ctx, [p for p in partials.values() if not p.is_zero()])
    cuts = []
    for vec in _kernel_directions(lt, ambient_u):
        cut = ctx.zero()
        for name, c in zip(coords, vec):
            if c:
                cut = cut + partials[name] * c
        cuts.append(cut)
    whole = component_from_prime(Ideal(ctx, []), ambient_u)
    inter = ci_intersect(EnrichedCycle(ambient_u, {whole: ModClass.free(1)}), cuts)
    pieces = []
    for comp, m in inter.terms.items():
        if prime_contains_all(comp.ideal, sigma.generators):
            continue  # contained in the critical locus: gap-removed
        pieces.append((comp, m.rank))
    pieces.sort(key=lambda t: t[0].key)
    return pieces


def classical_polar_mu(
    ft: Polynomial,
    lt: Polynomial,
    ambient_u: AmbientSpace,
) -> int:
    """(Gamma^1_{f,l} . V(l))_0: the complex-link sphere count at the origin."""
    pieces = classical_polar_cycle(ft, lt, ambient_u)
    total = 0
    for comp, mult in pieces:
        if comp.dim != 1:
            raise PolarNotCurve(f"classical polar piece {comp!r} has dim {comp.dim}")
        cut = comp.ideal.with_extra([lt])
        total += mult * local_degree(cut)
    return total

def analyze_curve_branches(
    SC: StratifiedComplex,
    ft: Polynomial,
    lt: Polynomial,
) -> list:
    """Measure branch data from the stratified curve: multiplicities by a
    generic linear slice, partition by V(f), intersection numbers by local
    degree."""
    out = []
    for s in SC.strata:
        if s.dim != 1:
            continue
        mult = local_degree(s.closure_ideal.with_extra([lt]))
        in_vf = prime_contains_all(s.closure_ideal, [ft])
        eta = 0
        if not in_vf:
            eta = local_degree(s.closure_ideal.with_extra([ft]))
        out.append(CurveBranch(s.name, mult, in_vf, eta))
    return out
