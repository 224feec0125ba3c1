"""Output checks made apart from the engine.

Ideals are compared through sympy's reduced Groebner bases, so no check
trusts the engine's own arithmetic. Expected values come from the paper
(running surface) and from closed forms in the curve branch data; the
kernel results are recomputed with sympy. Each check returns a list of
problems found; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

import sympy

# ---------------------------------------------------------------------------
# ideals through sympy


@lru_cache(maxsize=None)
def _symbols(names: tuple) -> tuple:
    return sympy.symbols(names)


_TERM = re.compile(r"([+-]?)([^+-]+)")


def to_sympy(text: str, names: tuple) -> sympy.Poly:
    """Parse an engine polynomial string ("3*x^2*y - 1/2*z + 1") into Q[names].

    Reads the expanded sum-of-terms form the engine prints, with no
    parentheses.
    """
    syms = _symbols(names)
    index = {n: i for i, n in enumerate(names)}
    terms: dict = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * len(names)
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return sympy.Poly.from_dict(
        {e: sympy.QQ(c.numerator, c.denominator) for e, c in terms.items() if c},
        *syms, domain=sympy.QQ)


@lru_cache(maxsize=4096)
def basis(gens: tuple, names: tuple):
    """sympy's reduced degrevlex Groebner basis of the ideal."""
    return sympy.groebner([to_sympy(g, names) for g in gens], *_symbols(names), order="grevlex",
                          domain=sympy.QQ)


def canon(gens: tuple, names: tuple) -> frozenset:
    """The reduced basis as a set of sympy polynomials: equal sets, equal ideals."""
    return frozenset(basis(gens, names).polys)


def in_ideal(p: str, gens: tuple, names: tuple) -> bool:
    return basis(gens, names).contains(to_sympy(p, names))


@lru_cache(maxsize=4096)
def lex_canon(gens: tuple, names: tuple) -> frozenset:
    """Reduced lex basis (first name largest) as a set of sympy polynomials."""
    return frozenset(sympy.groebner([to_sympy(g, names) for g in gens], *_symbols(names),
                                    order="lex", domain=sympy.QQ).polys)


def _free_of(polys, var, syms: tuple) -> frozenset:
    """Basis elements without ``var``, as polynomials in ``syms``.

    The elements of a reduced lex basis that do not involve the largest
    variable form the reduced lex basis of the elimination ideal.
    """
    return frozenset(sympy.Poly(p.as_expr(), *syms, domain=sympy.QQ)
                     for p in polys if p.degree(var) == 0)


def saturation(gens: tuple, h: str, names: tuple) -> frozenset:
    """Lex canon of (I : h^infinity), by the Rabinowitsch extension 1 - s*h."""
    ext = ("_sat",) + names
    polys = [to_sympy(g, ext) for g in gens]
    polys.append(1 - to_sympy("_sat", ext) * to_sympy(h, ext))
    lex = sympy.groebner(polys, *_symbols(ext), order="lex", domain=sympy.QQ)
    return _free_of(lex.polys, _symbols(ext)[0], _symbols(names))


def elimination(gens: tuple, names: tuple) -> frozenset:
    """Lex canon of I meet Q[names without the first one]."""
    syms = _symbols(names)
    return _free_of(lex_canon(gens, names), syms[0], syms)


# ---------------------------------------------------------------------------
# cycle rows of CLI reports


def tstar_names(coords: list) -> tuple:
    return tuple(coords) + tuple(f"w{i}" for i in range(len(coords)))


def compare_cycle(label: str, rows: list, expected: list, names: tuple) -> list:
    """Rows of a report cycle against [(generators, rank), ...] in degree 0."""
    errors = []
    got = {}
    for row in rows:
        coeff = row.get("coefficient", {"rank": row.get("multiplicity"), "torsion": []})
        if row.get("degree", 0) != 0 or coeff.get("torsion"):
            errors.append(f"{label}: unexpected row {row}")
            continue
        got[canon(tuple(row["ideal"]), names)] = coeff["rank"]
    want = {canon(tuple(gens), names): rank for gens, rank in expected if rank}
    if got != want:
        errors.append(f"{label}: got {_show(rows)}, expected {sorted(expected)}")
    return errors


def _show(rows: list) -> list:
    return [(r["ideal"], r.get("coefficient", {}).get("rank", r.get("multiplicity"))) for r in rows]


def _expect(errors: list, label: str, got, want) -> None:
    if got != want:
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def _table(rank: int) -> dict:
    return {"0": {"rank": rank, "torsion": []}} if rank else {}


# ---------------------------------------------------------------------------
# running surface: values of the paper, coordinates (t, x, y), f = x, L = t

SURFACE_S2 = ("y^2-x^3-t^2*x^2", "y*w0+t*x^2*w2", "x*w0+t^2*w0+y*t*w2")


def check_surface(command: str, report: dict, coords: list) -> list:
    names = tstar_names(coords)
    base = tuple(coords)
    errors: list = []
    if command == "gecc":
        rows = report["gecc"]
        s2 = _s2_rows(rows, names)
        errors += compare_cycle("gecc(F) off S2", [r for r in rows if r not in s2], [
            (["t", "x", "y"], 2), (["w0", "x", "y"], 2), (["w0", "w1", "y"], 1),
            (["x+t^2", "y", "w0-2*t*w1"], 1),
        ], names)
        _expect(errors, "gecc(F) S2 conormal", [r["coefficient"]["rank"] for r in s2], [1])
    elif command == "conormal":
        rows = report["relative_conormal"]
        s2 = _s2_rows(rows, names)
        errors += compare_cycle("relative conormal off S2", [r for r in rows if r not in s2],
                                [(["w0", "y"], 1), (["t^2+x", "y"], 1)], names)
        if len(s2) != 1 or not _same_variety_as_paper(tuple(s2[0]["ideal"]), names):
            errors.append(f"relative conormal S2 component is not V{SURFACE_S2}: {_show(s2)}")
    elif command == "polar":
        errors += compare_cycle("polar curve", report["polar"]["polar"], [(["x+t^2", "y"], 2)], base)
    elif command == "nearby":
        errors += compare_cycle("gecc(nearby)", report["gecc_nearby"],
                                [(["t", "x", "y"], 4), (["w0", "x", "y"], 3)], names)
        _expect(errors, "nearby point module", report["morse_at_origin"]["table"], _table(4))
    elif command == "shriek":
        errors += _assertions_pass(report)
        _expect(errors, "i_!i^! point module", report["morse_at_origin"]["table"], _table(2))
        _expect(errors, "beta per stratum", report["morse_at_origin"]["exponents"],
                {"S1": 0, "S2": 1, "S4": 1})
    elif command == "check":
        errors += _diagnostics_pass(report)
    elif command == "vanishing":
        errors += _isolating_pass(report)
        errors += compare_cycle("gecc(vanishing)", report["gecc_phi"],
                                [(["t", "x", "y"], 4), (["w0", "x", "y"], 2)], names)
        errors += compare_cycle("CC(vanishing)", report["cc_phi"],
                                [(["t", "x", "y"], 4), (["w0", "x", "y"], 2)], names)
        errors += compare_cycle("Lambda^0", report["lambda"]["0,0"], [(["t", "x", "y"], 4)], base)
        errors += compare_cycle("Lambda^1", report["lambda"]["0,1"], [(["x", "y"], 2)], base)
        steps = {step["j"]: step for step in report["trace"]["0"]}
        errors += compare_cycle("Pi^2", steps[2]["pi"], [
            (["y", "t^2+x", "2*t*w1-w0", "w2"], 2), (["x", "y", "w0", "w2"], 2),
            (["t", "x", "y", "w2"], 2)], names)
        errors += compare_cycle("Delta^1", steps[1]["delta"],
                                [(["x", "y", "w0", "w1-1", "w2"], 2)], names)
        errors += compare_cycle("Delta^0", steps[0]["delta"],
                                [(["t", "x", "y", "w0", "w1-1", "w2"], 4)], names)
        errors += _agreement(report)
    return errors


def _s2_rows(rows: list, names: tuple) -> list:
    """Rows whose component lies on the surface S2 but not on V(y)."""
    return [r for r in rows
            if in_ideal(SURFACE_S2[0], tuple(r["ideal"]), names)
            and not in_ideal("y", tuple(r["ideal"]), names)]


@lru_cache(maxsize=None)
def _same_variety_as_paper(gens: tuple, names: tuple) -> bool:
    """The component is the paper's S2 ideal with the y-locus removed."""
    return lex_canon(gens, names) == saturation(SURFACE_S2, "y", names)


# ---------------------------------------------------------------------------
# plane-curve germs: closed forms from the branch data


def check_curve(command: str, report: dict, germ) -> list:
    coords = germ.descriptor["ambient"]["coords"]
    names = tstar_names(coords)
    base = tuple(coords)
    outside = [b for b in germ.branches if not b.in_vf]
    inside = [b for b in germ.branches if b.in_vf]
    errors: list = []
    if command == "gecc":
        rows = report["gecc"]
        _expect(errors, "gecc(F) component count", len(rows), len(germ.branches) + 1)
        origin = [r for r in rows if canon(tuple(r["ideal"]), names) == canon(("x", "y"), names)]
        _expect(errors, "gecc(F) origin coefficient",
                [r["coefficient"] for r in origin], [{"rank": germ.m - 1, "torsion": []}])
        for b in germ.branches:
            hits = [r for r in rows if r not in origin and in_ideal(b.poly, tuple(r["ideal"]), names)]
            ranks = [r["coefficient"]["rank"] for r in hits]
            _expect(errors, f"gecc(F) conormal of {b.poly}", ranks, [1])
            if b.in_vf and hits:
                errors += compare_cycle(f"conormal of {b.poly}", hits, [(list(b.conormal), 1)], names)
    elif command == "conormal":
        errors += compare_cycle("relative conormal", report["relative_conormal"],
                                [([b.poly], 1) for b in outside], names)
    elif command == "polar":
        errors += compare_cycle("polar curve", report["polar"]["polar"],
                                [([b.poly], 1) for b in outside], base)
    elif command == "nearby":
        errors += compare_cycle("gecc(nearby)", report["gecc_nearby"], [(["x", "y"], germ.eta)], names)
        _expect(errors, "nearby point module (Z^eta)", report["morse_at_origin"]["table"],
                _table(germ.eta))
    elif command == "shriek":
        errors += _assertions_pass(report)
        _expect(errors, "i_!i^! point module (Z^(m-m_sub))", report["morse_at_origin"]["table"],
                _table(germ.m - germ.m_sub))
    elif command == "check":
        errors += _diagnostics_pass(report)
    elif command == "vanishing":
        errors += _isolating_pass(report)
        want = [(["x", "y"], germ.m_sub + germ.eta - 1)] + [(list(b.conormal), 1) for b in inside]
        errors += compare_cycle("gecc(vanishing) (Z^(m_sub+eta-1) at 0)", report["gecc_phi"],
                                want, names)
        errors += compare_cycle("CC(vanishing)", report["cc_phi"], want, names)
        errors += _agreement(report)
    return errors


# ---------------------------------------------------------------------------
# shared report predicates


def _assertions_pass(report: dict) -> list:
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    return [f"failed assertions: {failed}"] if failed else []


def _isolating_pass(report: dict) -> list:
    iso = report["isolating"]
    if iso["pass"] is not True or not all(iso["per_j"].values()):
        return [f"isolating check failed: {iso}"]
    return []


def _diagnostics_pass(report: dict) -> list:
    gen = report["genericity"]
    keys = ("dim0_polar_meet_vf", "dim0_polar_meet_vl", "componentwise_f_geq_l", "covector")
    bad = [k for k in keys if gen.get(k) is not True]
    errors = [f"genericity diagnostics not passed: {bad}"] if bad else []
    return errors + _isolating_pass(report)


def _agreement(report: dict) -> list:
    if "two_route_agreement" in report and report["two_route_agreement"] is not True:
        return ["blow-up and iteration routes disagree"]
    return []


def check_report(germ, command: str, report: dict) -> list:
    """All checks for one CLI report of the germ."""
    try:
        if germ.kind == "surface":
            return check_surface(command, report, germ.descriptor["ambient"]["coords"])
        return check_curve(command, report, germ)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def strip_run_fields(report: dict) -> dict:
    """The report without the fields that may differ between seeds."""
    return {k: v for k, v in report.items() if k not in ("seed", "engine")}


# ---------------------------------------------------------------------------
# kernel results against sympy


def _is_saturation(gens: tuple, I: tuple, h: str, names: tuple) -> bool:
    """The ideal of ``gens`` equals (I : h^infinity)."""
    if basis(I + (h,), names).exprs == [1]:
        # h is a unit modulo I, so the saturation is I itself
        return canon(gens, names) == canon(I, names)
    return lex_canon(gens, names) == saturation(I, h, names)


def check_kernel(problem: dict, result: dict, names: tuple) -> list:
    """The four kernel results of one problem against sympy, in Q[names]."""
    I = tuple(problem["I"])
    errors: list = []
    reduced = basis(I, names)
    got = frozenset(to_sympy(g, names) for g in result["groebner"])
    if got != frozenset(reduced.polys):
        errors.append(f"reduced basis of {I} differs from sympy")
    if not _is_saturation(tuple(result["saturate_element"]), I, problem["h"], names):
        errors.append(f"saturation of {I} by {problem['h']} differs from sympy")
    if lex_canon(tuple(result["eliminate"]), names) != elimination(I, names):
        errors.append(f"elimination of {names[0]} from {I} differs from sympy")
    (j,) = problem["J"]
    sat = tuple(result["saturate"])
    if not _is_saturation(sat, I, j, names):
        errors.append(f"saturation of {I} by ({j}) differs from sympy")
    e = result["saturate_exponent"]
    jj = to_sympy(j, names)

    def inside(power: int) -> bool:
        return all(reduced.contains(jj ** power * to_sympy(g, names)) for g in sat)

    if not inside(e) or (e > 0 and inside(e - 1)):
        errors.append(f"saturation exponent {e} of {I} by ({j}) is not the least one")
    return errors
