"""Batch front door: problem descriptors in, reports out.

One descriptor file describes one germ: ambient coordinates, strata with
Morse tables, the functions f and L, and options. Each subcommand fronts
one operation family; reports are printed as a transcript and optionally
as deterministic JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from .cycles import (
    AmbientSpace,
    GenericInjectivityFailure,
    GradedEnrichedCycle,
    ImproperIntersection,
    to_ordinary,
)
from .conormal import (
    FConstantOnStratum,
    RankAnomaly,
    StratificationError,
    StratifiedComplex,
    Stratum,
    gecc_assemble,
    relative_conormal_cycle,
)
from .hypersurface import (
    AssertionRecord,
    CurveBranch,
    GenericityFailure,
    PolarNotCurve,
    cc_of_tables,
    check_complement_restriction,
    check_polar_genericity,
    check_triangle,
    curve_gecc_oracle,
    nearby_gecc,
    nearby_morse_at_origin,
    polar_curve,
    shriek_morse_at_origin,
    star_equals_shriek,
)
from .ideal import (
    ENGINE_COUNTERS,
    CertificationFailure,
    EngineLimits,
    Ideal,
    NotZeroDimensional,
    ResourceLimitExceeded,
    engine_counters,
    engine_limits,
)
from .modclass import ModClass
from .polyring import ParseError, Polynomial, VarContext, base_context, parse_polynomial
from .vanishing import (
    ImproperStep,
    InconsistencyError,
    isolating_check,
    microsupport_phi_bound,
    vanishing_pipeline,
)

EXIT_OK = 0
EXIT_DIAGNOSTIC = 2
EXIT_RESOURCE = 3


class DescriptorError(ValueError):
    """The descriptor does not fit its schema; names the offending JSON path,
    or the option (``--f``, ``--L``) that stands in for a key."""

    def __init__(self, path: str, message: str, source: str = "descriptor"):
        super().__init__(f"{source} {path}: {message}")


_DIAGNOSTIC_ERRORS = (
    DescriptorError,
    ImproperIntersection,
    GenericInjectivityFailure,
    GenericityFailure,
    PolarNotCurve,
    ImproperStep,
    InconsistencyError,
    StratificationError,
    FConstantOnStratum,
    RankAnomaly,
)
_RESOURCE_ERRORS = (CertificationFailure, ResourceLimitExceeded, NotZeroDimensional)


@dataclass
class ProblemDescriptor:
    ambient: AmbientSpace
    complex: StratifiedComplex
    f: Polynomial | None
    L: Polynomial | None
    seed: int
    raw: dict


def _parse_morse(table: Mapping) -> dict:
    return {int(k): ModClass.from_json(v) for k, v in table.items()}


def _read_json(path: str):
    """The JSON document in the file at path; DescriptorError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DescriptorError(path, f"cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DescriptorError(path, f"cannot read: {exc}") from None


def load_descriptor(path: str) -> ProblemDescriptor:
    return descriptor_from_json(_read_json(path))


def _is_nat(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_degree(k: str) -> bool:
    try:
        int(k)
    except ValueError:
        return False
    return True


def _member(obj: Mapping, path: str, key: str, ok, what: str, default=...):
    """obj[key] checked by ok; default when absent, DescriptorError when required."""
    if key not in obj:
        if default is ...:
            raise DescriptorError(f"{path}.{key}", "missing")
        return default
    value = obj[key]
    if not ok(value):
        raise DescriptorError(f"{path}.{key}", f"expected {what}, got {json.dumps(value)}")
    return value


def _is_object(v) -> bool:
    return isinstance(v, dict)


def _validate_morse(table: Mapping, path: str) -> None:
    for k, m in table.items():
        mpath = f"{path}[{json.dumps(k)}]"
        if not _is_degree(k):
            raise DescriptorError(mpath, "degree key is not an integer")
        if not isinstance(m, dict):
            raise DescriptorError(mpath, "expected an object")
        _member(m, mpath, "rank", _is_nat, "a nonnegative integer", 0)
        _member(m, mpath, "torsion",
                lambda v: isinstance(v, list) and all(_is_nat(d) and d > 0 for d in v),
                "a list of positive integers", [])


# number of complexes each kind of ``cc`` check compares
_CHECK_TERMS = {"triangle": 3, "complement-restriction": 3, "equal": 2}


def _distinct(name: str, seen: set, path: str, what: str) -> None:
    """Record a name; a repeated one would make name lookups drop data."""
    if name in seen:
        raise DescriptorError(path, f"repeats the {what} name {json.dumps(name)}")
    seen.add(name)


def validate_descriptor(data) -> None:
    """Check the germ-descriptor schema before anything is built from it.

    That covers the ``complexes`` and ``checks`` tables read by ``cc``.
    """
    if not isinstance(data, dict):
        raise DescriptorError("$", "expected an object")
    amb = _member(data, "$", "ambient", _is_object, "an object")
    n = _member(amb, "$.ambient", "n", _is_nat, "a nonnegative integer")
    coords = _member(amb, "$.ambient", "coords", _is_strings, "a list of strings")
    if len(coords) != n + 1:
        raise DescriptorError(
            "$.ambient.coords", f"has {len(coords)} names, but n = {n} needs {n + 1}")
    if len(set(coords)) != len(coords):
        raise DescriptorError("$.ambient.coords", "names are not distinct")
    _validate_coords(coords, n)
    strata = _member(data, "$", "strata", lambda v: isinstance(v, list), "a list", [])
    names: set = set()
    for i, s in enumerate(strata):
        path = f"$.strata[{i}]"
        if not isinstance(s, dict):
            raise DescriptorError(path, "expected an object")
        _distinct(_member(s, path, "name", lambda v: isinstance(v, str), "a string"),
                  names, f"{path}.name", "stratum")
        _member(s, path, "ideal", _is_strings, "a list of strings")
        _member(s, path, "dim", _is_nat, "a nonnegative integer")
        _validate_morse(_member(s, path, "morse", _is_object, "an object", {}), f"{path}.morse")
    for key in ("f", "L", "label"):
        _member(data, "$", key, lambda v: v is None or isinstance(v, str), "a string", None)
    _member(data, "$", "seed", lambda v: isinstance(v, int) and not isinstance(v, bool),
            "an integer", 0)
    complexes = _member(data, "$", "complexes", _is_object, "an object", {})
    for cname, tables in complexes.items():
        cpath = f"$.complexes[{json.dumps(cname)}]"
        if not isinstance(tables, dict):
            raise DescriptorError(cpath, "expected an object")
        for sname, table in tables.items():
            spath = f"{cpath}[{json.dumps(sname)}]"
            if sname not in names:
                raise DescriptorError(spath, "names no stratum")
            if not isinstance(table, dict):
                raise DescriptorError(spath, "expected an object")
            _validate_morse(table, spath)
    checks = _member(data, "$", "checks", lambda v: isinstance(v, list), "a list", [])
    for i, check in enumerate(checks):
        path = f"$.checks[{i}]"
        if not isinstance(check, dict):
            raise DescriptorError(path, "expected an object")
        kind = _member(check, path, "type", lambda v: isinstance(v, str) and v in _CHECK_TERMS,
                       f"one of {', '.join(_CHECK_TERMS)}")
        count = _CHECK_TERMS[kind]
        terms = _member(check, path, "terms", lambda v: _is_strings(v) and len(v) == count,
                        f"a list of {count} complex names")
        for j, t in enumerate(terms):
            if t not in complexes:
                raise DescriptorError(f"{path}.terms[{j}]", f"names no complex: {json.dumps(t)}")
        _member(check, path, "name", lambda v: isinstance(v, str), "a string", None)


def _validate_coords(coords: list, n: int) -> None:
    """Each coordinate name is free, and the parser reads it back as that coordinate.

    The cotangent coordinates w0..wn and the tags u0..un share the
    coordinates' context, so their names are taken.
    """
    reserved = {f"{stem}{k}" for stem in "wu" for k in range(n + 1)}
    ctx = base_context(coords)
    for i, name in enumerate(coords):
        path = f"$.ambient.coords[{i}]"
        if name in reserved:
            raise DescriptorError(
                path, f"{json.dumps(name)} is reserved for the cotangent and tag coordinates "
                f"w0..w{n}, u0..u{n}")
        try:
            reads_back = parse_polynomial(name, ctx) == ctx.gen(name)
        except ParseError:
            reads_back = False
        if not reads_back:
            raise DescriptorError(path, f"{json.dumps(name)} does not read back as a coordinate name")


def validate_branches(data) -> None:
    """Check the oracle-curve schema: a nonempty list of branches."""
    if not isinstance(data, dict):
        raise DescriptorError("$", "expected an object")
    branches = _member(data, "$", "branches", lambda v: isinstance(v, list) and v,
                       "a nonempty list")
    names: set = set()
    for i, b in enumerate(branches):
        path = f"$.branches[{i}]"
        if not isinstance(b, dict):
            raise DescriptorError(path, "expected an object")
        _distinct(_member(b, path, "name", lambda v: isinstance(v, str), "a string"),
                  names, f"{path}.name", "branch")
        _member(b, path, "mult", lambda v: _is_nat(v) and v > 0, "a positive integer")
        _member(b, path, "in_vf", lambda v: isinstance(v, bool), "a boolean")
        _member(b, path, "eta", _is_nat, "a nonnegative integer", 0)


def _parse_at(text: str, ctx: VarContext, path: str, source: str = "descriptor") -> Polynomial:
    """parse_polynomial, with a parse error located at path."""
    try:
        return parse_polynomial(text, ctx)
    except ParseError as exc:
        raise DescriptorError(path, str(exc), source) from None


def descriptor_from_json(data: Mapping) -> ProblemDescriptor:
    validate_descriptor(data)
    amb_data = data["ambient"]
    ambient = AmbientSpace("U", amb_data["n"], tuple(amb_data["coords"]))
    ctx = ambient.context()
    strata = []
    for i, s in enumerate(data.get("strata", [])):
        gens = [_parse_at(t, ctx, f"$.strata[{i}].ideal[{j}]") for j, t in enumerate(s["ideal"])]
        strata.append(
            Stratum(s["name"], Ideal(ctx, gens), s["dim"], _parse_morse(s.get("morse", {})))
        )
    try:
        SC = StratifiedComplex(ambient, strata, data.get("label", "F"))
    except StratificationError as exc:
        raise DescriptorError(f"$.strata[{exc.index}].{exc.key}", str(exc)) from None
    f = _parse_at(data["f"], ctx, "$.f") if data.get("f") else None
    L = _parse_at(data["L"], ctx, "$.L") if data.get("L") else None
    return ProblemDescriptor(ambient, SC, f, L, data.get("seed", 12345), dict(data))


def _emit(report: dict, transcript: list, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in transcript:
            print(line)


def _cycle_lines(label: str, cyc: GradedEnrichedCycle) -> list:
    lines = [f"{label}:"]
    if not cyc:
        lines.append("  0")
    for k in sorted(cyc.degrees):
        for comp, m in cyc.degrees[k]._sorted():
            lines.append(f"  deg {k}: ({m}) [{', '.join(comp.gen_strings())}]")
    return lines


def cmd_gecc(desc: ProblemDescriptor, args) -> tuple:
    cyc = gecc_assemble(desc.complex)
    report = {"gecc": cyc.to_json(), "cc": to_ordinary(cyc).to_json()}
    return EXIT_OK, report, _cycle_lines("gecc(F)", cyc)


def cmd_conormal(desc: ProblemDescriptor, args) -> tuple:
    cyc = relative_conormal_cycle(desc.complex, desc.f)
    report = {"relative_conormal": cyc.to_json()}
    return EXIT_OK, report, _cycle_lines(f"relative conormal cycle of {desc.f}", cyc)


def cmd_polar(desc: ProblemDescriptor, args) -> tuple:
    rep = polar_curve(desc.complex, desc.f, desc.L)
    lines = _cycle_lines(f"polar curve of ({desc.f}; {desc.L})", rep.polar)
    return EXIT_OK, {"polar": rep.to_json()}, lines


def cmd_nearby(desc: ProblemDescriptor, args) -> tuple:
    psi = nearby_gecc(desc.complex, desc.f)
    report = {"gecc_nearby": psi.to_json(), "cc_nearby": to_ordinary(psi).to_json()}
    lines = _cycle_lines("gecc(nearby cycles, shifted)", psi)
    if desc.L is not None:
        prep = polar_curve(desc.complex, desc.f, desc.L)
        morse = nearby_morse_at_origin(prep, desc.f)
        report["morse_at_origin"] = morse.to_json()
        lines.append(f"Morse modules at origin: { {k: str(v) for k, v in morse.table.items()} }")
    return EXIT_OK, report, lines


def cmd_shriek(desc: ProblemDescriptor, args) -> tuple:
    rep = polar_curve(desc.complex, desc.f, desc.L)
    morse = shriek_morse_at_origin(rep, desc.L)
    nearby = nearby_morse_at_origin(rep, desc.f)
    records = star_equals_shriek(morse, nearby)
    report = {
        "morse_at_origin": morse.to_json(),
        "assertions": [r.to_json() for r in records],
    }
    lines = [f"i_!i^! Morse modules at origin: { {k: str(v) for k, v in morse.table.items()} }"]
    lines += [f"  [{'pass' if r.passed else 'FAIL'}] {r.name}" for r in records]
    ok = all(r.passed for r in records)
    return (EXIT_OK if ok else EXIT_DIAGNOSTIC), report, lines


def cmd_vanishing(desc: ProblemDescriptor, args) -> tuple:
    rep = vanishing_pipeline(desc.complex, desc.f, route=args.route)
    report = rep.to_json()
    lines = [f"isolating coordinates: {rep.isolating['per_j']} (s = {rep.isolating['s']})"]
    if not rep.isolating["pass"]:
        lines.append("isolating check FAILED for this coordinate order")
        return EXIT_DIAGNOSTIC, report, lines
    if rep.trace is not None:
        for k, steps in sorted(rep.trace.by_degree.items()):
            for step in steps:
                lines.append(f"degree {k}, cut by V({step.divisor}):")
                lines.append(f"  Pi^{step.j}    = {step.pi!r}")
                lines.append(f"  Delta^{step.j} = {step.delta!r}")
    if rep.lambdas is not None:
        for (k, j), cyc in sorted(rep.lambdas.cycles.items()):
            lines.append(f"Lambda^{j} (degree {k}) = {cyc!r}")
    if rep.gecc_phi is not None:
        if args.degree is not None:
            piece = rep.gecc_phi.degree(args.degree)
            lines.append(f"gecc^{args.degree}(vanishing cycles, shifted) = {piece!r}")
        lines += _cycle_lines("gecc(vanishing cycles, shifted)", rep.gecc_phi)
        lines.append(f"CC = {rep.cc_phi!r}")
    if rep.agreement is not None:
        lines.append(f"two-route agreement (blow-up vs iteration): {rep.agreement}")
        if not rep.agreement:
            return EXIT_DIAGNOSTIC, report, lines
    return EXIT_OK, report, lines


def cmd_check(desc: ProblemDescriptor, args) -> tuple:
    rep = polar_curve(desc.complex, desc.f, desc.L)
    bound_map = microsupport_phi_bound(desc.complex, desc.f)
    gen = check_polar_genericity(rep, desc.f, desc.L, bound_map.upper_components())
    iso = isolating_check(desc.complex, desc.f, bound_map.upper_components())
    ok = gen.all_pass() and iso["pass"]
    report = {"genericity": gen.to_json(), "isolating": {
        "s": iso["s"], "pass": iso["pass"],
        "per_j": {str(j): v for j, v in iso["per_j"].items()},
    }}
    lines = [
        f"dim_0 |polar| meet V(f) <= 0: {gen.dim_vf}",
        f"dim_0 |polar| meet V(L) <= 0: {gen.dim_vl}",
        f"componentwise (C.V(f))_0 >= (C.V(L))_0: {gen.componentwise}",
        f"covector avoids bound: {gen.covector}",
        f"isolating coordinates: {iso['per_j']}",
    ]
    return (EXIT_OK if ok else EXIT_DIAGNOSTIC), report, lines


def cmd_cc(desc: ProblemDescriptor, args) -> tuple:
    data = desc.raw
    tables = {}
    for name, per_stratum in data.get("complexes", {}).items():
        tables[name] = {
            sname: _parse_morse(tbl) for sname, tbl in per_stratum.items()
        }
    ccs = {
        name: cc_of_tables(desc.complex, tbl) for name, tbl in tables.items()
    }
    records = []
    for check in data.get("checks", []):
        kind = check["type"]
        if kind == "triangle":
            a, b, c = (ccs[x] for x in check["terms"])
            records.append(check_triangle(check.get("name", "triangle"), a, b, c))
        elif kind == "complement-restriction":
            f, shriek, jstar = (ccs[x] for x in check["terms"])
            records.append(check_complement_restriction(f, shriek, jstar))
        else:
            a, b = (ccs[x] for x in check["terms"])
            records.append(
                AssertionRecord(check.get("name", "equality"), a == b, repr(a), repr(b))
            )
    report = {
        "cc": {name: cc.to_json() for name, cc in sorted(ccs.items())},
        "assertions": [r.to_json() for r in records],
    }
    lines = [f"CC({name}) = {cc!r}" for name, cc in sorted(ccs.items())]
    lines += [f"  [{'pass' if r.passed else 'FAIL'}] {r.name}" for r in records]
    ok = all(r.passed for r in records)
    return (EXIT_OK if ok else EXIT_DIAGNOSTIC), report, lines


def cmd_oracle_curve(desc_data: Mapping, args) -> tuple:
    validate_branches(desc_data)
    branches = [
        CurveBranch(b["name"], b["mult"], b["in_vf"], b.get("eta", 0))
        for b in desc_data["branches"]
    ]
    oracle = curve_gecc_oracle(branches)
    report = {
        "point": {k: v.to_json() for k, v in oracle["point"].items()},
        "cc_point": oracle["cc_point"],
        "branches": {
            name: {b: m.to_json() for b, m in tbl.items()}
            for name, tbl in oracle["branches"].items()
        },
        "m": oracle["m"],
        "e": oracle["e"],
        "m_sub": oracle["m_sub"],
        "eta": oracle["eta"],
    }
    lines = [
        f"m = {oracle['m']}, e = {oracle['e']}, m_sub = {oracle['m_sub']}, eta = {oracle['eta']}"
    ] + [f"point coefficient {name}: {m}" for name, m in oracle["point"].items()]
    return EXIT_OK, report, lines


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecc-kit",
        description="exact graded enriched characteristic cycle engine",
    )
    parser.add_argument("command", choices=[
        "gecc", "conormal", "polar", "nearby", "shriek", "vanishing", "cc",
        "check", "oracle-curve",
    ])
    parser.add_argument("descriptor", help="problem descriptor JSON file")
    parser.add_argument("--degree", type=int, default=None, help="focus degree k")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--route", choices=["pidelta", "blowup", "both"], default="pidelta")
    parser.add_argument("--seed", type=int, default=None,
                        help="no effect on results; kept so reports still carry a seed")
    parser.add_argument("--f", dest="f_override", default=None, help="override f")
    parser.add_argument("--L", dest="l_override", default=None, help="override L")
    parser.add_argument("--spair-budget", type=_nonnegative_int, default=None)
    return parser


_COMMANDS = {
    "gecc": cmd_gecc,
    "conormal": cmd_conormal,
    "polar": cmd_polar,
    "nearby": cmd_nearby,
    "shriek": cmd_shriek,
    "vanishing": cmd_vanishing,
    "cc": cmd_cc,
    "check": cmd_check,
}
# the functions each subcommand needs, from the descriptor or --f/--L
_NEEDS = {
    "conormal": ("f",),
    "polar": ("f", "L"),
    "nearby": ("f",),
    "shriek": ("f", "L"),
    "vanishing": ("f",),
    "check": ("f", "L"),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limits = EngineLimits() if args.spair_budget is None else EngineLimits(args.spair_budget)
    try:
        with engine_limits(limits):
            if args.command == "oracle-curve":
                code, report, transcript = cmd_oracle_curve(_read_json(args.descriptor), args)
            else:
                for key in ENGINE_COUNTERS:
                    ENGINE_COUNTERS[key] = 0
                desc = load_descriptor(args.descriptor)
                if args.seed is not None:
                    desc.seed = args.seed
                ctx = desc.ambient.context()
                if args.f_override:
                    desc.f = _parse_at(args.f_override, ctx, "--f", "option")
                if args.l_override:
                    desc.L = _parse_at(args.l_override, ctx, "--L", "option")
                needs = _NEEDS.get(args.command, ())
                for key in needs:
                    if getattr(desc, key) is None:
                        raise DescriptorError(f"$.{key}", f"missing; {args.command} needs {key}")
                if "f" in needs and desc.f.constant_term() != 0:
                    # the germ is at the origin; the Pi/Delta route reads only df
                    path, source = ("--f", "option") if args.f_override else ("$.f", "descriptor")
                    raise DescriptorError(
                        path, f"f = {desc.f} does not vanish at the origin", source)
                code, report, transcript = _COMMANDS[args.command](desc, args)
                report["seed"] = desc.seed
                report["engine"] = engine_counters()
    except json.JSONDecodeError as exc:
        print(f"descriptor parse error (line {exc.lineno}, col {exc.colno}): {exc.msg}",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except _DIAGNOSTIC_ERRORS as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except _RESOURCE_ERRORS as exc:
        print(f"certification/resource failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    _emit(report, transcript, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
