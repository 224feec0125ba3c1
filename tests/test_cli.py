"""Batch front door: descriptor parsing, reports, exit codes, determinism."""

import json
import re
import sys

import pytest

from gecc_kit import cli as cli_module
from gecc_kit import ideal as ideal_module
from gecc_kit import vanishing as vanishing_module
from gecc_kit.cli import EXIT_DIAGNOSTIC, EXIT_OK, EXIT_RESOURCE, descriptor_from_json, main
from gecc_kit.cycles import ImproperIntersection
from gecc_kit.ideal import CertificationFailure, ResourceLimitExceeded

RUNNING_TXY = {
    "ambient": {"n": 2, "coords": ["t", "x", "y"]},
    "strata": [
        {"name": "S1", "ideal": ["y"], "dim": 2, "morse": {"0": {"rank": 1, "torsion": []}}},
        {"name": "S2", "ideal": ["y^2-x^3-t^2*x^2"], "dim": 2,
         "morse": {"0": {"rank": 1, "torsion": []}}},
        {"name": "S3", "ideal": ["x", "y"], "dim": 1, "morse": {"0": {"rank": 2, "torsion": []}}},
        {"name": "S4", "ideal": ["x+t^2", "y"], "dim": 1,
         "morse": {"0": {"rank": 1, "torsion": []}}},
        {"name": "S0", "ideal": ["t", "x", "y"], "dim": 0,
         "morse": {"0": {"rank": 2, "torsion": []}}},
    ],
    "f": "x",
    "L": "t",
    "seed": 12345,
}

RUNNING_XYT = dict(RUNNING_TXY, ambient={"n": 2, "coords": ["x", "y", "t"]})

# the parabola y = x^2 and the origin, in the isolating order (y, x)
PARABOLA = {
    "ambient": {"n": 1, "coords": ["y", "x"]},
    "strata": [
        {"name": "b0", "ideal": ["y-x^2"], "dim": 1, "morse": {"0": {"rank": 1}}},
        {"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": {"rank": 1}}},
    ],
    "f": "x",
    "L": "x+y",
}

ORACLE_CURVE = {
    "branches": [
        {"name": "cusp", "mult": 2, "in_vf": False, "eta": 3},
        {"name": "line", "mult": 1, "in_vf": True},
    ]
}

# CC-level checks with externally supplied tables (three complexes on
# V(z) union V(x,y), plus the skyscraper restrictions)
CC_TABLES = {
    "ambient": {"n": 2, "coords": ["x", "y", "z"]},
    "strata": [
        {"name": "S2", "ideal": ["z"], "dim": 2, "morse": {"0": {"rank": 1, "torsion": []}}},
        {"name": "S1", "ideal": ["x", "y"], "dim": 1, "morse": {"0": {"rank": 1, "torsion": []}}},
        {"name": "S0", "ideal": ["x", "y", "z"], "dim": 0, "morse": {"0": {"rank": 1, "torsion": []}}},
    ],
    "seed": 7,
    "complexes": {
        "A": {"S2": {"0": {"rank": 1, "torsion": []}},
              "S1": {"-1": {"rank": 1, "torsion": []}},
              "S0": {"-1": {"rank": 1, "torsion": []}}},
        "B": {"S2": {"0": {"rank": 1, "torsion": []}},
              "S1": {"-1": {"rank": 1, "torsion": []}},
              "S0": {"-1": {"rank": 2, "torsion": []}}},
        "C": {"S2": {"0": {"rank": 1, "torsion": []}},
              "S1": {"-1": {"rank": 1, "torsion": []}},
              "S0": {"-1": {"rank": 1, "torsion": []}, "1": {"rank": 1, "torsion": []}}},
        "JSTAR": {"S0": {"-2": {"rank": 1, "torsion": []}}},
    },
    "checks": [
        {"type": "triangle", "name": "B->A->jstar", "terms": ["B", "A", "JSTAR"]},
        {"type": "complement-restriction", "terms": ["A", "B", "JSTAR"]},
        {"type": "equal", "name": "CC(B)=CC(C)", "terms": ["B", "C"]},
    ],
}


def write_descriptor(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_gecc_command_transcript(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    code, out = run_cli(capsys, "gecc", path)
    assert code == EXIT_OK
    assert "gecc(F):" in out
    assert "deg 0" in out


def test_vanishing_command_reproduces_paper(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    code, out = run_cli(capsys, "vanishing", path, "--degree", "0")
    assert code == EXIT_OK
    assert "isolating coordinates: {0: True}" in out
    assert "CC = 4[V(y, x, t)] + 2[V(w0, y, x)]" in out


def test_vanishing_bad_coordinates_exit_2(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_XYT)
    code, out = run_cli(capsys, "vanishing", path)
    assert code == EXIT_DIAGNOSTIC


def test_check_command_passes(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    code, out = run_cli(capsys, "check", path, "--L", "t")
    assert code == EXIT_OK
    assert "componentwise" in out


def test_polar_and_conormal_and_shriek_commands(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_XYT)
    code, out = run_cli(capsys, "polar", path)
    assert code == EXIT_OK and "polar curve" in out
    code, out = run_cli(capsys, "conormal", path)
    assert code == EXIT_OK and "relative conormal" in out
    code, out = run_cli(capsys, "shriek", path)
    assert code == EXIT_OK and "[pass]" in out


@pytest.mark.parametrize("args", [
    ["gecc"], ["conormal"], ["polar"], ["nearby"], ["shriek"], ["check", "--L", "t"],
    ["vanishing", "--route", "both"],
], ids=lambda args: " ".join(args))
def test_spair_budget_binds_every_run(tmp_path, capsys, monkeypatch, args):
    runs = []  # (budget, S-pairs processed) per completed Buchberger run
    real = ideal_module._buchberger

    def spy(gens, keys, budget, stats):
        basis = real(gens, keys, budget, stats)
        runs.append((budget, stats.get("spairs", 0)))
        return basis

    monkeypatch.setattr(ideal_module, "_buchberger", spy)
    path = write_descriptor(tmp_path, RUNNING_TXY)
    command, *rest = args
    assert main([command, path, *rest, "--spair-budget", "987654"]) == EXIT_OK
    assert runs and {budget for budget, _ in runs} == {987654}
    # one pair short of the largest run: that run must refuse, cleanly
    tight = max(spairs for _, spairs in runs) - 1
    code = main([command, path, *rest, "--spair-budget", str(tight)])
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE, err
    assert "certification/resource failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error, expected, message", [
    (ResourceLimitExceeded("S-pair budget 5 exceeded"), EXIT_RESOURCE,
     "certification/resource failure: S-pair budget 5 exceeded"),
    (CertificationFailure("cannot certify"), EXIT_RESOURCE,
     "certification/resource failure: cannot certify"),
    (ImproperIntersection("component inside the divisor"), EXIT_DIAGNOSTIC,
     "diagnostic failure: degree 0, step j=2: component inside the divisor"),
], ids=["resource", "certification", "improper"])
def test_pi_delta_step_failure_keeps_its_exit_code(tmp_path, capsys, monkeypatch,
                                                   error, expected, message):
    # only an improper intersection makes a Pi/Delta step improper (exit 2);
    # a resource or certification failure inside a step leaves with exit 3
    def fail(cycle, divisor):
        raise error

    monkeypatch.setattr(vanishing_module, "divisor_intersect", fail)
    path = write_descriptor(tmp_path, RUNNING_TXY)
    code = main(["vanishing", path, "--route", "pidelta"])
    err = capsys.readouterr().err
    assert code == expected, err
    assert message in err
    assert "Traceback" not in err


def test_coordinate_named_like_an_auxiliary_variable(tmp_path, capsys):
    # the blow-up cone's auxiliary variable takes a fresh name, so a
    # coordinate called _s leaves the two-route check as it is on y
    renamed = json.loads(re.sub(r"\by\b", "_s", json.dumps(PARABOLA)))
    assert renamed["ambient"]["coords"] == ["_s", "x"]
    reports = []
    for data, name in ((PARABOLA, "y.json"), (renamed, "s.json")):
        path = write_descriptor(tmp_path, data, name)
        code, out = run_cli(capsys, "vanishing", path, "--route", "both", "--json")
        assert code == EXIT_OK
        reports.append(json.loads(out))
    plain, auxiliary = reports
    assert auxiliary["two_route_agreement"] is True

    def cycle(report, rename=lambda g: g):  # generators are listed sorted by text
        return sorted((sorted(map(rename, c["ideal"])), c["multiplicity"]) for c in report["cc_phi"])

    assert cycle(auxiliary) == cycle(plain, lambda g: re.sub(r"\by\b", "_s", g))


def test_installed_script_end_to_end(tmp_path):
    import subprocess
    import sys

    path = write_descriptor(tmp_path, RUNNING_TXY)
    proc = subprocess.run(
        ["gecc-kit", "vanishing", path, "--degree", "0", "--json"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["isolating"]["pass"] is True
    assert {"ideal": ["t", "x", "y"], "multiplicity": 4} in report["cc_phi"]


def test_json_determinism(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    code1, out1 = run_cli(capsys, "nearby", path, "--json")
    code2, out2 = run_cli(capsys, "nearby", path, "--json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    report = json.loads(out1)
    assert report["seed"] == 12345


def test_descriptor_without_a_seed_reports_the_default(tmp_path, capsys):
    data = {k: v for k, v in PARABOLA.items() if k != "seed"}
    assert descriptor_from_json(data).seed == 12345
    code, out = run_cli(capsys, "gecc", write_descriptor(tmp_path, data), "--json")
    assert code == EXIT_OK and json.loads(out)["seed"] == 12345


def test_report_round_trip(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    _, out = run_cli(capsys, "gecc", path, "--json")
    report = json.loads(out)
    desc = descriptor_from_json(RUNNING_TXY)
    from gecc_kit.conormal import gecc_assemble
    from gecc_kit.cycles import EnrichedCycle, GradedEnrichedCycle, component_from_prime
    from gecc_kit.ideal import Ideal
    from gecc_kit.modclass import ModClass
    from gecc_kit.polyring import parse_polynomial

    amb_t = desc.complex.tstar_ambient()
    ctx = amb_t.context()
    degrees = {}
    for row in report["gecc"]:
        comp = component_from_prime(
            Ideal(ctx, [parse_polynomial(s, ctx) for s in row["ideal"]]), amb_t
        )
        cyc = degrees.setdefault(row["degree"], EnrichedCycle(amb_t))
        degrees[row["degree"]] = cyc.add_term(comp, ModClass.from_json(row["coefficient"]))
    rebuilt = GradedEnrichedCycle(amb_t, degrees)
    assert rebuilt == gecc_assemble(desc.complex)


def test_empty_descriptor_zero_cycle(tmp_path, capsys):
    data = {"ambient": {"n": 1, "coords": ["x", "y"]}, "strata": [], "seed": 1}
    path = write_descriptor(tmp_path, data)
    code, out = run_cli(capsys, "gecc", path, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["gecc"] == []


def test_parse_error_exit_code(tmp_path, capsys):
    bad = dict(RUNNING_TXY)
    bad = json.loads(json.dumps(bad))
    bad["strata"][0]["ideal"] = ["y +"]
    path = write_descriptor(tmp_path, bad)
    code = main(["gecc", path])
    assert code == EXIT_DIAGNOSTIC


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"ambient": {')
    code = main(["gecc", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DIAGNOSTIC
    assert "line" in err


@pytest.mark.parametrize("command", ["gecc", "oracle-curve"])
@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "'utf-8' codec can't decode"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_descriptor_exit_2(tmp_path, capsys, command, kind, reason):
    path = tmp_path / "problem.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"label": "\xe9"}')  # Latin-1
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DIAGNOSTIC, err
    assert f"descriptor {path}: cannot read: {reason}" in err
    assert "Traceback" not in err


def test_negative_spair_budget_is_refused(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    assert main(["gecc", path, "--spair-budget", "-3"]) == EXIT_DIAGNOSTIC
    assert "--spair-budget" in capsys.readouterr().err
    # zero is a legal budget: the first S-pair exceeds it
    assert main(["gecc", path, "--spair-budget", "0"]) == EXIT_RESOURCE


def test_route_blowup_is_refused(tmp_path, capsys):
    # the blow-up runs only beside the Pi/Delta route, as the check of `both`
    path = write_descriptor(tmp_path, RUNNING_TXY)
    assert main(["vanishing", path, "--route", "blowup"]) == EXIT_DIAGNOSTIC
    assert "--route" in capsys.readouterr().err


# (arguments after the descriptor, or the whole command line when the
# first item is None; what the refusal names): each goes out through the
# diagnostic path, exit 2, naming the option
_BAD_ARGV = [
    (["--degree", "x"], "option --degree: expected an integer, got 'x'"),
    (["--seed", "1.5"], "option --seed: expected an integer, got '1.5'"),
    (["--route", "nope"], "option --route: expected pidelta or both, got 'nope'"),
    (["--spair-budget", "-3"], "option --spair-budget: expected a nonnegative integer, got '-3'"),
    (["--f"], "option --f: expected a value"),
    (["--nope"], "option --nope: unknown option"),
    (["--spair", "5"], "option --spair: unknown option"),  # no abbreviations
    (["--json=yes"], "option --json: takes no value"),
    (["extra.json"], "option descriptor: unexpected further argument 'extra.json'"),
    ([None, "frob", "problem.json"], "option command: expected one of gecc, conormal"),
    ([None, "gecc"], "option descriptor: missing"),
    ([None], "option command: missing"),
]


@pytest.mark.parametrize("extra, message", _BAD_ARGV,
                         ids=[" ".join(map(str, e)) for e, _ in _BAD_ARGV])
def test_bad_argv_is_refused_naming_the_option(tmp_path, capsys, extra, message):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    argv = extra[1:] if extra[:1] == [None] else ["gecc", path, *extra]
    assert main(argv) == EXIT_DIAGNOSTIC
    captured = capsys.readouterr()
    assert f"diagnostic failure: {message}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_accepted_argv_forms_give_the_same_report(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    canonical = ["vanishing", path, "--seed", "3", "--route", "both", "--json"]
    assert main(canonical) == EXIT_OK
    expected = capsys.readouterr()
    for argv in (
        ["vanishing", path, "--seed=3", "--route=both", "--json"],
        ["--json", "--seed", "3", "--route", "both", "vanishing", path],  # options first
        ["vanishing", "--seed", "3", path, "--route=both", "--json"],  # between the positionals
        ["--json", "--route", "both", "--seed", "3", "--", "vanishing", path],
    ):
        assert main(argv) == EXIT_OK, argv
        assert capsys.readouterr() == expected, argv


def test_value_may_start_with_a_dash(tmp_path, capsys):
    path = write_descriptor(tmp_path, PARABOLA)
    assert main(["vanishing", path, "--f", "-x"]) == EXIT_OK
    assert main(["vanishing", path, "--f=-x"]) == EXIT_OK


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_option(capsys, flag):
    assert main(["gecc", flag]) == EXIT_OK
    out = capsys.readouterr().out
    names = [*cli_module._COMMAND_NAMES, *cli_module._OPTIONS, "-h", "--help"]
    assert [name for name in names if name not in out] == []


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    assert main(["nearby", path, "--json"]) == EXIT_OK
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["gecc-kit", "nearby", path, "--json"])
    assert main() == EXIT_OK
    assert capsys.readouterr() == expected


def _without_ambient(data):
    del data["ambient"]


def _short_coords(data):
    data["ambient"]["coords"] = ["t", "x"]


def _negative_rank(data):
    data["strata"][2]["morse"]["0"]["rank"] = -1


@pytest.mark.parametrize("spoil, where", [
    (_without_ambient, "$.ambient"),
    (_short_coords, "$.ambient.coords"),
    (_negative_rank, '$.strata[2].morse["0"].rank'),
], ids=["missing-ambient", "coords-length", "negative-rank"])
def test_schema_error_names_path(tmp_path, capsys, spoil, where):
    data = json.loads(json.dumps(RUNNING_TXY))
    spoil(data)
    path = write_descriptor(tmp_path, data)
    code = main(["gecc", path])
    err = capsys.readouterr().err
    assert code == EXIT_DIAGNOSTIC
    assert f"descriptor {where}:" in err
    assert "Traceback" not in err


# Each schema key of each descriptor kind: (command, descriptor, key path,
# required, JSON path named in the message). A required key is deleted and
# every key is mistyped; both must exit 2 naming the path, never a traceback.
SCHEMA_KEYS = [
    ("gecc", RUNNING_TXY, ("ambient",), True, "$.ambient"),
    ("gecc", RUNNING_TXY, ("ambient", "n"), True, "$.ambient.n"),
    ("gecc", RUNNING_TXY, ("ambient", "coords"), True, "$.ambient.coords"),
    ("gecc", RUNNING_TXY, ("strata",), False, "$.strata"),
    ("gecc", RUNNING_TXY, ("strata", 0), False, "$.strata[0]"),
    ("gecc", RUNNING_TXY, ("strata", 0, "name"), True, "$.strata[0].name"),
    ("gecc", RUNNING_TXY, ("strata", 0, "ideal"), True, "$.strata[0].ideal"),
    ("gecc", RUNNING_TXY, ("strata", 0, "dim"), True, "$.strata[0].dim"),
    ("gecc", RUNNING_TXY, ("strata", 0, "morse"), False, "$.strata[0].morse"),
    ("gecc", RUNNING_TXY, ("strata", 0, "morse", "0"), False, '$.strata[0].morse["0"]'),
    ("gecc", RUNNING_TXY, ("strata", 0, "morse", "0", "rank"), False,
     '$.strata[0].morse["0"].rank'),
    ("gecc", RUNNING_TXY, ("strata", 0, "morse", "0", "torsion"), False,
     '$.strata[0].morse["0"].torsion'),
    ("gecc", RUNNING_TXY, ("f",), False, "$.f"),
    ("gecc", RUNNING_TXY, ("L",), False, "$.L"),
    ("gecc", RUNNING_TXY, ("seed",), False, "$.seed"),
    ("gecc", dict(RUNNING_TXY, label="running"), ("label",), False, "$.label"),
    ("cc", CC_TABLES, ("complexes",), False, "$.complexes"),
    ("cc", CC_TABLES, ("complexes", "A"), False, '$.complexes["A"]'),
    ("cc", CC_TABLES, ("complexes", "A", "S2"), False, '$.complexes["A"]["S2"]'),
    ("cc", CC_TABLES, ("complexes", "A", "S2", "0"), False, '$.complexes["A"]["S2"]["0"]'),
    ("cc", CC_TABLES, ("complexes", "A", "S2", "0", "rank"), False,
     '$.complexes["A"]["S2"]["0"].rank'),
    ("cc", CC_TABLES, ("checks",), False, "$.checks"),
    ("cc", CC_TABLES, ("checks", 0), False, "$.checks[0]"),
    ("cc", CC_TABLES, ("checks", 0, "type"), True, "$.checks[0].type"),
    ("cc", CC_TABLES, ("checks", 0, "terms"), True, "$.checks[0].terms"),
    ("cc", CC_TABLES, ("checks", 0, "name"), False, "$.checks[0].name"),
    ("oracle-curve", ORACLE_CURVE, ("branches",), True, "$.branches"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 0), False, "$.branches[0]"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 0, "name"), True, "$.branches[0].name"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 0, "mult"), True, "$.branches[0].mult"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 0, "in_vf"), True, "$.branches[0].in_vf"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 0, "eta"), False, "$.branches[0].eta"),
]
_WRONG_TYPE = {str: 7, bool: "yes", int: "7", list: {}, dict: []}
# values that have the right type but break the schema
_BAD_VALUES = [
    ("cc", CC_TABLES, ("complexes", "A", "S2", "0", "rank"), -1,
     '$.complexes["A"]["S2"]["0"].rank'),
    ("cc", CC_TABLES, ("complexes", "A", "S9"), {}, '$.complexes["A"]["S9"]'),
    ("cc", CC_TABLES, ("checks", 0, "terms", 2), "D", "$.checks[0].terms[2]"),
    ("cc", CC_TABLES, ("checks", 2, "type"), "triangle", "$.checks[2].terms"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 1, "mult"), 0, "$.branches[1].mult"),
    ("oracle-curve", ORACLE_CURVE, ("branches",), [], "$.branches"),
    # a repeated name: tables are looked up by name, so one would be dropped
    ("cc", CC_TABLES, ("strata", 1, "name"), "S2", "$.strata[1].name"),
    ("oracle-curve", ORACLE_CURVE, ("branches", 1, "name"), "cusp", "$.branches[1].name"),
    # polynomial text that does not parse in the declared coordinates
    ("gecc", PARABOLA, ("strata", 0, "ideal", 0), "y-z", "$.strata[0].ideal[0]"),
    ("vanishing", PARABOLA, ("f",), "x+", "$.f"),
    ("polar", PARABOLA, ("L",), "x+z", "$.L"),
    # closures: the declared dimension, a certified prime, no repeats
    ("gecc", PARABOLA, ("strata", 0, "dim"), 2, "$.strata[0].dim"),
    ("gecc", PARABOLA, ("strata", 0, "ideal"), ["y*(y-x^2)"], "$.strata[0].ideal"),
    ("gecc", PARABOLA, ("strata", 0, "ideal"), ["y^2"], "$.strata[0].ideal"),
    ("gecc", RUNNING_TXY, ("strata", 1, "ideal"), ["y"], "$.strata[1].ideal"),
    # the germ is at the origin: f must vanish there
    ("vanishing", PARABOLA, ("f",), "x+1", "$.f"),
    # coordinate names: the cotangent and tag names are taken, and the
    # parser must read each name back as its coordinate
    ("gecc", PARABOLA, ("ambient", "coords"), ["w0", "x"], "$.ambient.coords[0]"),
    ("gecc", PARABOLA, ("ambient", "coords"), ["y", "u1"], "$.ambient.coords[1]"),
    ("gecc", PARABOLA, ("ambient", "coords"), ["x y", "2"], "$.ambient.coords[0]"),
    ("gecc", PARABOLA, ("ambient", "coords"), ["y", "2"], "$.ambient.coords[1]"),
]
_CASES = [
    (command, base, keys, spoil, where)
    for command, base, keys, required, where in SCHEMA_KEYS
    for spoil in (["delete", "mistype"] if required else ["mistype"])
] + _BAD_VALUES


@pytest.mark.parametrize("command, base, keys, spoil, where", _CASES,
                         ids=[f"{c[0]}:{c[4]}:{c[3]}" for c in _CASES])
def test_every_schema_key_is_checked(tmp_path, capsys, command, base, keys, spoil, where):
    data = json.loads(json.dumps(base))
    holder = data
    for key in keys[:-1]:
        holder = holder[key]
    if spoil == "delete":
        del holder[keys[-1]]
    elif spoil == "mistype":
        holder[keys[-1]] = _WRONG_TYPE[type(holder[keys[-1]])]
    else:
        holder[keys[-1]] = spoil
    code = main([command, write_descriptor(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == EXIT_DIAGNOSTIC, err
    assert f"descriptor {where}:" in err
    assert "Traceback" not in err


CUSP = {
    "ambient": {"n": 1, "coords": ["x", "y"]},
    "strata": [
        {"name": "cusp", "ideal": ["y^2-x^3"], "dim": 1, "morse": {"0": {"rank": 1, "torsion": []}}},
        {"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": {"rank": 1, "torsion": []}}},
    ],
    "f": "y",
    "L": "x",
}
# (subcommand, function dropped from the descriptor, extra arguments, exit
# code): each subcommand without each function it needs, then --f
# supplying the missing f
_MISSING = [
    (command, key, [], EXIT_DIAGNOSTIC)
    for command, keys in [("conormal", "f"), ("polar", "fL"), ("nearby", "f"),
                          ("shriek", "fL"), ("vanishing", "f"), ("check", "fL")]
    for key in keys
] + [("polar", "f", ["--f", "y"], EXIT_OK)]


@pytest.mark.parametrize("command, key, extra, expected", _MISSING,
                         ids=[f"{c}:{k}{''.join(e)}" for c, k, e, _ in _MISSING])
def test_missing_function_is_located(tmp_path, capsys, command, key, extra, expected):
    data = {k: v for k, v in CUSP.items() if k != key}
    code = main([command, write_descriptor(tmp_path, data), *extra])
    err = capsys.readouterr().err
    assert code == expected, err
    if expected == EXIT_DIAGNOSTIC:
        assert f"descriptor $.{key}: missing" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("closure, primes", [
    ("y*(y-x^2)", "its minimal primes are [x^2 - y], [y]"),
    ("y^2", "its minimal primes are [y]"),
], ids=["reducible", "not-radical"])
def test_closure_that_is_not_prime_lists_its_minimal_primes(tmp_path, capsys, closure, primes):
    data = json.loads(json.dumps(PARABOLA))
    data["strata"][0]["ideal"] = [closure]
    code = main(["gecc", write_descriptor(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == EXIT_DIAGNOSTIC, err
    assert "descriptor $.strata[0].ideal: stratum b0: closure is not a prime ideal" in err
    assert primes in err
    assert "Traceback" not in err


# (subcommand, override, message): an override that cannot be used names
# the option, and f must vanish at the origin wherever it comes from
_BAD_OPTIONS = [
    ("vanishing", ["--f", "3"], "option --f: f = 3 does not vanish at the origin"),
    ("vanishing", ["--route", "both", "--f", "x+1"],
     "option --f: f = x + 1 does not vanish at the origin"),
    ("check", ["--f", "x+q"], "option --f: unknown variable 'q'"),
    ("polar", ["--L", "x+q"], "option --L: unknown variable 'q'"),
]


@pytest.mark.parametrize("command, extra, message", _BAD_OPTIONS,
                         ids=[f"{c}:{' '.join(e)}" for c, e, _ in _BAD_OPTIONS])
def test_unusable_override_names_the_option(tmp_path, capsys, command, extra, message):
    code = main([command, write_descriptor(tmp_path, PARABOLA), *extra])
    err = capsys.readouterr().err
    assert code == EXIT_DIAGNOSTIC, err
    assert message in err
    assert "Traceback" not in err


def test_f_off_the_origin_is_refused_only_where_f_is_read(tmp_path, capsys):
    path = write_descriptor(tmp_path, dict(PARABOLA, f="x+1"))
    assert main(["gecc", path]) == EXIT_OK
    assert main(["vanishing", path, "--f", "x"]) == EXIT_OK
    assert main(["conormal", path]) == EXIT_DIAGNOSTIC


# (descriptor keys, options, message): an exponent or a power above
# EXPONENT_CAP, also the most standard monomials the engine counts, or
# products of more than PRODUCT_CAP term pairs, is a resource failure
# refused where it is read, before the power or product is computed
_HUGE_EXPONENTS = [
    ({"f": "x^1000000000000"}, [],
     "descriptor $.f: exponent 1000000000000 is above the cap 200000 (line 1, col 15)"),
    ({}, ["--f", "x^1000000000000"],
     "option --f: exponent 1000000000000 is above the cap 200000"),
    ({}, ["--f", "(x+y)^200001"], "option --f: exponent 200001 is above the cap 200000"),
    ({"f": "(x+y)^200000"}, [],
     "descriptor $.f: exponent 200000 on 2 terms allows a power of more than 200000 terms"),
    ({"L": "x^150000*x^150000"}, [],
     "descriptor $.L: a product has degree 300000 in one variable, above the cap 200000"),
    ({}, ["--f", "(x+y)^2000"],
     "option --f: products would multiply more than 1000000 term pairs (line 1, col 10)"),
    ({"L": "(x+y)^600*(x+y)^600*(x+y)^600"}, [],
     "descriptor $.L: products would multiply more than 1000000 term pairs"),
]


@pytest.mark.parametrize("keys, extra, message", _HUGE_EXPONENTS,
                         ids=["f", "--f", "--f-sum", "f-terms", "L-product", "--f-pairs", "L-pairs"])
def test_exponent_above_the_count_cap_is_refused_at_the_front_door(
        tmp_path, capsys, keys, extra, message):
    code = main(["nearby", write_descriptor(tmp_path, dict(PARABOLA, **keys)), *extra])
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE, err
    assert err.startswith(f"certification/resource failure: {message}")
    assert "Traceback" not in err


def test_oracle_curve_command(tmp_path, capsys):
    path = write_descriptor(tmp_path, ORACLE_CURVE, "curve.json")
    code, out = run_cli(capsys, "oracle-curve", path, "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["point"]["A"] == {"rank": 2, "torsion": []}
    assert report["point"]["Q"] == {"rank": 3, "torsion": []}


def test_cc_command_curve_triangle(tmp_path, capsys):
    path = write_descriptor(tmp_path, CC_TABLES, "cc.json")
    code, out = run_cli(capsys, "cc", path)
    assert code == EXIT_OK
    assert out.count("[pass]") == 3
