"""Self-test of the benchmark's output checks: correct reports pass, perturbed ones fail.

    python3 -m pytest -q bench/test_checks.py

The reports here are written by hand in the engine's report schema, so
the test needs neither the engine nor a saved engine output.
"""

import copy
import json
import os

import checks
import inputs
from run import END_TO_END_UNITS, PER_LAYER_UNITS, CliWorkload, Tally, run_rounds

HERE = os.path.dirname(os.path.abspath(__file__))


def row(ideal, rank, ambient="TstarU"):
    return {"ambient": ambient, "coefficient": {"rank": rank, "torsion": []}, "degree": 0,
            "dim": 0, "ideal": ideal}


def surface_vanishing_report() -> dict:
    point, axis = ["t", "x", "y"], ["w0", "x", "y"]
    return {
        "isolating": {"pass": True, "per_j": {"0": True}, "s": 1},
        "gecc_phi": [row(point, 4), row(axis, 2)],
        "cc_phi": [{"ideal": point, "multiplicity": 4}, {"ideal": axis, "multiplicity": 2}],
        "lambda": {"0,0": [row(point, 4, "U")], "0,1": [row(["x", "y"], 2, "U")]},
        "trace": {"0": [
            {"j": 2, "pi": [row(["2*t*w1 - w0", "t^2 + x", "w2", "y"], 2),
                            row(["w0", "w2", "x", "y"], 2), row(["t", "w2", "x", "y"], 2)]},
            {"j": 1, "delta": [row(["w0", "w1 - 1", "w2", "x", "y"], 2)]},
            {"j": 0, "delta": [row(["t", "w0", "w1 - 1", "w2", "x", "y"], 4)]},
        ]},
        "two_route_agreement": True,
    }


def test_surface_vanishing_report_passes_and_perturbed_fails():
    germ = inputs.surface_germ()
    report = surface_vanishing_report()
    assert checks.check_report(germ, "vanishing", report) == []

    wrong_rank = copy.deepcopy(report)
    wrong_rank["gecc_phi"][0]["coefficient"]["rank"] = 5
    assert checks.check_report(germ, "vanishing", wrong_rank)

    wrong_component = copy.deepcopy(report)
    wrong_component["cc_phi"][1]["ideal"] = ["w1", "x", "y"]
    assert checks.check_report(germ, "vanishing", wrong_component)

    disagreeing = dict(report, two_route_agreement=False)
    assert checks.check_report(germ, "vanishing", disagreeing)


def test_curve_closed_forms():
    germ = inputs.cusp_line_germ()  # m = 3, eta = 3, m_sub = 1
    nearby = {
        "gecc_nearby": [row(["x", "y"], 3)],
        "morse_at_origin": {"table": {"0": {"rank": 3, "torsion": []}}},
    }
    assert checks.check_report(germ, "nearby", nearby) == []
    off_by_one = copy.deepcopy(nearby)
    off_by_one["morse_at_origin"]["table"]["0"]["rank"] = 2
    assert checks.check_report(germ, "nearby", off_by_one)

    vanishing = {
        "isolating": {"pass": True, "per_j": {"0": True}, "s": 1},
        "gecc_phi": [row(["x", "y"], 3), row(["w0", "y"], 1)],
        "cc_phi": [{"ideal": ["x", "y"], "multiplicity": 3}, {"ideal": ["w0", "y"], "multiplicity": 1}],
    }
    assert checks.check_report(germ, "vanishing", vanishing) == []
    missing_branch = dict(vanishing, gecc_phi=vanishing["gecc_phi"][:1])
    assert checks.check_report(germ, "vanishing", missing_branch)


def test_malformed_report_fails():
    assert checks.check_report(inputs.surface_germ(), "nearby", {"gecc_nearby": []})


def test_seed_dependent_report_fails():
    germ = inputs.cusp_line_germ()
    job1 = inputs.Job(germ.name, ("nearby",), 1)
    job2 = inputs.Job(germ.name, ("nearby",), 2)
    report = {
        "gecc_nearby": [row(["x", "y"], 3)],
        "morse_at_origin": {"table": {"0": {"rank": 3, "torsion": []}}},
        "seed": 1, "engine": {"groebner_runs": 10},
    }
    workload = CliWorkload(checks, {germ.name: germ}, [job1, job2], {})
    tally = Tally()
    workload.verify(job1, {"stdout": json.dumps(report)}, tally)
    other_seed = dict(report, seed=2, engine={"groebner_runs": 12})
    workload.verify(job2, {"stdout": json.dumps(other_seed)}, tally)
    assert tally.errors == []
    changed = copy.deepcopy(report)
    changed["gecc_nearby"].append(row(["w0", "x", "y"], 1))
    workload.verify(job2, {"stdout": json.dumps(changed)}, tally)
    assert tally.errors


def test_verdict_is_not_shared_between_germs():
    # the cusp-line's correct nearby report (eta = 3) is wrong for tangent-triple (eta = 4)
    cusp, triple = inputs.cusp_line_germ(), inputs.tangent_triple_germ()
    report = {
        "gecc_nearby": [row(["x", "y"], 3)],
        "morse_at_origin": {"table": {"0": {"rank": 3, "torsion": []}}},
    }
    workload = CliWorkload(checks, {g.name: g for g in (cusp, triple)}, [], {})
    tally = Tally()
    workload.verify(inputs.Job(cusp.name, ("nearby",), 1), {"stdout": json.dumps(report)}, tally)
    assert tally.errors == []
    workload.verify(inputs.Job(triple.name, ("nearby",), 1), {"stdout": json.dumps(report)}, tally)
    assert tally.errors


class ScriptedWorker:
    """Stands in for worker.py: answers every request with the same result."""

    def __init__(self, result: dict):
        self.result = result

    def ask(self, request: dict) -> dict:
        return dict(self.result)


def test_failed_problem_fails_the_run():
    germ = inputs.surface_germ()
    job = inputs.Job(germ.name, ("vanishing", "--route", "both"), 1)
    workload = CliWorkload(checks, {germ.name: germ}, [job], {germ.name: "surface.json"})
    diagnostic = {"code": 2, "solve_s": 0.5, "rss_kb": 1024, "stdout": "{}",
                  "stderr": "blow-up and iteration routes disagree"}
    for result in (diagnostic, {"error": "problem outlasted its time limit", "timed_out": True}):
        for trace in (False, True):
            tally = run_rounds(ScriptedWorker(result), workload, 0, trace)
            assert tally.failed == tally.attempted > 0
            assert len(tally.errors) == tally.failed
            assert tally.per_layer() if trace else tally.end_to_end(0.5)


def test_kernel_results_against_sympy():
    # I = (x^2 - y, y - 1): I : (x - 1)^oo = (x + 1, y - 1), reached after one quotient
    names = ("x", "y", "z")
    problem = {"I": ["x^2 - y", "y - 1"], "h": "x - 1", "J": ["x - 1"]}
    result = {
        "groebner": ["y - 1", "x^2 - 1"],
        "saturate_element": ["x + 1", "y - 1"],
        "eliminate": ["y - 1"],
        "saturate": ["x + 1", "y - 1"],
        "saturate_exponent": 1,
    }
    assert checks.check_kernel(problem, result, names) == []
    for key, bad in [("groebner", ["y - 1", "x^2 - y"]), ("saturate_element", ["x - 1", "y - 1"]),
                     ("eliminate", ["y - 2"]), ("saturate", ["x^2 - 1", "y - 1"]),
                     ("saturate_exponent", 0), ("saturate_exponent", 2)]:
        assert checks.check_kernel(problem, dict(result, **{key: bad}), names), key


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["pipeline", "blowup", "kernel"]
