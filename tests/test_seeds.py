"""Results do not depend on the seed.

Two plane-curve germs once gave seed-dependent results: one a wrong
characteristic cycle, one a two-route check that ran for minutes. Both
are pinned here at the seeds that showed it, and the deterministic
reports of the running example and a curve germ are compared across
seeds.
"""

import json

import pytest

from gecc_kit.cli import EXIT_OK, main

from test_cli import RUNNING_TXY, write_descriptor


def curve_descriptor(branches, L, origin_rank):
    """Union of branches, coordinates (y, x), f = x, 1-shifted constant sheaf."""
    def Z(r):
        return {"rank": r, "torsion": []}

    strata = [
        {"name": f"b{i}", "ideal": [b], "dim": 1, "morse": {"0": Z(1)}}
        for i, b in enumerate(branches)
    ]
    strata.append({"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": Z(origin_rank)}})
    return {"ambient": {"n": 1, "coords": ["y", "x"]}, "strata": strata, "f": "x", "L": L}


# (branch . V(x))_0 is 1 and 2, no branch lies in V(x): CC = Z^(1+2-1) at 0
CURVE_TWO_TANGENCIES = curve_descriptor(["y+2*x^2", "x+1*y^2"], "x+1*y", 1)
# branch multiplicities 2 and 1
CURVE_CUSP_PARABOLA = curve_descriptor(["y^3-1*x^2", "x-1*y^2"], "x+4*y", 2)


def json_report(tmp_path, capsys, data, *args):
    path = write_descriptor(tmp_path, data)
    code = main([args[0], path, "--json", *args[1:]])
    assert code == EXIT_OK, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


def test_curve_characteristic_cycle_at_seed_7(tmp_path, capsys):
    report = json_report(
        tmp_path, capsys, CURVE_TWO_TANGENCIES, "vanishing", "--route", "pidelta", "--seed", "7"
    )
    assert report["cc_phi"] == [{"ideal": ["x", "y"], "multiplicity": 2}]


def test_curve_two_routes_agree_at_seed_6(tmp_path, capsys):
    report = json_report(
        tmp_path, capsys, CURVE_CUSP_PARABOLA, "vanishing", "--route", "both", "--seed", "6"
    )
    assert report["two_route_agreement"] is True


@pytest.mark.parametrize("command", [("nearby",), ("vanishing", "--route", "pidelta")],
                         ids=lambda c: c[-1])
@pytest.mark.parametrize("data", [RUNNING_TXY, CURVE_TWO_TANGENCIES], ids=["surface", "curve"])
def test_reports_identical_across_seeds(tmp_path, capsys, data, command):
    reports = []
    for seed in range(1, 9):
        report = json_report(tmp_path, capsys, data, *command, "--seed", str(seed))
        del report["seed"], report["engine"]
        reports.append(report)
    assert all(r == reports[0] for r in reports[1:])
