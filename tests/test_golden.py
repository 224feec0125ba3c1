"""Golden reports: every everyday subcommand on the running surface and on
the cusp-line curve, and ``cc`` and ``oracle-curve`` on ``test_cli.py``'s
supplied tables and curve branches, compared byte for byte with the stored
fixtures.

For each case the ``--json`` report, less its ``engine`` counters (which
``oracle-curve`` does not report), and the plain transcript must equal
``tests/golden/<case>.json`` and ``tests/golden/<case>.txt``. A change that
alters any reported byte, an order included, fails here. To rewrite the fixtures from the engine in
``src/`` (only when a report is shown to have been wrong):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from gecc_kit.cli import EXIT_OK, main
from test_cli import CC_TABLES, ORACLE_CURVE

GOLDEN = pathlib.Path(__file__).with_name("golden")


def _Z(rank):
    return {"rank": rank, "torsion": []}


GERMS = {
    # V(y) union V(y^2-x^3-t^2 x^2) in (t, x, y), f = x, L = t
    "surface": {
        "ambient": {"n": 2, "coords": ["t", "x", "y"]},
        "strata": [
            {"name": "S1", "ideal": ["y"], "dim": 2, "morse": {"0": _Z(1)}},
            {"name": "S2", "ideal": ["y^2-x^3-t^2*x^2"], "dim": 2, "morse": {"0": _Z(1)}},
            {"name": "S3", "ideal": ["x", "y"], "dim": 1, "morse": {"0": _Z(2)}},
            {"name": "S4", "ideal": ["x+t^2", "y"], "dim": 1, "morse": {"0": _Z(1)}},
            {"name": "S0", "ideal": ["t", "x", "y"], "dim": 0, "morse": {"0": _Z(2)}},
        ],
        "f": "x",
        "L": "t",
        "seed": 1,
    },
    # V(y^2-x^3) union V(y) with the 1-shifted constant sheaf, f = y, L = x
    "cusp-line": {
        "ambient": {"n": 1, "coords": ["x", "y"]},
        "strata": [
            {"name": "b0", "ideal": ["y^2-x^3"], "dim": 1, "morse": {"0": _Z(1)}},
            {"name": "b1", "ideal": ["y"], "dim": 1, "morse": {"0": _Z(1)}},
            {"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": _Z(2)}},
        ],
        "f": "y",
        "L": "x",
        "seed": 1,
    },
    "tables": CC_TABLES,
    "curve": ORACLE_CURVE,
}

COMMANDS = [
    ("gecc",), ("conormal",), ("polar",), ("nearby",), ("shriek",), ("check",),
    ("vanishing", "--route", "both"),
]

CASES = [(germ, command) for germ in ("surface", "cusp-line") for command in COMMANDS]
CASES += [("tables", ("cc",)), ("curve", ("oracle-curve",))]


def _name(germ, command):
    return "-".join((germ, command[0], *command[2:]))


def _run(directory, germ, command, *extra):
    path = pathlib.Path(directory) / f"{germ}.json"
    path.write_text(json.dumps(GERMS[germ]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command[0], str(path), *command[1:], *extra])
    assert code == EXIT_OK
    return out.getvalue()


def _reports(directory, germ, command):
    """(the --json report less ``engine``, as printed; the plain transcript)."""
    report = json.loads(_run(directory, germ, command, "--json"))
    report.pop("engine", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n", _run(directory, germ, command)


@pytest.mark.parametrize("germ, command", CASES, ids=[_name(*case) for case in CASES])
def test_report_matches_golden(tmp_path, germ, command):
    report, transcript = _reports(tmp_path, germ, command)
    name = _name(germ, command)
    assert report == (GOLDEN / f"{name}.json").read_text()
    assert transcript == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for germ, command in CASES:
            report, transcript = _reports(directory, germ, command)
            name = _name(germ, command)
            (GOLDEN / f"{name}.json").write_text(report)
            (GOLDEN / f"{name}.txt").write_text(transcript)
            print(name, file=sys.stderr)
