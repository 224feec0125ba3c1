"""Membership in a certified prime is a normal form.

A component's ideal, a minimal-prime witness and a stratum closure (which
``StratifiedComplex`` certifies when it is built) are prime, and a prime
is its own radical, so the engine asks whether V(P) lies in V(J) by
normal forms mod P (``prime_contains_all``). The auxiliary-variable
radical test (``radical_contains``) has no engine caller; it is the
reference these tests check every such answer against."""

import json
import pathlib

import pytest

from gecc_kit import cycles, hypersurface, vanishing
from gecc_kit.cli import EXIT_OK, main
from gecc_kit.ideal import Ideal, prime_contains_all, radical_contains
from gecc_kit.polyring import base_context, parse_polynomial
from tests.test_built_once import COMMANDS, CUSP_LINE
from tests.test_cli import RUNNING_TXY, write_descriptor

TANGENT_TRIPLE = {
    "ambient": {"n": 1, "coords": ["x", "y"]},
    "strata": [
        {"name": "b0", "ideal": ["y"], "dim": 1, "morse": {"0": {"rank": 1}}},
        {"name": "b1", "ideal": ["y-x^2"], "dim": 1, "morse": {"0": {"rank": 1}}},
        {"name": "b2", "ideal": ["y+x^2"], "dim": 1, "morse": {"0": {"rank": 1}}},
        {"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": {"rank": 2}}},
    ],
    "f": "y",
    "L": "x",
}

# Groebner runs and S-pairs of ``vanishing --route both`` on the running
# surface, the same under every PYTHONHASHSEED. With the radical test on
# components it made 187 runs, 158 while each elimination's result ran its
# own degrevlex basis and projectivization took the radical test, 142 runs
# with 1762 S-pairs while derived ideals started from raw generators and
# lifted bases were confirmed by a run, and 136 runs with 1383 S-pairs
# while stratum closures took the radical test and projectivization ran
# each renamed basis, and 132 runs while certification ran the zero ideal
# left by a full linear substitution and examined an uncertified ideal
# twice, 118 runs while a principal ideal ran its monic generator, and
# 113 runs with 1379 S-pairs while a conormal was saturated at a
# nonconstant rank witness where a constant minor existed; so a
# Rabinowitsch run, a recomputed basis, a second
# certification pass or a re-formed pair of a parent basis that comes
# back fails here, with no timing.
RUNNING_VANISHING_BOTH_RUNS = 112
RUNNING_VANISHING_BOTH_SPAIRS = 1370


@pytest.fixture
def answers(monkeypatch):
    """Every prime-membership answer, checked against the radical test."""
    seen = []

    def checked(P, polys):
        polys = list(polys)
        answer = prime_contains_all(P, polys)
        assert answer == all(radical_contains(P, p) for p in polys), (P, polys)
        seen.append(answer)
        return answer

    for module in (cycles, hypersurface, vanishing):
        monkeypatch.setattr(module, "prime_contains_all", checked)
    return seen


@pytest.mark.parametrize("germ", [RUNNING_TXY, CUSP_LINE, TANGENT_TRIPLE],
                         ids=["running", "cusp-line", "tangent-triple"])
@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: " ".join(args))
def test_prime_membership_agrees_with_the_radical_test(tmp_path, capsys, answers, germ, args):
    path = write_descriptor(tmp_path, germ)
    command, *rest = args
    assert main([command, path, *rest]) == EXIT_OK, capsys.readouterr().err
    if command != "gecc":
        assert answers


def test_uncertified_ideals_keep_the_radical_route():
    ctx = base_context(["x"])
    double = Ideal(ctx, [parse_polynomial("x^2", ctx)])
    x = parse_polynomial("x", ctx)
    assert radical_contains(double, x)
    assert not double.contains(x)
    assert not prime_contains_all(double, [x])


def test_running_surface_two_routes_run_count(tmp_path, capsys):
    path = write_descriptor(tmp_path, RUNNING_TXY)
    assert main(["vanishing", path, "--route", "both", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["engine"]["groebner_runs"] <= RUNNING_VANISHING_BOTH_RUNS
    assert report["engine"]["spairs"] <= RUNNING_VANISHING_BOTH_SPAIRS


def test_only_the_ideal_module_names_the_radical_test():
    package = pathlib.Path(vanishing.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "radical_contains" in p.read_text())
    assert naming == ["ideal.py"]
