"""One construction per command: within one CLI command no conormal is
built twice, no (stratum, f) rank witness is computed twice, no polar
length is measured twice, and no cycle component is intersected with the
same divisor or pushed to the same target twice. Objects kept for reuse
live in the memo of the ``engine_limits`` block that built them, so a
nested block with a tighter budget builds them again and hits its
budget."""

import pytest

from gecc_kit import conormal as conormal_module
from gecc_kit import cycles as cycles_module
from gecc_kit import hypersurface as hypersurface_module
from gecc_kit.cli import EXIT_OK, main
from gecc_kit.conormal import conormal_variety
from gecc_kit.hypersurface import polar_curve, polar_length
from gecc_kit.ideal import EngineLimits, ResourceLimitExceeded, engine_limits
from gecc_kit.polyring import parse_polynomial
from tests.conftest import running_example
from tests.test_cli import RUNNING_TXY, write_descriptor

CUSP_LINE = {
    "ambient": {"n": 1, "coords": ["x", "y"]},
    "strata": [
        {"name": "cusp", "ideal": ["y^2-x^3"], "dim": 1, "morse": {"0": {"rank": 1}}},
        {"name": "line", "ideal": ["y"], "dim": 1, "morse": {"0": {"rank": 1}}},
        {"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": {"rank": 2}}},
    ],
    "f": "y",
    "L": "x",
}

COMMANDS = [["gecc"], ["polar"], ["nearby"], ["shriek"], ["check"], ["vanishing", "--route", "both"]]


def _rows_key(rows):
    return tuple(tuple(row) for row in rows)


@pytest.fixture
def builds(monkeypatch):
    """Each construction of the five objects, keyed by what determines it."""
    seen = []
    from_rows = conormal_module._conormal_from_rows
    witness = conormal_module._rank_witness
    local_degree = hypersurface_module.local_degree
    intersect = cycles_module._intersect_component
    pushforward = cycles_module._pushforward_component

    def spy_from_rows(stratum, extra_rows, ambient_t):
        seen.append(("conormal", ambient_t, stratum.closure_ideal.groebner_basis(),
                     _rows_key(extra_rows)))
        return from_rows(stratum, extra_rows, ambient_t)

    def spy_witness(rows, size, ncols, modulus):
        seen.append(("rank witness", _rows_key(rows), size, ncols, modulus.groebner_basis()))
        return witness(rows, size, ncols, modulus)

    def spy_local_degree(I):
        seen.append(("local_degree", I.ctx, I.groebner_basis()))
        return local_degree(I)

    def spy_intersect(comp, g):
        seen.append(("intersection", comp, g))
        return intersect(comp, g)

    def spy_pushforward(comp, target):
        seen.append(("pushforward", comp, target))
        return pushforward(comp, target)

    monkeypatch.setattr(conormal_module, "_conormal_from_rows", spy_from_rows)
    monkeypatch.setattr(conormal_module, "_rank_witness", spy_witness)
    monkeypatch.setattr(hypersurface_module, "local_degree", spy_local_degree)
    monkeypatch.setattr(cycles_module, "_intersect_component", spy_intersect)
    monkeypatch.setattr(cycles_module, "_pushforward_component", spy_pushforward)
    return seen


@pytest.mark.parametrize("germ", [RUNNING_TXY, CUSP_LINE], ids=["running", "cusp-line"])
@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: " ".join(args))
def test_each_object_built_once_per_command(tmp_path, capsys, builds, germ, args):
    path = write_descriptor(tmp_path, germ)
    command, *rest = args
    assert main([command, path, *rest]) == EXIT_OK, capsys.readouterr().err
    kinds = {key[0] for key in builds}
    assert "conormal" in kinds
    if command != "gecc":
        assert {"rank witness", "intersection", "pushforward"} <= kinds
    repeated = [key[0] for i, key in enumerate(builds) if key in builds[:i]]
    assert repeated == []


def test_nested_tighter_block_rebuilds_the_conormal():
    sc = running_example(("t", "x", "y"))
    stratum, amb_t = sc.stratum("S2"), sc.tstar_ambient()
    conormal_variety(stratum, amb_t)  # no block: nothing is kept
    with engine_limits(EngineLimits()):
        comp = conormal_variety(stratum, amb_t)
        assert conormal_variety(stratum, amb_t) is comp
        with engine_limits(EngineLimits(spair_budget=0)):
            with pytest.raises(ResourceLimitExceeded):
                conormal_variety(stratum, amb_t)
        assert conormal_variety(stratum, amb_t) is comp


def test_nested_tighter_block_remeasures_a_polar_length():
    sc = running_example(("t", "x", "y"))
    ctx = sc.ambient.context()
    ft, lt = parse_polynomial("x", ctx), parse_polynomial("t", ctx)
    with engine_limits(EngineLimits()):
        report = polar_curve(sc, ft, lt)
        comp = report.components()[0]
        length = polar_length(comp, ft)
        with engine_limits(EngineLimits(spair_budget=0)):
            with pytest.raises(ResourceLimitExceeded):
                polar_length(comp, ft)
        assert polar_length(comp, ft) == length == 2
    with engine_limits(EngineLimits(spair_budget=0)):
        with pytest.raises(ResourceLimitExceeded):
            polar_length(comp, ft)
