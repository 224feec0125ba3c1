"""Milnor numbers as an oracle for hypersurface germs in smooth ambient space.

On a smooth ambient space with one stratum, a germ f with an isolated
critical point at the origin has CC(phi_f) = mu(f) [T*_0] (Milnor 1968),
where mu is its Milnor number. The expected mu comes from closed forms,
with no engine call: prod(a_i - 1) for a Brieskorn-Pham sum of powers
x_i^a_i, and k for the normal form D_k. A germ f(x, y) on coordinates
(z, x, y) with L = z is critical along the z-axis and gives mu(f) times
the conormal of that axis, V(w0, x, y).
"""

import json
from math import prod

import pytest

from gecc_kit import ideal as ideal_module
from gecc_kit.cli import EXIT_OK, main


def pham(*exponents):
    """mu of sum x_i^a_i."""
    return prod(a - 1 for a in exponents)


CASES = [
    # (coordinates, L, f, mu, ideal of the conormal cycle)
    (("x", "y"), "x", "x^2+y^3", pham(2, 3), ["x", "y"]),             # A2
    (("x", "y"), "x", "x^2+y^5", pham(2, 5), ["x", "y"]),             # A4
    (("x", "y"), "x", "x^2*y+y^3", 4, ["x", "y"]),                    # D4
    (("x", "y"), "x", "x^3+y^4", pham(3, 4), ["x", "y"]),             # E6
    (("x", "y", "z"), "x", "x^2+y^2+z^2", pham(2, 2, 2), ["x", "y", "z"]),  # A1
    (("x", "y", "z"), "x", "x^2+y^2+z^4", pham(2, 2, 4), ["x", "y", "z"]),  # A3
    (("x", "y", "z"), "x", "x^2+y^3+z^4", pham(2, 3, 4), ["x", "y", "z"]),
    (("z", "x", "y"), "z", "x^2+y^3", pham(2, 3), ["w0", "x", "y"]),  # along the z-axis
]


def write_germ(tmp_path, coords, L, f):
    """A smooth ambient space as one stratum, whose closure is the zero ideal."""
    descriptor = {
        "ambient": {"n": len(coords) - 1, "coords": list(coords)},
        "strata": [{"name": "U", "ideal": [], "dim": len(coords), "morse": {"0": {"rank": 1}}}],
        "f": f,
        "L": L,
    }
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(descriptor))
    return str(path)


@pytest.mark.parametrize("coords, L, f, mu, ideal", CASES, ids=[c[2] + "@" + "".join(c[0]) for c in CASES])
def test_vanishing_cycle_is_the_milnor_number(tmp_path, capsys, coords, L, f, mu, ideal):
    path = write_germ(tmp_path, coords, L, f)
    assert main(["vanishing", path, "--route", "both", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["two_route_agreement"] is True
    assert report["cc_phi"] == [{"ideal": ideal, "multiplicity": mu}]


def test_zero_ideal_takes_no_groebner_run(tmp_path, capsys, monkeypatch):
    # the zero ideal is its own reduced basis
    runs = []  # the number of generators of each Buchberger run
    real = ideal_module._buchberger

    def spy(gens, keys, budget, stats):
        runs.append(len(gens))
        return real(gens, keys, budget, stats)

    monkeypatch.setattr(ideal_module, "_buchberger", spy)
    assert main(["nearby", write_germ(tmp_path, ("x", "y"), "x", "x^2+y^3"), "--json"]) == EXIT_OK
    assert runs and 0 not in runs
