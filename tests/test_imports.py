"""Every name an engine module imports is used, every top-level def and
method is, no engine module imports ``random``, ``sympy`` or ``argparse``,
a CLI call loads no argparse, gettext or locale, the CLI runs
and factors with no sympy module loaded and gives the same output where
sympy cannot be imported at all, no engine function takes a ``limits``
parameter, no engine module reads a private ``Fraction`` attribute or
names a second definition of a monomial order, every engine definition is
reached from the engine or the benchmark, and every engine name that
bench/spans.py traces exists.

No linter ships with the package, so these stdlib-ast scans stand in for
one. An import counts as used when its bound name appears as a name
anywhere in the module, annotations included. A top-level function or
class of the engine counts as used when its name is referenced anywhere
in src/ or bench/ (a name, an attribute, an imported name, or a string
equal to it, as in bench/spans.py's wrap table); a non-dunder method of
a top-level class only through an attribute, an imported name or a
string, so that a local variable of the same name does not count. A
reference from tests/ does not count: code that only the tests call
belongs in tests/ (tests/reference.py holds the references they check
the engine against).
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gecc_kit"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: Sequence) -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(module) == ["Mapping (line 3)", "os (line 2)"]


def imports_of(path: Path, top: str) -> list:
    """Lines that import the module ``top`` or one of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == top for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == top:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_engine_does_not_import_random(path):
    assert imports_of(path, "random") == []  # no engine result may depend on a seed


def test_scan_flags_a_random_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os, random\n"
        "from random import Random\n"
        "import randomness\n"
        "from . import random_tools\n"
        "from .random import tools\n"
        "def f():\n"
        "    import random as r\n"
        "    return r, os, Random\n"
    )
    assert imports_of(module, "random") == [1, 2, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_decompose_imports_sympy(path):
    """No engine module imports sympy, decompose.py and its factoriser included."""
    assert imports_of(path, "sympy") == []


def test_scan_flags_a_sympy_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os, sympy\n"
        "from sympy.polys.rings import PolyRing\n"
        "import sympyish\n"
        "from . import sympy_tools\n"
        "def f():\n"
        "    import sympy.polys as sp\n"
        "    return sp, os, PolyRing\n"
    )
    assert imports_of(module, "sympy") == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_engine_does_not_import_argparse(path):
    assert imports_of(path, "argparse") == []  # cli.py reads argv with its own table


# A CLI call reads its argv with no argparse, so a fresh process pays
# neither its import nor the gettext and locale lookups of its first parse.
CLI_PROBE = """
import sys
from gecc_kit.cli import main
code = main(["gecc", sys.argv[1], "--json"])
print(code, sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules))
"""


def test_cli_call_loads_no_argparse(tmp_path):
    from test_cli import RUNNING_TXY, write_descriptor

    path = write_descriptor(tmp_path, RUNNING_TXY)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", CLI_PROBE, path], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


# Factoring over Q is native: importing the CLI and factoring, reducible
# inputs included, loads no sympy module, so a fresh process pays no
# sympy import.
FACTOR_PROBE = """
import sys
import gecc_kit.cli
from gecc_kit.decompose import factor_list
from gecc_kit.polyring import base_context, parse_polynomial
ctx = base_context(["x", "y", "t", "w0"])
for text in ["y*(y^2-x^3-t^2*x^2)", "x^2-1/4*t^2", "(x+w0)^3*(2*y-t)", "3*x^2*y-1/2*y^3"]:
    assert factor_list(parse_polynomial(text, ctx))
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_factoring_loads_no_sympy_tensor():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", FACTOR_PROBE], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# The same commands where sympy cannot be imported: sys.modules["sympy"] =
# None makes every import of it raise ImportError.
NO_SYMPY_RUN = """
import sys
sys.modules["sympy"] = None
from gecc_kit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args", [["gecc"], ["nearby"], ["vanishing", "--route", "both"]],
                         ids=lambda args: " ".join(args))
def test_cli_runs_where_sympy_cannot_be_imported(tmp_path, capsys, args):
    from gecc_kit.cli import main
    from test_cli import RUNNING_TXY, write_descriptor

    path = write_descriptor(tmp_path, RUNNING_TXY)
    command, *rest = args
    assert main([command, path, *rest]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", NO_SYMPY_RUN, command, path, *rest], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == expected


# Limits reach the Groebner kernel through one context variable in
# ideal.py, set by cli.main; threading them by hand again would let some
# runs fall back to the default budget.
LIMITS_OWNERS = {"ideal.py", "cli.py"}


def limits_parameters(path: Path) -> list:
    """Functions that take a parameter named ``limits``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "limits" for p in params):
                found.append(f"{getattr(node, 'name', 'lambda')} (line {node.lineno})")
    return found


def limits_names(path: Path) -> list:
    """Lines that name ``EngineLimits`` or ``DEFAULT_LIMITS``."""
    names = {"EngineLimits", "DEFAULT_LIMITS"}
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_limits_parameter(path):
    assert limits_parameters(path) == []
    if path.name not in LIMITS_OWNERS:
        assert limits_names(path) == []


def test_scan_flags_limits_threading(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from .ideal import DEFAULT_LIMITS, Ideal\n"
        "from . import ideal\n"
        "def f(I, limits=None):\n"
        "    return I, limits or DEFAULT_LIMITS\n"
        "class C:\n"
        "    def g(self, *, limits):\n"
        "        return ideal.EngineLimits(), Ideal, limits\n"
        "def h(I, limits_seen=0):\n"
        "    return I\n"
    )
    assert limits_parameters(module) == ["f (line 3)", "g (line 6)"]
    assert limits_names(module) == [1, 4, 7]


# Coefficients are read and normalised through Fraction's public numerator
# and denominator: the private slots behind them are no API, and CI runs
# Python 3.10-3.13.
PRIVATE_FRACTION_ATTRIBUTES = {"_numerator", "_denominator"}


def private_fraction_reads(path: Path) -> list:
    """Lines that name a private Fraction attribute, as an attribute or a string."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in PRIVATE_FRACTION_ATTRIBUTES
                or isinstance(node, ast.Constant) and node.value in PRIVATE_FRACTION_ATTRIBUTES):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_fraction_attributes(path):
    assert private_fraction_reads(path) == []


def test_scan_flags_a_private_fraction_attribute(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from fractions import Fraction\n"
        "def f(c: Fraction):\n"
        "    return c._numerator, c.denominator\n"
        "def g(c):\n"
        "    return getattr(c, '_denominator'), c.numerator_\n"
    )
    assert private_fraction_reads(module) == [3, 5]


# A monomial order has one definition, its weight rows, which only the
# polynomial module reads; the rest of the engine compares monomials packed.
ORDER_DEFINITIONS = ("key_function", "sorted_terms", ".leading(")


def test_orders_are_defined_once():
    naming = {p.name: [w for w in ORDER_DEFINITIONS if w in p.read_text()]
              for p in sorted(SRC.glob("*.py"))}
    assert {name: words for name, words in naming.items() if words} == {}
    assert sorted(p.name for p in SRC.glob("*.py") if "weight_rows" in p.read_text()) == [
        "polyring.py"]


def referenced_names(paths) -> tuple:
    """(names referenced as an attribute, an imported name or a string,
    names referenced as a bare name)."""
    reached, bare = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reached.add(node.value)
    return reached, bare


def defined_names(tree: ast.Module):
    """(name, node) of each top-level def and class and of each non-dunder
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unused_defs(modules, paths) -> list:
    reached, bare = referenced_names(paths)
    named = reached | bare
    unused = []
    for path in modules:
        for name, node in defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            if node.name not in (reached if "." in name else named):
                unused.append(f"{path.name}: {name} (line {node.lineno})")
    return unused


# Methods that only the tests call: value constructors that they build
# fixtures with, where the engine builds the same values another way, and
# one identity of the paper.
TEST_ONLY_METHODS = {
    # the engine builds a graded cycle from its degree map
    "cycles.py: GradedEnrichedCycle.single",
    # the engine subtracts ordinary cycles with OrdinaryCycle.minus
    "cycles.py: OrdinaryCycle.scaled",
    # Morse modules reach the engine as parsed rank/torsion tables
    "modclass.py: ModClass.cyclic",
    # the tests check the paper's degree-shift identity with it
    "cycles.py: GradedEnrichedCycle.shift",
}


def unreached_defs(root: Path) -> list:
    """The defs of root/src/gecc_kit that nothing under root/src or
    root/bench references; root/tests is not read."""
    sources = [p for d in ("src", "bench") for p in sorted((root / d).rglob("*.py"))]
    return unused_defs(sorted((root / "src" / "gecc_kit").glob("*.py")), sources)


def test_no_unused_top_level_defs():
    unreached = unreached_defs(ROOT)
    assert [u for u in unreached if u.partition(" (line")[0] not in TEST_ONLY_METHODS] == []


def test_scan_flags_an_unused_def(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def used():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return used()\n"
        "class Orphan:\n"
        "    pass\n"
        "class Kept:\n"
        "    def __init__(self):\n"
        "        self.x = used()\n"
        "    def called(self):\n"
        "        return self.x\n"
        "    def uncalled(self):\n"
        "        return self.called()\n"
        "    def shadowed(self):\n"  # a local of its name reaches no method
        "        shadowed = used()\n"
        "        return shadowed\n"
        "Kept()\n"
    )
    assert unused_defs([module], [module]) == [
        "sample.py: orphan (line 3)", "sample.py: Orphan (line 5)", "sample.py: Kept.uncalled (line 12)",
        "sample.py: Kept.shadowed (line 14)"]


def test_scan_flags_a_test_only_def(tmp_path):
    files = {
        "src/gecc_kit/engine.py": "def traced():\n    return 1\ndef reference():\n    return 2\n",
        "src/gecc_kit/cli.py": "from .engine import *\n",
        "bench/spans.py": "SPANS = {('engine', 'traced'): 'engine.traced'}\n",
        "tests/test_engine.py": "from gecc_kit.engine import reference, traced\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unreached_defs(tmp_path) == ["engine.py: reference (line 3)"]


def test_every_traced_name_exists():
    # spans.install looks each (module, attribute) of SPANS up with no
    # default, so a traced run breaks on a deleted or renamed engine name
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr in spans.SPANS
        if not hasattr(importlib.import_module(f"gecc_kit.{module}"), attr)
    ]
    assert spans.SPANS and missing == []
