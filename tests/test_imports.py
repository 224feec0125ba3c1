"""Every name an engine module imports is used, every top-level def is,
and no engine module imports ``random``.

No linter ships with the package, so these stdlib-ast scans stand in for
one. An import counts as used when its bound name appears as a name
anywhere in the module, annotations included. A top-level function or
class of the engine counts as used when its name is referenced anywhere
in src/, tests/ or bench/ (a name, an attribute, an imported name, or a
string equal to it, as in bench/spans.py's wrap table) other than at its
own definition.
"""

import ast
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


def random_imports(path: Path) -> list:
    """Lines that import the random module: no engine result may depend on a seed."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "random":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_engine_does_not_import_random(path):
    assert random_imports(path) == []


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
    assert random_imports(module) == [1, 2, 7]


def referenced_names(paths) -> set:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unused_defs(modules, paths) -> list:
    used = referenced_names(paths)
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.name}: {node.name} (line {node.lineno})")
    return unused


def test_no_unused_top_level_defs():
    sources = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unused_defs(sorted(SRC.glob("*.py")), sources) == []


def test_scan_flags_an_unused_def(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def used():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return used()\n"
        "class Orphan:\n"
        "    pass\n"
    )
    assert unused_defs([module], [module]) == ["sample.py: orphan (line 3)", "sample.py: Orphan (line 5)"]
