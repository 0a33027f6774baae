"""Source hygiene: no module under src/interconnect/ imports a name it never
uses or holds a float, and the package exports each public name once.

The import and float checks read each module with the standard-library `ast`
parser, so they need nothing beyond the interpreter. `from __future__` imports
and the package `__init__.py` (whose imports are its public re-exports) are
exempt from the import check. The float check covers every module: the
simulator's values are ints and `Fraction`s, and its integer paths (telemetry
jitter, MAPE-K analysis) are exact only while no float enters them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import interconnect

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interconnect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """`<line>: <name>` for each module-level import the module never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused.extend(f"{node.lineno}: {name}" for name in names if name not in used)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import_and_spares_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from typing import Callable\n"
        "def f(x: Callable[[], None]) -> F:\n"
        "    return F(os.path.sep)\n"
    )
    assert unused_imports(source) == ["2: json"]


def floats(source: str) -> list[str]:
    """`<line>: <source>` for each float literal and each call of `float`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        is_float = isinstance(node, ast.Constant) and isinstance(node.value, float)
        calls_float = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
        if is_float or calls_float:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_holds_no_float(path):
    assert floats(path.read_text(encoding="utf-8")) == []


def test_float_checker_flags_literals_and_calls_and_spares_exact_code():
    source = (
        "from fractions import Fraction\n"
        "x = Fraction(1, 2) * 3\n"
        "y = 0.5\n"
        "z = float(x)\n"
        "w = 1e3 + int('1')\n"
        "v = x.float() + len('0.5')\n"
    )
    assert floats(source) == ["3: 0.5", "4: float(x)", "5: 1000.0"]


def test_every_exported_name_resolves_once():
    exported = interconnect.__all__
    assert [n for n in exported if not hasattr(interconnect, n)] == []
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
