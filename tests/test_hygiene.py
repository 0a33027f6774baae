"""Source hygiene: no module under src/interconnect/ imports a name it never
uses, holds a float or makes a `Fraction` from anything but an int literal
outside the two functions that make values exact, defines a module-level
private name that nothing references, and the package exports each public
name once.

The import, float and `Fraction` checks read each module with the
standard-library `ast` parser, so they need nothing beyond the interpreter.
`from __future__` imports and the package `__init__.py` (whose imports are
its public re-exports) are exempt from the import check. The float check
covers every module: the simulator's values are ints and `Fraction`s, and its
integer paths (telemetry jitter, MAPE-K analysis) are exact only while no
float enters them. The `Fraction` check keeps one grammar for exact values:
text becomes one only through `simnet.parse_exact`, and a number only
through `simnet._exact`, so `Fraction(text)`, which reads exponents and
underscores, never sees input. The private-name check finds helpers a
refactor left behind: a `_name` defined at module level must be read
somewhere in the package other than the statement defining it.
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


# The functions that make a value exact; only they may call Fraction(x).
EXACT_MAKERS = {"parse_exact", "_exact"}


def _is_int_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def inexact_fractions(source: str) -> list[str]:
    """`<line>: <source>` for each one-argument `Fraction(...)` call whose
    argument is not an int literal, outside the EXACT_MAKERS functions."""
    tree = ast.parse(source)
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in EXACT_MAKERS
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and len(node.args) + len(node.keywords) == 1
            and id(node) not in exempt
            and not (node.args and _is_int_literal(node.args[0]))
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_makes_fractions_only_from_int_literals_or_exact_makers(path):
    assert inexact_fractions(path.read_text(encoding="utf-8")) == []


def test_fraction_checker_flags_text_and_names_and_spares_exact_makers():
    source = (
        "from fractions import Fraction\n"
        "a = Fraction(1) + Fraction(-2) + Fraction(3, 4)\n"
        "b = Fraction('1e-5000')\n"
        "c = Fraction(a)\n"
        "d = Fraction(numerator=a)\n"
        "e = Fraction(True)\n"
        "def parse_exact(text):\n"
        "    return Fraction(int(text))\n"
        "def _exact(name, value):\n"
        "    return Fraction(value)\n"
    )
    assert inexact_fractions(source) == [
        "3: Fraction('1e-5000')",
        "4: Fraction(a)",
        "5: Fraction(numerator=a)",
        "6: Fraction(True)",
    ]


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """`<module>: <name>` for each module-level private name (one leading
    `_`, not a dunder) that no module references outside the statement
    defining it. A name is referenced in its own module when read there, in
    another when imported from its module, and anywhere as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for module, tree in trees.items():
        for statement in tree.body:
            own = set(_defined_names(statement))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and node.id not in own:
                    referenced.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    source_module = node.module.rsplit(".", 1)[-1]
                    referenced.update((source_module, a.name) for a in node.names)
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for statement in tree.body
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and (module, name) not in referenced
        and name not in attributes
    ]


def test_every_private_module_name_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in ALL_MODULES}
    assert unreferenced_private_names(sources) == []


def test_private_name_checker_flags_dead_names_and_spares_used_ones():
    sources = {
        "a": (
            "_DEAD = 1\n"
            "_USED = 2\n"
            "_ONLY_SELF: int = 3\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Bucket:\n"
            "    pass\n"
            "def _imported(): pass\n"
            "def _as_attribute(): pass\n"
            "__dunder__ = 4\n"
            "PUBLIC = _USED\n"
        ),
        "b": "from .a import _imported\nimport a\nx = a._as_attribute\n_DEAD\n",
    }
    assert unreferenced_private_names(sources) == [
        "a: _DEAD",
        "a: _ONLY_SELF",
        "a: _recursive",
        "a: _Bucket",
    ]
