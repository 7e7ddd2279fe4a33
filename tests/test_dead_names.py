"""No module-level name of the package is left that nothing names, such as
a constant whose last reader was deleted.

A name defined at the top level of ``src/schedkit/*.py`` (a function,
class or assigned name) counts as named where any module of ``src/``,
``scripts/``, ``perfbench/`` or ``tests/`` reads it, imports it, looks it
up as an attribute, or spells it in a string of dotted names, as the
benchmark's tracer names what it wraps. Its own definition does not count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def named_names(tree: ast.Module) -> set[str]:
    """The names a module reads, imports, looks up or spells as dotted names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def test_every_module_level_name_is_named_somewhere():
    package = sorted((ROOT / "src" / "schedkit").glob("*.py"))
    assert package
    readers = [
        path
        for folder in ("src", "scripts", "perfbench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    named = set().union(*(named_names(ast.parse(p.read_text("utf-8"))) for p in readers))
    dead = {
        f"{path.stem}.{name}"
        for path in package
        for name in defined_names(ast.parse(path.read_text("utf-8"))) - named
    }
    assert not dead, sorted(dead)
