"""No module of the package or the scripts keeps a module-level import it
never uses, such as one that a move of code leaves behind.

A name counts as used where the module's own code names it, annotations
included. The only names bound and not used are the re-exports listed
below, which the benchmark's tracer looks up in the module that ran them.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Module-level imports a module keeps for others to find, by file stem.
RE_EXPORTS = {
    ("masked_eval", "preference_store_append"),
    ("masked_eval", "preference_store_load"),
}


def unused_imports(path: Path) -> set[str]:
    """The names that a module-level import of ``path`` binds and that
    nothing else in the file names."""
    tree = ast.parse(path.read_text("utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set(bound) - used


def test_no_module_keeps_an_unused_import():
    paths = sorted((ROOT / "src" / "schedkit").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert paths
    found = {(path.stem, name) for path in paths for name in unused_imports(path)}
    assert found == RE_EXPORTS
