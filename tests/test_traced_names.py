"""Every function the benchmark's tracer wraps still exists in ``src/``.

``perfbench/tracer.py`` names each traced function by module and qualified
name; a rename or deletion in ``schedkit`` would make the traced stage fail
only when the benchmark runs. The tuple is read from the file's source, not
imported, so this test runs nothing of the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(TRACER.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for _, module_name, qualname in names:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{qualname} does not resolve"
        assert callable(owner), f"{module_name}.{qualname} is not callable"
