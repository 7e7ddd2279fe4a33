"""Only the stages that compute on arrays load numpy, and every module's
errors share the base that the CLI maps to exit 2.

Each stage runs in a fresh interpreter, because this test process has
loaded numpy long before it runs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import schedkit
from schedkit.cli import UsageError
from schedkit.gateway import GatewayError

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI with the arguments given, then prints whether numpy was
# loaded on the last line of stdout.
PROBE = (
    "import sys\n"
    "from schedkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)


def loads_numpy(cwd: Path, *code: str) -> bool:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", *code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (code, proc.stderr)
    flag = proc.stdout.splitlines()[-1]
    assert flag in ("True", "False"), proc.stdout
    return flag == "True"


def test_only_array_stages_load_numpy(tmp_path):
    assert not loads_numpy(tmp_path, "import sys, schedkit.cli; print('numpy' in sys.modules)")
    without = [
        ["--out", "gen", "generate", "--n", "30", "--seed", "3"],
        ["--out", "ing", "ingest", "--schedule", "gen/schedule.csv"],
        ["--out", "graph", "analyze-graph", "--schedule", "gen/schedule.csv"],
        ["--out", "ctx", "sample-context", "--schedule", "gen/schedule.csv"],
        ["--out", "eval", "run-eval", "--schedule", "gen/schedule.csv", "--gateway", "mock:echo"],
        [
            "--out", "prefs", "collect-prefs", "--schedule", "gen/schedule.csv",
            "--instances", "eval/instances.jsonl", "--synthesize-negatives",
        ],
        ["--out", "rep", "report", "--report", "eval/report.json"],
    ]
    for argv in without:
        assert not loads_numpy(tmp_path, PROBE, *argv), argv

    # The control: the stages that do compute on arrays still load numpy,
    # so the probe above cannot pass for want of looking.
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "a.txt").write_text("steel erection bolting sequence", "utf-8")
    (tmp_path / "terms.tsv").write_text("WBS\tdecomposition of project scope\n", "utf-8")
    with_numpy = [
        ["--out", "kb", "build-kb", "--corpus-dir", "corpus", "--terms-file", "terms.tsv"],
        ["--out", "kbeval", "run-eval", "--schedule", "gen/schedule.csv", "--gateway", "mock:echo", "--kb", "kb"],
        ["--out", "scorer", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"],
        ["--out", "polish", "polish", "--instances", "eval/instances.jsonl"],
    ]
    for argv in with_numpy:
        assert loads_numpy(tmp_path, PROBE, *argv), argv


def test_every_error_maps_to_one_exit_code():
    """Each exception class in ``schedkit`` is a data error (exit 2), a
    gateway error (exit 3) or a usage error (exit 1), and never two."""
    bases = (schedkit.DataError, GatewayError, UsageError)
    module_bases = {
        "schedule": "ScheduleError",
        "knowledge": "KnowledgeError",
        "masked_eval": "EvalError",
        "synthetic": "SyntheticError",
        "graph": "GraphError",
        "prompt_forge": "PromptError",
        "alignment": "AlignmentError",
    }
    for module, name in module_bases.items():
        cls = getattr(importlib.import_module(f"schedkit.{module}"), name)
        assert issubclass(cls, schedkit.DataError), name
    for info in pkgutil.iter_modules(schedkit.__path__):
        module = importlib.import_module(f"schedkit.{info.name}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and issubclass(cls, BaseException)):
                continue
            if cls.__module__ != module.__name__:
                continue
            assert sum(issubclass(cls, base) for base in bases) == 1, cls
