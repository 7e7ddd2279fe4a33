"""Each stage loads only the modules it runs: ``import schedkit.cli`` loads
no other ``schedkit`` module, only the stages that compute on arrays load
numpy, and every module's errors share the base that the CLI maps to exit 2
or exit 3.

Each stage runs in a fresh interpreter, because this test process has
loaded numpy and every ``schedkit`` module long before it runs.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import schedkit
import schedkit.gateway
from schedkit import GatewayError
from schedkit.cli import EXIT_GATEWAY, UsageError, main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI with the arguments given, then prints the modules loaded, of
# numpy and schedkit, as a JSON list on the last line of stdout.
PROBE = (
    "import json, sys\n"
    "from schedkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'schedkit'))))\n"
    "sys.exit(code)\n"
)


def loaded_modules(cwd: Path, *code: str, exit_code: int = 0) -> set[str]:
    """The numpy and schedkit modules that ``python -c *code`` loaded; it
    must exit with ``exit_code``."""
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
    assert proc.returncode == exit_code, (code, proc.stderr)
    return set(json.loads(proc.stdout.splitlines()[-1]))


# The stages that run without numpy, by name.
WITHOUT_NUMPY = {
    "generate": ["--out", "gen", "generate", "--n", "30", "--seed", "3"],
    "ingest": ["--out", "ing", "ingest", "--schedule", "gen/schedule.csv"],
    "analyze-graph": ["--out", "graph", "analyze-graph", "--schedule", "gen/schedule.csv"],
    "sample-context": ["--out", "ctx", "sample-context", "--schedule", "gen/schedule.csv"],
    "run-eval": ["--out", "eval", "run-eval", "--schedule", "gen/schedule.csv", "--gateway", "mock:echo"],
    "collect-prefs": [
        "--out", "prefs", "collect-prefs", "--schedule", "gen/schedule.csv",
        "--instances", "eval/instances.jsonl", "--synthesize-negatives",
    ],
    "report": ["--out", "rep", "report", "--report", "eval/report.json"],
}


@pytest.fixture(scope="module")
def stages(tmp_path_factory) -> tuple[Path, dict[str, set[str]]]:
    """The directory the numpy-free stages ran in, each in a fresh
    interpreter and in order, and the modules each stage loaded."""
    cwd = tmp_path_factory.mktemp("stages")
    return cwd, {name: loaded_modules(cwd, PROBE, *argv) for name, argv in WITHOUT_NUMPY.items()}


def test_cli_import_loads_only_the_package_root(tmp_path):
    probe = "import json, sys, schedkit.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = loaded_modules(tmp_path, probe)
    assert {m for m in loaded if m.split(".")[0] in ("numpy", "schedkit")} == {
        "schedkit",
        "schedkit.cli",
    }


def test_stages_that_read_no_context_load_neither_eval_nor_context(stages):
    _, stage_modules = stages
    for name in ("generate", "ingest", "analyze-graph", "report"):
        loaded = stage_modules[name]
        assert "schedkit.masked_eval" not in loaded, name
        assert "schedkit.context" not in loaded, name
    # The control: the stages that do sample contexts load them.
    assert "schedkit.context" in stage_modules["sample-context"]
    assert {"schedkit.context", "schedkit.masked_eval"} <= stage_modules["run-eval"]


def test_only_array_stages_load_numpy(stages):
    cwd, stage_modules = stages
    for name, loaded in stage_modules.items():
        assert "numpy" not in loaded, name

    # The control: the stages that do compute on arrays still load numpy,
    # so the probe above cannot pass for want of looking.
    (cwd / "corpus").mkdir()
    (cwd / "corpus" / "a.txt").write_text("steel erection bolting sequence", "utf-8")
    (cwd / "terms.tsv").write_text("WBS\tdecomposition of project scope\n", "utf-8")
    with_numpy = [
        ["--out", "kb", "build-kb", "--corpus-dir", "corpus", "--terms-file", "terms.tsv"],
        ["--out", "kbeval", "run-eval", "--schedule", "gen/schedule.csv", "--gateway", "mock:echo", "--kb", "kb"],
        ["--out", "scorer", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"],
        ["--out", "polish", "polish", "--instances", "eval/instances.jsonl"],
    ]
    for argv in with_numpy:
        assert "numpy" in loaded_modules(cwd, PROBE, *argv), argv


def test_a_kb_without_a_store_is_rejected_before_numpy_loads(stages):
    cwd, _ = stages
    (cwd / "no_store").mkdir()
    argv = ["--out", "nokb", "run-eval", "--schedule", "gen/schedule.csv", "--kb", "no_store"]
    loaded = loaded_modules(cwd, PROBE, *argv, exit_code=2)
    assert not {"numpy", "schedkit.knowledge"} & loaded
    assert not (cwd / "nokb" / "transcript.jsonl").exists()


def test_gateway_error_is_the_package_roots():
    assert schedkit.gateway.GatewayError is schedkit.GatewayError
    assert issubclass(schedkit.gateway.TranscriptExhaustedError, schedkit.GatewayError)


def test_a_gateway_failure_exits_3(tmp_path, capsys):
    """A ``GatewayError`` that escapes a command, here the HTTP gateway
    without an endpoint, maps to exit 3 although ``cli`` no longer imports
    the gateway."""
    assert main(["--out", str(tmp_path / "gen"), "generate", "--n", "5"]) == 0
    argv = [
        "--out", str(tmp_path / "eval"), "run-eval",
        "--schedule", str(tmp_path / "gen" / "schedule.csv"), "--gateway", "http",
    ]
    capsys.readouterr()
    assert main(argv) == EXIT_GATEWAY
    assert capsys.readouterr().err == "gateway error: endpoint_url not configured\n"


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
