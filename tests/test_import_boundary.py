"""Each stage loads only the modules it runs: ``import schedkit.cli`` loads
no other ``schedkit`` module, only the stages that compute on arrays load
numpy, they load it with one BLAS thread unless the user sets another
count, only a stage with at least ``gateway.HASH_BUDGET`` bytes of
exchanges loads OpenSSL's hashing (``_hashlib``), and every module's errors
share the base that the CLI maps to exit 2 or exit 3.

Each stage runs in a fresh interpreter, because this test process has
loaded numpy and every ``schedkit`` module long before it runs.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import schedkit
import schedkit.gateway
from schedkit import GatewayError
from schedkit.cli import EXIT_GATEWAY, UsageError, main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI with the arguments given, then prints the modules loaded, of
# numpy, schedkit, requests, urllib and _hashlib, as a JSON list on the last
# line of stdout.
PROBE = (
    "import json, sys\n"
    "from schedkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "roots = ('numpy', 'schedkit', 'requests', 'urllib', '_hashlib')\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))\n"
    "sys.exit(code)\n"
)


# Runs the CLI with the arguments given, then prints OPENBLAS_NUM_THREADS,
# the process's thread count where /proc reports it, and whether numpy
# loaded, as a JSON list on the last line of stdout.
BLAS_PROBE = (
    "import json, os, sys\n"
    "from schedkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "threads = None\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    with open('/proc/self/status') as fh:\n"
    "        threads = next(int(l.split()[1]) for l in fh if l.startswith('Threads:'))\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads, 'numpy' in sys.modules]))\n"
    "sys.exit(code)\n"
)


def probe_env(**overrides: str) -> dict[str, str]:
    """This process's environment with ``src`` on ``PYTHONPATH``, without
    ``OPENBLAS_NUM_THREADS`` (in-process ``main()`` calls set it here, and a
    child would inherit it), then ``overrides``."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": os.pathsep.join(path), **overrides}


def run_probe(cwd: Path, *code: str, exit_code: int = 0, env=None):
    """The JSON on the last line of stdout of ``python -c *code``, which
    must exit with ``exit_code``."""
    proc = subprocess.run(
        [sys.executable, "-c", *code],
        cwd=cwd,
        env=env or probe_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == exit_code, (code, proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(cwd: Path, *code: str, exit_code: int = 0) -> set[str]:
    """The modules that ``python -c *code`` printed as loaded (``PROBE``
    prints those of numpy, schedkit, requests, urllib and _hashlib); it
    must exit with ``exit_code``."""
    return set(run_probe(cwd, *code, exit_code=exit_code))


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
    "polish": ["--out", "polish", "polish", "--instances", "eval/instances.jsonl"],
    "report": ["--out", "rep", "report", "--report", "eval/report.json"],
    "replay": [
        "--out", "replay", "run-eval", "--schedule", "gen/schedule.csv",
        "--gateway", "mock:transcript=eval/transcript.jsonl",
    ],
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
    assert "_hashlib" not in loaded


def test_stages_that_read_no_context_load_neither_eval_nor_context(stages):
    _, stage_modules = stages
    for name in ("generate", "ingest", "analyze-graph", "report"):
        loaded = stage_modules[name]
        assert "schedkit.masked_eval" not in loaded, name
        assert "schedkit.context" not in loaded, name
    # The control: the stages that do sample contexts load them.
    assert "schedkit.context" in stage_modules["sample-context"]
    assert {"schedkit.context", "schedkit.masked_eval"} <= stage_modules["run-eval"]
    # run-eval sends exchanges and writes records; each has its own module.
    assert {"schedkit.gateway", "schedkit.records"} <= stage_modules["run-eval"]


@pytest.fixture(scope="module")
def array_stages(stages) -> dict[str, set[str]]:
    """The modules that each stage which computes on arrays loaded, each run
    in a fresh interpreter after the numpy-free ones."""
    cwd, _ = stages
    (cwd / "corpus").mkdir()
    (cwd / "corpus" / "a.txt").write_text("steel erection bolting sequence", "utf-8")
    (cwd / "terms.tsv").write_text("WBS\tdecomposition of project scope\n", "utf-8")
    with_numpy = [
        ["--out", "kb", "build-kb", "--corpus-dir", "corpus", "--terms-file", "terms.tsv"],
        ["--out", "kbeval", "run-eval", "--schedule", "gen/schedule.csv", "--gateway", "mock:echo", "--kb", "kb"],
        ["--out", "scorer", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"],
    ]
    return {argv[2]: loaded_modules(cwd, PROBE, *argv) for argv in with_numpy}


def test_only_array_stages_load_numpy(stages, array_stages):
    _, stage_modules = stages
    for name, loaded in stage_modules.items():
        assert "numpy" not in loaded, name

    # The control: the stages that do compute on arrays still load numpy,
    # so the probe above cannot pass for want of looking.
    for name, modules in array_stages.items():
        assert "numpy" in modules, name
    # build-kb writes records and sends no exchange.
    assert "schedkit.records" in array_stages["build-kb"]
    assert "schedkit.gateway" not in array_stages["build-kb"]


def test_stages_below_the_hashing_budget_load_no_openssl_hashing(stages, array_stages):
    """Every stage here has far fewer than ``HASH_BUDGET`` bytes of
    exchanges, the replay and polish included, so each hashes with the
    interpreter's own SHA-256 and loads no ``_hashlib``."""
    cwd, stage_modules = stages
    for name, loaded in {**stage_modules, **array_stages}.items():
        assert "_hashlib" not in loaded, name
    assert (cwd / "replay" / "transcript.jsonl").read_bytes() == (
        cwd / "eval" / "transcript.jsonl"
    ).read_bytes()


def test_a_run_eval_at_the_hashing_budget_loads_openssl_hashing(stages):
    """The control: 90 prompts that each carry a 48 KiB rules file are
    sized at more than ``HASH_BUDGET`` bytes of exchanges, so that run
    hashes through ``hashlib`` from its first hash; its transcript's
    content hashes are those that the interpreter's SHA-256 gives."""
    cwd, _ = stages
    rule = "Every finish follows its start by the activity's duration.\n"
    (cwd / "rules.txt").write_text(rule * (48 * 1024 // len(rule) + 1), "utf-8")
    argv = [
        "--out", "ruled", "run-eval", "--schedule", "gen/schedule.csv",
        "--gateway", "mock:echo", "--rules", "rules.txt",
    ]
    assert 90 * (cwd / "rules.txt").stat().st_size >= schedkit.gateway.HASH_BUDGET
    assert "_hashlib" in loaded_modules(cwd, PROBE, *argv)
    builtin = schedkit.builtin_sha256()
    for line in (cwd / "ruled" / "transcript.jsonl").read_text("utf-8").splitlines():
        record = json.loads(line)
        basis = {k: record[k] for k in ("error", "response_text", "system_text", "user_text")}
        encoded = json.dumps(basis, sort_keys=True).encode("utf-8")
        assert builtin(encoded).hexdigest() == record["content_hash"]


# Inputs whose digests the chooser must give as ``hashlib`` does: empty,
# ASCII, non-ASCII UTF-8, and more bytes than the budget.
HASH_INPUTS = (
    b"",
    b"Activity ID: A-17",
    "Ausführung – 工程 ✓".encode("utf-8"),
    bytes(range(256)) * (schedkit.gateway.HASH_BUDGET // 256 + 1),
)


@pytest.fixture
def unpicked(monkeypatch):
    """``gateway`` as before the process's first hash, restored after."""
    monkeypatch.setattr(schedkit.gateway, "_sha256", None)
    monkeypatch.setattr(schedkit.gateway, "_expected", 0)


def assert_digests_equal_hashlibs() -> None:
    for data in HASH_INPUTS:
        assert schedkit.gateway.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    piecewise = schedkit.gateway.sha256(HASH_INPUTS[1])
    for data in HASH_INPUTS[2:]:
        piecewise.update(data)
        piecewise.update(b"")
    assert piecewise.digest() == hashlib.sha256(b"".join(HASH_INPUTS)).digest()


@pytest.mark.parametrize("expected", [0, schedkit.gateway.HASH_BUDGET - 1, schedkit.gateway.HASH_BUDGET])
def test_the_chosen_sha256_gives_hashlibs_digests(unpicked, expected):
    schedkit.gateway.expect_exchanges(expected)
    assert_digests_equal_hashlibs()
    picked_hashlib = schedkit.gateway._sha256 is hashlib.sha256
    assert picked_hashlib == (expected >= schedkit.gateway.HASH_BUDGET)
    # The pick holds for the process: what is counted later changes nothing.
    schedkit.gateway.expect_exchanges(schedkit.gateway.HASH_BUDGET)
    schedkit.gateway.sha256()
    assert (schedkit.gateway._sha256 is hashlib.sha256) == picked_hashlib


def test_the_builtin_sha256_is_the_interpreters_own():
    own = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert schedkit.builtin_sha256() is own.sha256


def test_without_a_builtin_sha256_the_chooser_falls_back_to_hashlib(unpicked, monkeypatch):
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert schedkit.builtin_sha256() is hashlib.sha256
    assert_digests_equal_hashlibs()
    assert schedkit.gateway._sha256 is hashlib.sha256


def test_train_scorer_loads_neither_the_schedule_nor_the_evaluation(stages):
    """train-scorer reads its pairs through ``preferences``, which imports
    neither ``schedule`` nor ``masked_eval``, so it loads neither; nor does
    ``preferences`` import ``gateway``."""
    cwd, _ = stages
    argv = ["--out", "scorer_only", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"]
    loaded = loaded_modules(cwd, PROBE, *argv)
    assert not {"schedkit.schedule", "schedkit.masked_eval"} & loaded
    assert {"numpy", "schedkit.alignment"} <= loaded  # it did train
    probe = "import json, sys, schedkit.preferences; print(json.dumps(sorted(sys.modules)))"
    loaded = loaded_modules(cwd, probe)
    assert "schedkit.records" in loaded and "schedkit.gateway" not in loaded


class _ChatStub(BaseHTTPRequestHandler):
    """Answers every chat-completion request with one fixed value."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        reply = {"choices": [{"message": {"content": "[Value]x[/Value]"}}]}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_no_stage_loads_requests_and_only_http_loads_urllib_request(stages):
    """The ``http`` gateway posts through ``urllib.request``, which it
    imports when it is built; the mock stages never load it, and no stage
    loads ``requests``."""
    cwd, stage_modules = stages
    for name, loaded in stage_modules.items():
        assert not {"requests", "urllib.request"} & loaded, name
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        (cwd / "http.ini").write_text(f"[gateway]\nendpoint_url = {url}\n", "utf-8")
        argv = [
            "--config", "http.ini", "--out", "http_eval", "run-eval",
            "--schedule", "gen/schedule.csv", "--gateway", "http",
        ]
        loaded = loaded_modules(cwd, PROBE, *argv)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert "urllib.request" in loaded and "requests" not in loaded
    assert (cwd / "http_eval" / "transcript.jsonl").read_text("utf-8").count("\n") == 90


def test_the_http_gateway_loads_urllib_request_before_its_first_exchange(tmp_path):
    """Building an ``HttpGateway`` loads ``urllib.request``, so the first
    exchange's ``latency_ms`` does not include the import."""
    probe = (
        "import json, sys\n"
        "from schedkit.gateway import GatewayConfig, HttpGateway\n"
        "before = 'urllib.request' in sys.modules\n"
        "HttpGateway(GatewayConfig(endpoint_url='http://127.0.0.1:9/v1/chat/completions'))\n"
        "print(json.dumps([before, 'urllib.request' in sys.modules]))\n"
    )
    assert run_probe(tmp_path, probe) == [False, True]


def test_a_kb_without_a_store_is_rejected_before_numpy_loads(stages):
    cwd, _ = stages
    (cwd / "no_store").mkdir()
    argv = ["--out", "nokb", "run-eval", "--schedule", "gen/schedule.csv", "--kb", "no_store"]
    loaded = loaded_modules(cwd, PROBE, *argv, exit_code=2)
    assert not {"numpy", "schedkit.knowledge"} & loaded
    assert not (cwd / "nokb" / "transcript.jsonl").exists()


def test_rejected_build_kb_runs_load_no_numpy(stages):
    """``build-kb`` with no input, or with ``[kb] chunk_tokens`` below 1,
    exits 1 before ``knowledge`` loads and before it writes anything."""
    cwd, _ = stages
    (cwd / "chunk0.ini").write_text("[kb]\nchunk_tokens = 0\n", "utf-8")
    (cwd / "one_term.tsv").write_text("WBS\tdecomposition of project scope\n", "utf-8")
    for argv in (
        ["--out", "kb_none", "build-kb"],
        ["--config", "chunk0.ini", "--out", "kb_none", "build-kb", "--terms-file", "one_term.tsv"],
    ):
        loaded = loaded_modules(cwd, PROBE, *argv, exit_code=1)
        assert not {"numpy", "schedkit.knowledge"} & loaded, argv
        assert not (cwd / "kb_none").exists(), argv


def test_numpy_stages_run_with_one_blas_thread_unless_the_user_sets_one(tmp_path):
    """``main`` sets ``OPENBLAS_NUM_THREADS=1`` before a stage loads numpy,
    so OpenBLAS starts no worker threads; a value the user set stays."""
    (tmp_path / "terms.tsv").write_text("WBS\tdecomposition of project scope\n", "utf-8")
    argv = ["--out", "kb", "build-kb", "--terms-file", "terms.tsv"]
    value, threads, numpy_loaded = run_probe(tmp_path, BLAS_PROBE, *argv)
    assert numpy_loaded and value == "1"
    if sys.platform.startswith("linux"):
        assert threads == 1
    value, _, _ = run_probe(tmp_path, BLAS_PROBE, *argv, env=probe_env(OPENBLAS_NUM_THREADS="2"))
    assert value == "2"


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
