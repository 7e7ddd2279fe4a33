"""The benchmark workloads: seeded inputs and the CLI stage sequence of each.

Every stage runs from the repeat's tree root with relative paths, so the
manifests the CLI writes are the same in every repeat and digests compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Every stage label any workload uses, in pipeline order.  Per-stage
# per-layer metrics are named after these.
STAGES = (
    "generate",
    "ingest",
    "analyze-graph",
    "build-kb",
    "sample-context",
    "run-eval-echo",
    "run-eval-wrong",
    "run-eval-replay",
    "collect-prefs",
    "train-scorer",
    "polish",
    "report",
)


@dataclass(frozen=True)
class Stage:
    label: str  # one of STAGES
    kind: str  # throughput family ("run-eval", "replay", ...) or "" for none
    args: tuple[str, ...]  # schedkit CLI arguments, relative to the tree root


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int  # corpus documents
    doc_tokens: int  # tokens per document
    terms: int
    stages: tuple[Stage, ...]
    # Leading stages re-run when only one full repeat fits in a run, so the
    # artifact digests are compared across two executions on every run.
    # The stages left out are the costly tail that no re-run stage reads.
    recheck: int


SCHED = "gen/schedule.csv"


def _generate(n: int, seed: int) -> Stage:
    return Stage("generate", "", ("--out", "gen", "generate", "--n", str(n), "--seed", str(seed)))


def _stage(label: str, kind: str, out: str, *args: str) -> Stage:
    return Stage(label, kind, ("--out", out, *args))


INGEST = _stage("ingest", "ingest", "ingest", "ingest", "--schedule", SCHED)
GRAPH = _stage("analyze-graph", "", "graph", "analyze-graph", "--schedule", SCHED)
BUILD_KB = _stage(
    "build-kb", "build-kb", "kb", "build-kb",
    "--corpus-dir", "inputs/corpus", "--terms-file", "inputs/terms.tsv",
)
CONTEXT = _stage("sample-context", "sample-context", "ctx", "sample-context", "--schedule", SCHED)


def _eval(label: str, out: str, gateway: str, kb: bool) -> Stage:
    kind = "replay" if gateway.startswith("mock:transcript=") else "run-eval"
    extra = ("--kb", "kb") if kb else ()
    return _stage(label, kind, out, "run-eval", "--schedule", SCHED, "--gateway", gateway, *extra)


def _workloads(seed: int) -> dict[str, Workload]:
    loop = Workload(
        "loop-n100", docs=1, doc_tokens=60, terms=4,
        stages=(
            _generate(100, seed),
            INGEST,
            GRAPH,
            BUILD_KB,
            CONTEXT,
            _eval("run-eval-echo", "eval_echo", "mock:echo", kb=True),
            _eval("run-eval-wrong", "eval_wrong", "mock:wrong", kb=True),
            _eval("run-eval-replay", "eval_replay", "mock:transcript=eval_echo/transcript.jsonl", kb=True),
            _stage(
                "collect-prefs", "collect-prefs", "prefs", "collect-prefs",
                "--schedule", SCHED, "--instances", "eval_wrong/instances.jsonl",
            ),
            _stage("train-scorer", "train-scorer", "scorer", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"),
            _stage(
                "polish", "polish", "polish", "polish",
                "--instances", "eval_wrong/instances.jsonl", "--gateway", "mock:stopword",
            ),
            _stage("report", "", "report", "report", "--report", "eval_echo/report.json"),
        ),
        recheck=12,
    )
    scan = Workload(
        "scan-n2000", docs=0, doc_tokens=0, terms=0,
        stages=(
            _generate(2000, seed),
            INGEST,
            GRAPH,
            CONTEXT,
            _eval("run-eval-echo", "eval_echo", "mock:echo", kb=False),
        ),
        recheck=4,
    )
    kb_replay = Workload(
        "kb-replay-n300", docs=128, doc_tokens=2000, terms=200,
        stages=(
            _generate(300, seed),
            INGEST,
            BUILD_KB,
            CONTEXT,
            _eval("run-eval-echo", "eval_echo", "mock:echo", kb=True),
            _eval("run-eval-replay", "eval_replay", "mock:transcript=eval_echo/transcript.jsonl", kb=True),
            _stage(
                "collect-prefs", "collect-prefs", "prefs", "collect-prefs",
                "--schedule", SCHED, "--instances", "eval_echo/instances.jsonl",
                "--synthesize-negatives",
            ),
        ),
        recheck=3,
    )
    return {w.name: w for w in (loop, scan, kb_replay)}


WORKLOAD_NAMES = ("loop-n100", "scan-n2000", "kb-replay-n300")


def get_workload(name: str, seed: int) -> Workload:
    return _workloads(seed)[name]


# --- seeded corpus and term inputs -------------------------------------------

_WORDS = (
    "concrete pour cure formwork strip load steel erect survey bolt torque deck "
    "conduit duct pipe rack zone trade stack roof level sequence structural sign-off "
    "slab column beam brace weld inspect grout anchor rebar tie embed sleeve riser "
    "shaft chase header footing pier grade backfill compact trench utility valve "
    "pump chiller boiler panel feeder breaker tray cable pull terminate test commission "
    "handover punch snag permit crane rigging lift hoist scaffold shore reshore joist "
    "girder purlin girt cladding glazing curtain wall membrane flashing insulation "
    "drywall stud track tape finish paint ceiling grid tile floor topping sealant"
).split()


def _sentence(rng: random.Random) -> list[str]:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 14))]
    words[-1] += "."
    words[0] = words[0].capitalize()
    return words


def _tokens(rng: random.Random, count: int) -> str:
    out: list[str] = []
    while len(out) < count:
        out.extend(_sentence(rng))
    lines = [" ".join(out[i : i + 12]) for i in range(0, count, 12)]
    return "\n".join(line for line in lines if line) + "\n"


def write_inputs(workload: Workload, seed: int, root: Path) -> None:
    """Corpus documents and a term file under root/inputs, from the seed."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    corpus = root / "inputs" / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for i in range(workload.docs):
        (corpus / f"doc{i:03d}.txt").write_text(_tokens(rng, workload.doc_tokens), "utf-8")
    lines = []
    for i in range(workload.terms):
        term = f"{rng.choice(_WORDS)}-{i:03d}"
        definition = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(8, 16)))
        lines.append(f"{term}\t{definition}\n")
    (root / "inputs" / "terms.tsv").write_text("".join(lines), "utf-8")
