"""Output checks and work counts, read from a repeat's artifact tree."""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path

from spans import percentile, tail
from workloads import Stage, Workload

TASK_KINDS = ("MVP", "DA", "AP")
# Gateway error classes the offline mocks can raise; anything else is "other".
ERROR_CLASSES = ("MissingMockDataError", "TranscriptExhaustedError", "GatewayError")


def _count(path: Path) -> int:
    """Non-blank lines in a JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _jsonl(path: Path):
    """Parsed records of a JSON-lines file, one line in memory at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def out_dir(stage: Stage) -> str:
    return stage.args[1]


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 per top-level entry of a tree (a stage's --out directory or the
    inputs), over every file's relative path and content in sorted order."""
    outers = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        inner = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                inner.update(block)
        outer = outers.setdefault(rel.parts[0], hashlib.sha256())
        outer.update(f"{rel.as_posix()}\0{inner.hexdigest()}\n".encode())
    return {top: outer.hexdigest() for top, outer in outers.items()}


def gateway_ops(stages, tree: Path) -> tuple[int, int]:
    """(calls, failed calls) over the transcripts the given stages wrote.

    A call failed when its transcript record carries an error; the record
    of a failed call is written before the stage exits nonzero.
    """
    calls = errors = 0
    for stage in stages:
        transcript = tree / out_dir(stage) / "transcript.jsonl"
        if transcript.is_file():
            for rec in _jsonl(transcript):
                calls += 1
                errors += rec.get("error") is not None
    return calls, errors


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def stage_items(stage: Stage, tree: Path) -> int:
    """Work units a stage completed, for its throughput metric."""
    out = tree / out_dir(stage)
    if stage.kind == "ingest":
        return _count(out / "schedule.jsonl")
    if stage.kind == "sample-context":
        return _count(out / "bundles.jsonl")
    if stage.kind == "build-kb":
        return _count(out / "chunks.jsonl") + _count(out / "terms.jsonl")
    if stage.kind in ("run-eval", "replay"):
        return _count(out / "instances.jsonl")
    if stage.kind == "collect-prefs":
        return _count(out / "prefs.jsonl")
    if stage.kind == "train-scorer":
        return json.loads((out / "scorer_summary.json").read_text("utf-8"))["records"]
    if stage.kind == "polish":
        return _count(out / "polished.jsonl")
    raise ValueError(f"stage {stage.label} has no throughput")


def _instances_arg(stage: Stage) -> str:
    return stage.args[stage.args.index("--instances") + 1]


def check_outputs(workload: Workload, tree: Path) -> list[str]:
    """Problems found in one repeat's tree; empty when every check holds.

    Stage exit codes and digests are checked by the caller.
    """
    problems = []
    by_label = {s.label: s for s in workload.stages}
    expected = {"run-eval-echo": 100.0, "run-eval-wrong": 0.0}
    for label, want in expected.items():
        if label not in by_label:
            continue
        report = json.loads((tree / out_dir(by_label[label]) / "report.json").read_text("utf-8"))
        for kind in TASK_KINDS:
            got = report["per_task"][kind]["accuracy_cells"]
            if got != want:
                problems.append(f"{label}: {kind} cell accuracy {got}, expected {want}")
    if "run-eval-replay" in by_label:
        recorded = (tree / out_dir(by_label["run-eval-echo"]) / "report.json").read_bytes()
        replayed = (tree / out_dir(by_label["run-eval-replay"]) / "report.json").read_bytes()
        if recorded != replayed:
            problems.append("run-eval-replay: report.json differs from the recorded run")
    if "collect-prefs" in by_label:
        stage = by_label["collect-prefs"]
        instances = _jsonl(tree / _instances_arg(stage))
        groups = {(i["row_id"], i["task_kind"]) for i in instances}
        pairs = _count(tree / out_dir(stage) / "prefs.jsonl")
        if pairs != len(groups):
            problems.append(f"collect-prefs: {pairs} pairs for {len(groups)} (row, task) groups")
    return problems


def kb_resave_diff(kb: Path, resaved: Path) -> tuple[list[str], int]:
    """Compare a knowledge base with its reloaded-and-re-saved copy.

    Returns the problems and the number of float32 matrix values that
    changed.  Manifests must be byte-identical.  Each matrix must be
    byte-identical too, with one exception: ``knowledge._read_matrix``
    renormalises every row in float64 on load, so a re-save may round some
    last bits differently (a known defect).  A matrix that equals exactly
    that renormalisation (``kb_resave.py`` writes it as ``*.renorm.mat``) is
    counted, not failed; any other difference fails.
    """
    problems = []
    changed = 0
    for name in ("terms.jsonl", "chunks.jsonl"):
        if (kb / name).read_bytes() != (resaved / name).read_bytes():
            problems.append(f"build-kb: {name} changes after reload and re-save")
    for name in ("terms", "chunks"):
        before = (kb / f"{name}.mat").read_bytes()
        after = (resaved / f"{name}.mat").read_bytes()
        if after == before:
            continue
        if after != (resaved / f"{name}.renorm.mat").read_bytes():
            problems.append(f"build-kb: {name}.mat changes after reload and re-save "
                            "beyond the known float64 row renormalisation")
            continue
        a, b = array("i"), array("i")
        a.frombytes(before[12:])
        b.frombytes(after[12:])
        changed += sum(x != y for x, y in zip(a, b))
    return problems, changed


def work_counts(workload: Workload, tree: Path) -> dict[str, float]:
    """Per-layer work counts and ratios."""
    counts: dict[str, float] = {}
    by_label = {s.label: s for s in workload.stages}
    for label in by_label:
        counts[f"cli.{label}.bytes_written"] = dir_bytes(tree / out_dir(by_label[label]))
    counts["cli.bytes_written"] = sum(
        counts[f"cli.{label}.bytes_written"] for label in by_label
    )

    bundles = _jsonl(tree / out_dir(by_label["sample-context"]) / "bundles.jsonl")
    sizes = [len(b["hierarchical"]) for b in bundles]
    counts["context.hierarchical_size.p50"] = percentile(sorted(sizes), 50.0)
    counts["context.hierarchical_size.pmax"] = tail(sizes)[1]
    rendered = (tree / out_dir(by_label["sample-context"]) / "contexts.txt").read_text("utf-8")
    tokens = _rendered_tokens(rendered)
    counts["context.rendered_tokens.p50"] = percentile(sorted(tokens), 50.0)
    counts["context.rendered_tokens.pmax"] = tail(tokens)[1]

    prompts = dict.fromkeys(TASK_KINDS, 0)
    prompt_tokens = dict.fromkeys(TASK_KINDS, 0)
    errors = dict.fromkeys((*ERROR_CLASSES, "other"), 0)
    parse_ok = cells_ok = cells = n_instances = 0
    transcript_bytes = 0
    for stage in workload.stages:
        out = tree / out_dir(stage)
        transcript = out / "transcript.jsonl"
        if not transcript.is_file():
            continue
        transcript_bytes += transcript.stat().st_size
        tokens = []
        for rec in _jsonl(transcript):
            tokens.append(rec["prompt_tokens"])
        if stage.kind not in ("run-eval", "replay"):
            continue
        kinds = []
        for inst in _jsonl(out / "instances.jsonl"):
            kinds.append(inst["task_kind"])
            parse_ok += inst["parse_ok"]
            cells += len(inst["cells_correct"])
            cells_ok += sum(inst["cells_correct"])
            if inst["error"] is not None:
                cls = inst["error"].split(":", 1)[0]
                errors[cls if cls in errors else "other"] += 1
        n_instances += len(kinds)
        if stage.kind == "run-eval":
            # max_parallel = 1: transcript records follow the instance order.
            if len(tokens) != len(kinds):
                raise ValueError(f"{stage.label}: {len(tokens)} transcript records "
                                 f"for {len(kinds)} instances")
            for kind, count in zip(kinds, tokens):
                prompts[kind] += 1
                prompt_tokens[kind] += count
    for kind in TASK_KINDS:
        counts[f"prompt_forge.prompts.{kind}"] = prompts[kind]
        counts[f"prompt_forge.prompt_tokens.{kind}"] = prompt_tokens[kind]
    for cls, count in errors.items():
        counts[f"gateway.errors.{cls}"] = count
    counts["gateway.transcript_bytes"] = transcript_bytes
    counts["masked_eval.parse_ok_frac"] = parse_ok / n_instances
    counts["masked_eval.cells_correct_frac"] = cells_ok / cells
    rows = 0
    if "train-scorer" in by_label:
        summary = tree / out_dir(by_label["train-scorer"]) / "scorer_summary.json"
        rows = 2 * json.loads(summary.read_text("utf-8"))["records"]
    counts["alignment.training_rows"] = rows
    return counts


def _rendered_tokens(text: str) -> list[int]:
    """Whitespace tokens per rendered context; each block opens with TARGET:."""
    blocks: list[int] = []
    for line in text.split("\n"):
        if line.startswith("TARGET: "):
            blocks.append(0)
        if blocks:
            blocks[-1] += len(line.split())
    return blocks

