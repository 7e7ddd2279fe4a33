"""Benchmark of the all-mock schedkit CLI pipeline.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of CLI stages.  Every stage is its own
process running ``schedkit.cli`` as ``python -m`` does (``stage.py``, with
``PYTHONPATH=src``), one at a time with ``max_parallel = 1`` into a fresh
artifact tree, so peak RSS is per stage and no in-process cache carries
from one stage to the next.  The
sequence is repeated until ``--seconds`` would be exceeded (at least once);
figures are medians over the repeats.  Outputs are checked on every repeat,
and each repeat's tree is deleted after its checks.  Every run executes the
stages at least twice, so artifact digests are always compared: a second
full repeat, a re-run of the workload's leading stages, or (``--trace 1``)
the traced repeat.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, also when a
check fails, so failed ops show in ``ok_ops_frac``.  ``--trace 1`` prints
the per-layer metrics: the untraced repeats give per-stage wall time and
RSS, and one more repeat runs every stage under ``tracer.py`` for spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import artifacts
import selftest
import spans as spanlib
from tracer import TRACED
from workloads import STAGES, WORKLOAD_NAMES, Workload, get_workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
# setup_s samples: this many before each stage sequence and one after it,
# so they are spread over the run like the stages.
SETUP_BEFORE = 3
SETUP_CODE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import schedkit.cli\n"
    "print(repr(time.perf_counter() - started))\n"
)

E2E_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_ops_frac")
# Stage throughput -> stage kind: that stage's work units over its wall time.
# One stage process is too noisy to gate on (its IQR over ten runs reaches a
# quarter of the median on a shared 2-core machine), so these are per-layer
# figures; 0 on a workload without the stage.
THROUGHPUT = {
    "ingest_rows_per_s": "ingest",
    "context_targets_per_s": "sample-context",
    "eval_prompts_per_s": "run-eval",
    "kb_items_per_s": "build-kb",
    "replay_prompts_per_s": "replay",
    "prefs_pairs_per_s": "collect-prefs",
    "train_pairs_per_s": "train-scorer",
    "polish_prompts_per_s": "polish",
}

# Span name -> per-layer figures taken from its spans.
SPAN_FIGURES = {f"{layer}.{qualname}": ("self_s",) for layer, _, qualname in TRACED}
SPAN_FIGURES.update(
    {
        "schedule.canonical_row": ("calls", "self_s"),
        "schedule.Schedule.by_id": ("calls", "self_s"),
        "context.sample_hierarchical": ("calls", "self_s"),
        "context.render_context": ("calls", "self_s"),
        "knowledge.HashedNgramEmbedder.embed": ("calls", "self_s"),
        "gateway.Gateway.complete": ("calls", "self_s", "p50_ms", "pmax_ms"),
        "rng.derive": ("calls",),
    }
)
COUNT_METRICS = (
    "context.hierarchical_size.p50",
    "context.hierarchical_size.pmax",
    "context.rendered_tokens.p50",
    "context.rendered_tokens.pmax",
    *(f"prompt_forge.prompts.{k}" for k in artifacts.TASK_KINDS),
    *(f"prompt_forge.prompt_tokens.{k}" for k in artifacts.TASK_KINDS),
    "gateway.transcript_bytes",
    *(f"gateway.errors.{c}" for c in (*artifacts.ERROR_CLASSES, "other")),
    "masked_eval.parse_ok_frac",
    "masked_eval.cells_correct_frac",
    "alignment.training_rows",
    "cli.bytes_written",
)
STAGE_FIGURES = ("wall_s", "peak_rss_mb", "self_s", "bytes_written")


def per_layer_names() -> list[str]:
    names = [f"{span}.{fig}" for span, figs in SPAN_FIGURES.items() for fig in figs]
    names += ["knowledge.HashedNgramEmbedder.embed.chars", "knowledge.HashedNgramEmbedder.embed.unique_frac"]
    names += list(COUNT_METRICS)
    names += [f"cli.{stage}.{fig}" for stage in STAGES for fig in STAGE_FIGURES]
    names += list(THROUGHPUT)
    names += ["knowledge.mat_resave_changed_values", "trace.overhead_s"]
    return names


@dataclass
class StageRun:
    label: str
    kind: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    items: int = 0  # work units, read from the tree after the checks


@dataclass
class Repeat:
    label: str
    stages: list[StageRun]
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # per top-level tree entry
    gw_calls: int = 0
    gw_errors: int = 0
    counts: dict[str, float] | None = None
    kb_resave_changed: int = 0
    spans: list[spanlib.Spans] = field(default_factory=list)
    took_s: float = 0.0  # stages plus checks

    def wall_of(self, kind: str) -> tuple[int, float]:
        """(items, wall seconds) summed over stages of one throughput kind."""
        runs = [run for run in self.stages if run.kind == kind]
        return sum(run.items for run in runs), sum(run.wall_s for run in runs)

    def ops(self) -> tuple[int, int]:
        """(attempted, failed) ops: stage invocations plus gateway calls."""
        failed = sum(run.returncode != 0 for run in self.stages) + self.gw_errors
        return len(self.stages) + self.gw_calls, failed


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(cmd: list[str], cwd: Path, env, log: Path) -> tuple[int, float]:
    """Run one process to completion, output to log.  Returns its exit code
    and its wall seconds, measured from outside."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        code = subprocess.run(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT).returncode
        return code, time.perf_counter() - started


def setup_samples(env, count: int) -> tuple[list[float], list[str]]:
    """Seconds that fresh interpreters spend in ``import schedkit.cli``, timed
    inside each child so interpreter start and fork/exec are left out.
    Returns the samples and the problems."""
    samples, problems = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            problems.append("cannot import schedkit.cli:\n" + proc.stderr[-2000:])
        else:
            samples.append(float(proc.stdout))
    return samples, problems


def run_repeat(workload: Workload, seed: int, rep_dir: Path, env, traced: bool, counts: bool) -> Repeat:
    tree, logs, span_dir = rep_dir / "tree", rep_dir / "logs", rep_dir / "spans"
    for d in (tree, logs, span_dir):
        d.mkdir(parents=True)
    write_inputs(workload, seed, tree)
    rep = Repeat(rep_dir.name, stages=[])
    began = started = time.perf_counter()
    for stage in workload.stages:
        log, rss = logs / f"{stage.label}.log", logs / f"{stage.label}.rss"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(span_dir / stage.label), stage.label]
        else:
            cmd = [sys.executable, str(HERE / "stage.py"), str(rss)]
        code, wall = timed_process([*cmd, "--", *stage.args], tree, env, log)
        peak_mb = int(rss.read_text("ascii")) / 1024.0 if rss.is_file() else 0.0
        rep.stages.append(StageRun(stage.label, stage.kind, code, wall, peak_mb))
        if code != 0:
            problem = f"exit {code}"
        elif not traced and not rss.is_file():
            problem = "no peak RSS recorded"
        else:
            continue
        tail = log.read_text("utf-8", "replace")[-2000:]
        rep.problems.append(f"{stage.label}: {problem}\n{tail}")
        break
    rep.wall_s = time.perf_counter() - started
    rep.gw_calls, rep.gw_errors = artifacts.gateway_ops(workload.stages[: len(rep.stages)], tree)
    if rep.gw_errors:
        rep.problems.append(f"{rep.gw_errors} of {rep.gw_calls} gateway calls failed")
    if not rep.problems:
        check_repeat(workload, rep, rep_dir, env, counts)
        if traced:
            rep.spans = [spanlib.read_spans(span_dir / s.label) for s in workload.stages]
    shutil.rmtree(rep_dir)
    rep.took_s = time.perf_counter() - began
    return rep


def check_repeat(workload: Workload, rep: Repeat, rep_dir: Path, env, counts: bool) -> None:
    tree = rep_dir / "tree"
    if any(s.label == "build-kb" for s in workload.stages):
        resaved = rep_dir / "kb_resave"
        log = rep_dir / "logs" / "kb_resave.log"
        code, _ = timed_process(
            [sys.executable, str(HERE / "kb_resave.py"), str(tree / "kb"), str(resaved)], ROOT, env, log
        )
        if code != 0:
            rep.problems.append("kb reload/re-save failed: " + log.read_text("utf-8", "replace"))
            return
        problems, rep.kb_resave_changed = artifacts.kb_resave_diff(tree / "kb", resaved)
        rep.problems += problems
    rep.problems += artifacts.check_outputs(workload, tree)
    for stage, run in zip(workload.stages, rep.stages):
        if stage.kind:
            run.items = artifacts.stage_items(stage, tree)
    if counts:
        rep.counts = artifacts.work_counts(workload, tree)
    rep.digests = artifacts.tree_digests(tree)


def digest_problems(reps: list[Repeat]) -> list[str]:
    """Every later execution's tree entries must equal the first repeat's."""
    first = reps[0].digests
    problems = []
    for rep in reps[1:]:
        differ = sorted(k for k, v in rep.digests.items() if first.get(k) != v)
        if differ:
            problems.append(f"{rep.label}: artifacts differ from {reps[0].label} in {', '.join(differ)}")
    return problems


def e2e_metrics(reps: list[Repeat], setup: list[float], attempted: int, failed: int) -> dict[str, float]:
    m = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "peak_rss_mb": statistics.median(max(s.peak_rss_mb for s in r.stages) for r in reps),
        "ok_ops_frac": (attempted - failed) / attempted,
    }
    if setup:
        m["setup_s"] = statistics.median(setup)
    return m


def layer_metrics(reps: list[Repeat], traced: Repeat) -> dict[str, float]:
    keep = {name for name, figs in SPAN_FIGURES.items() if "p50_ms" in figs}
    stats = spanlib.aggregate(traced.spans, keep_durations=keep)
    m: dict[str, float] = {}
    for name, figs in SPAN_FIGURES.items():
        st = stats.get(name, spanlib.NameStats())
        for fig in figs:
            if fig == "calls":
                m[f"{name}.calls"] = st.calls
            elif fig == "self_s":
                m[f"{name}.self_s"] = st.self_s
        if "p50_ms" in figs:
            durations = st.durations or [0.0]
            m[f"{name}.p50_ms"] = 1000.0 * spanlib.percentile(sorted(durations), 50.0)
            _, value = spanlib.tail(durations)
            m[f"{name}.pmax_ms"] = 1000.0 * value
    embed = "knowledge.HashedNgramEmbedder.embed"
    calls = m[f"{embed}.calls"]
    m[f"{embed}.chars"] = sum(s.counters["embed_chars"] for s in traced.spans)
    unique = sum(s.counters["embed_unique"] for s in traced.spans)
    m[f"{embed}.unique_frac"] = unique / calls if calls else 0.0
    m.update({k: v for k, v in reps[0].counts.items() if k in COUNT_METRICS or k.startswith("cli.")})
    by_label = {run.label: run for run in traced.stages}
    for label in STAGES:
        m.setdefault(f"cli.{label}.bytes_written", 0)
        runs = [run for r in reps for run in r.stages if run.label == label]
        m[f"cli.{label}.wall_s"] = statistics.median(r.wall_s for r in runs) if runs else 0.0
        m[f"cli.{label}.peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in runs) if runs else 0.0
        m[f"cli.{label}.self_s"] = stats[f"cli.{label}"].self_s if label in by_label else 0.0
    for name, kind in THROUGHPUT.items():
        pairs = [r.wall_of(kind) for r in reps]
        m[name] = statistics.median(items / wall for items, wall in pairs) if pairs[0][1] else 0.0
    m["knowledge.mat_resave_changed_values"] = reps[0].kb_resave_changed
    m["trace.overhead_s"] = traced.wall_s - statistics.median(r.wall_s for r in reps)
    return m


def load_declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Result object and human-readable lines for one workload."""
    declared = load_declared()
    workload = get_workload(name, seed)
    env = stage_env()
    run_dir = RUNS / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reps: list[Repeat] = []  # full untraced repeats: the measured ones
    others: list[Repeat] = []  # a partial re-run or the traced repeat
    setup: list[float] = []
    problems: list[str] = []

    def execute(label: str, wl: Workload, traced: bool = False) -> Repeat:
        if not trace:
            samples, errors = setup_samples(env, SETUP_BEFORE)
            setup.extend(samples)
            problems.extend(errors)
        rep = run_repeat(wl, seed, run_dir / label, env, traced, counts=trace and not reps)
        if not trace:
            samples, errors = setup_samples(env, 1)
            setup.extend(samples)
            problems.extend(errors)
        problems.extend(f"{label}: {p}" for p in rep.problems)
        return rep

    try:
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            reps.append(execute(f"rep{len(reps)}", workload))
            took = time.perf_counter() - began
            if problems or time.perf_counter() + took > deadline:
                break
        if not problems and trace:
            others.append(execute("traced", workload, traced=True))
        elif not problems and len(reps) == 1:
            # Only one full repeat fit: re-run the workload's leading stages
            # so the digests are still compared across two executions.
            part = replace(workload, stages=workload.stages[: workload.recheck])
            rep = execute("recheck", part)
            (reps if part.stages == workload.stages else others).append(rep)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(RUNS.iterdir()):
            RUNS.rmdir()
    if not problems:
        problems += digest_problems(reps + others)

    ops = [r.ops() for r in reps + others]
    attempted, failed = sum(a for a, _ in ops), sum(f for _, f in ops)
    section = "per_layer" if trace else "end_to_end"
    if not trace:
        # Printed on failure too, so failed ops show in ok_ops_frac.
        metrics = e2e_metrics(reps, setup, attempted, failed)
    elif not problems:
        metrics = layer_metrics(reps, others[0])
    else:
        metrics = {}
    if not problems and set(metrics) != set(declared[section]):
        problems.append(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared[section]))}"
        )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": declared[section][k]}
            for k in declared[section]
            if k in metrics
        },
    }
    executed = ", ".join(f"{r.label} {r.took_s:.1f} s" for r in reps + others)
    lines = [f"# {name} seed={seed} executions: {executed}"]
    lines += [f"{name}\t{k}\t{v['value']:.6g}\t{v['unit']}" for k, v in result["metrics"].items()]
    lines += [f"CHECK FAILED: {p}" for p in problems]
    changed = max(r.kb_resave_changed for r in reps + others)
    if changed:
        lines.append(
            f"known defect: reloading and re-saving the knowledge base renormalises its "
            f"matrices in float64, which changes {changed} float32 values"
        )
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "schedkit" / "cli.py").is_file():
        print(f"error: {SRC / 'schedkit'} not found; run from a schedkit checkout", file=sys.stderr)
        return 2
    selftest.run(E2E_METRICS, per_layer_names(), load_declared())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
