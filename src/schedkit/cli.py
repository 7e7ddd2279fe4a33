"""Command-line pipeline: one executable, one declarative config, subcommands
that each delegate to a single module operation.

Every run writes a manifest (inputs, effective-config hash, seeds, version)
next to its outputs so a mock-gateway run can be reproduced byte-for-byte.
Exit codes: 0 success, 1 usage, 2 data, 3 gateway, 4 internal.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

# Only the package root here: each command imports the modules it runs, so
# no stage compiles and loads the others' (``knowledge`` and ``alignment``
# load numpy, so only build-kb, run-eval --kb and train-scorer do).
from . import (
    DataError,
    GatewayError,
    __version__,
    builtin_sha256,
    read_utf8,
    streamed,
    utf8_lines,
    write_artifact,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GATEWAY = 3
EXIT_INTERNAL = 4

DEFAULT_CONFIG = {
    "gateway": {
        "mode": "mock:echo",
        "endpoint_url": "",
        "model_name": "",
        "temperature": "0.0",
        "request_seed": "12345",
        "timeout_seconds": "60.0",
        "retry_limit": "3",
    },
    "sampler": {
        "max_sequential_hops": "3",
        "max_wbs_levels": "2",
        "paths_per_direction": "5",
        "rng_seed": "42",
    },
    "eval": {"tasks": "MVP,DA,AP", "k": "2", "seed": "42"},
    "loss": {
        "beta": "1.0",
        "epochs": "10",
        "epochs_sft": "10",
        "learning_rate": "1.0",
    },
    "generate": {"n": "200", "seed": "42"},
    "kb": {"chunk_tokens": "500"},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


class _Config(configparser.ConfigParser):
    """A config whose ``getint`` and ``getfloat`` raise ``UsageError``
    naming ``[section] key`` for a value that is not a number."""

    def _get_conv(self, section, option, conv, **kwargs):
        try:
            return super()._get_conv(section, option, conv, **kwargs)
        except ValueError as exc:
            raise UsageError(f"[{section}] {option}: {exc}") from None


def load_config(path: str | None) -> configparser.ConfigParser:
    cfg = _Config()
    cfg.read_dict(DEFAULT_CONFIG)
    if path:
        if not Path(path).is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            cfg.read_string(read_utf8(path, UsageError), source=path)
        except configparser.Error as exc:
            raise UsageError(str(exc)) from None
    return cfg


def config_hash(cfg: configparser.ConfigParser) -> str:
    """sha256 of the effective config, through the interpreter's own SHA-256:
    a few hundred bytes do not pay for loading OpenSSL."""
    buf = io.StringIO()
    cfg.write(buf)
    return builtin_sha256()(buf.getvalue().encode("utf-8")).hexdigest()


def write_manifest(out_dir: Path, command: str, cfg, inputs: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config_hash": config_hash(cfg),
        "seeds": {
            "sampler": cfg.getint("sampler", "rng_seed"),
            "eval": cfg.getint("eval", "seed"),
            "generate": cfg.getint("generate", "seed"),
            "request": cfg.getint("gateway", "request_seed"),
        },
        "inputs": inputs,
    }
    write_artifact(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _sampler_config(cfg):
    from .context import SamplerConfig

    try:
        # The [sampler] keys are SamplerConfig's fields.
        return SamplerConfig(
            **{key: cfg.getint("sampler", key) for key in DEFAULT_CONFIG["sampler"]}
        )
    except ValueError as exc:
        raise UsageError(f"[sampler] {exc}") from None


def _loss_config(cfg) -> dict:
    """The ``[loss]`` values by key: finite and >= 0, with at least one
    epoch in all."""
    loss = {key: cfg.getint("loss", key) for key in ("epochs", "epochs_sft")}
    for key in ("learning_rate", "beta"):
        loss[key] = cfg.getfloat("loss", key)
    for key, value in loss.items():
        if not (math.isfinite(value) and value >= 0):
            raise UsageError(f"[loss] {key}: must be finite and >= 0, got {value}")
    if loss["epochs"] + loss["epochs_sft"] == 0:
        raise UsageError("[loss] epochs: epochs and epochs_sft are both 0, so nothing trains")
    return loss


def _gateway_config(cfg):
    from .gateway import GatewayConfig

    try:
        return GatewayConfig(
            endpoint_url=cfg.get("gateway", "endpoint_url"),
            model_name=cfg.get("gateway", "model_name"),
            temperature=cfg.getfloat("gateway", "temperature"),
            request_seed=cfg.getint("gateway", "request_seed"),
            timeout_seconds=cfg.getfloat("gateway", "timeout_seconds"),
            retry_limit=cfg.getint("gateway", "retry_limit"),
        )
    except ValueError as exc:
        raise UsageError(f"[gateway] {exc}") from None


def build_gateway(cfg, mode: str, schedule=None):
    """Gateway per config mode: ``http`` or ``mock:<key of gateway.MOCKS>``;
    mock:echo derives its table from the schedule. Only ``http`` reads the
    ``[gateway]`` values, but every mode checks them.

    A replay source is read to its end here, so the caller may start its
    own transcript at that very path once this returns.
    """
    from .gateway import MOCKS, HttpGateway, expect_exchanges, load_transcript

    gw_cfg = _gateway_config(cfg)
    kind, eq, path = mode.removeprefix("mock:").partition("=")
    if mode != "http" and not (
        mode.startswith("mock:") and kind in MOCKS and bool(eq) == (kind == "transcript")
    ):
        raise UsageError(f"unknown gateway mode {mode!r}")
    data = ()
    if kind == "echo":
        if schedule is None:
            raise UsageError("mock:echo needs a schedule to answer from")
        data = (schedule.index.rows,)
    elif kind == "transcript":
        expect_exchanges(_file_size(path))
        data = (load_transcript(path),)
    return HttpGateway(gw_cfg) if mode == "http" else MOCKS[kind](*data)


def _file_size(path) -> int:
    """The size of the file at ``path``; 0 for a pipe or where there is no
    file, which its reader then reports."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _read_schedule(path: str):
    """The schedule at ``path``, read a line at a time (``utf8_lines``)."""
    from .schedule import ScheduleError, parse_schedule

    with open(path, "rb") as raw:
        return parse_schedule(utf8_lines(raw, path, ScheduleError), source_label=path)


def _write_schedule(out: Path, sched) -> None:
    """``schedule.csv`` and ``schedule.jsonl`` of ``sched``, each written
    one row at a time."""
    from .schedule import serialize_records, serialize_schedule

    with streamed(out / "schedule.csv") as fh:
        serialize_schedule(sched, fh)
    with streamed(out / "schedule.jsonl") as fh:
        serialize_records(sched, fh)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands -------------------------------------------------------------------


def cmd_generate(args, cfg) -> int:
    from . import synthetic

    out = _out_dir(args)
    n = args.n if args.n is not None else cfg.getint("generate", "n")
    seed = args.seed if args.seed is not None else cfg.getint("generate", "seed")
    sched = synthetic.generate_schedule(synthetic.GeneratorParams(n_activities=n, seed=seed))
    _write_schedule(out, sched)
    write_manifest(out, "generate", cfg, {"n": n, "seed": seed})
    print(f"generated {n} activities, {len(sched.links)} links -> {out / 'schedule.csv'}")
    return EXIT_OK


def cmd_ingest(args, cfg) -> int:
    from .schedule import validate

    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    report = validate(sched)
    _write_schedule(out, sched)
    write_artifact(
        out / "validation.json",
        json.dumps([v.__dict__ for v in report.violations], sort_keys=True, indent=2) + "\n",
    )
    write_manifest(out, "ingest", cfg, {"schedule": args.schedule})
    print(
        f"ingested {len(sched.activities)} activities, {len(sched.links)} links, "
        f"{len(report.violations)} violation(s)"
    )
    return EXIT_OK


def cmd_analyze_graph(args, cfg) -> int:
    from . import graph

    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    g = graph.build_graph(sched)
    cycles = graph.detect_cycles(g)
    lines = [f"nodes={len(g.nodes)}", f"edges={g.edge_count()}", f"cycles={len(cycles)}"]
    if cycles:
        write_artifact(out / "cycles.json", json.dumps([list(c) for c in cycles], indent=2) + "\n")
        stats = graph.degree_distribution(g)
    else:
        stats = graph.graph_stats(g)
        write_artifact(out / "maxhop_hist.txt", graph.render_histogram(stats.maxhop_histogram))
    write_artifact(out / "degree_hist.txt", graph.render_histogram(stats.degree_histogram))
    write_artifact(out / "graph_stats.txt", graph.render_stats_report(stats))
    write_manifest(out, "analyze-graph", cfg, {"schedule": args.schedule})
    print("\n".join(lines))
    print(
        f"degree mean {stats.degree_mean:.3f} max {stats.degree_max}; "
        + (
            f"maxhop mean {stats.maxhop_mean:.3f} max {stats.maxhop_max}"
            if not cycles
            else "maxhop skipped (cycles present)"
        )
    )
    return EXIT_OK


def cmd_build_kb(args, cfg) -> int:
    if not (args.corpus_dir or args.terms_file):
        raise UsageError("build-kb: give --corpus-dir, --terms-file or both")
    chunk_tokens = cfg.getint("kb", "chunk_tokens")
    if chunk_tokens < 1:
        raise UsageError(f"[kb] chunk_tokens: must be >= 1, got {chunk_tokens}")
    # A missing directory would glob to no file and index nothing.
    if args.corpus_dir and not Path(args.corpus_dir).is_dir():
        raise DataError(f"{args.corpus_dir}: --corpus-dir is not a directory")
    from . import knowledge

    out = _out_dir(args)
    terms, chunks = knowledge.build_stores_from_paths(
        knowledge.HashedNgramEmbedder(),
        corpus_dir=args.corpus_dir,
        terms_file=args.terms_file,
        out_dir=out,
        chunk_tokens=chunk_tokens,
    )
    write_manifest(
        out,
        "build-kb",
        cfg,
        {"corpus_dir": args.corpus_dir, "terms_file": args.terms_file},
    )
    print(f"indexed {terms} terms, {chunks} chunks -> {out}")
    return EXIT_OK


def _load_kb(kb_dir: str | None):
    """The ``--kb`` knowledge base (``knowledge.KnowledgeBase``), or None
    without one. A directory with neither manifest is rejected before
    numpy loads."""
    if not kb_dir:
        return None
    kb = Path(kb_dir)
    if not ((kb / "terms.jsonl").is_file() or (kb / "chunks.jsonl").is_file()):
        raise DataError(f"{kb_dir}: no knowledge store (neither terms.jsonl nor chunks.jsonl)")
    from . import knowledge

    return knowledge.KnowledgeBase(kb_dir)


def _sampled_contexts(sched, cfg, targets, render):
    """Each target's sampled context bundle with ``render(bundle, sched)``,
    lazily and in order. The graph is built, and so the schedule validated,
    before this returns."""
    from . import context, graph

    g = graph.build_graph(sched)
    sampler_cfg = _sampler_config(cfg)

    def sample(target):
        bundle = context.combined_context(g, sched, target, sampler_cfg)
        return bundle, render(bundle, sched)

    return map(sample, targets)


def cmd_sample_context(args, cfg) -> int:
    from . import context

    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    targets = (
        [t.strip() for t in args.targets.split(",") if t.strip()]
        if args.targets
        else [a.activity_id for a in sched.activities]
    )
    sampled = _sampled_contexts(sched, cfg, targets, context.render_context)
    with streamed(out / "bundles.jsonl") as bundles, streamed(out / "contexts.txt") as texts:
        for i, (bundle, text) in enumerate(sampled):
            bundles.write(context.serialize_bundle(bundle, sched) + "\n")
            texts.write(("\n" if i else "") + text)
        if not targets:
            bundles.write("\n")
    write_manifest(
        out,
        "sample-context",
        cfg,
        {"schedule": args.schedule, "targets": args.targets or "all"},
    )
    seed = cfg.getint("sampler", "rng_seed")
    print(f"sampled {len(targets)} context bundle(s) at seed {seed}")
    return EXIT_OK


def cmd_run_eval(args, cfg) -> int:
    from . import context, masked_eval
    from .gateway import TranscriptLog, expect_exchanges
    from .prompt_forge import PromptError

    k = cfg.getint("eval", "k")
    if k < 1:
        raise UsageError(f"[eval] k: must be >= 1, got {k}")
    given = "--tasks" if args.tasks else "[eval] tasks"
    kinds = [
        kind.strip().upper()
        for kind in (args.tasks or cfg.get("eval", "tasks")).split(",")
        if kind.strip()
    ]
    if not kinds:
        raise UsageError(f"{given}: no task kind given")
    if len(set(kinds)) < len(kinds):
        raise UsageError(f"{given}: a task kind is given twice: {','.join(kinds)}")
    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    # Every input is read and checked before the transcript is started
    # empty, so a rejected run leaves the previous one whole. Each mask is
    # made as its prompt is sent.
    seed = cfg.getint("eval", "seed")
    masks = [masked_eval.make_mask_tasks(sched, kind, seed=seed) for kind in kinds]
    rules_text = read_utf8(args.rules, PromptError) if args.rules else ""
    kb = _load_kb(args.kb)
    # Each row's context as its pieces, not as text: rows of one WBS
    # bucket share its HIERARCHICAL block, and rows that retrieve the
    # same texts share them. Retrieved knowledge, if any, leads.
    ids = [a.activity_id for a in sched.activities]
    contexts = {
        bundle.target: pieces
        for bundle, pieces in _sampled_contexts(sched, cfg, ids, context.context_pieces)
    }
    if kb is not None:
        for row_id, pieces in contexts.items():
            if retrieved := kb.retrieve(pieces.text()):
                contexts[row_id] = dataclasses.replace(pieces, knowledge=retrieved)
    # Each task kind sends every row's context once, with the rules.
    expect_exchanges(len(kinds) * sum(len(rules_text) + p.size() for p in contexts.values()))

    mode = args.gateway or cfg.get("gateway", "mode")
    gateway = build_gateway(cfg, mode, schedule=sched)
    failures = 0  # instances whose exchange failed
    with TranscriptLog(out / "transcript.jsonl") as log, streamed(out / "instances.jsonl") as fh:

        def save(inst) -> None:
            nonlocal failures
            failures += inst.error is not None
            masked_eval.save_instances(fh, (inst,))

        report = masked_eval.evaluate_tasks(
            sched,
            itertools.chain.from_iterable(masks),
            gateway,
            transcript=log,
            rules=rules_text,
            context_provider=contexts.__getitem__,
            k=k,
            sink=save,
        )
    write_artifact(out / "report.json", report.to_json())
    write_artifact(out / "report.txt", report.render_table())
    write_manifest(
        out,
        "run-eval",
        cfg,
        {
            "schedule": args.schedule,
            "gateway": mode,
            "tasks": ",".join(kinds),
            "kb": args.kb,
            "rules": args.rules,
        },
    )
    print(report.render_table(), end="")
    if failures:
        print(f"warning: {failures} instance(s) failed at the gateway", file=sys.stderr)
        return EXIT_GATEWAY
    return EXIT_OK


def cmd_collect_prefs(args, cfg) -> int:
    from . import masked_eval

    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    # Reads the whole file first, so a bad line, or one whose row is no
    # activity of the schedule, fails before the database is touched; the
    # records are then made as their lines are read again.
    records = masked_eval.collect_preferences(
        sched,
        masked_eval.load_instances(args.instances, rows=sched.index.by_id),
        synthesize_negatives=args.synthesize_negatives,
        seed=cfg.getint("eval", "seed"),
        reread=lambda positions: masked_eval.load_instances(args.instances, positions),
    )
    if args.prefs_db:
        db_path = Path(args.prefs_db)
        db_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        # The default database is this run's artifact, so a rerun into the
        # same --out starts it empty; a named --prefs-db accumulates.
        db_path = out / "prefs.jsonl"
        db_path.unlink(missing_ok=True)
    count = masked_eval.preference_store_append(db_path, records)
    write_manifest(
        out,
        "collect-prefs",
        cfg,
        {"schedule": args.schedule, "instances": args.instances},
    )
    print(f"collected {count} preference pair(s) -> {db_path}")
    return EXIT_OK


def cmd_train_scorer(args, cfg) -> int:
    loss = _loss_config(cfg)
    from . import alignment, preferences

    out = _out_dir(args)
    # Read from disk as the features are made; the outputs are written only
    # after training, so a bad line leaves the previous ones whole.
    scorer = alignment.train_scorer(
        preferences.preference_store_load(args.prefs_db),
        weights=alignment.LossWeights(beta=loss["beta"]),
        epochs=loss["epochs"],
        learning_rate=loss["learning_rate"],
        seed=cfg.getint("eval", "seed"),
        epochs_sft=loss["epochs_sft"],
    )
    scorer.save(out / "scorer.bin")
    log_lines = [
        json.dumps(
            {"epoch": i, "l_sft": bd.l_sft, "l_cr": bd.l_cr, "l_pa": bd.l_pa, "l_total": bd.l_total},
            sort_keys=True,
        )
        for i, bd in enumerate(scorer.training_log)
    ]
    write_artifact(out / "training_log.jsonl", "\n".join(log_lines) + "\n")
    features = scorer.training_features
    pairs = len(features) // 2
    accuracy = alignment.ranking_accuracy(scorer, features)
    write_artifact(
        out / "scorer_summary.json",
        json.dumps(
            {
                "records": pairs,
                "ranking_accuracy": accuracy,
                "final": log_lines and json.loads(log_lines[-1]) or None,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
    )
    write_manifest(out, "train-scorer", cfg, {"prefs_db": args.prefs_db})
    print(
        f"trained on {pairs} pair(s); ranking accuracy "
        f"{accuracy * 100.0:.1f}% -> {out / 'scorer.bin'}"
    )
    return EXIT_OK


def cmd_polish(args, cfg) -> int:
    from . import graph, masked_eval, polish
    from .gateway import TranscriptLog, expect_exchanges
    from .records import encode_json

    out = _out_dir(args)
    # Each instance's prompt is polished: about the instances file in all.
    expect_exchanges(_file_size(args.instances))
    mode = args.gateway or "mock:stopword"
    gateway = build_gateway(cfg, mode)
    stats = polish.ContextLengthStats()
    with TranscriptLog(out / "transcript.jsonl") as log, streamed(out / "polished.jsonl") as fh:
        for inst in masked_eval.load_instances(args.instances):
            mask = inst.mask
            polished = polish.polish_context(gateway, mask.task_kind, inst.prompt_user, stats, log)
            record = {"row_id": mask.row_id, "task_kind": mask.task_kind, "polished": polished}
            fh.write(encode_json(record) + "\n")
        if not stats.raw_lengths:  # no instances
            fh.write("\n")
    write_artifact(out / "ctx_stats.json", stats.to_json())
    for kind in sorted(stats.raw_lengths):
        for which in ("raw", "polished"):
            hist = stats.histogram(kind, which)
            write_artifact(out / f"ctxlen_{kind}_{which}.txt", graph.render_histogram(hist))
    write_manifest(out, "polish", cfg, {"instances": args.instances, "gateway": mode})
    for kind in sorted(stats.raw_lengths):
        print(
            f"{kind}: mean raw {stats.mean(kind, 'raw'):.1f} -> "
            f"polished {stats.mean(kind, 'polished'):.1f} tokens"
        )
    return EXIT_OK


def cmd_report(args, cfg) -> int:
    from .report import ScoreReport

    out = _out_dir(args)
    try:
        report = ScoreReport.from_json(read_utf8(args.report, DataError))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"{args.report}: {type(exc).__name__}: {exc}") from None
    table = report.render_table()
    write_artifact(out / "report.txt", table)
    write_manifest(out, "report", cfg, {"report": args.report})
    print(table, end="")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="schedkit", description=__doc__)
    parser.add_argument("--config", help="declarative run configuration (INI)")
    parser.add_argument("--out", default="out", help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic schedule")
    p.add_argument("--n", type=int, help="number of activities")
    p.add_argument("--seed", type=int, help="generation seed")

    p = sub.add_parser("ingest", help="parse + validate a schedule file")
    p.add_argument("--schedule", required=True)

    p = sub.add_parser("analyze-graph", help="dependency graph analytics")
    p.add_argument("--schedule", required=True)

    p = sub.add_parser("build-kb", help="index a corpus and a term file")
    p.add_argument("--corpus-dir")
    p.add_argument("--terms-file")

    p = sub.add_parser("sample-context", help="sample per-activity context bundles")
    p.add_argument("--schedule", required=True)
    p.add_argument("--targets", help="comma-separated activity ids (default: all)")

    p = sub.add_parser("run-eval", help="masked evaluation over the schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--gateway", help="http or mock:{echo,wrong,transcript=PATH}")
    p.add_argument("--tasks", help="comma-separated task kinds (MVP,DA,AP)")
    p.add_argument("--kb", help="directory holding built knowledge stores")
    p.add_argument("--rules", help="text file of generated rules to include")

    p = sub.add_parser("collect-prefs", help="harvest preference pairs from a run")
    p.add_argument("--schedule", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument(
        "--prefs-db",
        help="preference database (JSONL) to append to; "
        "default: <out>/prefs.jsonl, started empty on every run",
    )
    p.add_argument("--synthesize-negatives", action="store_true")

    p = sub.add_parser("train-scorer", help="train the preference scorer")
    p.add_argument("--prefs-db", required=True)

    p = sub.add_parser("polish", help="polish prompt sections, track lengths")
    p.add_argument("--instances", required=True)
    p.add_argument("--gateway", help="mock:{stopword,identity} or http")

    p = sub.add_parser("report", help="render a saved score report")
    p.add_argument("--report", required=True)
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "ingest": cmd_ingest,
    "analyze-graph": cmd_analyze_graph,
    "build-kb": cmd_build_kb,
    "sample-context": cmd_sample_context,
    "run-eval": cmd_run_eval,
    "collect-prefs": cmd_collect_prefs,
    "train-scorer": cmd_train_scorer,
    "polish": cmd_polish,
    "report": cmd_report,
}

def main(argv=None) -> int:
    # One BLAS thread unless the user sets another count: numpy's bundled
    # OpenBLAS reads this when numpy loads, and otherwise starts a worker
    # pool, which costs tens of ms at import and speeds up no product here
    # (the largest is about 700 x 256).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        return COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY
    except (DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
