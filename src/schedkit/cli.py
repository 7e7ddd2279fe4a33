"""Command-line pipeline: one executable, one declarative config, subcommands
that each delegate to a single module operation.

Every run writes a manifest (inputs, effective-config hash, seeds, version)
next to its outputs so a mock-gateway run can be reproduced byte-for-byte.
Exit codes: 0 success, 1 usage, 2 data, 3 gateway, 4 internal.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from . import alignment, context, graph, knowledge, masked_eval, prompt_forge, synthetic
from .gateway import (
    MOCKS,
    GatewayConfig,
    GatewayError,
    HttpGateway,
    TranscriptLog,
    load_transcript,
    read_utf8,
)
from .schedule import (
    ScheduleError,
    parse_schedule,
    serialize_records,
    serialize_schedule,
    validate,
)
from .synthetic import GeneratorParams, SyntheticError

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
        "max_parallel": "1",
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
        "alpha": "0.5",
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
    buf = io.StringIO()
    cfg.write(buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


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
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8"
    )


@contextmanager
def _streamed(path: Path):
    """A text file written line by line into a temporary sibling of
    ``path`` and renamed into place when the block ends, so a killed stage
    leaves no half-written artifact; the sibling is deleted if an exception
    escapes."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sampler_config(cfg) -> context.SamplerConfig:
    try:
        return context.SamplerConfig(
            max_sequential_hops=cfg.getint("sampler", "max_sequential_hops"),
            max_wbs_levels=cfg.getint("sampler", "max_wbs_levels"),
            paths_per_direction=cfg.getint("sampler", "paths_per_direction"),
            rng_seed=cfg.getint("sampler", "rng_seed"),
        )
    except ValueError as exc:
        raise UsageError(f"[sampler] {exc}") from None


def _gateway_config(cfg) -> GatewayConfig:
    try:
        return GatewayConfig(
            endpoint_url=cfg.get("gateway", "endpoint_url"),
            model_name=cfg.get("gateway", "model_name"),
            temperature=cfg.getfloat("gateway", "temperature"),
            request_seed=cfg.getint("gateway", "request_seed"),
            max_parallel=cfg.getint("gateway", "max_parallel"),
            timeout_seconds=cfg.getfloat("gateway", "timeout_seconds"),
            retry_limit=cfg.getint("gateway", "retry_limit"),
        )
    except ValueError as exc:
        raise UsageError(f"[gateway] {exc}") from None


def build_gateway(cfg, mode: str, out_dir: Path, schedule=None):
    """Gateway per config mode: ``http`` or ``mock:<key of gateway.MOCKS>``;
    mock:echo derives its table from the schedule.

    The transcript log starts ``<out_dir>/transcript.jsonl`` empty, so it is
    opened only after the mode is checked and a replay source is read (the
    source may be that very file). The caller closes ``gateway.transcript``.
    """
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
        data = (load_transcript(path),)
    transcript = TranscriptLog(out_dir / "transcript.jsonl")
    try:
        make = HttpGateway if mode == "http" else MOCKS[kind]
        return make(*data, cfg=gw_cfg, transcript=transcript)
    except BaseException:
        transcript.close()
        raise


def _read_schedule(path: str):
    return parse_schedule(read_utf8(path, ScheduleError), source_label=path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands -------------------------------------------------------------------


def cmd_generate(args, cfg) -> int:
    out = _out_dir(args)
    n = args.n if args.n is not None else cfg.getint("generate", "n")
    seed = args.seed if args.seed is not None else cfg.getint("generate", "seed")
    sched = synthetic.generate_schedule(GeneratorParams(n_activities=n, seed=seed))
    (out / "schedule.csv").write_text(serialize_schedule(sched), "utf-8")
    (out / "schedule.jsonl").write_text(serialize_records(sched), "utf-8")
    write_manifest(out, "generate", cfg, {"n": n, "seed": seed})
    print(f"generated {n} activities, {len(sched.links)} links -> {out / 'schedule.csv'}")
    return EXIT_OK


def cmd_ingest(args, cfg) -> int:
    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    report = validate(sched)
    (out / "schedule.csv").write_text(serialize_schedule(sched), "utf-8")
    (out / "schedule.jsonl").write_text(serialize_records(sched), "utf-8")
    (out / "validation.json").write_text(
        json.dumps(
            [v.__dict__ for v in report.violations], sort_keys=True, indent=2
        )
        + "\n",
        "utf-8",
    )
    write_manifest(out, "ingest", cfg, {"schedule": args.schedule})
    print(
        f"ingested {len(sched.activities)} activities, {len(sched.links)} links, "
        f"{len(report.violations)} violation(s)"
    )
    return EXIT_OK


def cmd_analyze_graph(args, cfg) -> int:
    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    g = graph.build_graph(sched)
    cycles = graph.detect_cycles(g)
    lines = [f"nodes={len(g.nodes)}", f"edges={g.edge_count()}", f"cycles={len(cycles)}"]
    if cycles:
        (out / "cycles.json").write_text(
            json.dumps([list(c) for c in cycles], indent=2) + "\n", "utf-8"
        )
        stats = graph.degree_distribution(g)
    else:
        stats = graph.graph_stats(g)
        (out / "maxhop_hist.txt").write_text(
            graph.render_histogram(stats.maxhop_histogram), "utf-8"
        )
    (out / "degree_hist.txt").write_text(
        graph.render_histogram(stats.degree_histogram), "utf-8"
    )
    (out / "graph_stats.txt").write_text(graph.render_stats_report(stats), "utf-8")
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
    out = _out_dir(args)
    embedder = knowledge.HashedNgramEmbedder()
    local, glob = knowledge.build_stores_from_paths(
        embedder,
        corpus_dir=args.corpus_dir,
        terms_file=args.terms_file,
        chunk_tokens=cfg.getint("kb", "chunk_tokens"),
    )
    knowledge.save_term_store(local, out / "terms.jsonl", out / "terms.mat")
    knowledge.save_chunk_store(glob, out / "chunks.jsonl", out / "chunks.mat")
    write_manifest(
        out,
        "build-kb",
        cfg,
        {"corpus_dir": args.corpus_dir, "terms_file": args.terms_file},
    )
    print(f"indexed {len(local.entries)} terms, {len(glob.chunks)} chunks -> {out}")
    return EXIT_OK


def _load_kb(kb_dir: str | None):
    if not kb_dir:
        return None, None
    kb = Path(kb_dir)
    embedder = knowledge.HashedNgramEmbedder()
    local = glob = None
    if (kb / "terms.jsonl").is_file():
        local = knowledge.load_term_store(embedder, kb / "terms.jsonl", kb / "terms.mat")
        if not local.entries:
            local = None
    if (kb / "chunks.jsonl").is_file():
        glob = knowledge.load_chunk_store(embedder, kb / "chunks.jsonl", kb / "chunks.mat")
        if not glob.chunks:
            glob = None
    return local, glob


def _rendered_contexts(sched, cfg, targets):
    """Each target's sampled context bundle with its rendered text, lazily
    and in order. The graph is built, and so the schedule validated, before
    this returns."""
    g = graph.build_graph(sched)
    sampler_cfg = _sampler_config(cfg)

    def sample(target):
        bundle = context.combined_context(g, sched, target, sampler_cfg)
        return bundle, context.render_context(bundle, sched)

    return map(sample, targets)


def cmd_sample_context(args, cfg) -> int:
    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    targets = (
        [t.strip() for t in args.targets.split(",") if t.strip()]
        if args.targets
        else [a.activity_id for a in sched.activities]
    )
    sampled = _rendered_contexts(sched, cfg, targets)
    with _streamed(out / "bundles.jsonl") as bundles, _streamed(out / "contexts.txt") as texts:
        for i, (bundle, text) in enumerate(sampled):
            bundles.write(context.serialize_bundle(bundle) + "\n")
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
    k = cfg.getint("eval", "k")
    if k < 1:
        raise UsageError(f"[eval] k: must be >= 1, got {k}")
    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    mode = args.gateway or cfg.get("gateway", "mode")
    gateway = build_gateway(cfg, mode, out, schedule=sched)
    with gateway.transcript:
        kinds = [
            k.strip().upper() if k.strip().upper() != "POLISH" else "Polish"
            for k in (args.tasks or cfg.get("eval", "tasks")).split(",")
            if k.strip()
        ]
        seed = cfg.getint("eval", "seed")
        tasks = []
        for kind in kinds:
            tasks.extend(masked_eval.make_mask_tasks(sched, kind, seed=seed))

        local, glob = _load_kb(args.kb)
        # Each row's full context, built once: retrieved knowledge, if any,
        # then the rendered context.
        contexts = {
            bundle.target: text
            for bundle, text in _rendered_contexts(
                sched, cfg, [a.activity_id for a in sched.activities]
            )
        }
        if local is not None or glob is not None:
            for row_id, text in contexts.items():
                # Both stores share one embedder, so the query is embedded once.
                query = (local or glob).embedder.embed(text)
                parts = []
                if local is not None:
                    entry = local.retrieve(query)
                    parts.append(f"{entry.term}: {entry.definition}")
                if glob is not None:
                    for chunk in glob.retrieve(query, k=3):
                        parts.append(chunk.text)
                static = "\n".join(parts)
                if static:
                    contexts[row_id] = static + "\n" + text

        rules_text = read_utf8(args.rules, prompt_forge.PromptError) if args.rules else ""
        with _streamed(out / "instances.jsonl") as fh:
            # Caught inside the block, so the instances of a partial run
            # are kept.
            failure = None
            try:
                report = masked_eval.run_eval(
                    sched,
                    tasks,
                    gateway,
                    static_knowledge="",
                    rules=rules_text,
                    context_provider=contexts.__getitem__,
                    k=k,
                    sink=lambda inst: masked_eval.save_instances(fh, (inst,)),
                )
            except masked_eval.GatewayEvalError as exc:
                report, failure = exc.partial_report, exc
    (out / "report.json").write_text(report.to_json(), "utf-8")
    (out / "report.txt").write_text(report.render_table(), "utf-8")
    write_manifest(
        out,
        "run-eval",
        cfg,
        {"schedule": args.schedule, "gateway": mode, "tasks": ",".join(kinds)},
    )
    print(report.render_table(), end="")
    if failure is not None:
        print(f"warning: {failure}", file=sys.stderr)
        return EXIT_GATEWAY
    return EXIT_OK


def cmd_collect_prefs(args, cfg) -> int:
    out = _out_dir(args)
    sched = _read_schedule(args.schedule)
    instances = masked_eval.load_instances(args.instances)
    records = masked_eval.collect_preferences(
        sched,
        instances,
        synthesize_negatives=args.synthesize_negatives,
        seed=cfg.getint("eval", "seed"),
    )
    if args.prefs_db:
        db_path = Path(args.prefs_db)
        db_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        # The default database is this run's artifact, so a rerun into the
        # same --out starts it empty; a named --prefs-db accumulates.
        db_path = out / "prefs.jsonl"
        db_path.unlink(missing_ok=True)
    for rec in records:
        masked_eval.preference_store_append(db_path, rec)
    write_manifest(
        out,
        "collect-prefs",
        cfg,
        {"schedule": args.schedule, "instances": args.instances},
    )
    print(f"collected {len(records)} preference pair(s) -> {db_path}")
    return EXIT_OK


def cmd_train_scorer(args, cfg) -> int:
    out = _out_dir(args)
    records = masked_eval.preference_store_load(args.prefs_db)
    weights = alignment.LossWeights(
        alpha=cfg.getfloat("loss", "alpha"), beta=cfg.getfloat("loss", "beta")
    )
    scorer = alignment.train_scorer(
        records,
        weights=weights,
        epochs=cfg.getint("loss", "epochs"),
        learning_rate=cfg.getfloat("loss", "learning_rate"),
        seed=cfg.getint("eval", "seed"),
        epochs_sft=cfg.getint("loss", "epochs_sft"),
    )
    scorer.save(out / "scorer.bin")
    log_lines = [
        json.dumps(
            {"epoch": i, "l_sft": bd.l_sft, "l_cr": bd.l_cr, "l_pa": bd.l_pa, "l_total": bd.l_total},
            sort_keys=True,
        )
        for i, bd in enumerate(scorer.training_log)
    ]
    (out / "training_log.jsonl").write_text("\n".join(log_lines) + "\n", "utf-8")
    accuracy = alignment.ranking_accuracy(scorer, records, scorer.training_features)
    (out / "scorer_summary.json").write_text(
        json.dumps(
            {
                "records": len(records),
                "ranking_accuracy": accuracy,
                "final": log_lines and json.loads(log_lines[-1]) or None,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
        "utf-8",
    )
    write_manifest(out, "train-scorer", cfg, {"prefs_db": args.prefs_db})
    print(
        f"trained on {len(records)} pair(s); ranking accuracy "
        f"{accuracy * 100.0:.1f}% -> {out / 'scorer.bin'}"
    )
    return EXIT_OK


def cmd_polish(args, cfg) -> int:
    out = _out_dir(args)
    instances = masked_eval.load_instances(args.instances)
    mode = args.gateway or "mock:stopword"
    gateway = build_gateway(cfg, mode, out)
    stats = alignment.ContextLengthStats()
    with gateway.transcript, _streamed(out / "polished.jsonl") as fh:
        for inst in instances:
            polished = alignment.polish_context(
                gateway, inst.mask.task_kind, inst.prompt_user, stats
            )
            fh.write(
                json.dumps(
                    {"row_id": inst.mask.row_id, "task_kind": inst.mask.task_kind, "polished": polished},
                    sort_keys=True,
                )
                + "\n"
            )
        if not instances:
            fh.write("\n")
    (out / "ctx_stats.json").write_text(stats.to_json(), "utf-8")
    for kind in sorted(stats.raw_lengths):
        for which in ("raw", "polished"):
            hist = stats.histogram(kind, which)
            (out / f"ctxlen_{kind}_{which}.txt").write_text(
                graph.render_histogram(hist), "utf-8"
            )
    write_manifest(out, "polish", cfg, {"instances": args.instances, "gateway": mode})
    for kind in sorted(stats.raw_lengths):
        print(
            f"{kind}: mean raw {stats.mean(kind, 'raw'):.1f} -> "
            f"polished {stats.mean(kind, 'polished'):.1f} tokens"
        )
    return EXIT_OK


def cmd_report(args, cfg) -> int:
    out = _out_dir(args)
    try:
        report = masked_eval.ScoreReport.from_json(Path(args.report).read_text("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        raise masked_eval.CorruptRecordError(
            f"{args.report}: {type(exc).__name__}: {exc}"
        ) from None
    table = report.render_table()
    (out / "report.txt").write_text(table, "utf-8")
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

_DATA_ERRORS = (
    ScheduleError,
    knowledge.KnowledgeError,
    masked_eval.EvalError,
    SyntheticError,
    graph.GraphError,
    prompt_forge.PromptError,
    alignment.AlignmentError,
    FileNotFoundError,
)


def main(argv=None) -> int:
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
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
