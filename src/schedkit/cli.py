"""Command-line pipeline: one executable, one declarative config, subcommands
that each delegate to a single module operation.

Every run writes a manifest (inputs, effective-config hash, seeds, version)
next to its outputs so a mock-gateway run can be reproduced byte-for-byte.
Exit codes: 0 success, 1 usage, 2 data, 3 gateway, 4 internal.
"""

from __future__ import annotations

import argparse
import configparser
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


def _positive(value) -> None:
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")


def _finite_nonnegative(value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"must be finite and >= 0, got {value}")


# Every config key by section: its default, whose type (int, float or str)
# is the key's, and the check of its value unless a config class checks it
# (``SamplerConfig`` [sampler], ``GatewayConfig`` the [gateway] keys it
# takes). A config file that names any other section or key is an error.
CONFIG = {
    "gateway": {
        "mode": ("mock:echo", None),
        "endpoint_url": ("", None),
        "model_name": ("", None),
        "temperature": (0.0, None),
        "request_seed": (12345, None),
        "timeout_seconds": (60.0, None),
        "retry_limit": (3, None),
    },
    "sampler": {
        "max_sequential_hops": (3, None),
        "max_wbs_levels": (2, None),
        "paths_per_direction": (5, None),
        "rng_seed": (42, None),
    },
    "eval": {"tasks": ("MVP,DA,AP", None), "k": (2, _positive), "seed": (42, None)},
    "loss": {
        "beta": (1.0, _finite_nonnegative),
        "epochs": (10, _finite_nonnegative),
        "epochs_sft": (10, _finite_nonnegative),
        "learning_rate": (1.0, _finite_nonnegative),
    },
    "generate": {"n": (200, _positive), "seed": (42, None)},
    "kb": {"chunk_tokens": (500, _positive)},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def load_config(path: str | None) -> configparser.ConfigParser:
    """The defaults of ``CONFIG``, overridden by the file at ``path`` if
    any, which may name no section or key that ``CONFIG`` lacks, and no key
    under [DEFAULT] (configparser copies those into every section)."""
    cfg = configparser.ConfigParser()
    cfg.read_dict({s: {k: d for k, (d, _) in keys.items()} for s, keys in CONFIG.items()})
    if path:
        if not Path(path).is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            cfg.read_string(read_utf8(path, UsageError), source=path)
        except configparser.Error as exc:
            raise UsageError(str(exc)) from None
        for key in cfg.defaults():
            raise UsageError(f"{path}: [{cfg.default_section}] {key}: unknown key")
        for section in cfg.sections():
            if section not in CONFIG:
                raise UsageError(f"{path}: [{section}]: unknown section")
            for key in cfg.options(section):
                if key not in CONFIG[section]:
                    raise UsageError(f"{path}: [{section}] {key}: unknown key")
    return cfg


def config_values(cfg, section: str, *keys: str, into=None, **flags):
    """``[section]``'s values of ``keys`` (every key when none is named) by
    key, each of its default's type and checked as ``CONFIG`` says; or the
    class ``into`` made of them. A flag in ``flags`` that is not None stands
    for its key. A bad value is a usage error naming ``[section] key`` or ``--key``."""
    values = {}
    for key in keys or CONFIG[section]:
        default, check = CONFIG[section][key]
        flag = flags.get(key)
        try:
            value = type(default)(cfg.get(section, key)) if flag is None else flag
            if check:
                check(value)
        except (ValueError, configparser.Error) as exc:
            name = f"[{section}] {key}" if flag is None else f"--{key}"
            raise UsageError(f"{name}: {exc}") from None
        values[key] = value
    if into is None:
        return values
    try:
        return into(**{key: values[key] for key in into._fields})
    except ValueError as exc:
        raise UsageError(f"[{section}] {exc}") from None


def config_hash(cfg: configparser.ConfigParser) -> str:
    """sha256 of the effective config, through the interpreter's own SHA-256:
    a few hundred bytes do not pay for loading OpenSSL."""
    buf = io.StringIO()
    cfg.write(buf)
    return builtin_sha256()(buf.getvalue().encode("utf-8")).hexdigest()


def _seeds(cfg) -> dict:
    """The four seeds a manifest records, by name."""
    return {
        "sampler": config_values(cfg, "sampler", "rng_seed")["rng_seed"],
        "eval": config_values(cfg, "eval", "seed")["seed"],
        "generate": config_values(cfg, "generate", "seed")["seed"],
        "request": config_values(cfg, "gateway", "request_seed")["request_seed"],
    }


def write_manifest(out_dir: Path, command: str, cfg, inputs: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config_hash": config_hash(cfg),
        "seeds": _seeds(cfg),
        "inputs": inputs,
    }
    write_artifact(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def build_gateway(cfg, mode: str, schedule=None):
    """Gateway per config mode: ``http`` or ``mock:<key of gateway.MOCKS>``;
    mock:echo derives its table from the schedule. Only ``http`` reads the
    ``[gateway]`` values, but every mode checks them.

    A replay source is read to its end here, so the caller may start its
    own transcript at that very path once this returns.
    """
    from .gateway import MOCKS, GatewayConfig, HttpGateway, load_transcript

    gw_cfg = config_values(cfg, "gateway", into=GatewayConfig)
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
    return HttpGateway(gw_cfg) if mode == "http" else MOCKS[kind](*data)


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

    params = config_values(cfg, "generate", n=args.n, seed=args.seed)
    n, seed = params["n"], params["seed"]
    out = _out_dir(args)
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
        json.dumps([v._asdict() for v in report.violations], sort_keys=True, indent=2) + "\n",
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
    chunk_tokens = config_values(cfg, "kb")["chunk_tokens"]
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


def _sampled_contexts(sched, cfg, targets, render):
    """Each target's sampled context bundle with ``render(bundle, sched)``,
    lazily and in order. The graph is built, and so the schedule validated,
    before this returns."""
    from . import context, graph

    g = graph.build_graph(sched)
    sampler_cfg = config_values(cfg, "sampler", into=context.SamplerConfig)

    def sample(target):
        bundle = context.combined_context(g, sched, target, sampler_cfg)
        return bundle, render(bundle, sched)

    return map(sample, targets)


def _row_contexts(sched, cfg, kb_dir: str | None) -> dict:
    """Each row's context as its pieces by row id: rows of one WBS bucket
    share its HIERARCHICAL block. With ``kb_dir``, what each row retrieves
    (``knowledge.KnowledgeBase``) leads, and rows that retrieve the same
    texts share them; nothing holds the knowledge base once this returns.
    A directory with neither manifest is rejected before numpy loads."""
    from . import context

    if kb_dir:
        if not any((Path(kb_dir) / name).is_file() for name in ("terms.jsonl", "chunks.jsonl")):
            raise DataError(f"{kb_dir}: no knowledge store (neither terms.jsonl nor chunks.jsonl)")
        from . import knowledge

        kb = knowledge.KnowledgeBase(kb_dir)
    ids = [a.activity_id for a in sched.activities]
    sampled = _sampled_contexts(sched, cfg, ids, context.context_pieces)
    contexts = {bundle.target: pieces for bundle, pieces in sampled}
    if kb_dir:
        for row_id, pieces in contexts.items():
            if retrieved := kb.retrieve(pieces.text()):
                contexts[row_id] = pieces._replace(knowledge=retrieved)
    return contexts


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
    seed = config_values(cfg, "sampler", "rng_seed")["rng_seed"]
    print(f"sampled {len(targets)} context bundle(s) at seed {seed}")
    return EXIT_OK


def cmd_run_eval(args, cfg) -> int:
    from . import masked_eval
    from .gateway import TranscriptLog
    from .prompt_forge import PromptError

    evaluation = config_values(cfg, "eval")
    given = "--tasks" if args.tasks else "[eval] tasks"
    kinds = [
        kind.strip().upper()
        for kind in (args.tasks or evaluation["tasks"]).split(",")
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
    masks = [masked_eval.make_mask_tasks(sched, kind, seed=evaluation["seed"]) for kind in kinds]
    rules_text = read_utf8(args.rules, PromptError) if args.rules else ""
    contexts = _row_contexts(sched, cfg, args.kb)
    mode = args.gateway or config_values(cfg, "gateway", "mode")["mode"]
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
            k=evaluation["k"],
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
        seed=config_values(cfg, "eval", "seed")["seed"],
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
    loss = config_values(cfg, "loss")
    if loss["epochs"] + loss["epochs_sft"] == 0:
        raise UsageError("[loss] epochs: epochs and epochs_sft are both 0, so nothing trains")
    seed = config_values(cfg, "eval", "seed")["seed"]
    from . import alignment, preferences

    out = _out_dir(args)
    # Read from disk as the features are made; the outputs are written only
    # after training, so a bad line leaves the previous ones whole.
    scorer = alignment.train_scorer(
        preferences.preference_store_load(args.prefs_db),
        weights=alignment.LossWeights(beta=loss["beta"]),
        epochs=loss["epochs"],
        learning_rate=loss["learning_rate"],
        seed=seed,
        epochs_sft=loss["epochs_sft"],
    )
    scorer.save(out / "scorer.bin")
    log = [{"epoch": i, **bd._asdict()} for i, bd in enumerate(scorer.training_log)]
    write_artifact(
        out / "training_log.jsonl", "".join(json.dumps(r, sort_keys=True) + "\n" for r in log)
    )
    features = scorer.training_features
    pairs = len(features) // 2
    accuracy = alignment.ranking_accuracy(scorer, features)
    write_artifact(
        out / "scorer_summary.json",
        json.dumps(
            {
                "records": pairs,
                "ranking_accuracy": accuracy,
                "final": log[-1],
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
    from .gateway import TranscriptLog
    from .records import encode_json

    out = _out_dir(args)
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
        _seeds(cfg)  # a bad seed exits 1 before any command writes
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
