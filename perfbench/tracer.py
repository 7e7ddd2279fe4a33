"""Run one schedkit CLI stage with span-recording wrappers installed.

Usage (from a directory where ``schedkit`` is importable):

    python tracer.py SPANS_PREFIX STAGE -- <schedkit cli arguments>

Every function in ``TRACED`` is wrapped in its defining module, in every
``schedkit`` module that imported it by name, and, for methods, on its
class.  Each call records a span: name, start, end and parent span.  The
spans stay in memory and are written when the stage ends, as
``SPANS_PREFIX.json`` (names, the stage as request id, counters) and
``SPANS_PREFIX.bin`` (four packed arrays, see ``spans.read_spans``).

The stage runs with ``max_parallel = 1`` and no threads, so one span stack
per process is enough.  ``rng.fnv1a64`` is deliberately not wrapped: one
n=100 ``train-scorer`` calls it about 17.5 M times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# (layer, defining module, qualified name).  The span name is
# "<layer>.<qualified name>", e.g. "schedule.Schedule.by_id".
TRACED = (
    ("schedule", "schedkit.schedule", "canonical_row"),
    ("schedule", "schedkit.schedule", "Schedule.by_id"),
    ("schedule", "schedkit.schedule", "parse_schedule"),
    ("schedule", "schedkit.schedule", "validate"),
    ("schedule", "schedkit.schedule", "serialize_schedule"),
    ("graph", "schedkit.graph", "build_graph"),
    ("graph", "schedkit.graph", "graph_stats"),
    ("graph", "schedkit.graph", "detect_cycles"),
    ("context", "schedkit.context", "first_order"),
    ("context", "schedkit.context", "sample_hierarchical"),
    ("context", "schedkit.context", "sample_sequential"),
    ("context", "schedkit.context", "render_context"),
    ("knowledge", "schedkit.knowledge", "HashedNgramEmbedder.embed"),
    ("knowledge", "schedkit.knowledge", "count_tokens"),
    ("knowledge", "schedkit.knowledge", "LocalTermStore.retrieve"),
    ("knowledge", "schedkit.knowledge", "GlobalChunkStore.retrieve"),
    ("knowledge", "schedkit.knowledge", "build_stores_from_paths"),
    ("knowledge", "schedkit.knowledge", "save_term_store"),
    ("knowledge", "schedkit.knowledge", "save_chunk_store"),
    ("knowledge", "schedkit.knowledge", "load_term_store"),
    ("knowledge", "schedkit.knowledge", "load_chunk_store"),
    ("prompt_forge", "schedkit.prompt_forge", "build_task_prompt"),
    ("gateway", "schedkit.gateway", "Gateway.complete"),
    ("gateway", "schedkit.gateway", "TranscriptLog.append"),
    ("gateway", "schedkit.gateway", "load_transcript"),
    ("masked_eval", "schedkit.masked_eval", "make_mask_tasks"),
    ("masked_eval", "schedkit.masked_eval", "render_masked_row"),
    ("masked_eval", "schedkit.masked_eval", "evaluate_tasks"),
    ("masked_eval", "schedkit.masked_eval", "parse_values"),
    ("masked_eval", "schedkit.masked_eval", "score_completion"),
    ("masked_eval", "schedkit.masked_eval", "build_report"),
    ("masked_eval", "schedkit.masked_eval", "save_instances"),
    ("masked_eval", "schedkit.masked_eval", "load_instances"),
    ("masked_eval", "schedkit.masked_eval", "collect_preferences"),
    ("masked_eval", "schedkit.masked_eval", "preference_store_append"),
    ("masked_eval", "schedkit.masked_eval", "preference_store_load"),
    ("alignment", "schedkit.alignment", "train_scorer"),
    ("alignment", "schedkit.alignment", "ranking_accuracy"),
    ("alignment", "schedkit.alignment", "polish_context"),
    ("synthetic", "schedkit.synthetic", "generate_schedule"),
    ("rng", "schedkit.rng", "derive"),
)

EMBED = "knowledge.HashedNgramEmbedder.embed"


class Recorder:
    """In-memory span store: one row per call, parent by row index."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.embed_chars = 0
        self._embed_texts: set[int] = set()

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end, stack = (
            self.name_ix, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(row)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[row] = clock()
                stack.pop()

        if name != EMBED:
            return traced

        @functools.wraps(fn)
        def traced_embed(embedder, text):
            self.embed_chars += len(text)
            self._embed_texts.add(hash(text))
            return traced(embedder, text)

        return traced_embed

    def write(self, prefix: Path) -> None:
        header = {
            "request_id": self.request_id,
            "names": self.names,
            "spans": len(self.start),
            "counters": {
                "embed_chars": self.embed_chars,
                "embed_unique": len(self._embed_texts),
            },
        }
        Path(f"{prefix}.json").write_text(json.dumps(header, sort_keys=True), "utf-8")
        with open(f"{prefix}.bin", "wb") as fh:
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(rec: Recorder) -> None:
    """Wrap each TRACED function wherever a schedkit module binds it."""
    for layer, module_name, qualname in TRACED:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapped = rec.wrap(f"{layer}.{qualname}", original)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "schedkit":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    prefix, stage, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_PREFIX STAGE -- CLI_ARGS...")
    from schedkit import cli

    rec = Recorder(stage)
    install(rec)
    run = rec.wrap(f"cli.{stage}", cli.main)
    try:
        return run(cli_args)
    finally:
        rec.write(Path(prefix))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
