"""Every JSON-lines artifact is read back through ``gateway.read_jsonl``.

A bad line raises the loader's own error as ``path:line: Type: detail``,
the CLI maps it to that artifact's exit code (3 for a replayed transcript,
2 for the rest), and no loader holds a second copy of its file. Each line a
writer writes is ``json.dumps`` of its record with sorted keys, and reads
back to an equal record.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import CorruptRecordError
from schedkit.cli import EXIT_DATA, EXIT_GATEWAY, EXIT_OK, EXIT_USAGE, main
from schedkit.gateway import TRANSCRIPT_FIELDS, GatewayError, TranscriptLog, load_transcript
from schedkit.knowledge import (
    CHUNK_FIELDS,
    TERM_FIELDS,
    GlobalChunkStore,
    HashedNgramEmbedder,
    KnowledgeChunk,
    KnowledgeError,
    LocalTermStore,
    TermEntry,
    load_chunk_store,
    load_term_store,
    save_chunk_store,
    save_term_store,
)
from schedkit.masked_eval import INSTANCE_FIELDS, EvalInstance, MaskSpec, load_instances, save_instances
from schedkit.preferences import (
    PREFERENCE_FIELDS,
    PreferenceRecord,
    preference_store_append,
    preference_store_load,
)
from test_cli import CHAIN_CSV


def _drop_field(line: bytes, field: str) -> bytes:
    record = json.loads(line)
    del record[field]
    return json.dumps(record, sort_keys=True).encode() + b"\n"


# How line 2 is broken, and how the loader's message after ``path:2: `` starts.
CORRUPTIONS = {
    "not_utf8": (
        lambda line, field: b"\xff\xfe" + line,
        "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff",
    ),
    "truncated": (lambda line, field: line[: len(line) // 2] + b"\n", "JSONDecodeError: "),
    "not_object": (
        lambda line, field: b'["not", "an", "object"]\n',
        "TypeError: expected a JSON object, got list",
    ),
    "missing_field": (_drop_field, "KeyError: "),
    "nested": (
        lambda line, field: b"[" * 200_000 + b"\n",
        "RecursionError: maximum recursion depth exceeded",
    ),
}


def corrupt_line_2(path: Path, how: str, field: str) -> str:
    """Break line 2 of ``path``; how the loader's message continues."""
    breaker, detail = CORRUPTIONS[how]
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 2
    lines[1] = breaker(lines[1], field)
    path.write_bytes(b"".join(lines))
    return detail


# --- one writer and loader per artifact ------------------------------------------


def write_transcript(path: Path, texts: list[str]) -> list[Path]:
    with TranscriptLog(path) as log:
        for text in texts:
            log.append(
                system_text="sys", user_text=text, response_text="r", error=None,
                latency_ms=0.0, prompt_tokens=1, completion_tokens=1,
            )
    return [path]


def write_instances(path: Path, texts: list[str]) -> list[Path]:
    mask = MaskSpec("A", "AP", ("Current Start",), {"Current Start": "2024-01-01"})
    with open(path, "w", encoding="utf-8") as fh:
        save_instances(fh, [EvalInstance(mask, "sys", t, "r", True, (True,)) for t in texts])
    return [path]


def write_preferences(path: Path, texts: list[str]) -> list[Path]:
    preference_store_append(
        path, (PreferenceRecord(text, "c", "r", "AP", f"A{i}", 1) for i, text in enumerate(texts))
    )
    return [path]


def write_terms(path: Path, texts: list[str]) -> list[Path]:
    store = LocalTermStore(HashedNgramEmbedder())
    for i, text in enumerate(texts):
        store.add(f"term{i}", text)
    save_term_store(store, path, path.with_suffix(".mat"))
    return [path, path.with_suffix(".mat")]


def write_chunks(path: Path, texts: list[str]) -> list[Path]:
    store = GlobalChunkStore(HashedNgramEmbedder())
    for i, text in enumerate(texts):
        store.add_document(f"doc{i}", text, chunk_tokens=10**6)
    save_chunk_store(store, path, path.with_suffix(".mat"))
    return [path, path.with_suffix(".mat")]


def _kb_loader(load, items: str):
    """The saved store's entries or chunks."""
    return lambda path: getattr(
        load(HashedNgramEmbedder(), path, path.with_suffix(".mat")), items
    )


def _listed(load):
    """The loaded items as a list, from a loader that yields them."""
    return lambda path: list(load(path))


# name -> (writer, loader, error type, a field the loader requires)
LOADERS = {
    "transcript": (write_transcript, _listed(load_transcript), GatewayError, "user_text"),
    "instances": (write_instances, _listed(load_instances), CorruptRecordError, "prompt_user"),
    "preferences": (write_preferences, _listed(preference_store_load), CorruptRecordError, "rejected_text"),
    "terms": (write_terms, _kb_loader(load_term_store, "entries"), KnowledgeError, "definition"),
    "chunks": (write_chunks, _kb_loader(load_chunk_store, "chunks"), KnowledgeError, "text"),
}


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_bad_line_raises_the_loaders_error_naming_path_and_line(tmp_path, name, how):
    writer, load, error, field = LOADERS[name]
    path = tmp_path / f"{name}.jsonl"
    writer(path, ["first text", "second text", "third text"])
    assert len(load(path)) == 3
    detail = corrupt_line_2(path, how, field)
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:2: {detail}")


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_blank_lines_are_skipped(tmp_path, name):
    writer, load, _, _ = LOADERS[name]
    path = tmp_path / f"{name}.jsonl"
    writer(path, ["first text", "second text"])
    expected = load(path)
    path.write_bytes(b"\n" + path.read_bytes().replace(b"\n", b"\n \n"))
    assert load(path) == expected


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_holds_no_second_copy_of_its_file(tmp_path, name):
    """A loader reads line by line: its traced peak stays well below the two
    whole-file copies that ``read_text().splitlines()`` would hold."""
    writer, load, _, _ = LOADERS[name]
    path = tmp_path / f"{name}.jsonl"
    texts = [" ".join(f"w{i}x{j}" for j in range(4000)) for i in range(60)]
    size = sum(p.stat().st_size for p in writer(path, texts))
    assert size > 1_500_000
    tracemalloc.start()
    try:
        loaded = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(texts)
    assert peak < 1.5 * size, (peak, size)


# --- the CLI's exit codes ------------------------------------------------------------


def _artifacts(tmp_path: Path, capsys=None) -> dict[str, Path]:
    """A chain schedule, the echo run's transcript and instances, the wrong
    run's preference pairs and a two-term, two-chunk KB; what the commands
    printed is discarded."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    base = ["run-eval", "--schedule", str(sched), "--gateway"]
    assert main(["--out", str(tmp_path / "e"), *base, "mock:echo"]) == EXIT_OK
    assert main(["--out", str(tmp_path / "w"), *base, "mock:wrong"]) == EXIT_OK
    prefs = [
        "collect-prefs", "--schedule", str(sched),
        "--instances", str(tmp_path / "w" / "instances.jsonl"),
    ]
    assert main(["--out", str(tmp_path / "q"), *prefs]) == EXIT_OK
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("steel erection bolting torque sequence", "utf-8")
    (corpus / "b.txt").write_text("concrete pour curing formwork strip", "utf-8")
    terms = tmp_path / "terms.tsv"
    terms.write_text("WBS\tscope decomposition\nMEP\tmechanical electrical plumbing\n", "utf-8")
    kb = ["build-kb", "--corpus-dir", str(corpus), "--terms-file", str(terms)]
    assert main(["--out", str(tmp_path / "kb"), *kb]) == EXIT_OK
    if capsys is not None:
        capsys.readouterr()
    return {
        "schedule": sched,
        "transcript": tmp_path / "e" / "transcript.jsonl",
        "instances": tmp_path / "e" / "instances.jsonl",
        "prefs": tmp_path / "q" / "prefs.jsonl",
        "kb": tmp_path / "kb",
        "terms": tmp_path / "kb" / "terms.jsonl",
        "chunks": tmp_path / "kb" / "chunks.jsonl",
    }


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_cli_exit_code_for_a_bad_line(tmp_path, capsys, how):
    files = _artifacts(tmp_path, capsys)
    sched = str(files["schedule"])
    out = ["--out", str(tmp_path / "o")]
    kb = files["kb"]
    # (file, field the loader needs, CLI arguments, exit code, message prefix)
    cases = [
        (
            files["transcript"], "user_text",
            ["run-eval", "--schedule", sched, "--gateway", f"mock:transcript={files['transcript']}"],
            EXIT_GATEWAY, "gateway error",
        ),
        (
            files["instances"], "prompt_user",
            ["collect-prefs", "--schedule", sched, "--instances", str(files["instances"])],
            EXIT_DATA, "data error",
        ),
        (
            files["instances"], "prompt_user",
            ["polish", "--instances", str(files["instances"])],
            EXIT_DATA, "data error",
        ),
        (
            files["prefs"], "rejected_text",
            ["train-scorer", "--prefs-db", str(files["prefs"])],
            EXIT_DATA, "data error",
        ),
        (
            kb / "terms.jsonl", "definition",
            ["run-eval", "--schedule", sched, "--gateway", "mock:echo", "--kb", str(kb)],
            EXIT_DATA, "data error",
        ),
        (
            kb / "chunks.jsonl", "text",
            ["run-eval", "--schedule", sched, "--gateway", "mock:echo", "--kb", str(kb)],
            EXIT_DATA, "data error",
        ),
    ]
    for path, field, argv, code, prefix in cases:
        good = path.read_bytes()
        detail = corrupt_line_2(path, how, field)
        assert main([*out, *argv]) == code, argv
        assert capsys.readouterr().err.startswith(f"{prefix}: {path}:2: {detail}"), argv
        path.write_bytes(good)
        assert main([*out, *argv]) == EXIT_OK, argv
        capsys.readouterr()


def _drop_first_masked_truth(record: dict) -> None:
    del record["ground_truth"][record["masked_columns"][0]]


# A field of the wrong type on line 2: (file, change to the line's record,
# how the message after ``path:2: `` starts).
MISTYPED = {
    "prompt_user-int": ("instances", lambda r: r.update(prompt_user=5), "TypeError: prompt_user is int"),
    "response_text-int": ("instances", lambda r: r.update(response_text=5), "TypeError: response_text is int"),
    "cells_correct-ints": (
        "instances",
        lambda r: r.update(cells_correct=[1] * len(r["cells_correct"])),
        "TypeError: cells_correct holds a int, not bool",
    ),
    "ground_truth-short": (
        "instances",
        _drop_first_masked_truth,
        "ValueError: ground_truth has no text for masked column",
    ),
    "prompt_text-int": ("prefs", lambda r: r.update(prompt_text=5), "TypeError: prompt_text is int"),
    "chosen_text-null": ("prefs", lambda r: r.update(chosen_text=None), "TypeError: chosen_text is NoneType"),
    "tokens-text": (
        "prefs",
        lambda r: r.update(context_length_tokens="8"),
        "TypeError: context_length_tokens is str",
    ),
    "meta-list": ("prefs", lambda r: r.update(meta=[]), "TypeError: meta is list"),
    "system_text-int": ("transcript", lambda r: r.update(system_text=5), "TypeError: system_text is int"),
    "user_text-null": (
        "transcript",
        lambda r: r.update(user_text=None),
        "TypeError: user_text is NoneType, not str",
    ),
    "error-int": ("transcript", lambda r: r.update(error=7), "TypeError: error is int, not str"),
    "term-int": ("terms", lambda r: r.update(term=5), "TypeError: term is int, not str"),
    "definition-null": ("terms", lambda r: r.update(definition=None), "TypeError: definition is NoneType"),
    "text-int": ("chunks", lambda r: r.update(text=5), "TypeError: text is int, not str"),
    "doc_id-list": ("chunks", lambda r: r.update(doc_id=[1]), "TypeError: doc_id is list, not str"),
    "chunk_index-text": ("chunks", lambda r: r.update(chunk_index="a"), "TypeError: chunk_index is str"),
    "token_count-text": ("chunks", lambda r: r.update(token_count="x"), "TypeError: token_count is str"),
}


def _rehash(record: dict) -> None:
    """Give a transcript record the content hash of its changed fields, as
    ``json.dumps`` of them with sorted keys defines it."""
    basis = {k: record[k] for k in ("error", "response_text", "system_text", "user_text")}
    record["content_hash"] = hashlib.sha256(json.dumps(basis, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_cli_exit_code_for_a_mistyped_field(tmp_path, capsys, case):
    """Every command that reads a JSON-lines file rejects a line whose
    fields have the wrong types, naming ``path:line``: exit 3 for a replayed
    transcript (whose content hash matches the changed fields), exit 2 for
    the rest, never 4 or 0."""
    files = _artifacts(tmp_path, capsys)
    which, change, detail = MISTYPED[case]
    path = files[which]
    sched = str(files["schedule"])
    instances = ["--instances", str(files["instances"])]
    eval_argv = ["run-eval", "--schedule", sched, "--gateway"]
    with_kb = [[*eval_argv, "mock:echo", "--kb", str(files["kb"])]]
    readers = {
        "instances": [["collect-prefs", "--schedule", sched, *instances], ["polish", *instances]],
        "prefs": [["train-scorer", "--prefs-db", str(files["prefs"])]],
        "transcript": [[*eval_argv, f"mock:transcript={path}"]],
        "terms": with_kb,
        "chunks": with_kb,
    }[which]
    code, prefix = (EXIT_GATEWAY, "gateway error") if which == "transcript" else (EXIT_DATA, "data error")
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[1])
    change(record)
    if which == "transcript":
        _rehash(record)
    lines[1] = json.dumps(record, sort_keys=True).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    for argv in readers:
        assert main(["--out", str(tmp_path / "o"), *argv]) == code, argv
        assert capsys.readouterr().err.startswith(f"{prefix}: {path}:2: {detail}"), argv


# --- each writer's line is json.dumps of the record, and reads back -----------------

# Arbitrary Unicode with JSON's escape cases drawn often.
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028é😀\n\t')))
PREFERENCE = st.builds(
    PreferenceRecord,
    prompt_text=TEXT,
    chosen_text=TEXT,
    rejected_text=TEXT,
    task_kind=TEXT,
    row_id=TEXT,
    context_length_tokens=st.integers(-(10**20), 10**20),
    meta=st.dictionaries(TEXT, st.none() | st.booleans() | st.integers() | TEXT, max_size=3),
).filter(lambda r: r.chosen_text != r.rejected_text)


@settings(max_examples=100, deadline=None)
@given(st.lists(PREFERENCE, max_size=3))
def test_preference_lines_are_exact_and_read_back(records):
    expected = [
        {
            "prompt_text": r.prompt_text,
            "chosen_text": r.chosen_text,
            "rejected_text": r.rejected_text,
            "task_kind": r.task_kind,
            "row_id": r.row_id,
            "context_length_tokens": r.context_length_tokens,
            "meta": r.meta,
        }
        for r in records
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prefs.jsonl"
        path.touch()
        preference_store_append(path, records)
        assert path.read_text("utf-8") == "".join(json.dumps(e, sort_keys=True) + "\n" for e in expected)
        assert list(preference_store_load(path)) == records


def _unit_rows(count: int) -> np.ndarray:
    """``count`` unit rows of the default embedding width."""
    return np.full((count, 256), 1 / 16)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(TermEntry, TEXT, TEXT), max_size=3))
def test_term_manifest_lines_are_exact_and_read_back(entries):
    store = LocalTermStore(HashedNgramEmbedder(), _unit_rows(len(entries)))
    store.entries = entries
    expected = [{"term": e.term, "definition": e.definition} for e in entries]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "terms.jsonl"
        save_term_store(store, path, path.with_suffix(".mat"))
        assert path.read_text("utf-8") == "".join(json.dumps(e, sort_keys=True) + "\n" for e in expected)
        assert _kb_loader(load_term_store, "entries")(path) == entries


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(KnowledgeChunk, TEXT, st.integers(), TEXT, st.integers()), max_size=3))
def test_chunk_manifest_lines_are_exact_and_read_back(chunks):
    store = GlobalChunkStore(HashedNgramEmbedder(), _unit_rows(len(chunks)))
    store.chunks = chunks
    expected = [
        {"doc_id": c.doc_id, "chunk_index": c.chunk_index, "text": c.text, "token_count": c.token_count}
        for c in chunks
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chunks.jsonl"
        save_chunk_store(store, path, path.with_suffix(".mat"))
        assert path.read_text("utf-8") == "".join(json.dumps(e, sort_keys=True) + "\n" for e in expected)
        assert _kb_loader(load_chunk_store, "chunks")(path) == chunks


# --- CLI fuzzing: one strategy per field table ------------------------------------

JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _of_type(kind, nullable: bool):
    """Values of a field-table type (``gateway.decode_fields``)."""
    if isinstance(kind, tuple):
        values = st.lists(_of_type(kind[1], False), max_size=3)
    else:
        values = {
            str: st.text(max_size=12),
            int: st.integers(),
            float: st.floats() | st.integers(),
            bool: st.booleans(),
            dict: st.dictionaries(st.text(max_size=12), st.text(max_size=12) | JSON_VALUE, max_size=3),
        }[kind]
    return values | st.none() if nullable else values


def table_lines(fields, bases: list[dict], mend=lambda draw, record: None):
    """Lines for a file of the field table ``fields``, in any order: every
    record of ``bases``, and up to four more lines. Those are records from
    ``bases`` with up to three fields redrawn, of their own type or of any
    JSON type, or dropped; or lines that are no object, are nested deep or
    are not UTF-8. ``mend(draw, record)`` may restore what a record needs
    beyond its types, such as a transcript's content hash."""

    @st.composite
    def record_line(draw) -> bytes:
        record = dict(draw(st.sampled_from(bases)))
        for name, kind, nullable in draw(st.lists(st.sampled_from(fields), max_size=3)):
            how = draw(st.sampled_from(("typed", "any", "drop")))
            if how == "typed":
                record[name] = draw(_of_type(kind, nullable))
            elif how == "any":
                record[name] = draw(JSON_VALUE)
            else:
                record.pop(name, None)
        mend(draw, record)
        return json.dumps(record, sort_keys=True).encode() + b"\n"

    other = st.one_of(
        JSON_VALUE.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode() + b"\n"),
        st.sampled_from((b"[" * 3 + b"\n", b'{"a": ' * 3 + b"\n", b"[" * 200_000 + b"\n")),
        st.binary(max_size=12).map(lambda raw: raw + b"\n"),
    )
    whole = [json.dumps(record, sort_keys=True).encode() + b"\n" for record in bases]
    extra = st.lists(st.one_of(record_line(), record_line(), other), max_size=4)
    return extra.flatmap(lambda lines: st.permutations(whole + lines))


def _rehash_some(draw, record: dict) -> None:
    if draw(st.booleans()) and {"error", "response_text", "system_text", "user_text"} <= set(record):
        _rehash(record)


@pytest.fixture(scope="module")
def chain_echo_run(tmp_path_factory):
    """The chain schedule and its echo run's transcript and instance
    records."""
    root = tmp_path_factory.mktemp("chain")
    sched = root / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["--out", str(root / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert main(argv) == EXIT_OK

    def records(name: str) -> list[dict]:
        return [json.loads(line) for line in (root / "e" / name).read_text("utf-8").splitlines()]

    return sched, records("transcript.jsonl"), records("instances.jsonl")


def _exit_codes(name: str, lines: list[bytes], commands) -> list[int]:
    """The exit code of each command of ``commands(path)``, run in-process on
    a file ``name`` that holds ``lines``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(b"".join(lines))
        return [main(["--out", str(Path(tmp) / "o"), *argv]) for argv in commands(path)]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_transcript_lines_never_exit_4(chain_echo_run, data):
    sched, transcript, _ = chain_echo_run
    lines = data.draw(table_lines(TRANSCRIPT_FIELDS, transcript, _rehash_some))
    codes = _exit_codes("transcript.jsonl", lines, lambda path: [
        ["run-eval", "--schedule", str(sched), "--gateway", f"mock:transcript={path}"],
    ])
    assert set(codes) <= {EXIT_OK, EXIT_GATEWAY}, codes


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_instance_lines_never_exit_4(chain_echo_run, data):
    sched, _, instances = chain_echo_run
    lines = data.draw(table_lines(INSTANCE_FIELDS, instances))
    codes = _exit_codes("instances.jsonl", lines, lambda path: [
        ["collect-prefs", "--schedule", str(sched), "--instances", str(path), "--synthesize-negatives"],
        ["polish", "--instances", str(path)],
    ])
    assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_GATEWAY}, codes


@pytest.fixture(scope="module")
def chain_artifacts(tmp_path_factory) -> dict[str, Path]:
    """``_artifacts``, made once for the fuzzing below."""
    return _artifacts(tmp_path_factory.mktemp("artifacts"))


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_preference_lines_never_exit_4(chain_artifacts, data):
    lines = data.draw(table_lines(PREFERENCE_FIELDS, _records(chain_artifacts["prefs"])))
    codes = _exit_codes("prefs.jsonl", lines, lambda path: [["train-scorer", "--prefs-db", str(path)]])
    assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_GATEWAY}, codes


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_kb_manifest_lines_never_exit_4(chain_artifacts, data):
    """A KB whose ``terms.jsonl`` or ``chunks.jsonl`` holds drawn lines,
    beside the matrices that ``build-kb`` wrote, through ``run-eval --kb``."""
    name, fields = data.draw(st.sampled_from((("terms.jsonl", TERM_FIELDS), ("chunks.jsonl", CHUNK_FIELDS))))
    lines = data.draw(table_lines(fields, _records(chain_artifacts["kb"] / name)))
    with tempfile.TemporaryDirectory() as tmp:
        kb = Path(tmp) / "kb"
        shutil.copytree(chain_artifacts["kb"], kb)
        (kb / name).write_bytes(b"".join(lines))
        argv = [
            "--out", str(Path(tmp) / "o"), "run-eval", "--schedule", str(chain_artifacts["schedule"]),
            "--gateway", "mock:echo", "--kb", str(kb),
        ]
        code = main(argv)
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_GATEWAY}, code
