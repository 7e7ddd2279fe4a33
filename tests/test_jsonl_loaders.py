"""Every JSON-lines artifact is read back through ``gateway.read_jsonl``.

A bad line raises the loader's own error as ``path:line: Type: detail``,
the CLI maps it to that artifact's exit code (3 for a replayed transcript,
2 for the rest), and no loader holds a second copy of its file.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from schedkit.cli import EXIT_DATA, EXIT_GATEWAY, EXIT_OK, main
from schedkit.gateway import GatewayError, TranscriptLog, load_transcript
from schedkit.knowledge import (
    GlobalChunkStore,
    HashedNgramEmbedder,
    KnowledgeError,
    LocalTermStore,
    load_chunk_store,
    load_term_store,
    save_chunk_store,
    save_term_store,
)
from schedkit.masked_eval import (
    CorruptRecordError,
    EvalInstance,
    MaskSpec,
    PreferenceRecord,
    load_instances,
    preference_store_append,
    preference_store_load,
    save_instances,
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
    for i, text in enumerate(texts):
        preference_store_append(path, PreferenceRecord(text, "c", "r", "AP", f"A{i}", 1))
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


# name -> (writer, loader, error type, a field the loader requires)
LOADERS = {
    "transcript": (write_transcript, load_transcript, GatewayError, "user_text"),
    "instances": (write_instances, load_instances, CorruptRecordError, "prompt_user"),
    "preferences": (write_preferences, preference_store_load, CorruptRecordError, "rejected_text"),
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


def _artifacts(tmp_path: Path, capsys) -> dict[str, Path]:
    """A chain schedule, the echo run's transcript and instances, the wrong
    run's preference pairs and a two-term, two-chunk KB."""
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
    capsys.readouterr()
    return {
        "schedule": sched,
        "transcript": tmp_path / "e" / "transcript.jsonl",
        "instances": tmp_path / "e" / "instances.jsonl",
        "prefs": tmp_path / "q" / "prefs.jsonl",
        "kb": tmp_path / "kb",
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
