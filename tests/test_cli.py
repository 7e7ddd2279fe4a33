from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import pytest

from schedkit.cli import (
    EXIT_DATA,
    EXIT_GATEWAY,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)

GOLDEN = Path(__file__).parent / "golden"

CHAIN_CSV = """Activity ID,Activity Name,Activity Status,WBS,Discipline,Level,Area,Zone,Current Start,Current Finish,Predecessor Details,Successor Details
A,Task A,Not Started,P.A,CSA.Struc.Steel,SF,6E,,2024-01-01,2024-01-08,,B:FS
B,Task B,Not Started,P.A,CSA.Struc.Steel,SF,6E,,2024-01-08,2024-01-15,A:FS,C:FS
C,Task C,Not Started,P.B,MEP.Proc.HP,UL,9E,,2024-01-15,2024-01-22,B:FS,
"""


def run(argv) -> int:
    return main(argv)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_help_golden(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / "cli_help.txt").read_text("utf-8")
    assert build_parser().format_help() == expected


def test_help_lists_every_subcommand_flag():
    parser = build_parser()
    help_text = parser.format_help()
    for name in (
        "generate",
        "ingest",
        "analyze-graph",
        "build-kb",
        "sample-context",
        "run-eval",
        "collect-prefs",
        "train-scorer",
        "polish",
        "report",
    ):
        assert name in help_text
    sub_actions = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    expected_flags = {
        "generate": ["--n", "--seed"],
        "ingest": ["--schedule"],
        "analyze-graph": ["--schedule"],
        "build-kb": ["--corpus-dir", "--terms-file"],
        "sample-context": ["--schedule", "--targets"],
        "run-eval": ["--schedule", "--gateway", "--tasks", "--kb", "--rules"],
        "collect-prefs": ["--schedule", "--instances", "--prefs-db", "--synthesize-negatives"],
        "train-scorer": ["--prefs-db"],
        "polish": ["--instances", "--gateway"],
        "report": ["--report"],
    }
    for name, flags in expected_flags.items():
        sub_help = sub_actions.choices[name].format_help()
        for flag in flags:
            assert flag in sub_help, (name, flag)


def test_exit_codes(tmp_path, capsys):
    assert run(["not-a-command"]) == EXIT_USAGE
    assert (
        run(["--out", str(tmp_path / "o"), "ingest", "--schedule", "missing.csv"])
        == EXIT_DATA
    )


def test_config_file_values_and_flag_precedence(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[generate]\nn = 7\nseed = 5\n", "utf-8")
    assert (
        run(["--config", str(ini), "--out", str(tmp_path / "a"), "generate"]) == EXIT_OK
    )
    assert "generated 7 activities" in capsys.readouterr().out
    # Flags override file values.
    assert (
        run(["--config", str(ini), "--out", str(tmp_path / "b"), "generate", "--n", "10"])
        == EXIT_OK
    )
    assert "generated 10 activities" in capsys.readouterr().out
    assert run(["--config", "nope.ini", "generate"]) == EXIT_USAGE


def test_generate_deterministic(tmp_path):
    for name in ("a", "b"):
        assert (
            run(["--out", str(tmp_path / name), "generate", "--n", "30", "--seed", "42"])
            == EXIT_OK
        )
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_analyze_graph_chain_fixture(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    assert run(["--out", str(tmp_path / "g"), "analyze-graph", "--schedule", str(sched)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "degree mean 1.333" in printed
    assert "maxhop mean 1.000" in printed
    assert (tmp_path / "g" / "degree_hist.txt").read_text("utf-8") == "1\t2\n2\t1\n"


CYCLIC_CSV = """Activity ID,Activity Name,Activity Status,WBS,Discipline,Level,Area,Zone,Current Start,Current Finish,Predecessor Details,Successor Details
A,Task A,Not Started,P.A,CSA.Struc.Steel,SF,6E,,2024-01-01,2024-01-08,C:FS,B:FS
B,Task B,Not Started,P.A,CSA.Struc.Steel,SF,6E,,2024-01-08,2024-01-15,A:FS,C:FS;D:SS
C,Task C,Not Started,P.B,MEP.Proc.HP,UL,9E,,2024-01-15,2024-01-22,B:FS,A:FS
D,Task D,Not Started,P.B,MEP.Proc.HP,UL,9E,,2024-01-15,2024-01-22,B:SS;E:FS,E:FS
E,Task E,Not Started,P.B,MEP.Proc.HP,UL,9E,,2024-01-15,2024-01-22,D:FS,D:FS
F,Task F,Not Started,P.B,MEP.Proc.HP,UL,9E,,2024-01-15,2024-01-22,,
"""

# sha256 of analyze-graph's files for a generated n=300 schedule and for
# CYCLIC_CSV, so any change to how the graph walks the schedule index that
# moves a histogram, a statistic or a named cycle shows here.
GRAPH_DIGESTS_N300 = {
    "degree_hist.txt": "932f1903f86614631dd53f52bb403b55696d5ec6b8e977c39257b0532ac4005f",
    "maxhop_hist.txt": "a24342bda0880c887114ff967dc35b111d4080665303aeb23ff1a20d8deede5c",
    "graph_stats.txt": "9b85023e4089bdc17938850d3620da9e3f5c9107502e9ac971854d5ee9d28bf6",
}
GRAPH_DIGESTS_CYCLIC = {
    "cycles.json": "a6f1697d9400115c99bba3483aca8cb4a74226495b20acd9214bd5ce4a8b3516",
    "degree_hist.txt": "04a15e86120d4aa3e244ca6ecccb87a8ce13a70b781afe6e748e283703819c50",
    "graph_stats.txt": "3574c928c3f00b964335f051223858bcfd8172bf99c0bbf07d0e367a4dd9eb9f",
}


def _digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_analyze_graph_outputs_are_pinned(tmp_path, capsys):
    assert run(["--out", str(tmp_path / "gen"), "generate", "--n", "300", "--seed", "1"]) == EXIT_OK
    sched = str(tmp_path / "gen" / "schedule.csv")
    assert run(["--out", str(tmp_path / "g"), "analyze-graph", "--schedule", sched]) == EXIT_OK
    assert _digests(tmp_path / "g", GRAPH_DIGESTS_N300) == GRAPH_DIGESTS_N300
    assert not (tmp_path / "g" / "cycles.json").exists()

    cyclic = tmp_path / "cyclic.csv"
    cyclic.write_text(CYCLIC_CSV, "utf-8")
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "c"), "analyze-graph", "--schedule", str(cyclic)]) == EXIT_OK
    assert _digests(tmp_path / "c", GRAPH_DIGESTS_CYCLIC) == GRAPH_DIGESTS_CYCLIC
    assert not (tmp_path / "c" / "maxhop_hist.txt").exists()
    assert capsys.readouterr().out == (
        "nodes=6\nedges=6\ncycles=2\n"
        "degree mean 2.000 max 3; maxhop skipped (cycles present)\n"
    )


def test_ingest_round_trip(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    assert run(["--out", str(tmp_path / "i"), "ingest", "--schedule", str(sched)]) == EXIT_OK
    assert json.loads((tmp_path / "i" / "validation.json").read_text("utf-8")) == []
    reparsed = (tmp_path / "i" / "schedule.csv").read_text("utf-8")
    assert reparsed == CHAIN_CSV


def test_run_eval_echo_scores_100(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    code = run(
        [
            "--out",
            str(tmp_path / "e"),
            "run-eval",
            "--schedule",
            str(sched),
            "--gateway",
            "mock:echo",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "overall | 100.0 | 100.0 | 100.0" in out
    report = json.loads((tmp_path / "e" / "report.json").read_text("utf-8"))
    for kind in ("MVP", "DA", "AP"):
        assert report["per_task"][kind]["accuracy_cells"] == 100.0
    assert (tmp_path / "e" / "instances.jsonl").is_file()
    assert (tmp_path / "e" / "transcript.jsonl").is_file()
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text("utf-8"))
    assert manifest["seeds"] == {"sampler": 42, "eval": 42, "generate": 42, "request": 12345}
    assert manifest["command"] == "run-eval"


def test_run_eval_gateway_failure_exit_code(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    # An empty scripted transcript cannot answer anything.
    (tmp_path / "empty.jsonl").write_text("", "utf-8")
    code = run(
        [
            "--out",
            str(tmp_path / "e"),
            "run-eval",
            "--schedule",
            str(sched),
            "--gateway",
            f"mock:transcript={tmp_path / 'empty.jsonl'}",
            "--tasks",
            "AP",
        ]
    )
    assert code == EXIT_GATEWAY
    report = json.loads((tmp_path / "e" / "report.json").read_text("utf-8"))
    assert report["complete"] is False


def test_run_eval_gateway_failure_keeps_instances_and_partial_report(tmp_path, capsys):
    from schedkit.gateway import ScriptedTranscriptGateway
    from schedkit.masked_eval import GatewayEvalError, make_mask_tasks, run_eval
    from schedkit.schedule import parse_schedule

    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    (tmp_path / "empty.jsonl").write_text("", "utf-8")
    argv = [
        "--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched),
        "--gateway", f"mock:transcript={tmp_path / 'empty.jsonl'}",
    ]
    assert run(argv) == EXIT_GATEWAY
    assert "9 instance(s) failed at the gateway" in capsys.readouterr().err
    lines = (tmp_path / "e" / "instances.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == 9
    assert all(json.loads(line)["error"] for line in lines)

    parsed = parse_schedule(CHAIN_CSV)
    tasks = [t for kind in ("MVP", "DA", "AP") for t in make_mask_tasks(parsed, kind)]
    with pytest.raises(GatewayEvalError) as err:
        run_eval(parsed, tasks, ScriptedTranscriptGateway([]))
    expected = err.value.partial_report.to_json()
    assert (tmp_path / "e" / "report.json").read_text("utf-8") == expected


def test_sample_context_rejects_an_invalid_schedule_without_targets(tmp_path, capsys):
    sched = tmp_path / "bad.csv"
    # Parses, but fails validation: B's Discipline cell is empty.
    sched.write_text(
        CHAIN_CSV.replace("B,Task B,Not Started,P.A,CSA.Struc.Steel,", "B,Task B,Not Started,P.A,,"),
        "utf-8",
    )
    argv = ["--out", str(tmp_path / "c"), "sample-context", "--schedule", str(sched), "--targets", ","]
    assert run(argv) == EXIT_DATA
    assert "discipline is empty" in capsys.readouterr().err
    assert not (tmp_path / "c" / "bundles.jsonl").exists()


def test_full_pipeline_deterministic_trees(tmp_path, monkeypatch):
    """generate -> build-kb -> sample-context -> run-eval -> collect-prefs ->
    train-scorer twice, in two roots, compared byte for byte."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manual.txt").write_text(
        "concrete pour slab curing and finishing for decks "
        "steel erection bolting torque sequence for frames",
        "utf-8",
    )
    terms = tmp_path / "terms.tsv"
    terms.write_text("WBS\thierarchical decomposition of project scope\n", "utf-8")

    def pipeline(root: Path):
        root.mkdir()
        monkeypatch.chdir(root)
        assert run(["--out", "gen", "generate", "--n", "25", "--seed", "42"]) == EXIT_OK
        assert (
            run(
                [
                    "--out",
                    "kb",
                    "build-kb",
                    "--corpus-dir",
                    os.path.relpath(corpus),
                    "--terms-file",
                    os.path.relpath(terms),
                ]
            )
            == EXIT_OK
        )
        assert (
            run(["--out", "ctx", "sample-context", "--schedule", "gen/schedule.csv"])
            == EXIT_OK
        )
        assert (
            run(
                [
                    "--out",
                    "eval",
                    "run-eval",
                    "--schedule",
                    "gen/schedule.csv",
                    "--gateway",
                    "mock:wrong",
                    "--kb",
                    "kb",
                    "--tasks",
                    "MVP,DA,AP",
                ]
            )
            == EXIT_OK
        )
        assert (
            run(
                [
                    "--out",
                    "prefs",
                    "collect-prefs",
                    "--schedule",
                    "gen/schedule.csv",
                    "--instances",
                    "eval/instances.jsonl",
                ]
            )
            == EXIT_OK
        )
        assert (
            run(["--out", "scorer", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"])
            == EXIT_OK
        )

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    t1 = tree_bytes(tmp_path / "run1")
    t2 = tree_bytes(tmp_path / "run2")
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], name


def test_report_rerender(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    assert (
        run(
            [
                "--out",
                str(tmp_path / "e"),
                "run-eval",
                "--schedule",
                str(sched),
                "--gateway",
                "mock:echo",
                "--tasks",
                "AP",
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    assert (
        run(["--out", str(tmp_path / "r"), "report", "--report", str(tmp_path / "e" / "report.json")])
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Group | AP (%)"
    rerendered = (tmp_path / "r" / "report.txt").read_bytes()
    assert rerendered == (tmp_path / "e" / "report.txt").read_bytes()


def test_polish_histograms_written(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    assert (
        run(
            [
                "--out",
                str(tmp_path / "e"),
                "run-eval",
                "--schedule",
                str(sched),
                "--gateway",
                "mock:echo",
                "--tasks",
                "MVP,AP",
            ]
        )
        == EXIT_OK
    )
    assert (
        run(
            [
                "--out",
                str(tmp_path / "p"),
                "polish",
                "--instances",
                str(tmp_path / "e" / "instances.jsonl"),
                "--gateway",
                "mock:stopword",
            ]
        )
        == EXIT_OK
    )
    for kind in ("MVP", "AP"):
        for which in ("raw", "polished"):
            assert (tmp_path / "p" / f"ctxlen_{kind}_{which}.txt").is_file()
    stats = json.loads((tmp_path / "p" / "ctx_stats.json").read_text("utf-8"))
    for kind in ("MVP", "AP"):
        assert stats["polished"][kind]["mean"] <= stats["raw"][kind]["mean"]


def _chain_kb(tmp_path: Path) -> tuple[Path, Path]:
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manual.txt").write_text("steel erection bolting torque sequence", "utf-8")
    terms = tmp_path / "terms.tsv"
    terms.write_text("WBS\thierarchical decomposition of project scope\n", "utf-8")
    kb = tmp_path / "kb"
    argv = ["--out", str(kb), "build-kb", "--corpus-dir", str(corpus), "--terms-file", str(terms)]
    assert run(argv) == EXIT_OK
    return sched, kb


def _eval_with_kb(tmp_path: Path, sched: Path, kb: Path) -> int:
    return run(
        [
            "--out",
            str(tmp_path / "e"),
            "run-eval",
            "--schedule",
            str(sched),
            "--gateway",
            "mock:echo",
            "--kb",
            str(kb),
        ]
    )


def test_run_eval_corrupt_matrix_is_a_data_error(tmp_path, capsys):
    sched, kb = _chain_kb(tmp_path)
    raw = (kb / "terms.mat").read_bytes()
    # A well-formed file whose rows have dim 3, not the embedder's 256.
    dim3 = raw[:4] + struct.pack("<II3f", 3, 1, 1.0, 0.0, 0.0)
    nan_row = raw[:12] + struct.pack("<f", float("nan")) + raw[16:]
    for bad in (raw[: len(raw) - 6], b"NOPE" + raw[4:], dim3, nan_row):
        (kb / "terms.mat").write_bytes(bad)
        assert _eval_with_kb(tmp_path, sched, kb) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "terms.mat" in err


def test_run_eval_embeds_each_query_once(tmp_path, monkeypatch, capsys):
    from schedkit import knowledge

    sched, kb = _chain_kb(tmp_path)
    embedded = []
    original = knowledge.HashedNgramEmbedder.embed

    def counting_embed(self, text):
        embedded.append(text)
        return original(self, text)

    monkeypatch.setattr(knowledge.HashedNgramEmbedder, "embed", counting_embed)
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_OK
    assert len(embedded) == 3 == len(set(embedded))


def _truncated_eval(tmp_path, name: str) -> Path:
    """An echo run over the chain whose ``name`` file is cut inside line 2."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(["--out", str(tmp_path / "e"), *argv]) == EXIT_OK
    path = tmp_path / "e" / name
    raw = path.read_bytes()
    path.write_bytes(raw[: raw.index(b"\n") + 40])
    return path


def test_run_eval_truncated_transcript_is_a_gateway_error(tmp_path, capsys):
    transcript = _truncated_eval(tmp_path, "transcript.jsonl")
    capsys.readouterr()
    code = run(
        [
            "--out", str(tmp_path / "r"), "run-eval", "--schedule", str(tmp_path / "chain.csv"),
            "--gateway", f"mock:transcript={transcript}",
        ]
    )
    assert code == EXIT_GATEWAY
    err = capsys.readouterr().err
    assert err.startswith("gateway error:") and f"{transcript}:2:" in err


def test_replayed_response_that_is_not_text_is_a_gateway_error(tmp_path, capsys):
    from schedkit.gateway import TranscriptLog, load_transcript

    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["run-eval", "--schedule", str(sched), "--gateway"]
    assert run(["--out", str(tmp_path / "e"), *argv, "mock:echo"]) == EXIT_OK
    # Record 0 answers 5, under a content hash that matches it.
    transcript = tmp_path / "e" / "transcript.jsonl"
    records = load_transcript(transcript)
    records[0]["response_text"] = 5
    with TranscriptLog(transcript) as log:
        for r in records:
            log.append(**{k: v for k, v in r.items() if k not in ("transcript_id", "content_hash")})
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "r"), *argv, f"mock:transcript={transcript}"]) == EXIT_GATEWAY
    assert "1 instance(s) failed at the gateway" in capsys.readouterr().err
    replayed = load_transcript(tmp_path / "r" / "transcript.jsonl")
    assert replayed[0]["response_text"] is None
    assert replayed[0]["error"] == "MalformedResponseError: response is int, not text"


def test_truncated_instances_is_a_data_error(tmp_path, capsys):
    instances = str(_truncated_eval(tmp_path, "instances.jsonl"))
    capsys.readouterr()
    for argv in (
        ["collect-prefs", "--schedule", str(tmp_path / "chain.csv"), "--instances", instances],
        ["polish", "--instances", instances],
    ):
        assert run(["--out", str(tmp_path / "o"), *argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {instances}:2: JSONDecodeError:")


def test_rerun_into_same_out_gives_same_tree(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    evaluate = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    instances = str(tmp_path / "e" / "instances.jsonl")
    polish = ["--out", str(tmp_path / "p"), "polish", "--instances", instances]
    prefs = [
        "--out", str(tmp_path / "q"), "collect-prefs", "--schedule", str(sched),
        "--instances", instances, "--synthesize-negatives",
    ]
    for argv in (evaluate, polish, prefs):
        assert run(argv) == EXIT_OK
    once = {d: tree_bytes(tmp_path / d) for d in ("e", "p", "q")}
    assert once["q"]["prefs.jsonl"]
    for argv in (evaluate, polish, prefs):
        assert run(argv) == EXIT_OK
    assert {d: tree_bytes(tmp_path / d) for d in ("e", "p", "q")} == once


def test_named_prefs_db_accumulates(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    evaluate = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:wrong"]
    assert run(evaluate) == EXIT_OK
    db = tmp_path / "db" / "prefs.jsonl"
    prefs = [
        "--out", str(tmp_path / "q"), "collect-prefs", "--schedule", str(sched),
        "--instances", str(tmp_path / "e" / "instances.jsonl"), "--prefs-db", str(db),
    ]
    assert run(prefs) == EXIT_OK
    once = db.read_text("utf-8").splitlines()
    assert once
    assert run(prefs) == EXIT_OK
    assert db.read_text("utf-8").splitlines() == once + once


def test_replay_into_own_directory(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    out = tmp_path / "e"
    base = ["--out", str(out), "run-eval", "--schedule", str(sched), "--gateway"]
    assert run([*base, "mock:echo"]) == EXIT_OK
    recorded = tree_bytes(out)
    assert run([*base, f"mock:transcript={out / 'transcript.jsonl'}"]) == EXIT_OK
    replayed = tree_bytes(out)
    for name in ("transcript.jsonl", "instances.jsonl", "report.json"):
        assert replayed[name] == recorded[name], name


def test_run_eval_corrupt_manifest_is_a_data_error(tmp_path, capsys):
    sched, kb = _chain_kb(tmp_path)
    for name in ("terms.jsonl", "chunks.jsonl"):
        path = kb / name
        good = path.read_bytes()
        for bad in (good[:20], b'{"term": "x"}\n', b'["not", "an", "object"]\n', b"\xff\xfe\n"):
            path.write_bytes(bad)
            assert _eval_with_kb(tmp_path, sched, kb) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error:") and f"{name}:1:" in err
        path.write_bytes(good)
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_OK


def test_failed_stage_leaves_no_partial_artifacts(tmp_path, monkeypatch, capsys):
    from schedkit import context, masked_eval

    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    evaluate = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    sample = ["--out", str(tmp_path / "c"), "sample-context", "--schedule", str(sched)]
    for argv in (evaluate, sample):
        assert run(argv) == EXIT_OK
    before = {d: tree_bytes(tmp_path / d) for d in ("e", "c")}

    def fail_on_second(fn):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("killed")
            return fn(*args, **kwargs)

        return wrapped

    for argv, module, name in ((evaluate, masked_eval, "parse_values"), (sample, context, "render_context")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fail_on_second(getattr(module, name)))
            assert run(argv) == 4
    after = {d: tree_bytes(tmp_path / d) for d in ("e", "c")}
    # The streamed files are the previous run's, whole; no temporary is left.
    for d, name in (("e", "instances.jsonl"), ("c", "bundles.jsonl"), ("c", "contexts.txt")):
        assert after[d][name] == before[d][name]
        assert not any(n.endswith(".tmp") for n in after[d])


def test_sample_context_without_targets_writes_the_same_files(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["--out", str(tmp_path / "c"), "sample-context", "--schedule", str(sched), "--targets", ","]
    assert run(argv) == EXIT_OK
    assert (tmp_path / "c" / "bundles.jsonl").read_text("utf-8") == "\n"
    assert (tmp_path / "c" / "contexts.txt").read_text("utf-8") == ""


def test_run_eval_memory_stays_below_its_transcript(tmp_path, capsys):
    """run-eval streams its prompts: the traced peak stays under the size of
    the transcript it writes, which holds every prompt once."""
    import tracemalloc

    assert run(["--out", str(tmp_path / "g"), "generate", "--n", "300", "--seed", "1"]) == EXIT_OK
    argv = [
        "--out", str(tmp_path / "e"), "run-eval",
        "--schedule", str(tmp_path / "g" / "schedule.csv"), "--gateway", "mock:echo",
    ]
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "e" / "transcript.jsonl").stat().st_size


def test_run_eval_builds_each_canonical_row_once(tmp_path, monkeypatch, capsys):
    import sys

    from schedkit import schedule

    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    calls = []
    original = schedule.canonical_row

    def counting(*args):
        calls.append(args[1].activity_id)
        return original(*args)

    # Wherever a schedkit module binds it, as the benchmark's tracer does.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "schedkit" and getattr(module, "canonical_row", None) is original:
            monkeypatch.setattr(module, "canonical_row", counting)
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    assert sorted(calls) == ["A", "B", "C"]


def test_header_only_schedule_gives_an_empty_report_in_every_mock(tmp_path, capsys):
    sched = tmp_path / "empty.csv"
    sched.write_text(CHAIN_CSV.splitlines(keepends=True)[0], "utf-8")
    trees = {}
    for mode in ("mock:echo", "mock:wrong"):
        out = tmp_path / mode.split(":")[1]
        argv = ["--out", str(out), "run-eval", "--schedule", str(sched), "--gateway", mode]
        assert run(argv) == EXIT_OK
        trees[mode] = {k: v for k, v in tree_bytes(out).items() if k != "manifest.json"}
    assert trees["mock:echo"] == trees["mock:wrong"]
    assert json.loads(trees["mock:echo"]["report.json"])["per_task"] == {}


def test_non_utf8_inputs_are_data_errors_naming_the_file(tmp_path, capsys):
    good = tmp_path / "chain.csv"
    good.write_text(CHAIN_CSV, "utf-8")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(CHAIN_CSV.encode().replace(b"Task B", b"Task \xff"))
    bad_rules = tmp_path / "rules.txt"
    bad_rules.write_bytes(b"rule one\n\xfe rule two\n")
    bad_terms = tmp_path / "terms.tsv"
    bad_terms.write_bytes(b"WBS\tscope \xff decomposition\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("steel erection", "utf-8")
    (corpus / "b.txt").write_bytes(b"concrete \xc3 pour")
    cases = [
        (bad_csv, ["ingest", "--schedule", str(bad_csv)]),
        (bad_csv, ["run-eval", "--schedule", str(bad_csv), "--gateway", "mock:echo"]),
        (bad_rules, ["run-eval", "--schedule", str(good), "--gateway", "mock:echo", "--rules", str(bad_rules)]),
        (bad_terms, ["build-kb", "--terms-file", str(bad_terms)]),
        (corpus / "b.txt", ["build-kb", "--corpus-dir", str(corpus)]),
    ]
    for path, argv in cases:
        assert run(["--out", str(tmp_path / "o"), *argv]) == EXIT_DATA, argv
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: UnicodeDecodeError: "), err


def test_report_of_a_corrupt_report_is_a_data_error(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    whole = (tmp_path / "e" / "report.json").read_bytes()
    path = tmp_path / "report.json"

    def with_cells_total(count) -> bytes:
        payload = json.loads(whole)
        payload["per_task"]["MVP"]["cells_total"] = count
        return json.dumps(payload).encode()

    for bad, type_name in (
        (whole[: len(whole) // 2], "JSONDecodeError"),
        (b"{}", "KeyError"),
        (b"[]", "TypeError"),
        (b'{"complete": true, "per_task": [], "group_breakdowns": {}}', "TypeError"),
        (b'{"complete": true, "per_task": {}, "group_breakdowns": 1}', "TypeError"),
        (b'{"complete": true, "per_task": {}, "group_breakdowns": {"Level": []}}', "TypeError"),
        (b"\xff" + whole, "UnicodeDecodeError"),
        *((with_cells_total(count), "TypeError") for count in ("a", None, 1.5, True)),
    ):
        path.write_bytes(bad)
        capsys.readouterr()
        assert run(["--out", str(tmp_path / "r"), "report", "--report", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: {type_name}: ")


def test_config_errors_are_usage_errors_naming_the_file_or_key(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    ini = tmp_path / "run.ini"
    eval_argv = ["run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    cases = [
        (b"[gateway]\nmode = mock:\xff\n", ["generate", "--n", "3"], f"{ini}: UnicodeDecodeError: "),
        (b"mode = mock:echo\n", ["generate", "--n", "3"], "File contains no section headers"),
        (b"[eval]\nk = x\n", eval_argv, "[eval] k: invalid literal"),
        (b"[eval]\nk = 0\n", eval_argv, "[eval] k: must be >= 1, got 0"),
        (b"[eval]\nk = -3\n", eval_argv, "[eval] k: must be >= 1, got -3"),
        (b"[gateway]\nmax_parallel = two\n", eval_argv, "[gateway] max_parallel: invalid literal"),
        # Rejected by GatewayConfig before any worker thread starts.
        (b"[gateway]\nmax_parallel = 100\n", eval_argv, "[gateway] max_parallel must be in [1, 64]"),
        (
            b"[sampler]\nmax_sequential_hops = 99\n",
            ["sample-context", "--schedule", str(sched)],
            "[sampler] max_sequential_hops capped at 16",
        ),
    ]
    for raw, argv, message in cases:
        ini.write_bytes(raw)
        assert run(["--config", str(ini), "--out", str(tmp_path / "o"), *argv]) == EXIT_USAGE, raw
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err, (raw, err)


def test_gateway_modes_outside_mocks_are_usage_errors(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    assert run(["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched)]) == EXIT_OK
    eval_argv = ["run-eval", "--schedule", str(sched), "--gateway"]
    cases = [
        ([*eval_argv, "mock:bogus"], EXIT_USAGE, "usage error: unknown gateway mode 'mock:bogus'"),
        ([*eval_argv, "mock:transcript"], EXIT_USAGE, "usage error: unknown gateway mode 'mock:transcript'"),
        ([*eval_argv, "mock:echo=x"], EXIT_USAGE, "usage error: unknown gateway mode 'mock:echo=x'"),
        ([*eval_argv, "echo"], EXIT_USAGE, "usage error: unknown gateway mode 'echo'"),
        ([*eval_argv, "http"], EXIT_GATEWAY, "gateway error: endpoint_url not configured"),
        (
            ["polish", "--instances", str(tmp_path / "e" / "instances.jsonl"), "--gateway", "mock:echo"],
            EXIT_USAGE,
            "usage error: mock:echo needs a schedule to answer from",
        ),
    ]
    capsys.readouterr()
    for argv, code, message in cases:
        assert run(["--out", str(tmp_path / "o"), *argv]) == code, argv
        assert capsys.readouterr().err == message + "\n"
