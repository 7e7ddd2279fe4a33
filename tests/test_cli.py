from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generate_a_tiny_schedule(tmp_path, capsys, n):
    """Fewer activities than the mean degree is no error: each draws at
    most the successors it has, and the schedule re-parses valid and
    acyclic."""
    from schedkit.graph import build_graph, detect_cycles
    from schedkit.schedule import parse_schedule, validate

    from conftest import csv_text

    for seed in (1, 42):
        out = tmp_path / f"s{seed}"
        assert run(["--out", str(out), "generate", "--n", str(n), "--seed", str(seed)]) == EXIT_OK
        text = (out / "schedule.csv").read_text("utf-8")
        sched = parse_schedule(text)
        assert len(sched.activities) == n
        assert csv_text(sched) == text
        assert validate(sched).violations == ()
        assert detect_cycles(build_graph(sched)) == []
        assert f"generated {n} activities" in capsys.readouterr().out


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


# sha256 of the prompt-bearing files for `generate --n 300 --seed 1`: the
# sampled contexts, and `run-eval --gateway mock:echo` without and with a
# knowledge base built from PROMPT_CORPUS, so any change to how contexts or
# prompts are rendered, escaped or counted that moves a byte shows here.
PROMPT_DIGESTS_N300 = {
    "ctx/bundles.jsonl": "8686208cd65398655ee6a09f5c2046277a165f8160a694a5a6a1427f44c96e89",
    "ctx/contexts.txt": "e0e0257dd8f9ce676da890fac2b27f631e2878d99f9dd6cbba9e69222c9e408b",
    "eval/transcript.jsonl": "43d9cd98f94a8201edc47680649d4330b215b60733ed00c0dc76323a5f967cb7",
    "eval/instances.jsonl": "113e8448d875fe08fab84832956c465d561e0a49544359d1c6b1df5224edca41",
    "eval/report.json": "ba7933490e9722eb230c5e43a2561fee9664b9d6179587d861a190cc8abb9538",
    "kbeval/transcript.jsonl": "60ab2a80a3ed699ca26b56e18c63da6f718619684aa13ca8b58ce2db495595a4",
    "kbeval/instances.jsonl": "e62b2a6de693287afad1e4bb04dface6ee219b150e1249253c16565568a27163",
    "kbeval/report.json": "ba7933490e9722eb230c5e43a2561fee9664b9d6179587d861a190cc8abb9538",
}
# sha256 of build-kb's stores for PROMPT_CORPUS and PROMPT_TERMS ("kb"),
# and for an empty terms file alone ("ekb": no row, so dim 0).
KB_DIGESTS = {
    "kb/terms.jsonl": "b29bd181e5f55e75998f7e499e2a60820fa55bb13f8a3e97342f23057df335ef",
    "kb/terms.mat": "579947d2740a360555f3f69cf8ab35a7c09013fc91855f8c4dc851a47b4c35fb",
    "kb/chunks.jsonl": "64daf5e90d3e173b561faf3bbfb138c6fa75820f98e40a42501bf066374458f6",
    "kb/chunks.mat": "cec32f55d24ca2ba8ba259b7426b319c53ded1ce05f74e90c0f64391649cd93e",
    "ekb/terms.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ekb/terms.mat": "1cc93775ab4386f5cf9cc85715688191c8254c1cf178bb56b7eb4f4e34495f5b",
    "ekb/chunks.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ekb/chunks.mat": "1cc93775ab4386f5cf9cc85715688191c8254c1cf178bb56b7eb4f4e34495f5b",
}
PROMPT_CORPUS = {
    "manual.txt": (
        "Concrete pour slab curing and finishing for decks. "
        "Steel erection, bolting \"torque\" sequence for frames; MEP rough-in "
        "after the slab cures. Commissioning closes each area.\n"
    )
    * 40,
    "notes.txt": "Piping hydrotest precedes insulation. Handover café review.\n" * 25,
}
PROMPT_TERMS = (
    "WBS\thierarchical decomposition of project scope\n"
    "FS\tfinish-to-start: the successor starts after the predecessor finishes\n"
    "Lag\tdays between linked activities\n"
)


def test_prompt_artifacts_are_pinned(tmp_path, capsys):
    sched = str(tmp_path / "gen" / "schedule.csv")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in PROMPT_CORPUS.items():
        (corpus / name).write_text(text, "utf-8")
    terms = tmp_path / "terms.tsv"
    terms.write_text(PROMPT_TERMS, "utf-8")
    (tmp_path / "empty.tsv").write_text("", "utf-8")
    evaluate = ["run-eval", "--schedule", sched, "--gateway", "mock:echo"]
    runs = (
        ["--out", str(tmp_path / "gen"), "generate", "--n", "300", "--seed", "1"],
        ["--out", str(tmp_path / "ctx"), "sample-context", "--schedule", sched],
        ["--out", str(tmp_path / "eval"), *evaluate],
        ["--out", str(tmp_path / "kb"), "build-kb", "--corpus-dir", str(corpus), "--terms-file", str(terms)],
        ["--out", str(tmp_path / "kbeval"), *evaluate, "--kb", str(tmp_path / "kb")],
        ["--out", str(tmp_path / "ekb"), "build-kb", "--terms-file", str(tmp_path / "empty.tsv")],
    )
    for argv in runs:
        assert run(argv) == EXIT_OK
    assert _digests(tmp_path, PROMPT_DIGESTS_N300) == PROMPT_DIGESTS_N300
    assert _digests(tmp_path, KB_DIGESTS) == KB_DIGESTS


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
    from schedkit.masked_eval import evaluate_tasks, make_mask_tasks
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
    report = evaluate_tasks(parsed, tasks, ScriptedTranscriptGateway([]))
    assert report.complete is False
    assert sum(score.cells_total for score in report.per_task.values()) == 27
    assert (tmp_path / "e" / "report.json").read_text("utf-8") == report.to_json()


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


NO_TASK_KINDS = ("A\x00P", "a\x00b", "x" * 300, "a/b", "../x", "", "mvp")


def _instances_of_kinds(tmp_path: Path, kinds) -> tuple[Path, Path, list[Path]]:
    """The chain schedule, and one instance file per kind: an echo run's
    first instance, then the same instance under the kind."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    line = (tmp_path / "e" / "instances.jsonl").read_text("utf-8").splitlines()[0]
    paths = []
    for i, kind in enumerate(kinds):
        paths.append(tmp_path / f"instances{i}.jsonl")
        record = {**json.loads(line), "task_kind": kind}
        paths[-1].write_text(line + "\n" + json.dumps(record, sort_keys=True) + "\n", "utf-8")
    return sched, tmp_path / "e" / "instances.jsonl", paths


def _no_task_kind_error(path: Path, kind: str) -> str:
    return f"data error: {path}:2: UnknownTaskKindError: unknown task kind {kind!r}\n"


def test_polish_rejects_a_task_kind_other_than_mvp_da_or_ap(tmp_path, capsys):
    """polish names files after the task kind: a kind holding a NUL, or one
    too long for a file name, once exited 4 (internal error). The instance
    reader rejects it, naming the file and line."""
    _, _, paths = _instances_of_kinds(tmp_path, NO_TASK_KINDS)
    capsys.readouterr()
    for kind, path in zip(NO_TASK_KINDS, paths):
        assert run(["--out", str(tmp_path / "p"), "polish", "--instances", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == _no_task_kind_error(path, kind)


def test_collect_prefs_rejects_a_task_kind_other_than_mvp_da_or_ap(tmp_path, capsys):
    """collect-prefs once wrote a preference pair under any task kind. It
    now exits 2 naming the file and line, before it writes a database."""
    sched, good, paths = _instances_of_kinds(tmp_path, NO_TASK_KINDS)
    assert run(["--out", str(tmp_path / "q"), "collect-prefs", "--schedule", str(sched), "--instances", str(good)]) == EXIT_OK
    capsys.readouterr()
    for i, (kind, path) in enumerate(zip(NO_TASK_KINDS, paths)):
        out = tmp_path / f"q{i}"
        argv = ["--out", str(out), "collect-prefs", "--schedule", str(sched), "--instances", str(path)]
        assert run([*argv, "--synthesize-negatives"]) == EXIT_DATA
        assert capsys.readouterr().err == _no_task_kind_error(path, kind)
        assert not (out / "prefs.jsonl").exists()


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
    # Rows of dim 0 have no data bytes, however many the header declares.
    dim0 = raw[:4] + struct.pack("<II", 0, 2**32 - 1)
    for bad in (raw[: len(raw) - 6], b"NOPE" + raw[4:], dim3, nan_row, dim0):
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
    records = list(load_transcript(transcript))
    records[0]["response_text"] = 5
    with TranscriptLog(transcript) as log:
        for r in records:
            log.append(**{k: v for k, v in r.items() if k not in ("transcript_id", "content_hash")})
    capsys.readouterr()
    # The transcript is read, and its field types checked, before the run
    # starts its own.
    assert run(["--out", str(tmp_path / "r"), *argv, f"mock:transcript={transcript}"]) == EXIT_GATEWAY
    assert capsys.readouterr().err == (
        f"gateway error: {transcript}:1: TypeError: response_text is int, not str\n"
    )
    assert not (tmp_path / "r" / "transcript.jsonl").exists()


def test_truncated_instances_is_a_data_error(tmp_path, capsys):
    """An instances file cut inside line 2 or inside its last line fails
    collect-prefs and polish with exit 2 naming ``path:line``. collect-prefs
    reads the whole file before it touches a database, so the default and a
    named ``--prefs-db`` keep their earlier contents. polish keeps its
    earlier ``polished.jsonl`` whole, and its transcript shows the exchanges
    it made before the bad line."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["run-eval", "--schedule", str(sched), "--gateway", "mock:wrong"]
    assert run(["--out", str(tmp_path / "e"), *argv]) == EXIT_OK
    instances = tmp_path / "e" / "instances.jsonl"
    lines = instances.read_bytes().splitlines(keepends=True)
    db = tmp_path / "db" / "prefs.jsonl"
    prefs = ["--out", str(tmp_path / "q"), "collect-prefs", "--schedule", str(sched), "--instances", str(instances)]
    stages = (prefs, [*prefs, "--prefs-db", str(db)], ["--out", str(tmp_path / "p"), "polish", "--instances", str(instances)])
    for argv in stages:
        assert run(argv) == EXIT_OK
    before = {d: tree_bytes(tmp_path / d) for d in ("q", "db", "p")}
    assert before["q"]["prefs.jsonl"] and before["db"]["prefs.jsonl"]
    for line_no in (2, len(lines)):
        instances.write_bytes(b"".join(lines[: line_no - 1]) + lines[line_no - 1][:40])
        capsys.readouterr()
        for argv in stages:
            assert run(argv) == EXIT_DATA, (line_no, argv)
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {instances}:{line_no}: JSONDecodeError:"), err
        after = {d: tree_bytes(tmp_path / d) for d in ("q", "db", "p")}
        made = [json.loads(line) for line in after["p"].pop("transcript.jsonl").splitlines()]
        assert [r["error"] for r in made] == [None] * (line_no - 1)
        before["p"].pop("transcript.jsonl", None)
        assert after == before, line_no


def test_collect_prefs_rejects_a_row_the_schedule_lacks(tmp_path, capsys):
    """An instance whose ``row_id`` is no activity of ``--schedule`` exits 2
    naming ``path:line`` and the row, in the first pass, so neither the
    default database nor a named ``--prefs-db`` is touched."""
    sched = str(tmp_path / "gen" / "schedule.csv")
    assert run(["--out", str(tmp_path / "gen"), "generate", "--n", "12", "--seed", "3"]) == EXIT_OK
    evaluate = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", sched, "--gateway", "mock:echo"]
    assert run(evaluate) == EXIT_OK
    instances = tmp_path / "e" / "instances.jsonl"
    prefs = [
        "--out", str(tmp_path / "q"), "collect-prefs", "--schedule", sched,
        "--instances", str(instances), "--synthesize-negatives",
    ]
    stages = (prefs, [*prefs, "--prefs-db", str(tmp_path / "db" / "prefs.jsonl")])
    for argv in stages:
        assert run(argv) == EXIT_OK
    before = {d: tree_bytes(tmp_path / d) for d in ("q", "db")}
    assert before["q"]["prefs.jsonl"] and before["db"]["prefs.jsonl"]
    lines = instances.read_text("utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    record["row_id"] = "ZZZ"
    lines[1] = json.dumps(record, sort_keys=True) + "\n"
    instances.write_text("".join(lines), "utf-8")
    capsys.readouterr()
    for argv in stages:
        assert run(argv) == EXIT_DATA, argv
        assert capsys.readouterr().err == (
            f"data error: {instances}:2: ValueError: row_id 'ZZZ' is no activity of the schedule\n"
        )
    assert {d: tree_bytes(tmp_path / d) for d in ("q", "db")} == before


def test_a_replay_of_failed_exchanges_records_them_unchanged(tmp_path, capsys):
    """A replay of a run whose exchanges partly failed, and the replay of
    that replay, write the same instances, transcript and report: a
    replayed failure keeps its recorded error text."""
    sched = str(tmp_path / "gen" / "schedule.csv")
    assert run(["--out", str(tmp_path / "gen"), "generate", "--n", "12", "--seed", "3"]) == EXIT_OK
    base = ["run-eval", "--schedule", sched, "--gateway"]
    assert run(["--out", str(tmp_path / "echo"), *base, "mock:echo"]) == EXIT_OK
    lines = (tmp_path / "echo" / "transcript.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "head.jsonl").write_bytes(b"".join(lines[:20]))
    source = tmp_path / "head.jsonl"
    for name in ("replay", "replay2"):
        assert run(["--out", str(tmp_path / name), *base, f"mock:transcript={source}"]) == EXIT_GATEWAY
        assert "16 instance(s) failed at the gateway" in capsys.readouterr().err
        source = tmp_path / name / "transcript.jsonl"
    once, twice = tree_bytes(tmp_path / "replay"), tree_bytes(tmp_path / "replay2")
    for name in ("instances.jsonl", "transcript.jsonl", "report.json"):
        assert once[name] == twice[name], name
    errors = [json.loads(line)["error"] for line in once["instances.jsonl"].splitlines()]
    assert errors.count("TranscriptExhaustedError: no scripted response left for this prompt") == 16


def test_a_config_that_sets_max_parallel_exits_1_and_keeps_the_run_eval_tree(tmp_path, capsys):
    """``[gateway] max_parallel``, which once ran exchanges on a thread
    pool, is no key of the config: a file that still sets it, to any value,
    is a usage error that leaves the earlier run's files as they were."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    out = tmp_path / "e"
    argv = ["--out", str(out), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    expected = tree_bytes(out)
    ini = tmp_path / "parallel.ini"
    capsys.readouterr()
    for value in ("4", "100"):
        ini.write_text(f"[gateway]\nmax_parallel = {value}\n", "utf-8")
        assert run(["--config", str(ini), *argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {ini}: [gateway] max_parallel: unknown key\n"
        assert tree_bytes(out) == expected


def _every_stage(root: Path, seed: int) -> list[tuple[str, list[str]]]:
    """Every command as ``(output directory under root, arguments)``, in an
    order in which each reads what the ones before it wrote. Writes the
    corpus and term file that ``build-kb`` reads under root; they, like the
    generated schedule, depend on ``seed``."""
    (root / "corpus").mkdir(parents=True)
    (root / "corpus" / "doc.txt").write_text(
        f"steel erection bolting sequence {seed} for frames and decks", "utf-8"
    )
    (root / "terms.tsv").write_text(f"WBS\tdecomposition of scope {seed}\n", "utf-8")
    sched = str(root / "gen" / "schedule.csv")
    instances = str(root / "eval" / "instances.jsonl")
    return [
        ("gen", ["generate", "--n", "30", "--seed", str(seed)]),
        ("ingest", ["ingest", "--schedule", sched]),
        ("graph", ["analyze-graph", "--schedule", sched]),
        ("kb", ["build-kb", "--corpus-dir", str(root / "corpus"), "--terms-file", str(root / "terms.tsv")]),
        ("ctx", ["sample-context", "--schedule", sched]),
        ("eval", ["run-eval", "--schedule", sched, "--gateway", "mock:wrong", "--kb", str(root / "kb")]),
        ("prefs", ["collect-prefs", "--schedule", sched, "--instances", instances, "--synthesize-negatives"]),
        ("scorer", ["train-scorer", "--prefs-db", str(root / "prefs" / "prefs.jsonl")]),
        ("polish", ["polish", "--instances", instances]),
        ("report", ["report", "--report", str(root / "eval" / "report.json")]),
    ]


# Files a command appends to as it goes rather than writes whole: the
# exchange log, whose records are flushed one by one, and the preference
# database, which a named --prefs-db accumulates.
APPEND_LOGS = {"transcript.jsonl", "prefs.jsonl"}


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
    stages = [evaluate, polish, prefs] + [
        ["--out", str(tmp_path / "all" / out), *args] for out, args in _every_stage(tmp_path / "all", 3)
    ]
    for argv in stages:
        assert run(argv) == EXIT_OK
    once = tree_bytes(tmp_path)
    assert once["q/prefs.jsonl"] and once["all/scorer/scorer.bin"]
    for argv in stages:
        assert run(argv) == EXIT_OK
    assert tree_bytes(tmp_path) == once


def test_every_whole_file_artifact_is_renamed_into_place(tmp_path, monkeypatch, capsys):
    """Each command writes each of its files but the append logs through
    ``schedkit.streamed``: written whole to a temporary sibling, then
    renamed into place."""
    renamed: list[Path] = []
    replace = os.replace

    def recording_replace(src, dst):
        renamed.append(Path(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    for out, args in _every_stage(tmp_path, 3):
        renamed.clear()
        assert run(["--out", str(tmp_path / out), *args]) == EXIT_OK
        written = {p for p in (tmp_path / out).iterdir() if p.name not in APPEND_LOGS}
        assert sorted(renamed) == sorted(written), out


def test_an_exception_in_streamed_keeps_the_previous_file(tmp_path):
    from schedkit import streamed

    for mode, old, new in (("w", "old é\n", "new"), ("wb", b"\x00old", b"new")):
        path = tmp_path / f"artifact.{mode}"
        with streamed(path, mode) as fh:
            fh.write(old)
        with pytest.raises(RuntimeError):
            with streamed(path, mode) as fh:
                fh.write(new)
                raise RuntimeError("killed")
        assert (path.read_bytes() if mode == "wb" else path.read_text("utf-8")) == old
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []


def test_a_refused_rename_keeps_the_previous_report(tmp_path, monkeypatch, capsys):
    """run-eval's report.json, once whole, stays whole when writing the next
    one fails; the stage exits 4 and leaves no temporary file."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    before = tree_bytes(tmp_path / "e")
    replace = os.replace

    def refuse_report(src, dst):
        if Path(dst).name == "report.json":
            raise OSError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_report)
    assert run([*argv[:-1], "mock:wrong"]) == 4
    after = tree_bytes(tmp_path / "e")
    assert after["report.json"] == before["report.json"]
    assert after["instances.jsonl"] != before["instances.jsonl"]
    assert not any(name.endswith(".tmp") for name in after)


def _prefs_order_digests(root: Path) -> dict[str, str | None]:
    """sha256 of ``prefs.jsonl`` (None: no file) from collect-prefs, with and
    without ``--synthesize-negatives``, over three instance files of
    ``generate --n 40 --seed 5``, and of ``polished.jsonl`` for the empty
    one. ``wrong`` is the instances of ``run-eval --tasks MVP,DA`` and then
    of ``--tasks MVP``, both under ``mock:wrong`` (run-eval takes each task
    kind once), so each MVP group has two wrong instances. ``shuffled`` holds a
    ``mock:echo`` run and a ``mock:wrong --tasks MVP`` run, lines shuffled
    (seed 7) with blank lines between some: an MVP group whose correct line
    comes first takes its wrong line, further on, as its source."""
    import random

    sched = str(root / "g" / "schedule.csv")
    assert run(["--out", str(root / "g"), "generate", "--n", "40", "--seed", "5"]) == EXIT_OK
    evaluate = ["run-eval", "--schedule", sched, "--gateway"]
    for out, argv in (
        ("wrong", [*evaluate, "mock:wrong", "--tasks", "MVP,DA"]),
        ("echo", [*evaluate, "mock:echo"]),
        ("wrong_mvp", [*evaluate, "mock:wrong", "--tasks", "MVP"]),
    ):
        assert run(["--out", str(root / out), *argv]) == EXIT_OK
    lines = [
        line
        for out in ("echo", "wrong_mvp")
        for line in (root / out / "instances.jsonl").read_bytes().splitlines(keepends=True)
    ]
    random.Random(7).shuffle(lines)
    for i in range(0, len(lines), 25):
        lines[i] = b"\n" + lines[i]
    files = {
        "wrong": root / "wrong.jsonl",
        "shuffled": root / "shuffled.jsonl",
        "empty": root / "empty.jsonl",
    }
    files["wrong"].write_bytes(
        b"".join((root / out / "instances.jsonl").read_bytes() for out in ("wrong", "wrong_mvp"))
    )
    files["shuffled"].write_bytes(b"".join(lines))
    files["empty"].write_bytes(b"")
    digests = {}
    for name, path in files.items():
        for flags in ((), ("--synthesize-negatives",)):
            out = root / f"q_{name}{''.join(flags)}"
            argv = ["--out", str(out), "collect-prefs", "--schedule", sched, "--instances", str(path), *flags]
            assert run(argv) == EXIT_OK
            db = out / "prefs.jsonl"
            digests[out.name] = hashlib.sha256(db.read_bytes()).hexdigest() if db.exists() else None
    assert run(["--out", str(root / "p"), "polish", "--instances", str(files["empty"])]) == EXIT_OK
    digests["polished_empty"] = _digests(root / "p", ["polished.jsonl"])["polished.jsonl"]
    return digests


# _prefs_order_digests, recorded when collect-prefs kept every instance in
# memory and wrote its records in one pass.
PREFS_ORDER_DIGESTS = {
    "q_wrong": "9a52097bb4fd758900dc9f5d52b6642d1d35f218e3d5db107232e9b27e81cc27",
    "q_wrong--synthesize-negatives": "9a52097bb4fd758900dc9f5d52b6642d1d35f218e3d5db107232e9b27e81cc27",
    "q_shuffled": "acfea0a07da9e2eab6f71e3b3e1287b2912c686d864f8b647151a9ddfdc5bed9",
    "q_shuffled--synthesize-negatives": "bfcc2edd6b77ef6746296b8eff6c1abd0fe8d859a1ae8ccfd5f19a0f5245ecbc",
    "q_empty": None,
    "q_empty--synthesize-negatives": None,
    "polished_empty": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
}


def test_prefs_order_is_pinned(tmp_path, capsys):
    assert _prefs_order_digests(tmp_path) == PREFS_ORDER_DIGESTS


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


def _traced_peak(argv) -> int:
    """The tracemalloc peak of one CLI run, which must succeed. Garbage that
    earlier tests left is collected first, so none is freed mid-run."""
    import gc
    import tracemalloc

    tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        assert run(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_run_eval_memory_stays_below_its_transcript(tmp_path, capsys):
    """run-eval streams its prompts: the traced peak stays under the size of
    the transcript it writes, which holds every prompt once."""
    assert run(["--out", str(tmp_path / "g"), "generate", "--n", "300", "--seed", "1"]) == EXIT_OK
    argv = [
        "--out", str(tmp_path / "e"), "run-eval",
        "--schedule", str(tmp_path / "g" / "schedule.csv"), "--gateway", "mock:echo",
    ]
    peak = _traced_peak(argv)
    assert peak < (tmp_path / "e" / "transcript.jsonl").stat().st_size


def test_run_eval_memory_stays_below_its_contexts(tmp_path, capsys):
    """run-eval keeps each row's context as pieces that share their WBS
    bucket's block: at n=1200 its traced peak stays under the summed length
    of the contexts it renders, which holding them as text would exceed."""
    assert run(["--out", str(tmp_path / "g"), "generate", "--n", "1200", "--seed", "1"]) == EXIT_OK
    sched = str(tmp_path / "g" / "schedule.csv")
    assert run(["--out", str(tmp_path / "c"), "sample-context", "--schedule", sched]) == EXIT_OK
    # contexts.txt is the contexts joined by one blank line each.
    contexts = len((tmp_path / "c" / "contexts.txt").read_text("utf-8")) - (1200 - 1)
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", sched, "--gateway", "mock:echo"]
    assert _traced_peak(argv) < contexts


# How far run-eval's traced peak over MVP, DA and AP may exceed that over
# MVP alone, at n=1200. Masks made as they are sent added 0.09-0.20 MB on
# Python 3.10 and 3.11; holding all 3n masks added 0.8-1.3 MB.
MASKS_MARGIN = 400_000


def test_run_eval_memory_does_not_grow_with_its_task_kinds(tmp_path, capsys):
    """run-eval makes each mask as its prompt is sent: at n=1200 its traced
    peak over MVP, DA and AP stays within a small fixed margin of its peak
    over MVP alone, which holding the other kinds' masks would exceed."""
    _echo_run(tmp_path, 30)  # each kind's first prompt, untraced
    assert run(["--out", str(tmp_path / "g"), "generate", "--n", "1200", "--seed", "1"]) == EXIT_OK
    sched = str(tmp_path / "g" / "schedule.csv")
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", sched, "--gateway", "mock:echo", "--tasks"]
    mvp = _traced_peak([*argv, "MVP"])
    assert _traced_peak([*argv, "MVP,DA,AP"]) < mvp + MASKS_MARGIN


def _echo_run(root: Path, n: int, *tasks: str) -> tuple[str, Path]:
    """``run-eval --gateway mock:echo`` over ``generate --n n --seed 1``:
    the schedule path and the run directory."""
    sched = str(root / f"g{n}" / "schedule.csv")
    assert run(["--out", str(root / f"g{n}"), "generate", "--n", str(n), "--seed", "1"]) == EXIT_OK
    argv = ["--out", str(root / f"e{n}"), "run-eval", "--schedule", sched, "--gateway", "mock:echo", *tasks]
    assert run(argv) == EXIT_OK
    return sched, root / f"e{n}"


def test_replay_memory_stays_below_its_source(tmp_path, capsys):
    """A replay reads its source transcript one record at a time and keeps
    only each response: at n=300 its traced peak stays under the size of the
    source, which holding the records would exceed."""
    sched, recorded = _echo_run(tmp_path, 300)
    source = recorded / "transcript.jsonl"
    argv = [
        "--out", str(tmp_path / "r"), "run-eval", "--schedule", sched,
        "--gateway", f"mock:transcript={source}",
    ]
    assert _traced_peak(argv) < source.stat().st_size
    assert (tmp_path / "r" / "transcript.jsonl").read_bytes() == source.read_bytes()


# How much the traced peaks of collect-prefs and polish may grow from n=300
# to n=1200 (AP only), while their instance files grow from 1.4 to 14.8 MB.
# The schedule and collect-prefs's few hundred bytes per (row, task) group
# grow with n: by 3.3 MB (collect-prefs) and 0.2 MB (polish) on Python 3.11;
# holding every instance grew them by 17.6 and 14.2 MB.
PEAK_GROWTH_MARGIN = 6_000_000


def test_collect_prefs_and_polish_memory_does_not_grow_with_instances(tmp_path, capsys):
    """collect-prefs and polish hold one instance at a time, so their traced
    peaks at n=1200 stay within a fixed margin of those at n=300."""
    from schedkit import alignment  # noqa: F401  (numpy, loaded before tracing)

    peaks = {}
    for n in (300, 1200):
        sched, recorded = _echo_run(tmp_path, n, "--tasks", "AP")
        instances = str(recorded / "instances.jsonl")
        prefs = [
            "--out", str(tmp_path / f"q{n}"), "collect-prefs", "--schedule", sched,
            "--instances", instances, "--synthesize-negatives",
        ]
        polish = ["--out", str(tmp_path / f"p{n}"), "polish", "--instances", instances]
        peaks[n] = (_traced_peak(prefs), _traced_peak(polish))
    for small, large in zip(peaks[300], peaks[1200]):
        assert large < small + PEAK_GROWTH_MARGIN, peaks


@pytest.fixture(scope="module")
def wrong_prefs(tmp_path_factory) -> Path:
    """The 180 preference pairs that ``collect-prefs --synthesize-negatives``
    makes of a ``mock:wrong`` run over ``generate --n 60 --seed 1``."""
    root = tmp_path_factory.mktemp("wrong_prefs")
    sched = str(root / "g" / "schedule.csv")
    instances = str(root / "e" / "instances.jsonl")
    for argv in (
        ["--out", str(root / "g"), "generate", "--n", "60", "--seed", "1"],
        ["--out", str(root / "e"), "run-eval", "--schedule", sched, "--gateway", "mock:wrong"],
        ["--out", str(root / "p"), "collect-prefs", "--schedule", sched, "--instances", instances, "--synthesize-negatives"],
    ):
        assert run(argv) == EXIT_OK
    return root / "p" / "prefs.jsonl"


# How far train-scorer's traced peak may rise when every prompt of its 180
# pairs is four times as long (0.29 -> 1.18 MB of prompt text). Reading one
# record at a time, the peak rose by 0.27 MB on Python 3.11, the longest
# prompt's embedding arrays; holding every record raised it by 0.88 MB.
PROMPT_PAD_MARGIN = 450_000


def test_train_scorer_memory_does_not_grow_with_prompt_text(tmp_path, wrong_prefs, capsys):
    """train-scorer reads its pairs one line at a time into a feature matrix
    sized by the pair count: with every prompt padded to four times its
    length, its traced peak stays within a fixed margin of the original's,
    which holding the prompts would exceed."""
    padded = tmp_path / "padded.jsonl"
    with open(wrong_prefs, encoding="utf-8") as src, open(padded, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            record["prompt_text"] *= 4
            dst.write(json.dumps(record, sort_keys=True) + "\n")
    argv = ["--out", str(tmp_path / "s"), "train-scorer", "--prefs-db"]
    assert run([*argv, str(wrong_prefs)]) == EXIT_OK  # imports and first calls, untraced
    original = _traced_peak([*argv, str(wrong_prefs)])
    assert _traced_peak([*argv, str(padded)]) < original + PROMPT_PAD_MARGIN


KB_VOCABULARY = (
    "concrete pour slab rebar deck steel beam column grout weld bolt crane "
    "conduit cable tray duct pipe valve pump fan chiller panel switchgear"
).split()


def _kb_corpus(corpus: Path, docs: int, tokens: int, stretch: int = 1) -> Path:
    """``docs`` documents of ``tokens`` words from KB_VOCABULARY, each word
    repeated ``stretch`` times within itself."""
    corpus.mkdir()
    for i in range(docs):
        words = (KB_VOCABULARY[(7 * i + j * j) % len(KB_VOCABULARY)] * stretch for j in range(tokens))
        (corpus / f"doc{i:03d}.txt").write_text(" ".join(words), "utf-8")
    return corpus


# How far build-kb's traced peak may rise from 8 to 32 documents of 2,000
# words (32 to 128 chunks). Writing each row as it is embedded, it rose by
# 1.4 KB on Python 3.11; holding every chunk and row rose by 0.67 MB.
KB_DOCS_MARGIN = 100_000


def test_build_kb_memory_does_not_grow_with_its_documents(tmp_path, capsys):
    """build-kb holds one document at a time: with four times the
    documents, its traced peak stays within a fixed margin."""
    def argv(docs: int) -> list[str]:
        corpus = _kb_corpus(tmp_path / f"c{docs}", docs, 2000)
        return ["--out", str(tmp_path / f"kb{docs}"), "build-kb", "--corpus-dir", str(corpus)]

    small, large = argv(8), argv(32)
    assert run(small) == EXIT_OK  # imports and first calls, untraced
    assert _traced_peak(large) < _traced_peak(small) + KB_DOCS_MARGIN


# How far run-eval's traced peak over the chain may rise when each of a
# KB's 128 chunks is 3.5 times as long (0.39 -> 1.35 MB of chunk text).
# Keeping line offsets and the retrieved texts, it rose by 0.06 MB on
# Python 3.11, the longer retrieved texts and the prompts that hold them;
# holding every chunk text rose by 0.98 MB.
KB_TEXT_MARGIN = 350_000


def test_run_eval_kb_memory_does_not_grow_with_chunk_text(tmp_path, capsys):
    """run-eval --kb reads a chunk's text only when it is retrieved, so
    chunk texts 3.5 times as long leave its traced peak within a fixed
    margin."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")

    def argv(stretch: int) -> list[str]:
        corpus = _kb_corpus(tmp_path / f"c{stretch}", 128, 500, stretch)
        kb = tmp_path / f"kb{stretch}"
        assert run(["--out", str(kb), "build-kb", "--corpus-dir", str(corpus)]) == EXIT_OK
        return [
            "--out", str(tmp_path / f"e{stretch}"), "run-eval", "--schedule", str(sched),
            "--gateway", "mock:echo", "--kb", str(kb),
        ]

    short, long = argv(1), argv(4)
    assert run(short) == EXIT_OK  # imports and first calls, untraced
    assert _traced_peak(long) < _traced_peak(short) + KB_TEXT_MARGIN


def test_a_bad_last_input_leaves_the_previous_kb_whole(tmp_path, capsys):
    """build-kb writes each row as it embeds it, into temporary siblings of
    the four store files, and renames them only when every input is
    indexed: a last document that is empty, or a last term line without a
    definition, exits 2 and leaves the previous KB byte for byte, with no
    temporary file."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("steel erection bolting torque sequence", "utf-8")
    (corpus / "b.txt").write_text("concrete pour curing formwork stripped", "utf-8")
    terms = tmp_path / "terms.tsv"
    terms.write_text("WBS\tscope decomposition\nMEP\tmechanical electrical plumbing\n", "utf-8")
    kb = tmp_path / "kb"
    argv = ["--out", str(kb), "build-kb", "--corpus-dir", str(corpus), "--terms-file", str(terms)]
    assert run(argv) == EXIT_OK
    before = tree_bytes(kb)
    capsys.readouterr()
    (corpus / "c.txt").write_text(" \n\t", "utf-8")
    assert run(argv) == EXIT_DATA
    assert capsys.readouterr().err == "data error: document 'c' is empty after normalization\n"
    assert tree_bytes(kb) == before
    (corpus / "c.txt").unlink()
    terms.write_text(terms.read_text("utf-8") + "Lag\n", "utf-8")
    assert run(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {terms}:3: term line without definition: 'Lag'\n"
    assert tree_bytes(kb) == before


def _swap_doc_ids(path: Path) -> None:
    """Swap the doc ids of the two one-letter documents, line for line."""
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"a"', b'"_"').replace(b'"b"', b'"a"').replace(b'"_"', b'"b"'))


def _retype_first_text(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "text": 5}, sort_keys=True).encode() + b"\n"
    path.write_bytes(b"".join(lines))


# How chunks.jsonl is rewritten after run-eval loaded it, and how the
# message after ``path:<line>: `` starts.
REWRITES = {
    "swapped": (_swap_doc_ids, "ValueError: key ("),
    "emptied": (lambda path: path.write_bytes(b""), "ValueError: the line is blank or gone"),
    "retyped": (_retype_first_text, ""),
}


@pytest.mark.parametrize("how", sorted(REWRITES))
def test_a_chunk_line_rewritten_after_loading_exits_2_naming_it(tmp_path, capsys, monkeypatch, how):
    """run-eval --kb reads a chunk's line again when it retrieves it; if the
    manifest changed after loading, that line no longer reads back or no
    longer holds its (doc_id, chunk_index), and the run exits 2 naming
    ``path:line``, before the transcript is started."""
    from schedkit import knowledge

    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("steel erection bolting torque sequence", "utf-8")
    (corpus / "b.txt").write_text("concrete pour curing formwork stripped", "utf-8")
    kb = tmp_path / "kb"
    assert run(["--out", str(kb), "build-kb", "--corpus-dir", str(corpus)]) == EXIT_OK
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_OK
    before = tree_bytes(tmp_path / "e")
    chunks = kb / "chunks.jsonl"
    rewrite, detail = REWRITES[how]
    load = knowledge.load_chunk_store

    def load_then_rewrite(*args):
        store = load(*args)
        rewrite(chunks)
        return store

    monkeypatch.setattr(knowledge, "load_chunk_store", load_then_rewrite)
    capsys.readouterr()
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_DATA
    err = capsys.readouterr().err
    assert re.match(rf"data error: {re.escape(str(chunks))}:[12]: {re.escape(detail)}", err), err
    assert tree_bytes(tmp_path / "e") == before


@pytest.mark.parametrize(
    "bad_line",
    [
        pytest.param(lambda line: b"\xff" + line, id="not_utf8"),
        pytest.param(
            lambda line: json.dumps({**json.loads(line), "row_id": 7}, sort_keys=True).encode() + b"\n",
            id="mistyped_field",
        ),
    ],
)
def test_a_bad_last_pair_exits_2_naming_its_line_and_keeps_the_previous_scorer(
    tmp_path, wrong_prefs, capsys, bad_line
):
    """train-scorer embeds each pair as it reads it, so a bad line after 50
    good ones is found after their rows are made; it still exits 2 naming
    that line, and the previous run's files stay as they were."""
    lines = wrong_prefs.read_bytes().splitlines(keepends=True)[:51]
    prefs = tmp_path / "prefs.jsonl"
    prefs.write_bytes(b"".join(lines[:50]))
    out = tmp_path / "s"
    argv = ["--out", str(out), "train-scorer", "--prefs-db", str(prefs)]
    assert run(argv) == EXIT_OK
    before = tree_bytes(out)
    prefs.write_bytes(b"".join([*lines[:50], bad_line(lines[50])]))
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {prefs}:51: ")
    assert tree_bytes(out) == before


@pytest.mark.parametrize("change", ["grown", "shrunk"])
def test_prefs_that_change_between_count_and_read_exit_2(tmp_path, wrong_prefs, capsys, monkeypatch, change):
    """train-scorer counts the pairs of ``--prefs-db``, then reads them. A
    pair appended in between (as ``collect-prefs`` appends) or a line cut
    off is a data error naming the file, and the previous files stay."""
    from schedkit import preferences

    lines = wrong_prefs.read_bytes().splitlines(keepends=True)[:51]
    prefs = tmp_path / "prefs.jsonl"
    prefs.write_bytes(b"".join(lines[:50]))
    out = tmp_path / "s"
    argv = ["--out", str(out), "train-scorer", "--prefs-db", str(prefs)]
    assert run(argv) == EXIT_OK
    before = tree_bytes(out)
    count = preferences.PreferenceStore.__len__

    def count_then_change(store):
        counted = count(store)
        prefs.write_bytes(b"".join(lines if change == "grown" else lines[:49]))
        return counted

    monkeypatch.setattr(preferences.PreferenceStore, "__len__", count_then_change)
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    read = "more than 50" if change == "grown" else "49"
    assert capsys.readouterr().err.startswith(f"data error: {prefs}: 50 record(s) counted, then {read} read;")
    assert tree_bytes(out) == before


@pytest.mark.parametrize("pairs", [0, 50])
def test_prefs_from_a_pipe_exit_2(tmp_path, wrong_prefs, pairs):
    """A pipe cannot be read twice: its count drains it, so train-scorer
    exits 2 rather than train on rows it never read; an empty pipe has too
    few pairs, as an empty file has."""
    lines = wrong_prefs.read_bytes().splitlines(keepends=True)[:pairs]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "schedkit.cli", "--out", str(tmp_path / "s"), "train-scorer", "--prefs-db", "/dev/stdin"],
        input=b"".join(lines), env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == EXIT_DATA, proc.stderr
    expected = "50 record(s) counted, then 0 read;" if pairs else "need at least 2 preference records"
    assert proc.stderr.decode().startswith("data error: ") and expected in proc.stderr.decode()
    assert not (tmp_path / "s" / "scorer.bin").exists()


def _count_canonical_rows(monkeypatch) -> list[str]:
    """The id of every ``canonical_row`` call from here on, wherever a
    schedkit module binds the function, as the benchmark's tracer does."""
    import sys

    from schedkit import schedule

    calls = []
    original = schedule.canonical_row

    def counting(*args):
        calls.append(args[1].activity_id)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "schedkit" and getattr(module, "canonical_row", None) is original:
            monkeypatch.setattr(module, "canonical_row", counting)
    return calls


def test_run_eval_builds_each_canonical_row_once(tmp_path, monkeypatch, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    calls = _count_canonical_rows(monkeypatch)
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    assert sorted(calls) == ["A", "B", "C"]


def test_collect_prefs_builds_each_canonical_row_once(tmp_path, monkeypatch, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["--out", str(tmp_path / "e"), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(argv) == EXIT_OK
    calls = _count_canonical_rows(monkeypatch)
    argv = [
        "--out", str(tmp_path / "p"), "collect-prefs", "--schedule", str(sched),
        "--instances", str(tmp_path / "e" / "instances.jsonl"), "--synthesize-negatives",
    ]
    assert run(argv) == EXIT_OK
    assert "collected 9 preference pair(s)" in capsys.readouterr().out
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

    def edited(complete=True, **counts) -> bytes:
        payload = json.loads(whole)
        payload["complete"] = complete
        payload["per_task"]["MVP"].update(counts)
        return json.dumps(payload).encode()

    for bad, type_name in (
        (whole[: len(whole) // 2], "JSONDecodeError"),
        (b"{}", "KeyError"),
        (b"[]", "TypeError"),
        (b'{"complete": true, "per_task": [], "group_breakdowns": {}}', "TypeError"),
        (b'{"complete": true, "per_task": {}, "group_breakdowns": 1}', "TypeError"),
        (b'{"complete": true, "per_task": {}, "group_breakdowns": {"Level": []}}', "TypeError"),
        (b"\xff" + whole, "UnicodeDecodeError"),
        (b"[" * 200_000, "RecursionError"),
        *((edited(cells_total=count), "TypeError") for count in ("a", None, 1.5, True)),
        # Counts no run can produce. The first is a hand-written file that
        # once rendered "overall | 500.0" and exited 0.
        (edited("no", cells_total=2, cells_correct=10, rows_total=-1), "TypeError: complete"),
        (edited(None), "TypeError: complete"),
        (edited(cells_total=2, cells_correct=10), "ValueError: more correct than total"),
        (edited(rows_total=1, rows_correct=2), "ValueError: more correct than total"),
        (edited(rows_total=-1), "ValueError: rows_total"),
    ):
        path.write_bytes(bad)
        capsys.readouterr()
        assert run(["--out", str(tmp_path / "r"), "report", "--report", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {path}: {type_name}: "), captured.err


def test_loss_values_at_their_bounds_still_train(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    out = str(tmp_path / "o")
    assert run(["--out", out, "run-eval", "--schedule", str(sched), "--gateway", "mock:wrong"]) == EXIT_OK
    argv = ["--out", out, "collect-prefs", "--schedule", str(sched), "--instances", f"{out}/instances.jsonl"]
    assert run(argv) == EXIT_OK
    ini = tmp_path / "run.ini"
    train = ["--config", str(ini), "--out", str(tmp_path / "s"), "train-scorer", "--prefs-db", f"{out}/prefs.jsonl"]
    for raw in (b"learning_rate = 0\n", b"epochs = 0\n", b"epochs_sft = 0\nbeta = 0\n"):
        ini.write_bytes(b"[loss]\n" + raw)
        assert run(train) == EXIT_OK, raw

def test_config_errors_are_usage_errors_naming_the_file_or_key(tmp_path, capsys):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    ini = tmp_path / "run.ini"
    eval_argv = ["run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    train_argv = ["train-scorer", "--prefs-db", str(tmp_path / "missing.jsonl")]
    kb_argv = ["build-kb", "--terms-file", str(tmp_path / "missing.tsv")]
    cases = [
        (b"[gateway]\nmode = mock:\xff\n", ["generate", "--n", "3"], f"{ini}: UnicodeDecodeError: "),
        (b"mode = mock:echo\n", ["generate", "--n", "3"], "File contains no section headers"),
        (b"[eval]\nk = x\n", eval_argv, "[eval] k: invalid literal"),
        (b"[eval]\nk = 0\n", eval_argv, "[eval] k: must be >= 1, got 0"),
        (b"[eval]\nk = -3\n", eval_argv, "[eval] k: must be >= 1, got -3"),
        # A timeout urlopen would refuse at the first exchange, and a
        # temperature that JSON cannot carry.
        (b"[gateway]\ntimeout_seconds = -1\n", eval_argv, "[gateway] timeout_seconds must be finite and > 0, got -1.0"),
        (b"[gateway]\ntimeout_seconds = 0\n", eval_argv, "[gateway] timeout_seconds must be finite and > 0, got 0.0"),
        (b"[gateway]\ntimeout_seconds = nan\n", eval_argv, "[gateway] timeout_seconds must be finite and > 0, got nan"),
        (b"[gateway]\ntemperature = nan\n", eval_argv, "[gateway] temperature must be finite and >= 0, got nan"),
        (b"[gateway]\ntemperature = inf\n", eval_argv, "[gateway] temperature must be finite and >= 0, got inf"),
        (b"[gateway]\ntemperature = -0.5\n", eval_argv, "[gateway] temperature must be finite and >= 0, got -0.5"),
        (
            b"[sampler]\nmax_sequential_hops = 99\n",
            ["sample-context", "--schedule", str(sched)],
            "[sampler] max_sequential_hops capped at 16",
        ),
        # Checked before the preference database is read. The first values
        # once exited 0 with nothing trained.
        (b"[loss]\nepochs = -4\nepochs_sft = -2\nlearning_rate = -1\n", train_argv, "[loss] epochs: must be finite and >= 0, got -4"),
        (b"[loss]\nepochs_sft = -2\n", train_argv, "[loss] epochs_sft: must be finite and >= 0, got -2"),
        (b"[loss]\nepochs = 0\nepochs_sft = 0\n", train_argv, "[loss] epochs: epochs and epochs_sft are both 0"),
        (b"[loss]\nlearning_rate = -1\n", train_argv, "[loss] learning_rate: must be finite and >= 0, got -1.0"),
        (b"[loss]\nlearning_rate = inf\n", train_argv, "[loss] learning_rate: must be finite and >= 0, got inf"),
        (b"[loss]\nbeta = nan\n", train_argv, "[loss] beta: must be finite and >= 0, got nan"),
        # Checked before the term file is read, and before numpy loads.
        (b"[kb]\nchunk_tokens = 0\n", kb_argv, "[kb] chunk_tokens: must be >= 1, got 0"),
        (b"[kb]\nchunk_tokens = -5\n", kb_argv, "[kb] chunk_tokens: must be >= 1, got -5"),
        # Checked before the schedule is generated, which needs an activity.
        (b"[generate]\nn = 0\n", ["generate"], "[generate] n: must be >= 1, got 0"),
        (b"[generate]\nn = 5\n", ["generate", "--n", "0"], "--n: must be >= 1, got 0"),
        # configparser reads a lone % as the start of a reference to a key.
        (b"[gateway]\nmodel_name = 50%\n", eval_argv, "[gateway] model_name: '%' must be followed by"),
    ]
    for raw, argv, message in cases:
        ini.write_bytes(raw)
        assert run(["--config", str(ini), "--out", str(tmp_path / "o"), *argv]) == EXIT_USAGE, raw
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err, (raw, err)


@pytest.mark.parametrize(
    "raw, message",
    [
        # A misspelled key would otherwise leave the hops at their default.
        ("[sampler]\nmax_sequentail_hops = 0\n", "[sampler] max_sequentail_hops: unknown key"),
        ("[nosuch]\nx = 1\n", "[nosuch]: unknown section"),
        # Sections are matched as written, keys in any case.
        ("[Sampler]\nrng_seed = 1\n", "[Sampler]: unknown section"),
        # configparser would copy a [DEFAULT] key into every section.
        ("[DEFAULT]\nx = 1\n", "[DEFAULT] x: unknown key"),
        ("[DEFAULT]\nrng_seed = 1\n", "[DEFAULT] rng_seed: unknown key"),
        ("[sampler]\nrng_seed = 1\n[sampler_x]\n", "[sampler_x]: unknown section"),
    ],
    ids=["misspelled-key", "section", "section-case", "default", "default-known-key", "empty-section"],
)
def test_unknown_config_names_exit_1_before_anything_is_written(tmp_path, capsys, raw, message):
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    ini = tmp_path / "run.ini"
    ini.write_text(raw, "utf-8")
    out = tmp_path / "ctx"
    for argv in (["sample-context", "--schedule", str(sched)], ["generate", "--n", "3"]):
        assert run(["--config", str(ini), "--out", str(out), *argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {ini}: {message}\n"
        assert not out.exists()


def test_a_key_in_another_case_is_that_key(tmp_path, capsys):
    """``[eval] K = 3`` sets ``k``: the config's keys, as configparser's,
    are matched in any case."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    argv = ["run-eval", "--schedule", str(sched), "--gateway", "mock:wrong", "--tasks", "DA"]
    for name, raw in (("upper", "[eval]\nK = 3\n"), ("lower", "[eval]\nk = 3\n")):
        (tmp_path / f"{name}.ini").write_text(raw, "utf-8")
        assert run(["--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name), *argv]) == EXIT_OK
    assert run(["--out", str(tmp_path / "default"), *argv]) == EXIT_OK
    upper, lower = tree_bytes(tmp_path / "upper"), tree_bytes(tmp_path / "lower")
    assert upper == lower != tree_bytes(tmp_path / "default")


def test_generate_of_no_activity_exits_1_before_writing(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[generate]\nn = 0\n", "utf-8")
    out = tmp_path / "g"
    for argv, message in (
        (["--config", str(ini), "--out", str(out), "generate"], "[generate] n: must be >= 1, got 0"),
        (["--out", str(out), "generate", "--n", "0"], "--n: must be >= 1, got 0"),
    ):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()
    # A flag stands for its key, whose value in the file is then not read.
    assert run(["--config", str(ini), "--out", str(out), "generate", "--n", "2"]) == EXIT_OK


def test_an_unknown_config_key_loads_no_stage_module(tmp_path):
    """The config is held to its table before the command runs, so a
    rejected key loads no module of any stage."""
    ini = tmp_path / "run.ini"
    ini.write_text("[eval]\nk = 2\nkk = 3\n", "utf-8")
    probe = (
        "import sys\n"
        "from schedkit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.startswith('schedkit')))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "--config", str(ini), "--out", str(tmp_path / "e"),
         "run-eval", "--schedule", "missing.csv"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == f"usage error: {ini}: [eval] kk: unknown key\n"
    assert proc.stdout.splitlines()[-1] == "['schedkit', 'schedkit.cli']"
    assert not (tmp_path / "e").exists()


def test_readme_config_block_lists_every_key_with_its_default():
    """README's ``### Config file`` block is the default config: every
    section and key of ``cli.CONFIG``, each with its default."""
    import configparser

    from schedkit.cli import CONFIG, load_config

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    block = re.search(r"### Config file\n\n```ini\n(.*?)```", readme, re.S).group(1)
    documented = configparser.ConfigParser()
    documented.read_string(block)
    defaults = load_config(None)
    assert documented.sections() == list(CONFIG) == defaults.sections()
    for section in CONFIG:
        assert dict(documented[section]) == dict(defaults[section]), section


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


def test_rejected_run_eval_inputs_keep_the_previous_run(tmp_path, capsys):
    """A task kind, rules file or knowledge base that run-eval rejects exits
    2 before the transcript is started, so the earlier run's files stay as
    they were. ``Polish`` is no evaluation task, whatever its case."""
    sched, kb = _chain_kb(tmp_path)
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_OK
    out = tmp_path / "e"
    before = tree_bytes(out)
    assert before["transcript.jsonl"] and before["instances.jsonl"]
    (kb / "terms.jsonl").write_bytes(b'{"term": "x"}\n')
    evaluate = ["--out", str(out), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    cases = [
        ([*evaluate, "--tasks", "MVP,XX"], "unknown task kind 'XX'"),
        ([*evaluate, "--tasks", "polish"], "unknown task kind 'POLISH'"),
        ([*evaluate, "--rules", str(tmp_path / "missing.txt")], "missing.txt"),
        ([*evaluate, "--kb", str(kb)], f"{kb / 'terms.jsonl'}:1:"),
    ]
    capsys.readouterr()
    for argv, named in cases:
        assert run(argv) == EXIT_DATA, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err, err
        assert tree_bytes(out) == before, argv


def test_a_row_with_too_few_maskable_columns_keeps_the_previous_run(tmp_path, monkeypatch, capsys):
    """run-eval makes each mask as its prompt is sent, but checks every
    row's MVP pool before the transcript is started: a row with fewer than
    3 maskable columns exits 2, with MVP the last kind too, and the earlier
    run's files stay as they were. A parsed row always has its WBS and both
    dates, so the pool is cut short here."""
    from schedkit import masked_eval

    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    out = tmp_path / "e"
    evaluate = ["--out", str(out), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(evaluate) == EXIT_OK
    before = tree_bytes(out)
    pool = masked_eval.maskable_columns
    monkeypatch.setattr(
        masked_eval, "maskable_columns", lambda row: pool(row)[: 2 if row["Activity ID"] == "B" else None]
    )
    capsys.readouterr()
    for tasks in ("MVP", "DA,AP,MVP"):
        assert run([*evaluate, "--tasks", tasks]) == EXIT_DATA, tasks
        assert capsys.readouterr().err == "data error: row 'B' has only 2 maskable column(s)\n"
        assert tree_bytes(out) == before, tasks


def _reject_schedule(tmp_path: Path, path: Path, message: str, capsys) -> None:
    """Every stage that reads the schedule ``path`` exits 2 with
    ``message``."""
    capsys.readouterr()
    for argv in (
        ["ingest"], ["analyze-graph"], ["sample-context"], ["run-eval", "--gateway", "mock:echo"],
    ):
        argv = ["--out", str(tmp_path / "o"), argv[0], "--schedule", str(path), *argv[1:]]
        assert run(argv) == EXIT_DATA, argv
        assert capsys.readouterr().err == f"data error: {message}\n"


def test_a_cell_over_the_csv_field_limit_is_a_data_error_naming_its_row(tmp_path, capsys):
    """A cell longer than the csv reader's field limit once exited 4 in
    every stage that reads the schedule."""
    limit = csv.field_size_limit()
    path = tmp_path / "oversize.csv"
    path.write_text(CHAIN_CSV.replace("Task B", "B" * (limit + 1)), "utf-8")
    _reject_schedule(tmp_path, path, f"row 3: unreadable record: field larger than field limit ({limit})", capsys)


def test_a_nul_byte_the_csv_reader_refuses_is_a_data_error_naming_its_row(tmp_path, capsys):
    """Python 3.10's csv reader refuses a NUL byte, which once exited 4;
    3.11's reads it as cell text."""
    try:
        next(csv.reader(["a\x00b"]))
    except csv.Error:
        pass
    else:
        pytest.skip("this interpreter's csv reader accepts a NUL byte")
    path = tmp_path / "nul.csv"
    path.write_text(CHAIN_CSV.replace("Task B", "Task\x00B"), "utf-8")
    _reject_schedule(tmp_path, path, "row 3: unreadable record: line contains NUL", capsys)


def test_run_eval_kb_without_a_store_exits_2_and_keeps_the_previous_run(tmp_path, capsys):
    """``--kb`` naming a directory that holds neither ``terms.jsonl`` nor
    ``chunks.jsonl`` (or none at all) exits 2 and names it, before the
    transcript is started."""
    sched, kb = _chain_kb(tmp_path)
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_OK
    out = tmp_path / "e"
    before = tree_bytes(out)
    capsys.readouterr()
    for empty in (tmp_path / "no_such_dir", tmp_path / "corpus"):
        assert _eval_with_kb(tmp_path, sched, empty) == EXIT_DATA, empty
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(empty) in err, err
        assert tree_bytes(out) == before, empty


def test_build_kb_without_an_input_is_a_usage_error_that_writes_nothing(tmp_path, capsys):
    """``build-kb`` with neither ``--corpus-dir`` nor ``--terms-file`` has
    nothing to index: it exits 1 before it creates ``--out``."""
    out = tmp_path / "kb"
    assert run(["--out", str(out), "build-kb"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: build-kb: give --corpus-dir, --terms-file or both\n", err
    assert not out.exists()


def test_build_kb_corpus_dir_that_is_no_directory_exits_2_and_writes_nothing(tmp_path, capsys):
    """A ``--corpus-dir`` that does not exist, or is a file, holds no
    document to index: it exits 2 naming it, before ``--out`` is created."""
    out = tmp_path / "kb"
    (tmp_path / "doc.txt").write_text("steel erection bolting sequence", "utf-8")
    for corpus in (tmp_path / "typo", tmp_path / "doc.txt"):
        assert run(["--out", str(out), "build-kb", "--corpus-dir", str(corpus)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {corpus}: --corpus-dir is not a directory\n", err
        assert not out.exists()


def test_an_input_path_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    """Each command's input file, given a directory or a path under a
    file, is a data error (exit 2) that names the path, not exit 4."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    folder = tmp_path / "folder"
    folder.mkdir()
    eval_argv = ["run-eval", "--schedule", str(sched)]
    cases = [
        (["ingest", "--schedule", str(folder)], folder),
        (["ingest", "--schedule", str(sched / "x")], sched / "x"),
        (["report", "--report", str(folder)], folder),
        ([*eval_argv, "--rules", str(folder)], folder),
        ([*eval_argv, "--gateway", f"mock:transcript={folder}"], folder),
        (["collect-prefs", "--schedule", str(sched), "--instances", str(folder)], folder),
        (["train-scorer", "--prefs-db", str(folder)], folder),
        (["polish", "--instances", str(folder)], folder),
        (["build-kb", "--terms-file", str(folder)], folder),
    ]
    for argv, path in cases:
        assert run(["--out", str(tmp_path / "o"), *argv]) == EXIT_DATA, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err, (argv, err)


def test_run_eval_kb_whose_stores_are_empty_exits_2_and_keeps_the_previous_run(tmp_path, capsys):
    """A ``--kb`` directory whose stores hold no term and no chunk (here
    ``build-kb`` of an empty corpus) exits 2 and names it, before the
    transcript is started."""
    sched, kb = _chain_kb(tmp_path)
    assert _eval_with_kb(tmp_path, sched, kb) == EXIT_OK
    out = tmp_path / "e"
    before = tree_bytes(out)
    (tmp_path / "no_docs").mkdir()
    empty = tmp_path / "empty_kb"
    assert run(["--out", str(empty), "build-kb", "--corpus-dir", str(tmp_path / "no_docs")]) == EXIT_OK
    assert (empty / "terms.jsonl").is_file() and (empty / "chunks.jsonl").is_file()
    capsys.readouterr()
    assert _eval_with_kb(tmp_path, sched, empty) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {empty}: the knowledge stores hold no term and no chunk\n", err
    assert tree_bytes(out) == before


def test_run_eval_empty_or_repeated_task_lists_are_usage_errors(tmp_path, capsys):
    """An empty task list, or one that names a kind twice in any case,
    exits 1 before the transcript is started, from ``--tasks`` or from
    ``[eval] tasks``."""
    sched = tmp_path / "chain.csv"
    sched.write_text(CHAIN_CSV, "utf-8")
    out = tmp_path / "e"
    evaluate = ["--out", str(out), "run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(evaluate) == EXIT_OK
    before = tree_bytes(out)
    cases = [
        ([*evaluate, "--tasks", ","], "--tasks: no task kind given"),
        ([*evaluate, "--tasks", "mvp,MVP"], "--tasks: a task kind is given twice: MVP,MVP"),
    ]
    for name, tasks, message in (
        ("empty.ini", " , ", "[eval] tasks: no task kind given"),
        ("twice.ini", "DA,AP,da", "[eval] tasks: a task kind is given twice: DA,AP,DA"),
    ):
        (tmp_path / name).write_text(f"[eval]\ntasks = {tasks}\n", "utf-8")
        cases.append((["--config", str(tmp_path / name), *evaluate], message))
    capsys.readouterr()
    for argv, message in cases:
        assert run(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert tree_bytes(out) == before, argv


def test_run_eval_manifest_names_its_kb_and_rules(tmp_path):
    sched, kb = _chain_kb(tmp_path)
    rules = tmp_path / "rules.txt"
    rules.write_text("rule one\n", "utf-8")
    evaluate = ["run-eval", "--schedule", str(sched), "--gateway", "mock:echo"]
    assert run(["--out", str(tmp_path / "plain"), *evaluate]) == EXIT_OK
    assert run(["--out", str(tmp_path / "kb_rules"), *evaluate, "--kb", str(kb), "--rules", str(rules)]) == EXIT_OK
    common = {"schedule": str(sched), "gateway": "mock:echo", "tasks": "MVP,DA,AP"}
    for name, inputs in (
        ("plain", {**common, "kb": None, "rules": None}),
        ("kb_rules", {**common, "kb": str(kb), "rules": str(rules)}),
    ):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text("utf-8"))
        assert manifest["inputs"] == inputs, name


# sha256 of train-scorer's files on the pairs that `collect-prefs
# --synthesize-negatives` harvests from `run-eval --gateway mock:wrong` on
# `generate --n 100 --seed 42`, so any change to the features, the two
# training phases or the loss log that moves a byte shows here.
SCORER_DIGESTS_N100 = {
    "scorer.bin": "f94ec2213f706907f429f8162064b56c56071077879bda93f2078f01df1995cb",
    "training_log.jsonl": "ecb7b1bbb0f26b9dc331892078e1814f160f2cf477befd81a8f854302bc4d21c",
    "scorer_summary.json": "cb008efe2cab6f3fa0cf2691cec85d00ba849eb9546f8c7669f4eb47f1d9e554",
}


def test_scorer_artifacts_are_pinned(tmp_path, capsys):
    sched = str(tmp_path / "gen" / "schedule.csv")
    prefs = str(tmp_path / "prefs" / "prefs.jsonl")
    runs = (
        ["--out", str(tmp_path / "gen"), "generate", "--n", "100", "--seed", "42"],
        ["--out", str(tmp_path / "eval"), "run-eval", "--schedule", sched, "--gateway", "mock:wrong"],
        [
            "--out", str(tmp_path / "prefs"), "collect-prefs", "--schedule", sched,
            "--instances", str(tmp_path / "eval" / "instances.jsonl"), "--synthesize-negatives",
        ],
        ["--out", str(tmp_path / "s"), "train-scorer", "--prefs-db", prefs],
    )
    for argv in runs:
        assert run(argv) == EXIT_OK
    assert _digests(tmp_path / "s", SCORER_DIGESTS_N100) == SCORER_DIGESTS_N100
    # [loss] has no alpha key, as the context-rule term is 0: a config that
    # still sets alpha is a usage error that leaves the scorer's files.
    ini = tmp_path / "alpha.ini"
    ini.write_text("[loss]\nalpha = 7\n", "utf-8")
    before = tree_bytes(tmp_path / "s")
    capsys.readouterr()
    argv = ["--config", str(ini), "--out", str(tmp_path / "s"), "train-scorer", "--prefs-db", prefs]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {ini}: [loss] alpha: unknown key\n"
    assert tree_bytes(tmp_path / "s") == before


# --- the schedule, read and written as a stream ---------------------------------


@pytest.fixture(scope="module")
def n2000(tmp_path_factory) -> Path:
    """``schedule.csv`` of ``generate --n 2000 --seed 1``, beside its
    ``schedule.jsonl``."""
    out = tmp_path_factory.mktemp("n2000") / "g"
    assert run(["--out", str(out), "generate", "--n", "2000", "--seed", "1"]) == EXIT_OK
    return out / "schedule.csv"


# sha256 of `generate --n 2000 --seed 1`'s schedule files, and of those that
# `ingest` of its schedule.csv writes.
GENERATE_DIGESTS_N2000 = {
    "schedule.csv": "5f36064f9e497aba675ef8544b4d40effe3987f1d567dd94aa299db1da1b2785",
    "schedule.jsonl": "19a00ab9fe0c42d44282fb922641ab63e7fc8295c1494e9ae93cecad47478573",
}
INGEST_DIGESTS_N2000 = {
    "schedule.csv": "5f36064f9e497aba675ef8544b4d40effe3987f1d567dd94aa299db1da1b2785",
    "schedule.jsonl": "5f37f62afbea6f84ccf484f4316cf33c10feda34f62b96313290c55f82c48455",
    "validation.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}


def test_schedule_files_at_n2000_are_pinned(tmp_path, n2000, capsys):
    assert _digests(n2000.parent, GENERATE_DIGESTS_N2000) == GENERATE_DIGESTS_N2000
    assert run(["--out", str(tmp_path / "i"), "ingest", "--schedule", str(n2000)]) == EXIT_OK
    assert _digests(tmp_path / "i", INGEST_DIGESTS_N2000) == INGEST_DIGESTS_N2000


def test_ingest_from_a_pipe_writes_the_tree_of_the_file(tmp_path, n2000, capsys):
    """``--schedule`` is read as a stream and never sought, so ingest of a
    schedule piped to ``/dev/stdin`` prints and writes what ingest of the
    file does, but for the path that its manifest names."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "schedkit.cli", "--out", str(tmp_path / "p"), "ingest", "--schedule", "/dev/stdin"],
        input=n2000.read_bytes(), env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "f"), "ingest", "--schedule", str(n2000)]) == EXIT_OK
    assert proc.stdout.decode() == capsys.readouterr().out
    piped, filed = tree_bytes(tmp_path / "p"), tree_bytes(tmp_path / "f")
    manifest = piped.pop("manifest.json").decode().replace("/dev/stdin", str(n2000))
    assert manifest == filed.pop("manifest.json").decode()
    assert piped == filed


@pytest.mark.parametrize("bad_bytes", [b"\xff", b"\xe2\x82", b"\xef\xbb"])
def test_an_undecodable_byte_at_row_1500_exits_2_naming_the_file(tmp_path, n2000, capsys, bad_bytes):
    """Bytes that are not UTF-8, met while the schedule is read a line at a
    time, are a data error naming the file and their offset in it, in the
    words of a decode of the whole file; nothing is written."""
    lines = n2000.read_bytes().split(b"\n")
    lines[1500] = bad_bytes + lines[1500]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(UnicodeDecodeError) as whole:
        bad.read_bytes().decode("utf-8")
    assert whole.value.start > 100_000
    capsys.readouterr()
    assert run(["--out", str(tmp_path / "o"), "ingest", "--schedule", str(bad)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {bad}: UnicodeDecodeError: {whole.value}\n"
    assert not (tmp_path / "o" / "schedule.csv").exists()


# A CRLF schedule with a quoted cell over two lines, a quoted lone \r and
# a quoted cell holding a blank line.
CRLF_SCHEDULE = (
    b"Activity ID,Activity Name,Activity Status,WBS,Discipline,Level,Area,Zone,"
    b"Current Start,Current Finish,Predecessor Details,Successor Details\r\n"
    b'A1,"Pour\r\nslab",Not Started,P.A,CSA.Struc.Steel,SF,6E,,2024-01-01,2024-01-08,,\r\n'
    b'A2,"Cure\rcheck",Not Started,P.A,CSA.Struc.Steel,SF,6E,"Z\r\n\r\n1",2024-01-08,2024-01-15,A1:FS,\r\n'
    b"A3,Strip,Not Started,P.B,CSA.Struc.Steel,SF,6E,,2024-01-15,2024-01-16,A2:FS+1,\r\n"
)


def test_line_ends_inside_quoted_cells_read_as_newlines(tmp_path, capsys):
    """``--schedule`` is read with its line ends translated, as a read of
    the whole text does: a CRLF or a lone CR inside a quoted cell reads as
    one newline, so the files that ingest writes are those pinned here."""
    src = tmp_path / "crlf.csv"
    src.write_bytes(CRLF_SCHEDULE)
    assert run(["--out", str(tmp_path / "i"), "ingest", "--schedule", str(src)]) == EXIT_OK
    assert (tmp_path / "i" / "schedule.csv").read_bytes() == (
        b"Activity ID,Activity Name,Activity Status,WBS,Discipline,Level,Area,Zone,"
        b"Current Start,Current Finish,Predecessor Details,Successor Details\n"
        b'A1,"Pour\nslab",Not Started,P.A,CSA.Struc.Steel,SF,6E,,2024-01-01,2024-01-08,,A2:FS\n'
        b'A2,"Cure\ncheck",Not Started,P.A,CSA.Struc.Steel,SF,6E,"Z\n\n1",2024-01-08,2024-01-15,A1:FS,A3:FS+1\n'
        b"A3,Strip,Not Started,P.B,CSA.Struc.Steel,SF,6E,,2024-01-15,2024-01-16,A2:FS+1,\n"
    )
    assert _digests(tmp_path / "i", ["schedule.jsonl"]) == {
        "schedule.jsonl": "2dd15392354be0618587484f9150869023524aafb5f5f5eb706f0004516f9cbd"
    }


def test_reading_the_schedule_holds_no_copy_of_its_text(n2000):
    """The schedule is parsed as it is read, a line at a time: at n=2000
    the traced peak of reading it stays under twice the size of the
    schedule it gives (1.8 times on Python 3.11), which reading the whole
    text first, and a StringIO copy of it, exceeded (3.2 times)."""
    import gc
    import tracemalloc

    from schedkit.cli import _read_schedule

    tracemalloc.start()
    try:
        # A full collection also empties the free lists that earlier tests
        # filled, so every tuple the parse keeps is seen allocated.
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sched = _read_schedule(str(n2000))
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(sched.activities) == 2000
    assert peak < 2 * held


def test_writing_the_schedule_holds_no_copy_of_its_text(tmp_path, n2000):
    """``schedule.csv`` and ``schedule.jsonl`` are written one row at a
    time: at n=2000 writing them raises the traced peak by less than a
    quarter of the bytes written, which building each file's text first
    exceeded."""
    import tracemalloc

    from schedkit import streamed
    from schedkit.cli import _read_schedule
    from schedkit.schedule import serialize_records, serialize_schedule

    sched = _read_schedule(str(n2000))

    def write() -> None:
        with streamed(tmp_path / "schedule.csv") as fh:
            serialize_schedule(sched, fh)
        with streamed(tmp_path / "schedule.jsonl") as fh:
            serialize_records(sched, fh)

    write()  # builds the index tables, which the schedule keeps
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    written = sum((tmp_path / name).stat().st_size for name in ("schedule.csv", "schedule.jsonl"))
    assert peak < written / 4
