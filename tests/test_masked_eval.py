from __future__ import annotations

import io
import json
import tempfile
from dataclasses import asdict, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit.gateway import (
    ConstantWrongGateway,
    EchoOracleGateway,
    ScriptedTranscriptGateway,
    load_transcript,
    wire_values,
)
from schedkit.masked_eval import (
    CorruptRecordError,
    EvalError,
    EvalInstance,
    MaskSpec,
    PreferenceRecord,
    ScoreReport,
    TASK_KINDS,
    TooFewColumnsError,
    build_report,
    canonical_date,
    collect_preferences,
    evaluate_tasks,
    load_instances,
    make_mask_tasks,
    maskable_columns,
    parse_values,
    preference_store_append,
    preference_store_load,
    render_masked_row,
    save_instances,
    score_cell,
)
from schedkit.schedule import DependencyLink, Schedule

from conftest import check_read_back, make_activity


def rich_schedule(n=100) -> Schedule:
    acts = tuple(
        make_activity(
            f"A{i:02d}",
            zone=f"Z{i % 3}",
            discipline=("CSA.Struc.Steel", "MEP.Proc.Waste", "CSA.Civil.Earthwork")[i % 3],
            level=("EQ", "UL", "SF", "RF")[i % 4],
            area=("6E", "9E", "SU")[i % 3],
            extra={
                "Project Phase": f"Phase {i % 2 + 1}",
                "Subcontractor": f"SUB-{i % 4}",
                "Superintendent": f"SUP-{i % 5}",
            },
        )
        for i in range(n)
    )
    return Schedule(acts, ())


def sampled_contexts(schedule: Schedule) -> dict:
    """Each activity's context pieces, sampled as run-eval samples them."""
    from schedkit.context import SamplerConfig, combined_context, context_pieces
    from schedkit.graph import build_graph

    g = build_graph(schedule)
    cfg = SamplerConfig()
    return {
        a.activity_id: context_pieces(combined_context(g, schedule, a.activity_id, cfg), schedule)
        for a in schedule.activities
    }


def truth_table(schedule: Schedule) -> dict[str, dict[str, str]]:
    from schedkit.schedule import canonical_row

    return {
        a.activity_id: canonical_row(schedule, a) for a in schedule.activities
    }


# --- independent PRNG oracle (recoded from the documented algorithm) ------------

_M64 = (1 << 64) - 1


def _oracle_splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _oracle_fnv(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _M64
    return h


class _OracleRng:
    def __init__(self, seed, *tokens):
        state = seed & _M64
        for tok in tokens:
            state = (state ^ _oracle_fnv(tok.encode())) & _M64
            state, _ = _oracle_splitmix(state)
        self.state = state

    def next_u64(self):
        self.state, out = _oracle_splitmix(self.state)
        return out

    def randint(self, n):
        limit = _M64 - (_M64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def sample3(self, pool):
        pool = list(pool)
        out = []
        for _ in range(3):
            out.append(pool.pop(self.randint(len(pool))))
        return tuple(out)


# --- mask generation -------------------------------------------------------------


def test_mvp_forced_when_exactly_three_columns():
    acts = (make_activity("A1"),)  # status, wbs, discipline, level, area, 2 dates
    sched = Schedule(acts, ())
    pool = maskable_columns(sched.index.rows["A1"])
    assert len(pool) == 7  # sanity for this fixture
    tasks = list(make_mask_tasks(sched, "MVP"))
    assert len(tasks[0].masked_columns) == 3


def test_mvp_exactly_three_columns_forced():
    act = make_activity("A1")
    bare = act.__class__(
        activity_id="A1",
        name="t",
        status="",
        wbs=("P",),
        discipline="",
        level="",
        area="",
        zone=None,
        current_start=act.current_start,
        current_finish=act.current_finish,
        extra_attributes={},
    )
    sched = Schedule((bare,), ())
    pool = maskable_columns(sched.index.rows["A1"])
    assert sorted(pool) == ["Current Finish", "Current Start", "WBS"]
    for seed in (1, 42, 99):
        task = list(make_mask_tasks(sched, "MVP", seed=seed))[0]
        assert sorted(task.masked_columns) == sorted(pool)


def test_mvp_too_few_columns():
    act = make_activity("A1")
    # Valid activities always keep WBS plus both dates, so the guard only
    # trips on malformed rows; build one with everything else blanked.
    slim = act.__class__(
        activity_id="A1",
        name="t",
        status="",
        wbs=(),
        discipline="",
        level="",
        area="",
        zone=None,
        current_start=act.current_start,
        current_finish=act.current_start,
        extra_attributes={},
    )
    sched = Schedule((slim,), ())
    with pytest.raises(TooFewColumnsError):
        make_mask_tasks(sched, "MVP")


def test_ap_masks_exactly_the_date_columns():
    sched = rich_schedule(5)
    for task in make_mask_tasks(sched, "AP"):
        assert task.masked_columns == ("Current Start", "Current Finish")


def test_da_masks_the_four_relational_columns():
    sched = rich_schedule(5)
    for task in make_mask_tasks(sched, "DA"):
        assert task.masked_columns == (
            "Activity Status",
            "Level",
            "Area",
            "Discipline",
        )


def test_mvp_masks_match_independent_prng_oracle():
    sched = rich_schedule(100)
    tasks = make_mask_tasks(sched, "MVP", seed=42)
    for task in tasks:
        pool = maskable_columns(sched.index.rows[task.row_id])
        expected = _OracleRng(42, "mask", task.row_id).sample3(pool)
        assert task.masked_columns == expected


def test_mvp_masks_frozen_fixture():
    # Frozen from the seed-42 oracle run over the 100-row rich schedule.
    sched = rich_schedule(100)
    tasks = {t.row_id: t.masked_columns for t in make_mask_tasks(sched, "MVP", seed=42)}
    assert tasks["A00"] == ("Zone", "Project Phase", "Activity Status")
    assert tasks["A01"] == ("Superintendent", "Area", "Current Finish")
    assert tasks["A02"] == ("Superintendent", "Discipline", "Zone")
    assert tasks["A03"] == ("Zone", "Current Start", "Area")


def test_mvp_masks_deterministic_across_runs():
    sched = rich_schedule(100)
    a = list(make_mask_tasks(sched, "MVP", seed=42))
    b = list(make_mask_tasks(sched, "MVP", seed=42))
    assert a == b


def test_masked_row_hides_truth_and_lists_columns():
    sched = rich_schedule(3)
    task = list(make_mask_tasks(sched, "AP"))[0]
    text = render_masked_row(sched, task)
    assert "Current Start: [MASKED]" in text
    assert "Current Finish: [MASKED]" in text
    assert "2024-01-01" not in text
    assert text.endswith("Missing columns: Current Start, Current Finish")


# --- parsing ----------------------------------------------------------------------


def test_parse_three_values():
    c = parse_values("[Value]X[/Value],[Value]Y[/Value],[Value]Z[/Value]", 3)
    assert c.parse_ok
    assert c.parsed_cells == (("X",), ("Y",), ("Z",))


def test_parse_ranked_candidates_with_noise():
    c = parse_values("noise [Value]A|B[/Value] noise", 1, k=2)
    assert c.parse_ok
    assert c.parsed_cells == (("A", "B"),)


def test_parse_arity_mismatch_keeps_cells():
    c = parse_values("[Value]A[/Value],[Value]B[/Value]", 3)
    assert not c.parse_ok
    assert c.parsed_cells == (("A",), ("B",))


def test_parse_truncates_to_k():
    c = parse_values("[Value]a|b|c[/Value]", 1, k=2)
    assert c.parsed_cells == (("a", "b"),)


# --- scoring ----------------------------------------------------------------------


def test_score_exact():
    assert score_cell(["SF"], "SF")


def test_score_second_candidate_counts():
    assert score_cell(["UL", "SF"], "SF")
    assert not score_cell(["UL", "RF"], "SF")


def test_score_date_canonicalization():
    assert score_cell(["2024-1-5"], "2024-01-05", kind="date")
    assert score_cell(["2024/01/05"], "2024-01-05", kind="date")
    assert not score_cell(["2024-01-06"], "2024-01-05", kind="date")


def test_score_whitespace_and_case_folding():
    assert score_cell(["  not   started "], "Not Started")


def test_canonical_date_rejects_impossible():
    assert canonical_date("2024-02-31") is None
    assert canonical_date("yesterday") is None


# --- end-to-end scoring ------------------------------------------------------------


def all_tasks(sched):
    return (
        list(make_mask_tasks(sched, "MVP"))
        + list(make_mask_tasks(sched, "DA"))
        + list(make_mask_tasks(sched, "AP"))
    )


def test_echo_oracle_scores_100():
    sched = rich_schedule(12)
    gateway = EchoOracleGateway(truth_table(sched))
    report = evaluate_tasks(sched, all_tasks(sched), gateway)
    for kind in ("MVP", "DA", "AP"):
        assert report.accuracy(kind) == 100.0
        assert report.accuracy(kind, "rows") == 100.0


def test_constant_wrong_scores_0():
    sched = rich_schedule(12)
    report = evaluate_tasks(sched, all_tasks(sched), ConstantWrongGateway())
    for kind in ("MVP", "DA", "AP"):
        assert report.accuracy(kind) == 0.0


def test_half_correct_mock_scores_exactly_50():
    sched = rich_schedule(10)
    table = truth_table(sched)
    # AP masks 2 cells/row; corrupting one per row plants exactly 50%.
    for rid in table:
        table[rid] = dict(table[rid])
        table[rid]["Current Start"] = "1999-01-01"
    report = evaluate_tasks(sched, make_mask_tasks(sched, "AP"), EchoOracleGateway(table))
    assert report.accuracy("AP") == 50.0


def test_group_weighted_averages_reproduce_overall():
    sched = rich_schedule(30)
    table = truth_table(sched)
    for i, rid in enumerate(sorted(table)):
        if i % 3 == 0:
            table[rid] = dict(table[rid])
            table[rid]["Level"] = "__WRONG__"
    report = evaluate_tasks(sched, make_mask_tasks(sched, "DA"), EchoOracleGateway(table))
    overall = report.per_task["DA"]
    for dim, groups in report.group_breakdowns.items():
        weighted = sum(
            s["DA"].accuracy() * s["DA"].cells_total for s in groups.values()
        )
        assert weighted / overall.cells_total == pytest.approx(
            overall.accuracy(), abs=1e-9
        ), dim
        assert sum(s["DA"].cells_total for s in groups.values()) == overall.cells_total


def test_report_serialization_deterministic():
    sched = rich_schedule(8)
    gateway_a = EchoOracleGateway(truth_table(sched))
    gateway_b = EchoOracleGateway(truth_table(sched))
    a = evaluate_tasks(sched, all_tasks(sched), gateway_a).to_json()
    b = evaluate_tasks(sched, all_tasks(sched), gateway_b).to_json()
    assert a == b


def test_record_then_replay_reproduces_report(tmp_path):
    from schedkit.gateway import TranscriptLog

    sched = rich_schedule(10)
    table = truth_table(sched)
    table["A04"] = dict(table["A04"])
    table["A04"]["Level"] = "__OFF__"
    tasks = list(make_mask_tasks(sched, "DA"))
    with TranscriptLog(tmp_path / "live.jsonl") as log:
        live_report = evaluate_tasks(sched, tasks, EchoOracleGateway(table), transcript=log).to_json()

    replay = ScriptedTranscriptGateway(load_transcript(tmp_path / "live.jsonl"))
    replay_report = evaluate_tasks(sched, tasks, replay).to_json()
    assert replay_report == live_report


def test_gateway_failures_flag_partial_report():
    sched = rich_schedule(6)
    table = truth_table(sched)
    del table["A03"]  # EchoOracle errors on the missing row
    instances = []
    report = evaluate_tasks(
        sched, make_mask_tasks(sched, "AP"), EchoOracleGateway(table), sink=instances.append
    )
    assert report.complete is False
    assert sum(inst.error is not None for inst in instances) == 1
    # The surviving rows still scored.
    assert report.per_task["AP"].cells_total == 12


def test_failed_instance_outside_schedule_flags_incomplete():
    sched = rich_schedule(2)
    stray = MaskSpec("GONE", "AP", ("Current Start",), {"Current Start": "2024-01-01"})
    failed = EvalInstance(stray, "", "", None, False, (False,), error="GatewayError: down")
    report = build_report(sched, [failed])
    assert report.complete is False
    assert report.per_task["AP"].cells_total == 1


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_build_report_ignores_instance_order(rand):
    sched = rich_schedule(12)
    table = truth_table(sched)
    del table["A03"]
    for rid in ("A01", "A07"):
        table[rid] = dict(table[rid], Level="__WRONG__")
    instances = []
    evaluate_tasks(sched, all_tasks(sched), EchoOracleGateway(table), sink=instances.append)
    stray = MaskSpec("GONE", "AP", ("Current Start",), {"Current Start": "2024-01-01"})
    instances.append(EvalInstance(stray, "", "", None, False, (False,), error="GatewayError: down"))
    shuffled = list(instances)
    rand.shuffle(shuffled)
    expected = build_report(sched, instances)
    got = build_report(sched, shuffled)
    assert got == expected
    assert got.to_json() == expected.to_json()
    assert got.render_table() == expected.render_table()


def test_score_report_json_round_trip():
    sched = rich_schedule(6)
    table = truth_table(sched)
    del table["A03"]
    instances = []
    evaluate_tasks(
        sched, make_mask_tasks(sched, "DA"), EchoOracleGateway(table),
        sink=instances.append,
    )
    report = build_report(sched, instances)
    assert not report.complete
    again = ScoreReport.from_json(report.to_json())
    assert again == report
    assert again.render_table() == report.render_table()


def test_render_table_one_decimal():
    sched = rich_schedule(6)
    report = evaluate_tasks(sched, make_mask_tasks(sched, "AP"), EchoOracleGateway(truth_table(sched)))
    table = report.render_table()
    assert "overall | 100.0" in table
    assert "discipline=CSA.Struc.Steel" in table
    assert "level=EQ" in table
    assert "area=6E" in table


# --- preference collection -----------------------------------------------------------


def test_wrong_completion_pairs_against_truth():
    sched = rich_schedule(6)
    tasks = make_mask_tasks(sched, "AP")
    table = truth_table(sched)
    table["A01"] = dict(table["A01"])
    table["A01"]["Current Start"] = "1999-01-01"
    instances = []
    evaluate_tasks(sched, tasks, EchoOracleGateway(table), sink=instances.append)
    records = list(collect_preferences(sched, instances))
    assert len(records) == 1
    rec = records[0]
    assert rec.row_id == "A01"
    assert "1999-01-01" in rec.rejected_text
    assert rec.chosen_text == wire_values(["2024-01-01", "2024-01-08"])
    assert rec.chosen_text != rec.rejected_text
    assert rec.context_length_tokens > 0


def test_correct_instances_emit_nothing_without_synthesis():
    sched = rich_schedule(5)
    instances = []
    evaluate_tasks(
        sched, make_mask_tasks(sched, "AP"), EchoOracleGateway(truth_table(sched)),
        sink=instances.append,
    )
    assert list(collect_preferences(sched, instances)) == []


def test_synthetic_negatives_flagged():
    sched = rich_schedule(5)
    instances = []
    evaluate_tasks(
        sched, make_mask_tasks(sched, "DA"), EchoOracleGateway(truth_table(sched)),
        sink=instances.append,
    )
    records = list(collect_preferences(sched, instances, synthesize_negatives=True))
    assert len(records) == 5
    for rec in records:
        assert rec.meta["synthetic_negative"] is True
        assert rec.chosen_text != rec.rejected_text


def test_forty_wrong_of_hundred_yields_forty_records():
    sched = rich_schedule(100)
    table = truth_table(sched)
    wrong_rows = {f"A{i:02d}" for i in range(40)}
    for rid in wrong_rows:
        table[rid] = dict(table[rid])
        table[rid]["Current Finish"] = "1999-12-31"
    instances = []
    evaluate_tasks(
        sched, make_mask_tasks(sched, "AP"), EchoOracleGateway(table),
        sink=instances.append,
    )
    records = list(collect_preferences(sched, instances))
    assert len(records) == 40
    assert {r.row_id for r in records} == wrong_rows
    # Count audit against the score report.
    report = build_report(sched, instances)
    assert report.per_task["AP"].rows_total - report.per_task["AP"].rows_correct == 40


def test_every_chosen_reparses_correct():
    from schedkit.masked_eval import parse_values as pv, score_completion

    sched = rich_schedule(20)
    instances = []
    evaluate_tasks(
        sched, make_mask_tasks(sched, "MVP"), ConstantWrongGateway(),
        sink=instances.append,
    )
    for rec in collect_preferences(sched, instances):
        mask = next(
            i.mask
            for i in instances
            if i.mask.row_id == rec.row_id and i.mask.task_kind == rec.task_kind
        )
        completion = pv(rec.chosen_text, len(mask.masked_columns))
        assert completion.parse_ok
        assert all(score_completion(mask, completion))


# --- persistence ------------------------------------------------------------------


def test_preference_store_round_trip(tmp_path):
    path = tmp_path / "prefs.jsonl"
    recs = [
        PreferenceRecord(f"prompt {i}", "[Value]a[/Value]", "[Value]b[/Value]", "AP", f"A{i}", 10 + i)
        for i in range(3)
    ]
    assert preference_store_append(path, recs) == 3
    assert list(preference_store_load(path)) == recs


def test_preference_store_empty_file(tmp_path):
    path = tmp_path / "prefs.jsonl"
    path.write_text("", "utf-8")
    assert list(preference_store_load(path)) == []


def test_preference_store_corrupt_line(tmp_path):
    path = tmp_path / "prefs.jsonl"
    rec = PreferenceRecord("p", "c", "r", "AP", "A1", 5)
    preference_store_append(path, [rec])
    path.write_text(path.read_text("utf-8") + "{broken\n", "utf-8")
    with pytest.raises(CorruptRecordError) as err:
        list(preference_store_load(path))
    assert str(err.value).startswith(f"{path}:2: JSONDecodeError:")


def test_preference_store_large_round_trip_hash(tmp_path):
    import hashlib

    path = tmp_path / "prefs.jsonl"
    preference_store_append(
        path,
        (PreferenceRecord(f"p{i}", f"c{i}", f"r{i}", "MVP", f"A{i}", i % 97) for i in range(10_000)),
    )
    loaded = preference_store_load(path)
    assert len(loaded) == 10_000
    digest_in = hashlib.sha256(
        "".join(json.dumps(asdict(r), sort_keys=True) for r in loaded).encode()
    ).hexdigest()
    rewritten = tmp_path / "rewrite.jsonl"
    preference_store_append(rewritten, loaded)
    digest_out = hashlib.sha256(
        "".join(
            json.dumps(asdict(r), sort_keys=True)
            for r in preference_store_load(rewritten)
        ).encode()
    ).hexdigest()
    assert digest_in == digest_out


def test_instances_round_trip(tmp_path):
    sched = rich_schedule(4)
    instances = []
    evaluate_tasks(
        sched, make_mask_tasks(sched, "DA"), ConstantWrongGateway(),
        sink=instances.append,
    )
    with open(tmp_path / "inst.jsonl", "w", encoding="utf-8") as fh:
        save_instances(fh, instances)
    assert list(load_instances(tmp_path / "inst.jsonl")) == instances


def instance_record(inst: EvalInstance) -> dict:
    """The JSON object of an instance's line, built here field by field."""
    return {
        "row_id": inst.mask.row_id,
        "task_kind": inst.mask.task_kind,
        "masked_columns": list(inst.mask.masked_columns),
        "ground_truth": inst.mask.ground_truth,
        "prompt_system": inst.prompt_system,
        "prompt_user": inst.prompt_user,
        "response_text": inst.response_text,
        "parse_ok": inst.parse_ok,
        "cells_correct": list(inst.cells_correct),
        "error": inst.error,
    }


# Arbitrary Unicode with JSON's escape cases drawn often.
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f é😀\n\t')))


@st.composite
def masks(draw) -> MaskSpec:
    """A mask of an evaluation task whose ground truth has text for every
    masked column, and maybe for other columns too."""
    columns = tuple(draw(st.lists(TEXT, max_size=4)))
    truth = draw(st.dictionaries(TEXT, TEXT, max_size=2)) | {c: draw(TEXT) for c in columns}
    return MaskSpec(draw(TEXT), draw(st.sampled_from(TASK_KINDS)), columns, truth)


INSTANCE = st.builds(
    EvalInstance,
    mask=masks(),
    prompt_system=TEXT,
    prompt_user=TEXT,
    response_text=st.none() | TEXT,
    parse_ok=st.booleans(),
    cells_correct=st.lists(st.booleans(), max_size=4).map(tuple),
    error=st.none() | TEXT,
)


@settings(max_examples=200, deadline=None)
@given(INSTANCE, st.booleans())
def test_streamed_instance_line_is_exact(inst, pre_encoded):
    """``save_instances`` writes ``json.dumps`` of the instance's record
    with sorted keys, with or without the prompt's encoding given, and
    ``load_instances`` reads that line back to an equal instance."""
    if pre_encoded:
        inst.prompt_user_json = encode_basestring_ascii(inst.prompt_user)
    buf = io.StringIO()
    save_instances(buf, [inst])
    assert buf.getvalue() == json.dumps(instance_record(inst), sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instances.jsonl"
        path.write_text(buf.getvalue(), "utf-8")
        check_read_back(
            lambda p: list(load_instances(p)), path, [instance_record(inst)], [inst], CorruptRecordError
        )


def test_sink_streams_the_lines_save_instances_writes():
    sched = rich_schedule(12)
    tasks = [t for kind in ("MVP", "DA", "AP") for t in make_mask_tasks(sched, kind)]
    table = truth_table(sched)
    del table["A03"]  # one row fails at the gateway
    kwargs = dict(rules="r", context_provider=sampled_contexts(sched).__getitem__)

    streamed = io.StringIO()
    instances = []

    def sink(inst):
        assert inst.prompt_user_json == encode_basestring_ascii(inst.prompt_user)
        instances.append(inst)
        save_instances(streamed, (inst,))

    gateway = EchoOracleGateway(table)
    report = evaluate_tasks(sched, tasks, gateway, sink=sink, **kwargs)
    assert streamed.getvalue() == "".join(
        json.dumps(instance_record(i), sort_keys=True) + "\n" for i in instances
    )
    assert [i.mask for i in instances] == tasks
    assert sum(i.error is not None for i in instances) == 3
    assert report == build_report(sched, instances)
    assert report.complete is False
    # Without a sink the same report comes back.
    assert evaluate_tasks(sched, tasks, gateway, **kwargs) == report


def test_transcript_token_counts_equal_whole_prompt_split(tmp_path):
    chain = tuple(DependencyLink(f"A{i:02d}", f"A{i + 1:02d}") for i in range(5))
    sched = replace(rich_schedule(6), links=chain)
    tasks = [t for kind in ("MVP", "DA", "AP") for t in make_mask_tasks(sched, kind)]
    from schedkit.gateway import TranscriptLog

    with TranscriptLog(tmp_path / "t.jsonl") as log:
        evaluate_tasks(
            sched, tasks, ConstantWrongGateway(), transcript=log, rules="rule one\nrule two",
            context_provider=sampled_contexts(sched).__getitem__,
        )
    records = list(load_transcript(tmp_path / "t.jsonl"))
    assert len(records) == len(tasks)
    for rec in records:
        assert rec["prompt_tokens"] == len(rec["system_text"].split()) + len(
            rec["user_text"].split()
        )


def test_a_mask_of_no_evaluation_task_cannot_be_built():
    """A mask of a kind that is no evaluation task fails when it is built,
    so ``evaluate_tasks`` never sees one; ``make_mask_tasks`` rejects such a
    kind when it is called, before any mask is made."""
    sched = rich_schedule(3)
    task = next(make_mask_tasks(sched, "DA"))
    for kind in ("Polish", "da", "", "../x"):
        with pytest.raises(EvalError, match=f"unknown task kind {kind!r}"):
            replace(task, task_kind=kind)
        with pytest.raises(EvalError, match=f"unknown task kind {kind!r}"):
            make_mask_tasks(sched, kind)
