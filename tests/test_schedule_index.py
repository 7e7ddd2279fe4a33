"""ScheduleIndex-backed lookups against the scan-based definitions they replace.

The reference functions below are the per-call scans over ``schedule.links``
and ``schedule.activities`` that ``canonical_row``, ``sample_hierarchical``,
``render_context`` and ``_synthesize_rejection`` used before the index; the
index-backed versions must return exactly what they return. The rendered
context's pieces, which share each WBS bucket's block, and the prompts
built from them must also escape and count as their joined text does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import rng as prng
from schedkit.cli import main
from schedkit.context import (
    FORWARD,
    ContextBundle,
    SamplerConfig,
    combined_context,
    context_pieces,
    render_context,
    sample_hierarchical,
)
from schedkit.graph import build_graph
from schedkit.gateway import ConstantWrongGateway, TranscriptLog, load_transcript, wire_values
from schedkit.masked_eval import MaskSpec, _synthesize_rejection, evaluate_tasks
from schedkit.schedule import (
    CANONICAL_COLUMNS,
    COL_AREA,
    COL_DISCIPLINE,
    COL_FINISH,
    COL_ID,
    COL_LEVEL,
    COL_NAME,
    COL_PRED,
    COL_START,
    COL_STATUS,
    COL_SUCC,
    COL_WBS,
    COL_ZONE,
    RELATIONS,
    Activity,
    DependencyLink,
    Schedule,
    canonical_row,
    format_dependency,
)

# --- scan-based references ------------------------------------------------------


def ref_canonical_row(schedule: Schedule, activity: Activity) -> dict[str, str]:
    preds = sorted(
        (l for l in schedule.links if l.successor_id == activity.activity_id),
        key=lambda l: (l.predecessor_id, l.relation),
    )
    succs = sorted(
        (l for l in schedule.links if l.predecessor_id == activity.activity_id),
        key=lambda l: (l.successor_id, l.relation),
    )
    row = {
        COL_ID: activity.activity_id,
        COL_NAME: activity.name,
        COL_STATUS: activity.status,
        COL_WBS: ".".join(activity.wbs),
        COL_DISCIPLINE: activity.discipline,
        COL_LEVEL: activity.level,
        COL_AREA: activity.area,
        COL_ZONE: activity.zone or "",
        COL_START: activity.current_start.isoformat(),
        COL_FINISH: activity.current_finish.isoformat(),
        COL_PRED: ";".join(format_dependency(l, endpoint=l.predecessor_id) for l in preds),
        COL_SUCC: ";".join(format_dependency(l, endpoint=l.successor_id) for l in succs),
    }
    for key in sorted(activity.extra_attributes):
        row[key] = activity.extra_attributes[key]
    return row


def ref_sample_hierarchical(schedule: Schedule, target: str, cfg: SamplerConfig) -> frozenset[str]:
    by_id = {a.activity_id: a for a in schedule.activities}
    target_wbs = by_id[target].wbs
    required = max(0, len(target_wbs) - cfg.max_wbs_levels)
    out = set()
    for act in schedule.activities:
        if act.activity_id == target:
            continue
        prefix = 0
        for a, b in zip(act.wbs, target_wbs):
            if a != b:
                break
            prefix += 1
        if prefix >= required:
            out.add(act.activity_id)
    return frozenset(out)


def ref_row_text(index: dict[str, Activity], aid: str, role: str) -> str:
    act = index[aid]
    return (
        f"{aid} | {act.name} | {act.current_start.isoformat()}"
        f" | {act.current_finish.isoformat()} | {role}"
    )


def ref_render_context(bundle: ContextBundle, schedule: Schedule, hierarchical) -> str:
    """The context of ``bundle``, whose HIERARCHICAL ids are ``hierarchical``."""
    index = {a.activity_id: a for a in schedule.activities}
    pred_ids = set()
    succ_ids = set()
    for link in schedule.links:
        if link.successor_id == bundle.target:
            pred_ids.add(link.predecessor_id)
        if link.predecessor_id == bundle.target:
            succ_ids.add(link.successor_id)
    tgt = index[bundle.target]
    target_line = (
        f"TARGET: {bundle.target} | {tgt.name}"
        f" | {tgt.current_start.isoformat()} | {tgt.current_finish.isoformat()}"
    )
    lines = [target_line, f"SEED: {bundle.sampled_at_seed}", "FIRST-ORDER:"]
    for aid in sorted(bundle.first_order):
        if aid in pred_ids and aid in succ_ids:
            role = "predecessor+successor"
        elif aid in pred_ids:
            role = "predecessor"
        else:
            role = "successor"
        lines.append("  " + ref_row_text(index, aid, role))
    lines.append("HIERARCHICAL:")
    for aid in sorted(hierarchical):
        lines.append("  " + ref_row_text(index, aid, "wbs"))
    lines.append("SEQUENTIAL:")
    rendered = []
    for path in bundle.sequential:
        nodes = path.nodes if path.direction == FORWARD else tuple(reversed(path.nodes))
        rendered.append("  " + " -> ".join(nodes))
    lines.extend(sorted(rendered))
    return "\n".join(lines) + "\n"


def ref_synthesize_rejection(schedule: Schedule, mask: MaskSpec, seed: int):
    gen = prng.derive(seed, "corrupt", mask.row_id, mask.task_kind)
    columns = list(mask.masked_columns)
    order = gen.sample(columns, len(columns))
    for col in order:
        truth = mask.ground_truth[col]
        alternatives = sorted(
            {
                ref_canonical_row(schedule, act).get(col, "")
                for act in schedule.activities
                if act.activity_id != mask.row_id
            }
            - {truth, ""}
        )
        if alternatives:
            swapped = dict(mask.ground_truth)
            swapped[col] = alternatives[gen.randint(len(alternatives))]
            return wire_values([swapped[c] for c in mask.masked_columns]), col
    return None


# --- schedules ------------------------------------------------------------------

# Link endpoints may name ids with no activity ("Q"), and ids may repeat.
IDS = ("A", "B", "C", "D", "E", "F", "Q")
EXTRA_KEYS = ("Phase", "Crew", "Zone Note")
SMALL = st.sampled_from(("", "x", "y", "z"))
# Characters that JSON escapes (quote, backslash, control), that the ASCII
# encoding spells as one or two \u escapes, and U+2028, which str.splitlines
# breaks at but str.split does not.
ODD_NAME = 'Pour "A" \\ caf\u00e9 \U0001f600\u2028\x1f'


@st.composite
def activities(draw, aid: str) -> Activity:
    start = date(2024, 1, 1) + timedelta(days=draw(st.integers(0, 3)))
    return Activity(
        activity_id=aid,
        name=draw(st.sampled_from(("Pour", "Erect", "Pour slab", ODD_NAME))),
        status=draw(st.sampled_from(("Not Started", "In Progress", "Completed"))),
        wbs=tuple(draw(st.lists(st.sampled_from(("P", "A", "B")), min_size=1, max_size=4))),
        discipline=draw(st.sampled_from(("CSA.Struc.Steel", "MEP.Proc.HP", ""))),
        level=draw(SMALL),
        area=draw(st.sampled_from(("6E", "9E"))),
        zone=draw(st.sampled_from((None, "Z1", "Z2"))),
        current_start=start,
        current_finish=start + timedelta(days=draw(st.integers(0, 2))),
        extra_attributes=draw(st.dictionaries(st.sampled_from(EXTRA_KEYS), SMALL, max_size=3)),
    )


@st.composite
def schedules(draw) -> Schedule:
    ids = draw(st.lists(st.sampled_from(IDS[:-1]), min_size=1, max_size=7))
    acts = tuple(draw(activities(aid)) for aid in ids)
    # Few endpoints, so pairs repeat with several relations, links run both
    # ways between a pair, and whole links repeat.
    ends = st.sampled_from(("A", "B", "C", "Q"))
    links = draw(
        st.lists(
            st.builds(
                DependencyLink,
                ends,
                ends,
                st.sampled_from(RELATIONS),
                st.integers(-2, 2),
            ),
            max_size=14,
        )
    )
    return Schedule(acts, tuple(links))


COLUMNS = CANONICAL_COLUMNS + EXTRA_KEYS + ("Absent",)


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_canonical_row_matches_link_scan(sched):
    for act in sched.activities:
        # Same cells in the same column order.
        assert list(canonical_row(sched, act).items()) == list(
            ref_canonical_row(sched, act).items()
        )
    day = date(2024, 1, 1)
    stranger = Activity("Q", "Q", "Completed", ("P",), "", "", "", None, day, day)
    assert canonical_row(sched, stranger) == ref_canonical_row(sched, stranger)
    # ``rows`` holds each id's row, in its column order; the last activity
    # with an id wins.
    last = {a.activity_id: a for a in sched.activities}
    assert {aid: list(row.items()) for aid, row in sched.index.rows.items()} == {
        aid: list(ref_canonical_row(sched, a).items()) for aid, a in last.items()
    }


@settings(max_examples=100, deadline=None)
@given(schedules(), st.integers(0, 4), st.data())
def test_sample_hierarchical_matches_activity_scan(sched, levels, data):
    cfg = SamplerConfig(max_wbs_levels=levels)
    target = data.draw(st.sampled_from([a.activity_id for a in sched.activities]))
    assert sample_hierarchical(sched, target, cfg) == ref_sample_hierarchical(sched, target, cfg)


@settings(max_examples=50, deadline=None)
@given(schedules(), st.integers(0, 4))
def test_wbs_buckets_hold_only_the_depths_sampling_asks_for(sched, levels):
    cfg = SamplerConfig(max_wbs_levels=levels)
    for act in sched.activities:
        sample_hierarchical(sched, act.activity_id, cfg)
    # A repeated id samples from its last activity, as ``by_id`` holds it.
    asked = {max(0, len(a.wbs) - levels) for a in sched.index.by_id.values()}
    assert {k for k, _ in sched.index.wbs_buckets} == asked


@st.composite
def graph_schedules(draw) -> Schedule:
    """A schedule that ``build_graph`` accepts: unique ids, every discipline
    set, and links between its activities with no self-loop or repeat."""
    ids = draw(st.lists(st.sampled_from(IDS[:-1]), min_size=1, max_size=6, unique=True))
    acts = tuple(draw(activities(aid).filter(lambda a: a.discipline)) for aid in ids)
    ends = st.sampled_from(ids)
    drawn = draw(
        st.lists(
            st.builds(DependencyLink, ends, ends, st.sampled_from(RELATIONS), st.integers(-2, 2)),
            max_size=10,
        )
    )
    links = {}
    for link in drawn:
        if link.predecessor_id != link.successor_id:
            links.setdefault((link.predecessor_id, link.successor_id, link.relation), link)
    return Schedule(acts, tuple(links.values()))


def draw_bundle(sched: Schedule, data) -> tuple[ContextBundle, frozenset[str]]:
    """A bundle that ``combined_context`` samples from ``sched``, and its
    HIERARCHICAL ids as the activity scan finds them."""
    cfg = SamplerConfig(
        max_sequential_hops=data.draw(st.integers(0, 4)),
        max_wbs_levels=data.draw(st.integers(0, 4)),
        paths_per_direction=data.draw(st.integers(0, 3)),
        rng_seed=data.draw(st.integers(0, 99)),
    )
    target = data.draw(st.sampled_from([a.activity_id for a in sched.activities]))
    bundle = combined_context(build_graph(sched), sched, target, cfg)
    return bundle, ref_sample_hierarchical(sched, target, cfg)


@settings(max_examples=200, deadline=None)
@given(graph_schedules(), st.data())
def test_render_context_matches_link_scan(sched, data):
    bundle, hierarchical = draw_bundle(sched, data)
    expected = ref_render_context(bundle, sched, hierarchical)
    assert render_context(bundle, sched) == expected
    pieces = context_pieces(bundle, sched)
    assert all(p.endswith("\n") for p in (pieces.head, pieces.block.text, pieces.tail) if p)
    assert "".join(pieces.escaped()) == json.dumps(expected)[1:-1]
    assert pieces.tokens() == len(expected.split())
    assert pieces.size() == len(expected)


@settings(max_examples=100, deadline=None)
@given(graph_schedules(), st.data())
def test_prompts_from_context_pieces_match_the_joined_text(sched, data):
    """Every task kind's prompt, put together from its context's pieces,
    has the JSON encoding and token count of its whole text."""
    pieces = context_pieces(draw_bundle(sched, data)[0], sched)
    if data.draw(st.booleans()):  # a head that holds every escape case
        pieces = dataclasses.replace(pieces, head=f"{ODD_NAME} knowledge\n{pieces.head}")
    if data.draw(st.booleans()):  # as run-eval --kb leads the context
        knowledge = data.draw(st.lists(st.sampled_from([f"{ODD_NAME} term: its definition", "", "chunk\n"])))
        pieces = dataclasses.replace(pieces, knowledge=tuple(knowledge))
    assert pieces.size() == len(pieces.text())
    row_id = data.draw(st.sampled_from(sorted(sched.index.by_id)))
    columns = (COL_STATUS, COL_START, "Phase")
    tasks = [
        MaskSpec(row_id, kind, columns, dict.fromkeys(columns, "x"))
        for kind in ("MVP", "DA", "AP")
    ]
    instances = []
    with tempfile.TemporaryDirectory() as tmp:
        with TranscriptLog(Path(tmp) / "t.jsonl") as log:
            evaluate_tasks(
                sched, tasks, ConstantWrongGateway(), transcript=log, rules=f"rule {ODD_NAME}",
                context_provider=lambda rid: pieces, sink=instances.append,
            )
        records = list(load_transcript(Path(tmp) / "t.jsonl"))
    assert [i.mask for i in instances] == tasks
    assert len(records) == len(tasks)
    for inst, rec in zip(instances, records):
        assert pieces.text() in inst.prompt_user
        assert inst.prompt_user_json == json.dumps(inst.prompt_user)
        assert rec["user_text"] == inst.prompt_user
        assert rec["prompt_tokens"] == len(inst.prompt_system.split()) + len(inst.prompt_user.split())


@settings(max_examples=150, deadline=None)
@given(schedules(), st.data())
def test_synthesize_rejection_matches_row_scan(sched, data):
    # The row may be absent from the schedule, and the ground truth may
    # differ from the schedule's own cell.
    row_id = data.draw(st.sampled_from(IDS))
    columns = tuple(
        data.draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True))
    )
    own = {a.activity_id: a for a in sched.activities}.get(row_id)
    truth = {}
    for col in columns:
        cell = ref_canonical_row(sched, own).get(col, "") if own else ""
        truth[col] = data.draw(st.sampled_from((cell, "x", "Pour", "2024-01-02", "")))
    mask = MaskSpec(row_id, data.draw(st.sampled_from(("MVP", "DA", "AP"))), columns, truth)
    seed = data.draw(st.integers(0, 50))
    assert _synthesize_rejection(sched, mask, seed) == ref_synthesize_rejection(sched, mask, seed)


# --- artifact pins --------------------------------------------------------------

# sha256 of CLI artifacts at n=60 (generate --seed 7), computed with the
# scan-based implementation before the index existed.
PINS = {
    "ctx/contexts.txt": "0b7c3e418cfd0a0faa37e4c99990066c15a3a2d06c604ad684bc5f1c736c3492",
    "eval/instances.jsonl": "aa1a7d4df84e24695815166545bc055c9fb58ef9246fb333495305bc5347fd89",
    "prefs/prefs.jsonl": "25ee00b2caeef7e21fae5deb5ab84b2c26b193f0f5af231de1d5d84a87706d93",
}


def test_n60_artifacts_pinned(tmp_path, capsys):
    sched = str(tmp_path / "gen" / "schedule.csv")
    runs = (
        ["--out", str(tmp_path / "gen"), "generate", "--n", "60", "--seed", "7"],
        ["--out", str(tmp_path / "ctx"), "sample-context", "--schedule", sched],
        ["--out", str(tmp_path / "eval"), "run-eval", "--schedule", sched, "--gateway", "mock:echo"],
        [
            "--out", str(tmp_path / "prefs"), "collect-prefs", "--schedule", sched,
            "--instances", str(tmp_path / "eval" / "instances.jsonl"), "--synthesize-negatives",
        ],
    )
    for argv in runs:
        assert main(argv) == 0
    digests = {
        rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in PINS
    }
    assert digests == PINS
