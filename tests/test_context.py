from __future__ import annotations

import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit.context import (
    BACKWARD,
    FORWARD,
    ContextBundle,
    SamplerConfig,
    SequentialPath,
    combined_context,
    first_order,
    render_context,
    sample_hierarchical,
    sample_sequential,
    serialize_bundle,
)
from schedkit.graph import UnknownNodeError, build_graph
from schedkit.schedule import DependencyLink, Schedule

from conftest import make_activity
from test_graph import random_dag, sched_with_links


def bfs_within(pairs, start, hops, direction):
    """Oracle: nodes reachable from start within `hops` directed steps."""
    nbrs: dict[str, list[str]] = {}
    for u, v in pairs:
        a, b = (u, v) if direction == FORWARD else (v, u)
        nbrs.setdefault(a, []).append(b)
    dist = {start: 0}
    q = deque([start])
    while q:
        node = q.popleft()
        if dist[node] == hops:
            continue
        for nxt in nbrs.get(node, []):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                q.append(nxt)
    return set(dist)


def wbs_prefix_filter(schedule, target, levels):
    """Oracle: brute-force shared-prefix scan over all activities."""
    by_id = schedule.by_id()
    twbs = by_id[target].wbs
    need = max(0, len(twbs) - levels)
    keep = set()
    for act in schedule.activities:
        if act.activity_id == target:
            continue
        shared = 0
        while (
            shared < min(len(act.wbs), len(twbs)) and act.wbs[shared] == twbs[shared]
        ):
            shared += 1
        if shared >= need:
            keep.add(act.activity_id)
    return keep


# --- first order --------------------------------------------------------------


def test_first_order_isolated():
    g = build_graph(sched_with_links(["A"], []))
    assert first_order(g, "A") == frozenset()


def test_first_order_chain_middle(chain):
    g = build_graph(chain)
    assert first_order(g, "B") == {"A", "C"}


def test_first_order_diamond_source():
    g = build_graph(
        sched_with_links(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    )
    assert first_order(g, "A") == {"B", "C"}


def test_first_order_equals_raw_edge_scan():
    for seed in range(5):
        ids, pairs = random_dag(seed, 30, edge_prob=0.1)
        g = build_graph(sched_with_links(ids, pairs))
        for target in ids:
            expect = {v for u, v in pairs if u == target} | {
                u for u, v in pairs if v == target
            }
            assert first_order(g, target) == expect


def test_first_order_unknown_node(chain):
    with pytest.raises(UnknownNodeError):
        first_order(build_graph(chain), "missing")


# --- sequential ---------------------------------------------------------------


def test_sampler_config_caps():
    with pytest.raises(ValueError):
        SamplerConfig(max_sequential_hops=17)
    with pytest.raises(ValueError):
        SamplerConfig(paths_per_direction=-1)


def test_sequential_isolated_empty():
    g = build_graph(sched_with_links(["A"], []))
    assert sample_sequential(g, "A", SamplerConfig()) == frozenset()


def test_sequential_long_chain_prefix_and_hop_cap():
    ids = ["A", "B", "C", "D", "E"]
    pairs = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")]
    g = build_graph(sched_with_links(ids, pairs))
    paths = sample_sequential(g, "A", SamplerConfig(max_sequential_hops=3))
    assert paths  # the single forward walk exists
    for p in paths:
        assert p.direction == FORWARD
        assert p.nodes == tuple(["A", "B", "C", "D"][: len(p.nodes)])
        assert "E" not in p.nodes


def test_sequential_hop_bound_against_bfs_oracle():
    cfg = SamplerConfig(max_sequential_hops=3, paths_per_direction=5)
    for seed in range(20):
        ids, pairs = random_dag(seed, 50, edge_prob=0.08)
        g = build_graph(sched_with_links(ids, pairs))
        for target in ids[::7]:
            paths = sample_sequential(g, target, cfg)
            for p in paths:
                reachable = bfs_within(pairs, target, 3, p.direction)
                assert set(p.nodes) <= reachable, (seed, target, p)


def test_sequential_paths_are_simple():
    for seed in range(10):
        ids, pairs = random_dag(seed, 40, edge_prob=0.12)
        g = build_graph(sched_with_links(ids, pairs))
        for target in ids[::5]:
            for p in sample_sequential(g, target, SamplerConfig()):
                assert len(set(p.nodes)) == len(p.nodes)
                assert p.nodes[0] == target


def test_sequential_deterministic():
    ids, pairs = random_dag(3, 50, edge_prob=0.1)
    g = build_graph(sched_with_links(ids, pairs))
    cfg = SamplerConfig(rng_seed=42)
    assert sample_sequential(g, ids[0], cfg) == sample_sequential(g, ids[0], cfg)


# --- hierarchical ---------------------------------------------------------------


def _wbs_schedule():
    acts = (
        make_activity("X", wbs=("P", "A", "X")),
        make_activity("Y", wbs=("P", "A", "Y")),
        make_activity("Z", wbs=("P", "B", "Z")),
    )
    return Schedule(acts, ())


def test_hierarchical_lonely_root():
    sched = Schedule((make_activity("A", wbs=("P",)),), ())
    assert sample_hierarchical(sched, "A", SamplerConfig()) == frozenset()


def test_hierarchical_two_levels_reaches_sibling_branch():
    sched = _wbs_schedule()
    got = sample_hierarchical(sched, "X", SamplerConfig(max_wbs_levels=2))
    assert got == {"Y", "Z"}
    assert got == wbs_prefix_filter(sched, "X", 2)


def test_hierarchical_one_level_stays_in_branch():
    sched = _wbs_schedule()
    got = sample_hierarchical(sched, "X", SamplerConfig(max_wbs_levels=1))
    assert got == {"Y"}
    assert got == wbs_prefix_filter(sched, "X", 1)


def test_hierarchical_matches_oracle_on_random_trees():
    import schedkit.rng as prng

    gen = prng.derive(11, "wbs-test")
    acts = []
    for i in range(60):
        depth = 1 + gen.randint(3)
        wbs = tuple("PQR"[gen.randint(3)] for _ in range(depth))
        acts.append(make_activity(f"A{i:02d}", wbs=wbs))
    sched = Schedule(tuple(acts), ())
    for levels in (0, 1, 2, 3):
        cfg = SamplerConfig(max_wbs_levels=levels)
        for target in ("A00", "A17", "A59"):
            assert sample_hierarchical(sched, target, cfg) == wbs_prefix_filter(
                sched, target, levels
            )


# --- combined + render ----------------------------------------------------------


def test_combined_isolated_unique_wbs():
    sched = Schedule(
        (
            make_activity("A", wbs=("P", "A", "A1")),
            make_activity("B", wbs=("Q", "B", "B1")),
        ),
        (),
    )
    g = build_graph(sched)
    bundle = combined_context(g, sched, "A", SamplerConfig(max_wbs_levels=1))
    assert bundle.first_order == frozenset()
    assert bundle.wbs_bucket == (2, ("P", "A"))
    assert sched.index.wbs_buckets[bundle.wbs_bucket] == {"A"}
    assert bundle.sequential == frozenset()
    assert bundle.sampled_at_seed == 42


def test_combined_chain_middle(chain):
    g = build_graph(chain)
    bundle = combined_context(g, chain, "B", SamplerConfig())
    assert bundle.first_order == {"A", "C"}
    allowed = {
        SequentialPath(FORWARD, ("B", "C")),
        SequentialPath(BACKWARD, ("B", "A")),
    }
    assert bundle.sequential <= allowed


def test_combined_seed_determinism_bit_identical():
    ids, pairs = random_dag(5, 50, edge_prob=0.08)
    sched = sched_with_links(ids, pairs)
    g = build_graph(sched)
    cfg = SamplerConfig(rng_seed=42)
    bundle = combined_context(g, sched, ids[3], cfg)
    a = serialize_bundle(bundle, sched)
    b = serialize_bundle(combined_context(g, sched, ids[3], cfg), sched)
    assert a == b
    assert bundle == combined_context(g, sched, ids[3], cfg)
    assert a == reference_bundle_line(bundle, sample_hierarchical(sched, ids[3], cfg))


def test_sampling_independent_of_target_order():
    # Per-target derived streams: visiting targets in any order (or in
    # parallel) must yield the same bundles.
    ids, pairs = random_dag(9, 40, edge_prob=0.1)
    sched = sched_with_links(ids, pairs)
    g = build_graph(sched)
    cfg = SamplerConfig(rng_seed=42)
    forward = {t: combined_context(g, sched, t, cfg) for t in ids}
    backward = {t: combined_context(g, sched, t, cfg) for t in reversed(ids)}
    assert forward == backward


def test_render_empty_bundle_has_sections():
    sched = Schedule((make_activity("B", wbs=("P", "B")), make_activity("C", wbs=("P", "C"))), ())
    bundle = combined_context(build_graph(sched), sched, "B", SamplerConfig(max_wbs_levels=0))
    assert render_context(bundle, sched) == (
        "TARGET: B | Task B | 2024-01-01 | 2024-01-08\n"
        "SEED: 42\nFIRST-ORDER:\nHIERARCHICAL:\nSEQUENTIAL:\n"
    )


def test_render_single_first_order_row(chain):
    bundle = combined_context(build_graph(chain), chain, "C", SamplerConfig())
    text = render_context(bundle, chain)
    body = text.split("FIRST-ORDER:\n")[1].split("HIERARCHICAL:")[0]
    rows = [ln for ln in body.splitlines() if ln.strip()]
    assert len(rows) == 1
    assert rows[0].startswith("  B | Task B | ")
    assert rows[0].endswith("| predecessor")


# Buckets (1, ("P",)) and (0, ()) hold the same ids, so two bundles that
# differ only in their bucket key render the same text.
_render_sched = Schedule(
    tuple(
        make_activity(aid, wbs=wbs)
        for aid, wbs in (
            ("A", ("P", "X", "A1")),
            ("B", ("P", "X", "B1")),
            ("C", ("P", "Y", "C1")),
            ("D", ("P", "X", "A1")),
        )
    ),
    tuple(DependencyLink(u, v) for u, v in (("A", "B"), ("B", "C"), ("A", "C"), ("C", "D"))),
)
_render_graph = build_graph(_render_sched)


@st.composite
def bundles(draw) -> ContextBundle:
    cfg = SamplerConfig(
        max_sequential_hops=draw(st.integers(0, 3)),
        max_wbs_levels=draw(st.integers(0, 3)),
        paths_per_direction=draw(st.integers(0, 3)),
        rng_seed=draw(st.sampled_from([42, 7])),
    )
    target = draw(st.sampled_from(["A", "B", "C", "D"]))
    return combined_context(_render_graph, _render_sched, target, cfg)


def shown(bundle: ContextBundle):
    """What a bundle's text shows: its ids, with its bucket's HIERARCHICAL
    ids in place of the bucket's key, and its seed."""
    hierarchical = _render_sched.index.wbs_buckets[bundle.wbs_bucket] - {bundle.target}
    return bundle.target, bundle.first_order, hierarchical, bundle.sequential, bundle.sampled_at_seed


@settings(max_examples=120, deadline=None)
@given(bundles(), bundles())
def test_render_injective_up_to_the_ids_it_shows(b1, b2):
    t1 = render_context(b1, _render_sched)
    t2 = render_context(b2, _render_sched)
    assert (t1 == t2) == (shown(b1) == shown(b2))


def reference_bundle_line(bundle: ContextBundle, hierarchical) -> str:
    """``serialize_bundle`` as it was written before bucket ids were shared,
    with the HIERARCHICAL ids given."""
    rec = {
        "target": bundle.target,
        "first_order": sorted(bundle.first_order),
        "hierarchical": sorted(hierarchical),
        "sequential": [
            {"direction": p.direction, "nodes": list(p.nodes)}
            for p in sorted(bundle.sequential)
        ],
        "sampled_at_seed": bundle.sampled_at_seed,
    }
    return json.dumps(rec, sort_keys=True)


# Ids with JSON's escape cases: quote, backslash, non-ASCII, astral, U+2028.
_escaping_ids = st.text(st.sampled_from('"\\é😀\u2028a1.'), min_size=1, max_size=4)


@st.composite
def bucketed_schedules(draw):
    """A schedule of uniquely named activities under three-segment WBS
    paths, linked at random. The paths draw from few segments, so buckets
    hold several ids (each then first, last or inside its bucket's sorted
    ids) or one."""
    ids = draw(st.lists(_escaping_ids, min_size=1, max_size=12, unique=True))
    segment = st.sampled_from(["X", "Y"])
    acts = tuple(
        make_activity(aid, wbs=("P", draw(segment), draw(segment))) for aid in ids
    )
    pairs = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=15))
    links = tuple(DependencyLink(u, v) for u, v in sorted(pairs) if u != v)
    return Schedule(activities=acts, links=links, source_label="escaping")


@settings(max_examples=150, deadline=None)
@given(bucketed_schedules(), st.integers(0, 3), st.data())
def test_bundle_line_equals_json_dumps(sched, levels, data):
    """Every target's line, its HIERARCHICAL list cut from the bucket's
    shared ids, is ``json.dumps`` of the bundle. Mutations that fail it:
    taking the last id's span without the ``", "`` before it, cutting one
    character short or long, or joining the ids with ``","``."""
    cfg = SamplerConfig(max_wbs_levels=levels, rng_seed=data.draw(st.integers(-5, 10**12)))
    g = build_graph(sched)
    for act in sched.activities:
        bundle = combined_context(g, sched, act.activity_id, cfg)
        hierarchical = sample_hierarchical(sched, act.activity_id, cfg)
        assert serialize_bundle(bundle, sched) == reference_bundle_line(bundle, hierarchical)


def test_bundle_line_cuts_each_position_of_a_bucket():
    """The target first, inside, last and alone in its bucket's sorted ids."""
    acts = tuple(make_activity(aid, wbs=("P", "X")) for aid in ('"a', "b\\", "c\u2028")) + (
        make_activity("é😀", wbs=("P", "Y")),
    )
    sched = Schedule(activities=acts, links=(), source_label="positions")
    cfg = SamplerConfig(max_wbs_levels=0, rng_seed=1)
    g = build_graph(sched)
    lines = {}
    for act in acts:
        bundle = combined_context(g, sched, act.activity_id, cfg)
        lines[act.activity_id] = serialize_bundle(bundle, sched)
        hierarchical = sample_hierarchical(sched, act.activity_id, cfg)
        assert lines[act.activity_id] == reference_bundle_line(bundle, hierarchical)
    assert '"hierarchical": ["b\\\\", "c\\u2028"]' in lines['"a']
    assert '"hierarchical": ["\\"a", "b\\\\"]' in lines["c\u2028"]
    assert '"hierarchical": []' in lines["é😀"]
