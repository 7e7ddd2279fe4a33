from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import rng as prng
from schedkit.graph import (
    CyclicGraphError,
    InvalidScheduleError,
    ScheduleGraph,
    UnknownNodeError,
    build_graph,
    degree_distribution,
    detect_cycles,
    graph_stats,
    maximal_hop_distribution,
    maximal_hop_values,
    render_histogram,
    topological_order,
)
from schedkit.schedule import RELATIONS, DependencyLink, Schedule

from conftest import make_activity


def sched_with_links(ids, pairs):
    acts = tuple(make_activity(i) for i in ids)
    links = tuple(DependencyLink(u, v) for u, v in pairs)
    return Schedule(acts, links)


def graph_of(ids, pairs) -> ScheduleGraph:
    return build_graph(sched_with_links(ids, pairs))


def random_dag(seed: int, n: int, edge_prob: float = 0.15):
    """Forward-only random edges over a seeded node permutation."""
    gen = prng.derive(seed, "test-dag")
    ids = [f"N{i:02d}" for i in range(n)]
    order = list(ids)
    gen.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if gen.uniform() < edge_prob:
                pairs.append((order[i], order[j]))
    return ids, pairs


# --- oracles -----------------------------------------------------------------


def longest_path_by_enumeration(pairs, node, nodes):
    """Exhaustive DFS over all simple paths; exponential, fine for <=30 nodes."""
    succs: dict[str, list[str]] = {v: [] for v in nodes}
    for u, v in pairs:
        succs[u].append(v)

    best = 0
    stack = [(node, {node}, 0)]
    while stack:
        cur, seen, depth = stack.pop()
        best = max(best, depth)
        for nxt in succs[cur]:
            if nxt not in seen:
                stack.append((nxt, seen | {nxt}, depth + 1))
    return best


# --- build -------------------------------------------------------------------


def test_build_two_nodes():
    g = graph_of(["A", "B"], [("A", "B")])
    assert g.successors("A") == ["B"]
    assert g.predecessors("B") == ["A"]


def test_build_isolated_node():
    g = graph_of(["A"], [])
    assert g.degree("A") == 0
    assert g.nodes == frozenset({"A"})


def test_build_diamond_in_degree():
    g = graph_of(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    assert len(g.predecessors("D")) == 2


def test_build_rejects_invalid_schedule():
    bad = Schedule((make_activity("A"),), (DependencyLink("A", "ZZ"),))
    with pytest.raises(InvalidScheduleError):
        build_graph(bad)


def test_mirror_invariant_on_random_graphs():
    for seed in range(5):
        ids, pairs = random_dag(seed, 25)
        g = graph_of(ids, pairs)
        for u, links in g.succs.items():
            for link in links:
                assert link.predecessor_id == u
                assert link in g.preds[link.successor_id]
        for v, links in g.preds.items():
            for link in links:
                assert link.successor_id == v
                assert link in g.succs[link.predecessor_id]
        for node in ids:
            for v in g.successors(node):
                assert node in g.predecessors(v)


def ref_edges(schedule: Schedule):
    """Out- and in-edges by scanning the links, each list sorted."""
    out_edges = {a.activity_id: [] for a in schedule.activities}
    in_edges = {a.activity_id: [] for a in schedule.activities}
    for link in schedule.links:
        out_edges[link.predecessor_id].append(
            (link.successor_id, link.relation, link.lag_days)
        )
        in_edges[link.successor_id].append(
            (link.predecessor_id, link.relation, link.lag_days)
        )
    return (
        {k: tuple(sorted(v)) for k, v in out_edges.items()},
        {k: tuple(sorted(v)) for k, v in in_edges.items()},
    )


@st.composite
def valid_schedules(draw) -> Schedule:
    """Schedules that pass validation, with links in any order, several
    relations per pair and links in both directions between a pair."""
    ids = draw(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1]
    )
    links = draw(
        st.lists(
            st.builds(
                lambda pair, rel, lag: DependencyLink(pair[0], pair[1], rel, lag),
                pairs,
                st.sampled_from(RELATIONS),
                st.integers(-3, 3),
            ),
            max_size=20,
            unique_by=lambda l: (l.predecessor_id, l.successor_id, l.relation),
        )
        if len(ids) > 1
        else st.just([])
    )
    return Schedule(tuple(make_activity(i) for i in ids), tuple(links))


@settings(max_examples=200, deadline=None)
@given(valid_schedules())
def test_build_graph_edges_match_link_scan(sched):
    g = build_graph(sched)
    out_edges, in_edges = ref_edges(sched)
    assert g.nodes == frozenset(out_edges)
    assert g.succs is sched.index.succs and g.preds is sched.index.preds
    for node in g.nodes:
        succs = g.succs.get(node, ())
        preds = g.preds.get(node, ())
        assert tuple((l.successor_id, l.relation, l.lag_days) for l in succs) == out_edges[node]
        assert tuple((l.predecessor_id, l.relation, l.lag_days) for l in preds) == in_edges[node]
        assert g.successors(node) == [v for v, _, _ in out_edges[node]]
        assert g.predecessors(node) == [u for u, _, _ in in_edges[node]]
        assert g.degree(node) == len(out_edges[node]) + len(in_edges[node])


def test_build_graph_leaves_the_rendering_tables_unbuilt(chain):
    graph_stats(build_graph(chain))
    lazy = ("row_text", "dependency_cells", "wbs_buckets")
    assert not set(lazy) & set(vars(chain.index))


def test_unknown_node():
    g = graph_of(["A"], [])
    with pytest.raises(UnknownNodeError):
        g.successors("Q")


# --- cycles ------------------------------------------------------------------


def test_chain_has_no_cycles(chain):
    assert detect_cycles(build_graph(chain)) == []


def test_two_cycle_detected():
    g = graph_of(["A", "B"], [("A", "B"), ("B", "A")])
    assert detect_cycles(g) == [("A", "B")]


def test_forward_random_dags_are_acyclic():
    for seed in range(10):
        ids, pairs = random_dag(seed, 20, edge_prob=0.3)
        assert detect_cycles(graph_of(ids, pairs)) == []


def test_cycle_output_deterministic():
    pairs = [("C", "A"), ("A", "B"), ("B", "C"), ("D", "E"), ("E", "D")]
    g = graph_of(["A", "B", "C", "D", "E"], pairs)
    assert detect_cycles(g) == [("A", "B", "C"), ("D", "E")]


# --- degree ------------------------------------------------------------------


def test_chain_degrees(chain):
    stats = degree_distribution(build_graph(chain))
    assert stats.degree_histogram == {1: 2, 2: 1}
    assert stats.degree_mean == pytest.approx(4 / 3)
    assert stats.degree_max == 2


def test_isolated_degree_zero():
    stats = degree_distribution(graph_of(["A"], []))
    assert stats.degree_histogram == {0: 1}
    assert stats.degree_mean == 0.0


def test_handshake_identity_on_200_nodes():
    ids, pairs = random_dag(7, 200, edge_prob=0.02)
    g = graph_of(ids, pairs)
    stats = degree_distribution(g)
    assert stats.degree_mean * len(g.nodes) == 2 * g.edge_count()
    assert sum(stats.degree_histogram.values()) == len(g.nodes)


# --- maximal hop -------------------------------------------------------------


def test_chain_maxhops(chain):
    g = build_graph(chain)
    assert maximal_hop_values(g) == {"A": 2, "B": 1, "C": 0}
    stats = maximal_hop_distribution(g)
    assert stats.maxhop_mean == pytest.approx(1.0)
    assert stats.maxhop_max == 2


def test_single_node_maxhop_zero():
    assert maximal_hop_values(graph_of(["A"], [])) == {"A": 0}


def test_maxhop_matches_exhaustive_enumeration():
    for seed in range(8):
        ids, pairs = random_dag(seed, 18, edge_prob=0.2)
        g = graph_of(ids, pairs)
        got = maximal_hop_values(g)
        for node in ids:
            assert got[node] == longest_path_by_enumeration(pairs, node, ids), (
                seed,
                node,
            )


def test_topological_order_names_the_cycles_detect_cycles_finds():
    pairs = [("C", "A"), ("A", "B"), ("B", "C"), ("B", "D"), ("D", "E"), ("E", "D")]
    g = graph_of(["A", "B", "C", "D", "E", "F"], pairs)
    with pytest.raises(CyclicGraphError) as err:
        topological_order(g)
    assert err.value.cycles == detect_cycles(g) == [("A", "B", "C"), ("D", "E")]


def test_maxhop_rejects_cycles():
    g = graph_of(["A", "B"], [("A", "B"), ("B", "A")])
    with pytest.raises(CyclicGraphError):
        maximal_hop_distribution(g)


# --- topological order -------------------------------------------------------


def test_topo_tie_break():
    g = graph_of(["A", "B", "C"], [("A", "B"), ("A", "C")])
    assert topological_order(g) == ["A", "B", "C"]


def test_topo_single():
    assert topological_order(graph_of(["A"], [])) == ["A"]


def test_topo_valid_by_edge_scan():
    for seed in range(6):
        ids, pairs = random_dag(seed, 30, edge_prob=0.15)
        g = graph_of(ids, pairs)
        order = topological_order(g)
        pos = {node: i for i, node in enumerate(order)}
        assert sorted(order) == sorted(ids)
        for u, v in pairs:
            assert pos[u] < pos[v]


# --- exports -----------------------------------------------------------------


def test_histogram_export(chain):
    stats = graph_stats(build_graph(chain))
    assert render_histogram(stats.degree_histogram) == "1\t2\n2\t1\n"
    assert render_histogram(stats.maxhop_histogram) == "0\t1\n1\t1\n2\t1\n"


def test_stats_mean_consistent_with_histogram():
    ids, pairs = random_dag(3, 40, edge_prob=0.1)
    stats = graph_stats(graph_of(ids, pairs))
    recon = sum(v * c for v, c in stats.degree_histogram.items()) / sum(
        stats.degree_histogram.values()
    )
    assert abs(recon - stats.degree_mean) < 1e-9
