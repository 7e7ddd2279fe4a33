"""Directed dependency graph over schedule activities, plus its analytics.

Nodes are activity ids; one directed edge per dependency link, predecessor
to successor. Degree here is total degree (in + out). "Maximal hop" for a
node is the longest directed path, in edges, from that node downstream to
any reachable dependent.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator
from typing import NamedTuple

from . import DataError, Struct
from .schedule import DependencyLink, Schedule, validate


class GraphError(DataError):
    pass


class InvalidScheduleError(GraphError):
    def __init__(self, violations):
        super().__init__(
            "schedule fails validation: "
            + "; ".join(v.message for v in violations[:5])
        )
        self.violations = violations


class CyclicGraphError(GraphError):
    def __init__(self, cycles):
        super().__init__(f"graph contains {len(cycles)} cycle(s), e.g. {cycles[0]}")
        self.cycles = cycles


class UnknownNodeError(GraphError):
    def __init__(self, node: str):
        super().__init__(f"unknown activity id {node!r}")
        self.node = node


class ScheduleGraph(NamedTuple):
    """A validated view of ``schedule.index``: ``succs``/``preds`` are the
    index's links of each id, in its order (by other endpoint, relation)."""

    nodes: frozenset[str]
    succs: dict[str, tuple[DependencyLink, ...]]
    preds: dict[str, tuple[DependencyLink, ...]]

    def successors(self, node: str) -> list[str]:
        self._check(node)
        return [l.successor_id for l in self.succs.get(node, ())]

    def predecessors(self, node: str) -> list[str]:
        self._check(node)
        return [l.predecessor_id for l in self.preds.get(node, ())]

    def degree(self, node: str) -> int:
        self._check(node)
        return len(self.succs.get(node, ())) + len(self.preds.get(node, ()))

    def edge_count(self) -> int:
        return sum(map(len, self.succs.values()))

    def _check(self, node: str) -> None:
        if node not in self.nodes:
            raise UnknownNodeError(node)


class GraphStats(Struct):
    _fields = __slots__ = (
        "degree_histogram",
        "degree_mean",
        "degree_max",
        "maxhop_histogram",
        "maxhop_mean",
        "maxhop_max",
    )

    def __init__(
        self,
        degree_histogram: dict[int, int] | None = None,
        degree_mean: float = 0.0,
        degree_max: int = 0,
        maxhop_histogram: dict[int, int] | None = None,
        maxhop_mean: float = 0.0,
        maxhop_max: int = 0,
    ):
        self.degree_histogram = {} if degree_histogram is None else degree_histogram
        self.degree_mean = degree_mean
        self.degree_max = degree_max
        self.maxhop_histogram = {} if maxhop_histogram is None else maxhop_histogram
        self.maxhop_mean = maxhop_mean
        self.maxhop_max = maxhop_max


def build_graph(schedule: Schedule) -> ScheduleGraph:
    """The graph of a valid schedule, sharing the links of its index."""
    report = validate(schedule)
    if not report.ok():
        raise InvalidScheduleError(report.violations)
    index = schedule.index
    return ScheduleGraph(frozenset(index.by_id), index.succs, index.preds)


def _normalize_cycle(cycle: list[str]) -> tuple[str, ...]:
    # Rotate so the lexicographically smallest node leads.
    pivot = min(range(len(cycle)), key=lambda i: cycle[i])
    return tuple(cycle[pivot:] + cycle[:pivot])


def detect_cycles(graph: ScheduleGraph) -> list[tuple[str, ...]]:
    """Shortest cycle through each strongly connected component.

    Empty iff the graph is a DAG. Each cycle is reported as a closed walk
    with distinct nodes, rotated to start at its smallest node; the list is
    sorted, so output is deterministic.
    """
    sccs = _tarjan_sccs(graph)
    cycles: list[tuple[str, ...]] = []
    for comp in sccs:
        if len(comp) < 2:
            continue
        members = set(comp)
        start = min(comp)
        cycles.append(_normalize_cycle(_shortest_cycle_through(graph, start, members)))
    return sorted(cycles)


def _tarjan_sccs(graph: ScheduleGraph) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []

    def enter(node: str) -> tuple[str, Iterator[str]]:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(graph.successors(node))

    # Iterative Tarjan; recursion would overflow on long chains.
    for root in sorted(graph.nodes):
        if root in index:
            continue
        work = [enter(root)]
        while work:
            node, succs = work[-1]
            for nxt in succs:
                if nxt not in index:
                    work.append(enter(nxt))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member == node:
                            break
                    sccs.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return sccs


def _shortest_cycle_through(
    graph: ScheduleGraph, start: str, members: set[str]
) -> list[str]:
    # BFS within the component from start back to start.
    parent: dict[str, str] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for succ in graph.successors(node):
            if succ == start:
                path = [node]
                while node != start:
                    node = parent[node]
                    path.append(node)
                return list(reversed(path))
            if succ in members and succ not in seen:
                seen.add(succ)
                parent[succ] = node
                queue.append(succ)
    raise GraphError(f"no cycle through {start!r} despite non-trivial SCC")


def topological_order(graph: ScheduleGraph) -> list[str]:
    """Kahn's algorithm with an id-ordered frontier, so ties are stable.
    Nodes it cannot reach lie on or behind a cycle; ``detect_cycles`` names
    the cycles."""
    indeg = {node: len(graph.predecessors(node)) for node in graph.nodes}
    frontier = [node for node, d in indeg.items() if d == 0]
    heapq.heapify(frontier)
    order: list[str] = []
    while frontier:
        node = heapq.heappop(frontier)
        order.append(node)
        for succ in graph.successors(node):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(frontier, succ)
    if len(order) < len(graph.nodes):
        raise CyclicGraphError(detect_cycles(graph))
    return order


def _summary(values: dict[str, int]) -> tuple[dict[int, int], float, int]:
    """Histogram (sorted by value), mean and maximum of per-node values."""
    hist: dict[int, int] = {}
    for v in values.values():
        hist[v] = hist.get(v, 0) + 1
    mean = sum(values.values()) / len(values) if values else 0.0
    peak = max(values.values()) if values else 0
    return dict(sorted(hist.items())), mean, peak


def degree_distribution(graph: ScheduleGraph) -> GraphStats:
    hist, mean, peak = _summary({node: graph.degree(node) for node in graph.nodes})
    return GraphStats(degree_histogram=hist, degree_mean=mean, degree_max=peak)


def maximal_hop_values(graph: ScheduleGraph) -> dict[str, int]:
    """Longest directed path length from each node, following successors
    (dependents) only."""
    down: dict[str, int] = {node: 0 for node in graph.nodes}
    for node in reversed(topological_order(graph)):
        for succ in graph.successors(node):
            down[node] = max(down[node], 1 + down[succ])
    return down


def maximal_hop_distribution(graph: ScheduleGraph) -> GraphStats:
    hist, mean, peak = _summary(maximal_hop_values(graph))
    return GraphStats(maxhop_histogram=hist, maxhop_mean=mean, maxhop_max=peak)


def graph_stats(graph: ScheduleGraph) -> GraphStats:
    """Degree and maximal-hop analytics in one report."""
    deg = degree_distribution(graph)
    hop = maximal_hop_distribution(graph)
    deg.maxhop_histogram = hop.maxhop_histogram
    deg.maxhop_mean = hop.maxhop_mean
    deg.maxhop_max = hop.maxhop_max
    return deg


def render_stats_report(stats: GraphStats) -> str:
    """Line-delimited summary, one key=value pair per line."""
    lines = [
        f"degree_mean={stats.degree_mean!r}",
        f"degree_max={stats.degree_max}",
        f"maxhop_mean={stats.maxhop_mean!r}",
        f"maxhop_max={stats.maxhop_max}",
    ]
    return "\n".join(lines) + "\n"


def render_histogram(hist: dict[int, int]) -> str:
    """Two-column text (value, count), ready for plotting."""
    return "".join(f"{value}\t{count}\n" for value, count in sorted(hist.items()))
