"""Directed dependency graph over schedule activities, plus its analytics.

Nodes are activity ids; one directed edge per dependency link, predecessor
to successor. Degree here is total degree (in + out). "Maximal hop" for a
node is the longest directed path, in edges, from that node downstream to
any reachable dependent; a flag widens it to both directions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .schedule import Schedule, validate


class GraphError(Exception):
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


@dataclass(frozen=True)
class ScheduleGraph:
    nodes: frozenset[str]
    out_edges: dict[str, tuple[tuple[str, str, int], ...]]
    in_edges: dict[str, tuple[tuple[str, str, int], ...]]

    def successors(self, node: str) -> list[str]:
        self._check(node)
        return [v for v, _, _ in self.out_edges[node]]

    def predecessors(self, node: str) -> list[str]:
        self._check(node)
        return [u for u, _, _ in self.in_edges[node]]

    def degree(self, node: str) -> int:
        self._check(node)
        return len(self.out_edges[node]) + len(self.in_edges[node])

    def edge_count(self) -> int:
        return sum(len(v) for v in self.out_edges.values())

    def _check(self, node: str) -> None:
        if node not in self.nodes:
            raise UnknownNodeError(node)


@dataclass
class GraphStats:
    degree_histogram: dict[int, int] = field(default_factory=dict)
    degree_mean: float = 0.0
    degree_max: int = 0
    maxhop_histogram: dict[int, int] = field(default_factory=dict)
    maxhop_mean: float = 0.0
    maxhop_max: int = 0


def build_graph(schedule: Schedule) -> ScheduleGraph:
    """The graph of a valid schedule; edges come sorted by (other endpoint,
    relation, lag). The index orders each id's links by (other endpoint,
    relation), and a valid schedule repeats no (pred, succ, relation), so
    that order is the sorted one."""
    report = validate(schedule)
    if not report.ok():
        raise InvalidScheduleError(report.violations)
    index = schedule.index
    # tuple([...]) rather than tuple(<generator>): half the time at n=2000.
    return ScheduleGraph(
        nodes=frozenset(index.by_id),
        out_edges={
            aid: tuple(
                [(l.successor_id, l.relation, l.lag_days) for l in index.succs.get(aid, ())]
            )
            for aid in index.by_id
        },
        in_edges={
            aid: tuple(
                [(l.predecessor_id, l.relation, l.lag_days) for l in index.preds.get(aid, ())]
            )
            for aid in index.by_id
        },
    )


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
    counter = [0]
    sccs: list[list[str]] = []

    # Iterative Tarjan; recursion would overflow on long chains.
    for root in sorted(graph.nodes):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = graph.out_edges[node]
            while edge_i < len(succs):
                nxt = succs[edge_i][0]
                edge_i += 1
                if nxt not in index:
                    work[-1] = (node, edge_i)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
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
        for succ, _, _ in graph.out_edges[node]:
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
    """Kahn's algorithm with an id-ordered frontier, so ties are stable."""
    cycles = detect_cycles(graph)
    if cycles:
        raise CyclicGraphError(cycles)
    import heapq

    indeg = {node: len(graph.in_edges[node]) for node in graph.nodes}
    frontier = [node for node, d in indeg.items() if d == 0]
    heapq.heapify(frontier)
    order: list[str] = []
    while frontier:
        node = heapq.heappop(frontier)
        order.append(node)
        for succ, _, _ in graph.out_edges[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(frontier, succ)
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


def maximal_hop_values(
    graph: ScheduleGraph, *, direction: str = "down"
) -> dict[str, int]:
    """Longest directed path length from each node.

    direction="down" follows successors only (dependents); "both" takes the
    max of the downstream and upstream longest paths.
    """
    order = topological_order(graph)
    down: dict[str, int] = {node: 0 for node in graph.nodes}
    for node in reversed(order):
        for succ, _, _ in graph.out_edges[node]:
            down[node] = max(down[node], 1 + down[succ])
    if direction == "down":
        return down
    up: dict[str, int] = {node: 0 for node in graph.nodes}
    for node in order:
        for pred, _, _ in graph.in_edges[node]:
            up[node] = max(up[node], 1 + up[pred])
    return {node: max(down[node], up[node]) for node in graph.nodes}


def maximal_hop_distribution(
    graph: ScheduleGraph, *, direction: str = "down"
) -> GraphStats:
    hist, mean, peak = _summary(maximal_hop_values(graph, direction=direction))
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
