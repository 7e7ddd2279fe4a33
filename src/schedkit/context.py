"""Per-activity context extraction from the dependency graph.

Three extractors feed a combined bundle: direct neighbors (first-order),
WBS relatives up to a configured number of ancestor levels (hierarchical),
and seeded random walks up to a hop cap in each direction (sequential).
Sampling for each target draws from a private stream derived from
(seed, target), so results are independent of call order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import rng as prng
from .graph import ScheduleGraph, UnknownNodeError
from .schedule import Schedule, context_line

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class SamplerConfig:
    max_sequential_hops: int = 3
    max_wbs_levels: int = 2
    paths_per_direction: int = 5
    rng_seed: int = 42

    def __post_init__(self):
        if min(self.max_sequential_hops, self.max_wbs_levels, self.paths_per_direction) < 0:
            raise ValueError("sampler counts must be >= 0")
        if self.max_sequential_hops > 16:
            raise ValueError("max_sequential_hops capped at 16")


@dataclass(frozen=True, order=True)
class SequentialPath:
    direction: str
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class ContextBundle:
    target: str
    first_order: frozenset[str]
    hierarchical: frozenset[str]
    sequential: frozenset[SequentialPath]
    sampled_at_seed: int


def first_order(graph: ScheduleGraph, target: str) -> frozenset[str]:
    """Union of direct predecessors and successors of the target."""
    return frozenset(graph.predecessors(target)) | frozenset(graph.successors(target))


def sample_sequential(
    graph: ScheduleGraph, target: str, cfg: SamplerConfig
) -> frozenset[SequentialPath]:
    """Random simple walks from the target, both directions, deduplicated.

    Each direction runs ``paths_per_direction`` walks; a walk steps to a
    uniformly chosen unvisited neighbor until the hop cap or a dead end.
    Walks that cannot leave the target yield no path.
    """
    if target not in graph.nodes:
        raise UnknownNodeError(target)
    gen = prng.derive(cfg.rng_seed, "sequential", target)
    paths: set[SequentialPath] = set()
    for direction in (FORWARD, BACKWARD):
        step = graph.successors if direction == FORWARD else graph.predecessors
        for _ in range(cfg.paths_per_direction):
            walk = [target]
            visited = {target}
            for _ in range(cfg.max_sequential_hops):
                options = [n for n in step(walk[-1]) if n not in visited]
                if not options:
                    break
                nxt = gen.choice(options)
                walk.append(nxt)
                visited.add(nxt)
            if len(walk) > 1:
                paths.add(SequentialPath(direction, tuple(walk)))
    return frozenset(paths)


def sample_hierarchical(
    schedule: Schedule, target: str, cfg: SamplerConfig
) -> frozenset[str]:
    """Activities sharing a WBS ancestor within ``max_wbs_levels`` of the target.

    An activity qualifies when its WBS path shares a prefix of length at
    least ``depth(target) - max_wbs_levels`` (floored at zero) with the
    target's path. Deterministic; no sampling involved.
    """
    index = schedule.index
    if target not in index.by_id:
        raise UnknownNodeError(target)
    target_wbs = index.by_id[target].wbs
    required = max(0, len(target_wbs) - cfg.max_wbs_levels)
    return index.wbs_buckets[required, target_wbs[:required]] - {target}


def combined_context(
    graph: ScheduleGraph, schedule: Schedule, target: str, cfg: SamplerConfig
) -> ContextBundle:
    """The three extractors, computed independently, under one bundle."""
    return ContextBundle(
        target=target,
        first_order=first_order(graph, target),
        hierarchical=sample_hierarchical(schedule, target, cfg),
        sequential=sample_sequential(graph, target, cfg),
        sampled_at_seed=cfg.rng_seed,
    )


def render_context(bundle: ContextBundle, schedule: Schedule) -> str:
    """Deterministic text block consumed verbatim by prompt assembly.

    Sequential paths print in edge direction, so backward walks read
    predecessor-first and end at the target.
    """
    index = schedule.index
    row_text = index.row_text
    pred_ids = {l.predecessor_id for l in index.preds.get(bundle.target, ())}
    succ_ids = {l.successor_id for l in index.succs.get(bundle.target, ())}

    lines = [
        f"TARGET: {row_text.get(bundle.target, bundle.target)}",
        f"SEED: {bundle.sampled_at_seed}",
        "FIRST-ORDER:",
    ]
    for aid in sorted(bundle.first_order):
        if aid in pred_ids and aid in succ_ids:
            role = "predecessor+successor"
        elif aid in pred_ids:
            role = "predecessor"
        else:
            role = "successor"
        lines.append(context_line(row_text.get(aid), aid, role))
    lines.append("HIERARCHICAL:")
    lines.extend(map(index.wbs_lines.__getitem__, sorted(bundle.hierarchical)))
    lines.append("SEQUENTIAL:")
    rendered = []
    for path in bundle.sequential:
        nodes = path.nodes if path.direction == FORWARD else tuple(reversed(path.nodes))
        rendered.append("  " + " -> ".join(nodes))
    lines.extend(sorted(rendered))
    return "\n".join(lines) + "\n"


def serialize_bundle(bundle: ContextBundle) -> str:
    """One JSON line per bundle, stable field and element order."""
    rec = {
        "target": bundle.target,
        "first_order": sorted(bundle.first_order),
        "hierarchical": sorted(bundle.hierarchical),
        "sequential": [
            {"direction": p.direction, "nodes": list(p.nodes)}
            for p in sorted(bundle.sequential)
        ],
        "sampled_at_seed": bundle.sampled_at_seed,
    }
    return json.dumps(rec, sort_keys=True)


def load_bundle(line: str) -> ContextBundle:
    rec = json.loads(line)
    return ContextBundle(
        target=rec["target"],
        first_order=frozenset(rec["first_order"]),
        hierarchical=frozenset(rec["hierarchical"]),
        sequential=frozenset(
            SequentialPath(p["direction"], tuple(p["nodes"]))
            for p in rec["sequential"]
        ),
        sampled_at_seed=rec["sampled_at_seed"],
    )
