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
from json.encoder import encode_basestring_ascii

from . import rng as prng
from .graph import ScheduleGraph, UnknownNodeError
from .prompt_forge import word_count
from .schedule import LineBlock, Schedule, context_line

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
    """A target's sampled context. Its HIERARCHICAL relatives are the ids of
    ``wbs_bucket``, a key of ``ScheduleIndex.wbs_buckets``, less the target."""

    target: str
    first_order: frozenset[str]
    wbs_bucket: tuple[int, tuple[str, ...]]
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


def wbs_bucket(
    schedule: Schedule, target: str, cfg: SamplerConfig
) -> tuple[int, tuple[str, ...]]:
    """The key of the target's HIERARCHICAL bucket in ``wbs_buckets``: the
    first ``depth(target) - max_wbs_levels`` (floored at zero) segments of
    its WBS path, with their count. Deterministic; no sampling involved."""
    index = schedule.index
    if target not in index.by_id:
        raise UnknownNodeError(target)
    target_wbs = index.by_id[target].wbs
    required = max(0, len(target_wbs) - cfg.max_wbs_levels)
    return required, target_wbs[:required]


def sample_hierarchical(
    schedule: Schedule, target: str, cfg: SamplerConfig
) -> frozenset[str]:
    """The activities but the target whose WBS path starts with the prefix
    of its ``wbs_bucket``."""
    return schedule.index.wbs_buckets[wbs_bucket(schedule, target, cfg)] - {target}


def combined_context(
    graph: ScheduleGraph, schedule: Schedule, target: str, cfg: SamplerConfig
) -> ContextBundle:
    """The three extractors, computed independently, under one bundle."""
    return ContextBundle(
        target=target,
        first_order=first_order(graph, target),
        wbs_bucket=wbs_bucket(schedule, target, cfg),
        sequential=sample_sequential(graph, target, cfg),
        sampled_at_seed=cfg.rng_seed,
    )


def json_escape(text: str) -> str:
    """``json.dumps(text)`` without its quotes."""
    return encode_basestring_ascii(text)[1:-1]


@dataclass(frozen=True, slots=True)
class ContextPieces:
    """A rendered context in pieces: the texts retrieved for the target, if
    any (``knowledge``, each followed by ``\n``), the target's ``head``
    (TARGET, SEED, FIRST-ORDER and the ``HIERARCHICAL:`` label), the
    ``block`` of its WBS bucket less the target's own line (``cut``, its
    span in ``block.spans``), and the SEQUENTIAL ``tail``. Every target of a
    bucket shares its block, so the block's text, JSON escape and token
    count are each computed once; likewise rows share the texts they
    retrieve. The pieces meet at ``\n``, so token counts add up across
    them."""

    head: str
    block: LineBlock
    cut: tuple[int, int, int, int, int]
    tail: str
    knowledge: tuple[str, ...] = ()

    def text(self) -> str:
        start, end, _, _, _ = self.cut
        block = self.block.text
        lead = [piece for part in self.knowledge for piece in (part, "\n")]
        return "".join((*lead, self.head, block[:start], block[end:], self.tail))

    def size(self) -> int:
        """``len(text())``, without joining it."""
        start, end, _, _, _ = self.cut
        lead = sum(len(part) + 1 for part in self.knowledge)
        return lead + len(self.head) + len(self.block.text) - (end - start) + len(self.tail)

    def escaped(self, escape=json_escape) -> tuple[str, ...]:
        """``json_escape(text())`` in parts; ``escape`` escapes each
        knowledge text and may memoise them, as rows share them."""
        _, _, start, end, _ = self.cut
        block = self.block.escaped
        lead = [piece for part in self.knowledge for piece in (escape(part), "\\n")]
        return (*lead, json_escape(self.head), block[:start], block[end:], json_escape(self.tail))

    def tokens(self, count=word_count) -> int:
        """``word_count(text())``; ``count`` counts the knowledge, the head
        and the tail and may memoise them, as rows and the prompts of one
        row share them."""
        block = self.block.tokens - self.cut[4]
        return sum(map(count, self.knowledge)) + count(self.head) + block + count(self.tail)


# The context of a prompt built without one.
EMPTY_CONTEXT = ContextPieces("", LineBlock(()), (0, 0, 0, 0, 0), "")


def context_pieces(bundle: ContextBundle, schedule: Schedule) -> ContextPieces:
    """The deterministic context text that prompt assembly consumes
    verbatim, as its pieces.

    Sequential paths print in edge direction, so backward walks read
    predecessor-first and end at the target.
    """
    index = schedule.index
    row_text = index.row_text
    pred_ids = {l.predecessor_id for l in index.preds.get(bundle.target, ())}
    succ_ids = {l.successor_id for l in index.succs.get(bundle.target, ())}

    lines = [
        f"TARGET: {row_text[bundle.target]}",
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
        lines.append(context_line(row_text[aid], role))
    lines.append("HIERARCHICAL:")
    rendered = []
    for path in bundle.sequential:
        nodes = path.nodes if path.direction == FORWARD else tuple(reversed(path.nodes))
        rendered.append("  " + " -> ".join(nodes))
    tail = ["SEQUENTIAL:", *sorted(rendered)]
    block = index.wbs_block(bundle.wbs_bucket)
    return ContextPieces(
        "\n".join(lines) + "\n", block, block.spans[bundle.target], "\n".join(tail) + "\n"
    )


def render_context(bundle: ContextBundle, schedule: Schedule) -> str:
    """The text of ``context_pieces``."""
    return context_pieces(bundle, schedule).text()


def _json_ids(ids) -> str:
    """``json.dumps`` of a list of ids."""
    return "[" + ", ".join(map(encode_basestring_ascii, ids)) + "]"


def serialize_bundle(bundle: ContextBundle, schedule: Schedule) -> str:
    """One JSON line per bundle, stable field and element order:
    ``json.dumps`` of its fields, with its HIERARCHICAL ids under
    ``hierarchical``, with sorted keys and sorted elements. The
    HIERARCHICAL list is cut from the bucket's encoded ids
    (``ScheduleIndex.wbs_ids``), which are built once per bucket."""
    hierarchical = schedule.index.wbs_ids(bundle.wbs_bucket).without(bundle.target)
    # Tuples sort as the dataclass's fields do, without its Python ``__lt__``.
    sequential = ", ".join(
        f'{{"direction": {encode_basestring_ascii(direction)}, "nodes": {_json_ids(nodes)}}}'
        for direction, nodes in sorted((p.direction, p.nodes) for p in bundle.sequential)
    )
    return (
        f'{{"first_order": {_json_ids(sorted(bundle.first_order))}, '
        f'"hierarchical": {hierarchical}, '
        f'"sampled_at_seed": {json.dumps(bundle.sampled_at_seed)}, '
        f'"sequential": [{sequential}], '
        f'"target": {encode_basestring_ascii(bundle.target)}}}'
    )
