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


def json_escape(text: str) -> str:
    """``json.dumps(text)`` without its quotes."""
    return encode_basestring_ascii(text)[1:-1]


@dataclass(frozen=True)
class ContextPieces:
    """A rendered context in pieces: the texts retrieved for the target, if
    any (``knowledge``, each followed by ``\n``), the target's ``head``
    (TARGET, SEED, FIRST-ORDER and the ``HIERARCHICAL:`` label), a
    HIERARCHICAL ``block`` less the line at span ``cut`` (one of
    ``block.spans``, or ``NO_CUT``), and the SEQUENTIAL ``tail``. The block
    is usually one that the target's whole WBS bucket shares, so its text,
    JSON escape and token count are each computed once; likewise rows share
    the texts they retrieve. The pieces meet at ``\n``, so token counts add
    up across them."""

    head: str
    block: LineBlock
    cut: tuple[int, int, int, int, int]
    tail: str
    knowledge: tuple[str, ...] = ()

    @classmethod
    def plain(cls, text: str) -> ContextPieces:
        """A context given as text, all of it head."""
        return cls(text, LineBlock(()), NO_CUT, "")

    def text(self) -> str:
        start, end, _, _, _ = self.cut
        block = self.block.text
        lead = [piece for part in self.knowledge for piece in (part, "\n")]
        return "".join((*lead, self.head, block[:start], block[end:], self.tail))

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


NO_CUT = (0, 0, 0, 0, 0)


def _bucket_key(schedule: Schedule, bundle: ContextBundle):
    """The key of the target's WBS bucket in ``wbs_buckets`` when the
    bundle's HIERARCHICAL set is that bucket less the target, as
    ``sample_hierarchical`` draws it; otherwise None."""
    index = schedule.index
    target, hierarchical = bundle.target, bundle.hierarchical
    act = index.by_id.get(target)
    if act is not None and target not in hierarchical:
        # Buckets shrink as k grows; the first match keys a set's block.
        for k in range(len(act.wbs) + 1):
            key = k, act.wbs[:k]
            bucket = index.wbs_buckets[key]
            if len(bucket) == len(hierarchical) + 1 and hierarchical <= bucket:
                return key
    return None


def _hierarchical_block(schedule: Schedule, bundle: ContextBundle):
    """The shared block of the target's WBS bucket (``_bucket_key``) and the
    span of the target's own line in it; for any other HIERARCHICAL set, a
    block of its own, rendered from the sorted set, and ``NO_CUT``."""
    index = schedule.index
    key = _bucket_key(schedule, bundle)
    if key is not None:
        block = index.wbs_block(key)
        return block, block.spans[bundle.target]
    lines = index.wbs_lines
    return LineBlock((aid, lines[aid]) for aid in sorted(bundle.hierarchical)), NO_CUT


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
    rendered = []
    for path in bundle.sequential:
        nodes = path.nodes if path.direction == FORWARD else tuple(reversed(path.nodes))
        rendered.append("  " + " -> ".join(nodes))
    tail = ["SEQUENTIAL:", *sorted(rendered)]
    block, cut = _hierarchical_block(schedule, bundle)
    return ContextPieces("\n".join(lines) + "\n", block, cut, "\n".join(tail) + "\n")


def render_context(bundle: ContextBundle, schedule: Schedule) -> str:
    """The text of ``context_pieces``."""
    return context_pieces(bundle, schedule).text()


def _json_ids(ids) -> str:
    """``json.dumps`` of a list of ids."""
    return "[" + ", ".join(map(encode_basestring_ascii, ids)) + "]"


def serialize_bundle(bundle: ContextBundle, schedule: Schedule) -> str:
    """One JSON line per bundle, stable field and element order:
    ``json.dumps`` of its fields with sorted keys and sorted elements. A
    HIERARCHICAL set that is the target's WBS bucket less the target
    (``_bucket_key``) is cut from the bucket's encoded ids, which are built
    once per bucket; any other set is encoded from its sorted ids."""
    key = _bucket_key(schedule, bundle)
    if key is None:
        hierarchical = _json_ids(sorted(bundle.hierarchical))
    else:
        hierarchical = schedule.index.wbs_ids(key).without(bundle.target)
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
