"""Span files written by ``tracer.py``: reading, self time and percentiles."""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

# Percentiles tried for the tail figure, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


@dataclass
class Spans:
    request_id: str
    names: list[str]
    name_ix: array
    parent: array
    start: array
    end: array
    counters: dict


def read_spans(prefix: Path) -> Spans:
    header = json.loads(Path(f"{prefix}.json").read_text("utf-8"))
    n = header["spans"]
    raw = Path(f"{prefix}.bin").read_bytes()
    arrays = []
    offset = 0
    for code in ("i", "i", "d", "d"):
        arr = array(code)
        size = arr.itemsize * n
        arr.frombytes(raw[offset : offset + size])
        offset += size
        arrays.append(arr)
    if offset != len(raw):
        raise ValueError(f"{prefix}.bin: {len(raw)} bytes, expected {offset}")
    return Spans(header["request_id"], header["names"], *arrays, header["counters"])


def covered(lo: float, hi: float, children: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the child intervals."""
    total = 0.0
    reach = lo
    for c_lo, c_hi in sorted(children):
        c_lo = max(c_lo, reach)
        c_hi = min(c_hi, hi)
        if c_hi > c_lo:
            total += c_hi - c_lo
            reach = c_hi
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for row, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append((start[row], end[row]))
    return [
        (end[row] - start[row]) - covered(start[row], end[row], children.get(row, []))
        for row in range(len(start))
    ]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that leaves at
    least ten samples above it; the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct, percentile(ordered, pct)
    return 50.0, (percentile(ordered, 50.0) if ordered else 0.0)


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] | None = None


def aggregate(span_sets: list[Spans], keep_durations=frozenset()) -> dict[str, NameStats]:
    """Calls and summed self time per span name; per-call durations for the
    names in keep_durations."""
    out: dict[str, NameStats] = {}
    for spans in span_sets:
        selfs = self_times(spans.start, spans.end, spans.parent)
        for row, nid in enumerate(spans.name_ix):
            name = spans.names[nid]
            stats = out.get(name)
            if stats is None:
                stats = out[name] = NameStats(durations=[] if name in keep_durations else None)
            stats.calls += 1
            stats.self_s += selfs[row]
            if stats.durations is not None:
                stats.durations.append(spans.end[row] - spans.start[row])
    return out
