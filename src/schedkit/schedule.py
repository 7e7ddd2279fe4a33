"""Tabular construction schedules: typed rows, dependency links, ingestion.

A schedule arrives as character-separated text (comma or tab) with one row
per activity. Dependency cells use the grammar

    <id>[:<REL>[+<lag>|-<lag>]] [; <id>...]

where REL is one of FS, SS, FF, SF (default FS) and lag is a signed day
count (default 0). Dates are ISO ``YYYY-MM-DD``; WBS paths serialize with
``.`` between segments, so segments themselves must not contain dots.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator

from . import DataError

RELATIONS = ("FS", "SS", "FF", "SF")

COL_ID = "Activity ID"
COL_NAME = "Activity Name"
COL_STATUS = "Activity Status"
COL_WBS = "WBS"
COL_DISCIPLINE = "Discipline"
COL_LEVEL = "Level"
COL_AREA = "Area"
COL_ZONE = "Zone"
COL_START = "Current Start"
COL_FINISH = "Current Finish"
COL_PRED = "Predecessor Details"
COL_SUCC = "Successor Details"

# Fixed column order of the canonical serialization; extras follow, sorted.
CANONICAL_COLUMNS = (
    COL_ID,
    COL_NAME,
    COL_STATUS,
    COL_WBS,
    COL_DISCIPLINE,
    COL_LEVEL,
    COL_AREA,
    COL_ZONE,
    COL_START,
    COL_FINISH,
    COL_PRED,
    COL_SUCC,
)

MANDATORY_COLUMNS = (
    COL_ID,
    COL_STATUS,
    COL_WBS,
    COL_DISCIPLINE,
    COL_LEVEL,
    COL_AREA,
    COL_START,
    COL_FINISH,
    COL_PRED,
    COL_SUCC,
)

CANONICAL_STATUSES = ("Not Started", "In Progress", "Completed")


class ScheduleError(DataError):
    """Base class for ingestion failures."""


class MissingColumnError(ScheduleError):
    def __init__(self, column: str):
        super().__init__(f"missing mandatory column: {column!r}")
        self.column = column


class MalformedDateError(ScheduleError):
    def __init__(self, row: int, cell: str, reason: str):
        super().__init__(f"row {row}: bad date cell {cell!r}: {reason}")
        self.row = row
        self.cell = cell


class MalformedDependencyError(ScheduleError):
    def __init__(self, row: int, cell: str, reason: str):
        super().__init__(f"row {row}: bad dependency cell {cell!r}: {reason}")
        self.row = row
        self.cell = cell


class DanglingReferenceError(ScheduleError):
    def __init__(self, row: int, ref: str):
        super().__init__(f"row {row}: dependency references unknown activity {ref!r}")
        self.row = row
        self.ref = ref


class DuplicateIdError(ScheduleError):
    def __init__(self, row: int, activity_id: str):
        super().__init__(f"row {row}: duplicate activity id {activity_id!r}")
        self.row = row
        self.activity_id = activity_id


@dataclass(frozen=True, slots=True)
class Activity:
    activity_id: str
    name: str
    status: str
    wbs: tuple[str, ...]
    discipline: str
    level: str
    area: str
    zone: str | None
    current_start: date
    current_finish: date
    extra_attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class DependencyLink:
    predecessor_id: str
    successor_id: str
    relation: str = "FS"
    lag_days: int = 0


@dataclass(frozen=True)
class Schedule:
    activities: tuple[Activity, ...]
    links: tuple[DependencyLink, ...]
    source_label: str = ""

    @cached_property
    def index(self) -> ScheduleIndex:
        """Per-activity lookups, built on first use and kept for the schedule."""
        return ScheduleIndex(self)

    def by_id(self) -> dict[str, Activity]:
        return dict(self.index.by_id)


def context_line(row_text: str, role: str) -> str:
    """One line of a rendered context: an activity's ``row_text`` and its
    role."""
    return f"  {row_text} | {role}"


class LineBlock:
    """Lines joined once, each ended by ``\n``, with the JSON escape of the
    text (``json.dumps`` less its quotes) and its whitespace-token count.
    ``spans`` maps each line's key to its ``(start, end, escaped start,
    escaped end, tokens)``, so one line can be left out of the text, the
    escape and the count without rendering the others again."""

    __slots__ = ("text", "escaped", "tokens", "spans")

    def __init__(self, lines: Iterable[tuple[str, str]]):
        texts, escapes = [], []
        self.spans: dict[str, tuple[int, int, int, int, int]] = {}
        end = escaped_end = self.tokens = 0
        for key, line in lines:
            line += "\n"
            escaped = encode_basestring_ascii(line)[1:-1]
            tokens = len(line.split())
            self.spans[key] = (
                end, end + len(line), escaped_end, escaped_end + len(escaped), tokens
            )
            texts.append(line)
            escapes.append(escaped)
            end += len(line)
            escaped_end += len(escaped)
            self.tokens += tokens
        self.text = "".join(texts)
        self.escaped = "".join(escapes)


class IdList:
    """Ids as one JSON list, ``json.dumps(ids)``, in ``text``. ``spans`` maps
    each id to the span of its entry and one ``", "`` beside it (none when it
    is alone), so the list less any one id is two slices of the text."""

    __slots__ = ("text", "spans")

    def __init__(self, ids: list[str]):
        entries = [encode_basestring_ascii(aid) for aid in ids]
        self.text = "[" + ", ".join(entries) + "]"
        self.spans: dict[str, tuple[int, int]] = {}
        start = 1
        for i, (aid, entry) in enumerate(zip(ids, entries)):
            end = start + len(entry)
            if i + 1 < len(ids):  # the entry and the ", " after it
                self.spans[aid] = (start, end + 2)
            else:  # the last: the ", " before it, if any, and the entry
                self.spans[aid] = (start - 2 if i else start, end)
            start = end + 2

    def without(self, aid: str) -> str:
        """``json.dumps`` of the ids less ``aid``."""
        start, end = self.spans[aid]
        return self.text[:start] + self.text[end:]


class ScheduleIndex:
    """Lookups into one schedule, so no caller re-scans activities or links.

    ``preds``/``succs`` hold each id's links in canonical-row order (by
    other endpoint, then relation; ties keep link order), and
    ``dependency_cells`` their serialized Predecessor/Successor Details.
    ``wbs_buckets`` maps (k, first k WBS segments) to the ids whose path
    starts with them, for every k up to each path's length; a sampled
    context names its HIERARCHICAL relatives by such a key
    (``ContextBundle.wbs_bucket``), and ``wbs_block`` and ``wbs_ids`` render
    and encode each bucket once. ``row_text`` holds each activity's
    ``id | name | start | finish`` context text and ``rows`` its
    ``canonical_row``, the last activity with an id winning as in
    ``by_id``. ``by_id``, ``preds`` and ``succs`` are built with the index;
    the other tables on first use.
    """

    def __init__(self, schedule: Schedule):
        self._schedule = schedule
        self.by_id = {a.activity_id: a for a in schedule.activities}
        preds: dict[str, list[DependencyLink]] = {}
        succs: dict[str, list[DependencyLink]] = {}
        for link in schedule.links:
            preds.setdefault(link.successor_id, []).append(link)
            succs.setdefault(link.predecessor_id, []).append(link)
        self.preds = {
            aid: tuple(sorted(ls, key=attrgetter("predecessor_id", "relation")))
            for aid, ls in preds.items()
        }
        self.succs = {
            aid: tuple(sorted(ls, key=attrgetter("successor_id", "relation")))
            for aid, ls in succs.items()
        }
        self._holders: dict[str, dict[str, set[str]]] = {}
        self._blocks: dict[tuple[int, tuple[str, ...]], LineBlock] = {}
        self._id_lists: dict[tuple[int, tuple[str, ...]], IdList] = {}

    @cached_property
    def rows(self) -> dict[str, dict[str, str]]:
        return {aid: canonical_row(self._schedule, a) for aid, a in self.by_id.items()}

    @cached_property
    def row_text(self) -> dict[str, str]:
        return {
            aid: f"{aid} | {a.name} | {a.current_start.isoformat()}"
            f" | {a.current_finish.isoformat()}"
            for aid, a in self.by_id.items()
        }

    @cached_property
    def dependency_cells(self) -> dict[str, tuple[str, str]]:
        return {
            aid: (
                ";".join(
                    format_dependency(l, endpoint=l.predecessor_id)
                    for l in self.preds.get(aid, ())
                ),
                ";".join(
                    format_dependency(l, endpoint=l.successor_id)
                    for l in self.succs.get(aid, ())
                ),
            )
            for aid in self.preds.keys() | self.succs.keys()
        }

    @cached_property
    def wbs_buckets(self) -> dict[tuple[int, tuple[str, ...]], frozenset[str]]:
        buckets: dict[tuple[int, tuple[str, ...]], set[str]] = {}
        for act in self._schedule.activities:
            for k in range(len(act.wbs) + 1):
                buckets.setdefault((k, act.wbs[:k]), set()).add(act.activity_id)
        return {key: frozenset(ids) for key, ids in buckets.items()}

    def wbs_block(self, key: tuple[int, tuple[str, ...]]) -> LineBlock:
        """The HIERARCHICAL lines (``context_line`` with role ``wbs``) of
        bucket ``key`` of ``wbs_buckets``, sorted by id, as one ``LineBlock``
        keyed by id. Built once per bucket."""
        block = self._blocks.get(key)
        if block is None:
            text = self.row_text
            ids = sorted(self.wbs_buckets[key])
            block = self._blocks[key] = LineBlock(
                (aid, context_line(text[aid], "wbs")) for aid in ids
            )
        return block

    def wbs_ids(self, key: tuple[int, tuple[str, ...]]) -> IdList:
        """The ids of bucket ``key`` of ``wbs_buckets``, sorted, as one
        ``IdList``. Built once per bucket."""
        ids = self._id_lists.get(key)
        if ids is None:
            ids = self._id_lists[key] = IdList(sorted(self.wbs_buckets[key]))
        return ids

    def value_holders(self, column: str) -> dict[str, set[str]]:
        """Each serialized value of ``column`` mapped to the ids holding it
        (an activity without the column holds ""). Built once per column."""
        holders = self._holders.get(column)
        if holders is None:
            holders = {}
            rows = self.rows
            for act in self._schedule.activities:
                aid = act.activity_id
                # ``rows`` holds only the last activity of a repeated id.
                row = rows[aid] if self.by_id[aid] is act else canonical_row(self._schedule, act)
                holders.setdefault(row.get(column, ""), set()).add(aid)
            self._holders[column] = holders
        return holders


@dataclass(frozen=True)
class Violation:
    row: int
    field: str
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    def ok(self) -> bool:
        return not self.violations


_DEP_TOKEN = re.compile(
    r"^(?P<id>[^:;]+?)(?::(?P<rel>[A-Za-z]{2})(?P<lag>[+-]\d+)?)?$"
)


def parse_dependency_cell(cell: str, *, row: int) -> list[tuple[str, str, int]]:
    """Split one dependency cell into (id, relation, lag) triples."""
    out: list[tuple[str, str, int]] = []
    for raw_tok in cell.split(";"):
        tok = raw_tok.strip()
        if not tok:
            continue
        m = _DEP_TOKEN.match(tok)
        if not m:
            raise MalformedDependencyError(row, cell, f"unparseable token {tok!r}")
        ref = m.group("id").strip()
        if not ref:
            raise MalformedDependencyError(row, cell, "empty activity reference")
        rel = (m.group("rel") or "FS").upper()
        if rel not in RELATIONS:
            raise MalformedDependencyError(row, cell, f"unknown relation {rel!r}")
        lag = int(m.group("lag") or 0)
        out.append((ref, rel, lag))
    return out


def _parse_date(text: str, *, row: int) -> date:
    cell = text.strip()
    try:
        return date.fromisoformat(cell)
    except ValueError as exc:
        raise MalformedDateError(row, cell, str(exc)) from None


def _detect_delimiter(header_line: str) -> str:
    return "\t" if header_line.count("\t") > header_line.count(",") else ","


def _records(buf: io.StringIO, delim: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank CSV records of ``buf``, numbered from 1 and read one at
    a time. A record the reader cannot read (a cell over the field size
    limit, or a NUL byte where the interpreter refuses one) is a
    ``ScheduleError`` naming its row."""
    row_no = 0
    try:
        for cells in csv.reader(buf, delimiter=delim):
            if delim.join(cells).strip():
                row_no += 1
                yield row_no, cells
    except csv.Error as exc:
        raise ScheduleError(f"row {row_no + 1}: unreadable record: {exc}") from None


def parse_schedule(raw: str, *, source_label: str = "") -> Schedule:
    """Parse character-separated tabular text into a Schedule.

    Columns are found by their canonical header (``CANONICAL_COLUMNS``).
    Other columns land in ``extra_attributes``. The first column under each
    name counts, and a later one under the same name is dropped, so the
    serialized schedule has one column per name. Raises on the first
    structural defect: a missing column, then a malformed date or
    dependency cell or duplicate id, in row order, then a link defect
    (dangling or self reference) once every row is read.

    Links come sorted by (predecessor, successor, relation), whichever
    cells declare them, so a parsed schedule serializes and parses back to
    itself. Records are read one at a time, and each distinct cell value,
    WBS segment, WBS path and relation is held once, however many rows
    repeat it; a link's endpoints are its activities' own id strings.
    """
    # Records, not lines: a quoted cell keeps its line breaks, blank ones
    # included, and other Unicode line boundaries are cell text. Blank and
    # whitespace-only lines are skipped and take no row number.
    buf = io.StringIO(raw.lstrip("﻿"), newline="")
    delim = _detect_delimiter(next((ln for ln in buf if ln.strip()), ""))
    buf.seek(0)
    records = _records(buf, delim)
    first = next(records, None)
    if first is None:
        raise MissingColumnError(COL_ID)
    header = [h.strip() for h in first[1]]

    col_index: dict[str, int] = {}
    for idx, name in enumerate(header):
        col_index.setdefault(name, idx)
    extras = [(name, idx) for name, idx in col_index.items() if name not in CANONICAL_COLUMNS]

    for col in MANDATORY_COLUMNS:
        if col not in col_index:
            raise MissingColumnError(col)

    shared: dict = {}  # each distinct value, as the one object every row holds
    width = len(header)
    activities: list[Activity] = []
    ids: dict[str, str] = {}  # each id, as its activity holds it
    dependency_cells: list[tuple[int, str, str, str]] = []

    def get(cells: list[str], col: str) -> str:
        idx = col_index.get(col)
        return "" if idx is None else cells[idx]

    for row_no, cells in records:
        # Stripped cells, padded to the header.
        cells = [shared.setdefault(v, v) for v in (c.strip() for c in cells[:width])]
        cells += [""] * (width - len(cells))
        activity_id = get(cells, COL_ID)
        if not activity_id:
            raise ScheduleError(f"row {row_no}: empty activity id")
        if activity_id in ids:
            raise DuplicateIdError(row_no, activity_id)
        ids[activity_id] = activity_id

        start = _parse_date(get(cells, COL_START), row=row_no)
        finish = _parse_date(get(cells, COL_FINISH), row=row_no)
        if start > finish:
            raise MalformedDateError(
                row_no, get(cells, COL_FINISH), f"finish precedes start {start.isoformat()}"
            )

        wbs_cell = get(cells, COL_WBS)
        wbs = tuple(shared.setdefault(seg, seg) for seg in wbs_cell.split(".") if seg != "")
        if not wbs:
            raise MalformedDependencyError(row_no, wbs_cell, "empty WBS path")

        activities.append(
            Activity(
                activity_id=activity_id,
                name=get(cells, COL_NAME),
                status=get(cells, COL_STATUS),
                wbs=shared.setdefault(wbs, wbs),
                discipline=get(cells, COL_DISCIPLINE),
                level=get(cells, COL_LEVEL),
                area=get(cells, COL_AREA),
                zone=get(cells, COL_ZONE) or None,
                current_start=start,
                current_finish=finish,
                extra_attributes={name: cells[idx] for name, idx in extras},
            )
        )
        dependency_cells.append((row_no, activity_id, get(cells, COL_PRED), get(cells, COL_SUCC)))

    # Dependency cells now that every id is known.
    links: list[DependencyLink] = []
    seen_triples: set[tuple[str, str, str]] = set()
    for row_no, activity_id, pred_cell, succ_cell in dependency_cells:
        for ref, rel, lag in parse_dependency_cell(pred_cell, row=row_no):
            rel = shared.setdefault(rel, rel)
            _append_link(links, seen_triples, row_no, ref, activity_id, rel, lag, ids)
        for ref, rel, lag in parse_dependency_cell(succ_cell, row=row_no):
            rel = shared.setdefault(rel, rel)
            _append_link(links, seen_triples, row_no, activity_id, ref, rel, lag, ids)

    return Schedule(
        activities=tuple(activities),
        links=tuple(sorted(links, key=attrgetter("predecessor_id", "successor_id", "relation"))),
        source_label=source_label,
    )


def _append_link(
    links: list[DependencyLink],
    seen: set[tuple[str, str, str]],
    row_no: int,
    pred: str,
    succ: str,
    rel: str,
    lag: int,
    ids: dict[str, str],
) -> None:
    if pred == succ:
        raise MalformedDependencyError(row_no, pred, "self-referencing dependency")
    for ref in (pred, succ):
        if ref not in ids:
            raise DanglingReferenceError(row_no, ref)
    triple = (pred, succ, rel)
    if triple in seen:
        # Both endpoints usually declare the same link; keep the first form.
        return
    seen.add(triple)
    links.append(DependencyLink(ids[pred], ids[succ], rel, lag))


def validate(schedule: Schedule) -> ValidationReport:
    """Check every type invariant; violations are data, not errors.

    Rows are 1-based positions within ``schedule.activities`` (links report
    the row of their first endpoint when it exists, else 0). The report is
    sorted by (row, field, kind, message) and is a pure function of the
    schedule.
    """
    found: list[Violation] = []
    row_of: dict[str, int] = {}
    seen: dict[str, int] = {}
    for row, act in enumerate(schedule.activities, start=1):
        row_of.setdefault(act.activity_id, row)
        if not act.activity_id:
            found.append(Violation(row, COL_ID, "EmptyId", "activity id is empty"))
        elif act.activity_id in seen:
            found.append(
                Violation(
                    row,
                    COL_ID,
                    "DuplicateId",
                    f"id {act.activity_id!r} first used at row {seen[act.activity_id]}",
                )
            )
        else:
            seen[act.activity_id] = row
        if act.current_start > act.current_finish:
            found.append(
                Violation(row, COL_FINISH, "DateOrder", "finish precedes start")
            )
        if len(act.wbs) < 1:
            found.append(Violation(row, COL_WBS, "EmptyWbs", "WBS path is empty"))
        if not act.discipline:
            found.append(
                Violation(row, COL_DISCIPLINE, "EmptyDiscipline", "discipline is empty")
            )

    ids = {a.activity_id for a in schedule.activities}
    triples: set[tuple[str, str, str]] = set()
    for link in schedule.links:
        row = row_of.get(link.predecessor_id) or row_of.get(link.successor_id) or 0
        if link.predecessor_id == link.successor_id:
            found.append(
                Violation(
                    row, "links", "SelfLoop", f"{link.predecessor_id!r} depends on itself"
                )
            )
        for ref in (link.predecessor_id, link.successor_id):
            if ref not in ids:
                found.append(
                    Violation(row, "links", "DanglingReference", f"unknown id {ref!r}")
                )
        triple = (link.predecessor_id, link.successor_id, link.relation)
        if triple in triples:
            found.append(
                Violation(
                    row,
                    "links",
                    "DuplicateLink",
                    f"duplicate {link.relation} link {link.predecessor_id!r} -> {link.successor_id!r}",
                )
            )
        triples.add(triple)

    ordered = tuple(
        sorted(found, key=lambda v: (v.row, v.field, v.kind, v.message))
    )
    return ValidationReport(ordered)


def duration_days(activity: Activity) -> int:
    """Inclusive-exclusive day count: finish minus start."""
    return (activity.current_finish - activity.current_start).days


def format_dependency(link: DependencyLink, *, endpoint: str) -> str:
    lag = link.lag_days
    suffix = "" if lag == 0 else f"{lag:+d}"
    return f"{endpoint}:{link.relation}{suffix}"


def canonical_row(schedule: Schedule, activity: Activity) -> dict[str, str]:
    """Map canonical (plus extra) column names to serialized cell strings."""
    pred_cell, succ_cell = schedule.index.dependency_cells.get(
        activity.activity_id, ("", "")
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
        COL_PRED: pred_cell,
        COL_SUCC: succ_cell,
    }
    for key in sorted(activity.extra_attributes):
        row[key] = activity.extra_attributes[key]
    return row


def extra_columns(schedule: Schedule) -> list[str]:
    cols: set[str] = set()
    for act in schedule.activities:
        cols.update(act.extra_attributes)
    return sorted(cols)


def serialize_schedule(schedule: Schedule) -> str:
    """Canonical comma-separated serialization with a fixed column order."""
    extras = extra_columns(schedule)
    header = list(CANONICAL_COLUMNS) + extras
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for act in schedule.activities:
        row = canonical_row(schedule, act)
        writer.writerow([row.get(col, "") for col in header])
    return buf.getvalue()


def serialize_records(schedule: Schedule) -> str:
    """Line-delimited export: one JSON object per activity."""
    index = schedule.index
    lines = []
    for act in schedule.activities:
        rec = {
            "activity_id": act.activity_id,
            "name": act.name,
            "status": act.status,
            "wbs": list(act.wbs),
            "discipline": act.discipline,
            "level": act.level,
            "area": act.area,
            "zone": act.zone,
            "current_start": act.current_start.isoformat(),
            "current_finish": act.current_finish.isoformat(),
            "duration_days": duration_days(act),
            "predecessors": [
                {"id": l.predecessor_id, "relation": l.relation, "lag_days": l.lag_days}
                for l in index.preds.get(act.activity_id, ())
            ],
            "successors": [
                {"id": l.successor_id, "relation": l.relation, "lag_days": l.lag_days}
                for l in index.succs.get(act.activity_id, ())
            ],
            "extra_attributes": dict(sorted(act.extra_attributes.items())),
        }
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
