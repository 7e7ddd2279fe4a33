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
import itertools
import json
import re
from collections.abc import Mapping
from datetime import date
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, TextIO

from . import DataError, Struct

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


# The extra attributes of an activity that has none; every activity
# without extras shares it.
NO_EXTRAS: Mapping[str, str] = MappingProxyType({})


class Activity(NamedTuple):
    """One row of a schedule. ``extra_attributes`` is read-only, so that
    the activities whose extra cells are equal can share one mapping."""

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
    extra_attributes: Mapping[str, str] = NO_EXTRAS


class DependencyLink(NamedTuple):
    predecessor_id: str
    successor_id: str
    relation: str = "FS"
    lag_days: int = 0


class Schedule(Struct):
    _fields = ("activities", "links", "source_label")
    __slots__ = (*_fields, "_index")

    def __init__(
        self,
        activities: tuple[Activity, ...],
        links: tuple[DependencyLink, ...],
        source_label: str = "",
    ):
        self.activities = activities
        self.links = links
        self.source_label = source_label
        self._index = None

    @property
    def index(self) -> ScheduleIndex:
        """Per-activity lookups, built on first use and kept for the schedule."""
        if self._index is None:
            self._index = ScheduleIndex(self)
        return self._index

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


class RowTable(Mapping):
    """Each id's ``canonical_row``, the last activity with an id winning as
    in ``by_id``. A row is held as one tuple of its cell values against one
    tuple of column names that every row shares (``columns``: the canonical
    columns, then every extra column, sorted), with None for an extra
    column its activity lacks, and each distinct value is held once.
    ``self[aid]`` is a new dict equal to the row, in its column order."""

    def __init__(self, schedule: Schedule, activities: Iterable[Activity]):
        self.columns = (*CANONICAL_COLUMNS, *extra_columns(schedule))
        shared: dict = {}
        self._cells = {
            act.activity_id: tuple(
                shared.setdefault(v, v) for v in map(canonical_row(schedule, act).get, self.columns)
            )
            for act in activities
        }

    def __getitem__(self, aid: str) -> dict[str, str]:
        return {col: v for col, v in zip(self.columns, self._cells[aid]) if v is not None}

    def __iter__(self) -> Iterator[str]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class WbsBuckets(dict):
    """(k, first k WBS segments) -> the ids whose path starts with them.
    Every bucket of depth k is built when the first of them is asked for,
    so only the depths that sampling asks for are held."""

    def __init__(self, activities: tuple[Activity, ...]):
        super().__init__()
        self._activities = activities
        self._depths: set[int] = set()

    def __missing__(self, key: tuple[int, tuple[str, ...]]) -> frozenset[str]:
        k = key[0]
        if k in self._depths:
            raise KeyError(key)
        self._depths.add(k)
        found: dict[tuple[str, ...], set[str]] = {}
        for act in self._activities:
            if len(act.wbs) >= k:
                found.setdefault(act.wbs[:k], set()).add(act.activity_id)
        self.update(((k, prefix), frozenset(ids)) for prefix, ids in found.items())
        return self[key]


class ScheduleIndex:
    """Lookups into one schedule, so no caller re-scans activities or links.

    ``preds``/``succs`` hold each id's links in canonical-row order (by
    other endpoint, then relation; ties keep link order), and
    ``dependency_cells`` their serialized Predecessor/Successor Details.
    ``wbs_buckets`` maps (k, first k WBS segments) to the ids whose path
    starts with them (``WbsBuckets``); a sampled context names its
    HIERARCHICAL relatives by such a key (``ContextBundle.wbs_bucket``),
    and ``wbs_block`` and ``wbs_ids`` render and encode each bucket once.
    ``row_text`` holds each activity's ``id | name | start | finish``
    context text and ``rows`` its ``canonical_row`` (``RowTable``).
    ``by_id``, ``preds`` and ``succs`` are built with the index; the other
    tables on first use.
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
    def rows(self) -> RowTable:
        return RowTable(self._schedule, self.by_id.values())

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
    def wbs_buckets(self) -> WbsBuckets:
        return WbsBuckets(self._schedule.activities)

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


class Violation(NamedTuple):
    row: int
    field: str
    kind: str
    message: str


class ValidationReport(NamedTuple):
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


def _records(lines: Iterable[str], delim: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank CSV records of ``lines``, numbered from 1 and read one
    at a time. A record the reader cannot read (a cell over the field size
    limit, or a NUL byte where the interpreter refuses one) is a
    ``ScheduleError`` naming its row."""
    row_no = 0
    try:
        for cells in csv.reader(lines, delimiter=delim):
            if delim.join(cells).strip():
                row_no += 1
                yield row_no, cells
    except csv.Error as exc:
        raise ScheduleError(f"row {row_no + 1}: unreadable record: {exc}") from None


def parse_schedule(source: str | Iterable[str], *, source_label: str = "") -> Schedule:
    """Parse character-separated tabular text into a Schedule.

    ``source`` is the text, or an iterable of its lines (an open file, say),
    which is read one record at a time, never whole, and not sought, so a
    pipe works. Either is taken with its line ends already translated, as a
    file opened with the default ``newline`` gives them, so a ``\\r`` left
    in a quoted cell is cell text. Leading BOMs of the first line are
    dropped, and the delimiter is that of the first non-blank line.

    Columns are found by their canonical header (``CANONICAL_COLUMNS``).
    Other columns land in ``extra_attributes``. The first column under each
    name counts, and a later one under the same name is dropped, so the
    serialized schedule has one column per name. Raises on the first
    structural defect: a missing column, then a malformed date or
    dependency cell or duplicate id, in row order, then a link defect
    (dangling or self reference) once every row is read.

    Links come sorted by (predecessor, successor, relation), whichever
    cells declare them, so a parsed schedule serializes and parses back to
    itself. Records are read one at a time, and each distinct cell value
    that an activity holds, WBS segment, WBS path and relation is held
    once, however many rows repeat it; a link's endpoints are its
    activities' own id strings, and rows with equal extra cells share one
    read-only ``extra_attributes`` mapping.
    """
    lines = iter(io.StringIO(source, newline="") if isinstance(source, str) else source)
    # The lines up to the first non-blank one, read again as records.
    head = [next(lines, "").lstrip("\ufeff")]
    while not head[-1].strip():
        line = next(lines, None)
        if line is None:
            break
        head.append(line)
    # Records, not lines: a quoted cell keeps its line breaks, blank ones
    # included, and other Unicode line boundaries are cell text. Blank and
    # whitespace-only lines are skipped and take no row number.
    records = _records(itertools.chain(head, lines), _detect_delimiter(head[-1]))
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

    # Each distinct value that an activity or link holds, as the one object
    # every row holds; dates and dependency cells are read once and dropped.
    shared: dict = {}
    # Each distinct row of extra cells, as the one mapping every row holds.
    attributes: dict[tuple[str, ...], Mapping[str, str]] = {(): NO_EXTRAS}
    width = len(header)
    activities: list[Activity] = []
    ids: dict[str, str] = {}  # each id, as its activity holds it
    dependency_cells: list[tuple[int, str, str, str]] = []

    def get(cells: list[str], col: str) -> str:
        idx = col_index.get(col)
        return "" if idx is None else cells[idx]

    def held(cells: list[str], col: str) -> str:
        value = get(cells, col)
        return shared.setdefault(value, value)

    for row_no, cells in records:
        # Stripped cells, padded to the header.
        cells = [c.strip() for c in cells[:width]]
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

        extra = tuple(cells[idx] for _, idx in extras)
        if extra not in attributes:
            attributes[extra] = MappingProxyType(
                {name: shared.setdefault(v, v) for (name, _), v in zip(extras, extra)}
            )

        wbs_cell = get(cells, COL_WBS)
        wbs = tuple(shared.setdefault(seg, seg) for seg in wbs_cell.split(".") if seg != "")
        if not wbs:
            raise MalformedDependencyError(row_no, wbs_cell, "empty WBS path")

        activities.append(
            Activity(
                activity_id=activity_id,
                name=held(cells, COL_NAME),
                status=held(cells, COL_STATUS),
                wbs=shared.setdefault(wbs, wbs),
                discipline=held(cells, COL_DISCIPLINE),
                level=held(cells, COL_LEVEL),
                area=held(cells, COL_AREA),
                zone=held(cells, COL_ZONE) or None,
                current_start=start,
                current_finish=finish,
                extra_attributes=attributes[extra],
            )
        )
        dependency_cells.append((row_no, activity_id, get(cells, COL_PRED), get(cells, COL_SUCC)))

    # Dependency cells now that every id is known. Each link is keyed by its
    # (predecessor, successor, relation), which then sorts the links.
    links: dict[tuple[str, str, str], DependencyLink] = {}
    for row_no, activity_id, pred_cell, succ_cell in dependency_cells:
        for ref, rel, lag in parse_dependency_cell(pred_cell, row=row_no):
            rel = shared.setdefault(rel, rel)
            _add_link(links, row_no, ref, activity_id, rel, lag, ids)
        for ref, rel, lag in parse_dependency_cell(succ_cell, row=row_no):
            rel = shared.setdefault(rel, rel)
            _add_link(links, row_no, activity_id, ref, rel, lag, ids)

    return Schedule(
        activities=tuple(activities),
        links=tuple(links[key] for key in sorted(links)),
        source_label=source_label,
    )


def _add_link(
    links: dict[tuple[str, str, str], DependencyLink],
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
    # The endpoints as their activities hold them, so no cell text is kept.
    key = (ids[pred], ids[succ], rel)
    # Both endpoints usually declare the same link; keep the first form.
    if key not in links:
        links[key] = DependencyLink(*key, lag)


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


def serialize_schedule(schedule: Schedule, out: TextIO) -> None:
    """Canonical comma-separated serialization with a fixed column order,
    written to ``out`` one row at a time."""
    extras = extra_columns(schedule)
    header = list(CANONICAL_COLUMNS) + extras
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for act in schedule.activities:
        row = canonical_row(schedule, act)
        writer.writerow([row.get(col, "") for col in header])


def serialize_records(schedule: Schedule, out: TextIO) -> None:
    """Line-delimited export, one JSON object per activity, written to
    ``out`` one line at a time."""
    index = schedule.index
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
        out.write(json.dumps(rec, sort_keys=True) + "\n")
