"""Masked-cell evaluation over schedules: tasks, scoring, preference pairs.

Ground-truth cells are hidden per task kind (three random columns, the
four relational columns, or the two date columns), prompts are built from
the masked row plus retrieved knowledge and context, and completions are
scored cell-wise with top-k candidate credit. Evaluated runs also yield
chosen/rejected preference pairs for alignment training.
"""

from __future__ import annotations

import re
from datetime import date
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from . import CorruptRecordError, DataError, Struct
from . import rng as prng
from .gateway import (
    Gateway,
    MISSING_COLUMNS_LABEL,
    TranscriptLog,
    error_text,
    exchange,
    wire_values,
)
# The preference store lives in the numpy-free ``preferences`` module, which
# ``train-scorer`` loads without this one; its names stay bound here, where
# ``collect-prefs`` and the benchmark's tracer look them up.
from .preferences import (
    PreferenceRecord,
    preference_store_append,
    preference_store_load,
)
from .prompt_forge import AP, DA, MVP, build_task_prompt, prompt_tokens, word_count
from .records import encode_fields, encode_json, read_jsonl, write_line
from .report import ScoreReport, TaskScore
from .schedule import (
    COL_AREA,
    COL_DISCIPLINE,
    COL_FINISH,
    COL_ID,
    COL_LEVEL,
    COL_NAME,
    COL_START,
    COL_STATUS,
    Schedule,
)

MASK_SENTINEL = "[MASKED]"
RELATIONAL_COLUMNS = (COL_STATUS, COL_LEVEL, COL_AREA, COL_DISCIPLINE)
DATE_COLUMNS = (COL_START, COL_FINISH)
GROUP_DIMENSIONS = ("discipline", "level", "area")

_VALUE_RE = re.compile(r"\[Value\](.*?)\[/Value\]", re.DOTALL)


class EvalError(DataError):
    pass


class TooFewColumnsError(EvalError):
    pass


class UnknownTaskKindError(EvalError, ValueError):
    pass


TASK_KINDS = (MVP, DA, AP)


def _check_task_kind(kind: str) -> None:
    if kind not in TASK_KINDS:
        raise UnknownTaskKindError(f"unknown task kind {kind!r}")


class MaskSpec(Struct):
    _fields = __slots__ = ("row_id", "task_kind", "masked_columns", "ground_truth")

    def __init__(
        self,
        row_id: str,
        task_kind: str,
        masked_columns: tuple[str, ...],
        ground_truth: dict[str, str],
    ):
        _check_task_kind(task_kind)
        self.row_id = row_id
        self.task_kind = task_kind
        self.masked_columns = masked_columns
        self.ground_truth = ground_truth


class Completion(NamedTuple):
    raw_text: str
    parsed_cells: tuple[tuple[str, ...], ...]
    parse_ok: bool


class EvalInstance(Struct):
    _fields = (
        "mask",
        "prompt_system",
        "prompt_user",
        "response_text",
        "parse_ok",
        "cells_correct",
        "error",
    )
    # ``prompt_user_json``, the JSON encoding of ``prompt_user``, is given
    # by ``evaluate_tasks`` so that its transcript record and
    # ``save_instances`` reuse it; it is no field.
    __slots__ = (*_fields, "prompt_user_json")

    def __init__(
        self,
        mask: MaskSpec,
        prompt_system: str,
        prompt_user: str,
        response_text: str | None,
        parse_ok: bool,
        cells_correct: tuple[bool, ...],
        error: str | None = None,
        prompt_user_json: str | None = None,
    ):
        self.mask = mask
        self.prompt_system = prompt_system
        self.prompt_user = prompt_user
        self.response_text = response_text
        self.parse_ok = parse_ok
        self.cells_correct = cells_correct
        self.error = error
        self.prompt_user_json = prompt_user_json

    @property
    def all_correct(self) -> bool:
        return (
            self.error is None
            and self.parse_ok
            and bool(self.cells_correct)
            and all(self.cells_correct)
        )


# An instance line's fields: its mask's, then the rest.
MASK_FIELDS = (
    ("ground_truth", dict, False),
    ("masked_columns", (list, str), False),
    ("row_id", str, False),
    ("task_kind", str, False),
)
_OUTCOME_FIELDS = (
    ("cells_correct", (list, bool), False),
    ("error", str, True),
    ("parse_ok", bool, False),
    ("prompt_system", str, False),
    ("prompt_user", str, False),
    ("response_text", str, True),
)
INSTANCE_FIELDS = MASK_FIELDS + _OUTCOME_FIELDS


def maskable_columns(row: dict[str, str]) -> list[str]:
    """Columns of a canonical row eligible for MVP masking: everything except
    the identity columns (id, name) and columns whose serialized value is
    empty."""
    return [
        col for col, value in row.items() if col not in (COL_ID, COL_NAME) and value != ""
    ]


def make_mask_tasks(schedule: Schedule, kind: str, seed: int = 42) -> Iterator[MaskSpec]:
    """One MaskSpec per activity, in schedule order, each made as the
    returned iterator reaches it; MVP column picks are seeded per row. The
    kind is checked when this is called. An MVP row with fewer than 3
    maskable columns raises ``TooFewColumnsError`` when its mask is made;
    only a schedule built in memory has one, since a parsed row always
    holds its WBS and both dates."""
    _check_task_kind(kind)
    rows = schedule.index.rows

    def mask(act) -> MaskSpec:
        row = rows[act.activity_id]
        if kind == MVP:
            pool = maskable_columns(row)
            if len(pool) < 3:
                raise TooFewColumnsError(
                    f"row {act.activity_id!r} has only {len(pool)} maskable column(s)"
                )
            columns = tuple(prng.derive(seed, "mask", act.activity_id).sample(pool, 3))
        else:
            columns = RELATIONAL_COLUMNS if kind == DA else DATE_COLUMNS
        return MaskSpec(act.activity_id, kind, columns, {c: row[c] for c in columns})

    return map(mask, schedule.activities)


def render_masked_row(schedule: Schedule, mask: MaskSpec) -> str:
    """Row text with masked cells blanked and the masked list made explicit."""
    lines = []
    for col, value in schedule.index.rows[mask.row_id].items():
        shown = MASK_SENTINEL if col in mask.masked_columns else value
        lines.append(f"{col}: {shown}")
    lines.append(f"{MISSING_COLUMNS_LABEL}: {', '.join(mask.masked_columns)}")
    return "\n".join(lines)


def parse_values(raw_text: str, expected_arity: int, k: int = 2) -> Completion:
    """Extract [Value]...[/Value] items; parse failures are data, not errors."""
    cells = []
    for item in _VALUE_RE.findall(raw_text):
        candidates = tuple(c.strip() for c in item.split("|"))[:k]
        cells.append(candidates)
    return Completion(
        raw_text=raw_text,
        parsed_cells=tuple(cells),
        parse_ok=len(cells) == expected_arity,
    )


_DATE_PATTERNS = (
    re.compile(r"^(\d{4})-(\d{1,2})-(\d{1,2})$"),
    re.compile(r"^(\d{4})/(\d{1,2})/(\d{1,2})$"),
)


def canonical_cell(text: str) -> str:
    return " ".join(text.split()).casefold()


def canonical_date(text: str) -> str | None:
    cell = text.strip()
    for pattern in _DATE_PATTERNS:
        m = pattern.match(cell)
        if m:
            year, month, day = (int(g) for g in m.groups())
            try:
                return date(year, month, day).isoformat()
            except ValueError:
                return None
    return None


def column_kind(column: str) -> str:
    return "date" if column in DATE_COLUMNS else "text"


def score_cell(candidates, truth: str, kind: str = "text") -> bool:
    """Correct iff the truth appears among the ranked candidates."""
    if kind == "date":
        truth_canon = canonical_date(truth) or canonical_cell(truth)
        for cand in candidates:
            if (canonical_date(cand) or canonical_cell(cand)) == truth_canon:
                return True
        return False
    truth_canon = canonical_cell(truth)
    return any(canonical_cell(c) == truth_canon for c in candidates)


def score_completion(mask: MaskSpec, completion: Completion) -> tuple[bool, ...]:
    flags = []
    for i, col in enumerate(mask.masked_columns):
        if not completion.parse_ok or i >= len(completion.parsed_cells):
            flags.append(False)
            continue
        flags.append(
            score_cell(
                completion.parsed_cells[i], mask.ground_truth[col], column_kind(col)
            )
        )
    return tuple(flags)


def evaluate_tasks(
    schedule: Schedule,
    tasks: Iterable[MaskSpec],
    gateway: Gateway,
    *,
    transcript: TranscriptLog | None = None,
    rules: str = "",
    context_provider=None,
    k: int = 2,
    sink: Callable[[EvalInstance], None] | None = None,
) -> ScoreReport:
    """Send each task's prompt to the gateway, one exchange at a time in
    task order, score each completion and return the run's
    ``build_report``. ``tasks`` may be any iterable, read one mask at a
    time (a ``MaskSpec`` is of an MVP, DA or AP task by construction).

    Gateway failures are captured per instance rather than raised: a
    partial run still produces instances, and its report has ``complete``
    False. Each pass of one loop renders a task's prompt, sends it through
    ``gateway.exchange``, which writes the exchange, a failed one
    included, to ``transcript`` (if any), then parses and scores the
    response, builds the task's one ``EvalInstance``, hands it to ``sink``
    (if any) and to ``build_report``, which keeps no prompt text. A caller
    that wants the instances passes ``sink=instances.append``.

    ``context_provider`` maps a row id to its context's ``ContextPieces``;
    without it every prompt's context is empty. A prompt's JSON encoding
    (for the transcript and the sink) and its token count are put together
    from its pieces: the masked row and the tail are encoded here, the
    context's parts come as its pieces hold them, so a HIERARCHICAL block
    that a WBS bucket shares is escaped and counted once per run, not once
    per prompt. Each distinct system text, tail and context head and tail
    is counted once, and each distinct retrieved text
    (``ContextPieces.knowledge``) counted and escaped once.
    """
    from .context import EMPTY_CONTEXT, json_escape

    count = lru_cache(maxsize=None)(word_count)
    escape = lru_cache(maxsize=None)(json_escape)

    def evaluated() -> Iterator[EvalInstance]:
        for mask in tasks:
            pieces = context_provider(mask.row_id) if context_provider else EMPTY_CONTEXT
            prompt = build_task_prompt(
                mask.task_kind,
                render_masked_row(schedule, mask),
                context_text=pieces.text(),
                rules_text=rules,
                masked_columns=mask.masked_columns,
                top_k=k,
            )
            head, _, tail = prompt.pieces
            user_json = "".join(
                (encode_json(head)[:-1], *pieces.escaped(escape), encode_json(tail)[1:])
            )
            response, error = exchange(
                gateway, prompt.system_text, prompt.user_text, transcript,
                prompt_tokens(prompt, count, pieces.tokens(count)), {"user_text": user_json},
            )
            if response is None:
                parse_ok, cells_correct = False, (False,) * len(mask.masked_columns)
            else:
                completion = parse_values(response, len(mask.masked_columns), k=k)
                parse_ok, cells_correct = completion.parse_ok, score_completion(mask, completion)
            inst = EvalInstance(
                mask, prompt.system_text, prompt.user_text, response, parse_ok, cells_correct,
                error_text(error), user_json,
            )
            if sink is not None:
                sink(inst)
            yield inst

    return build_report(schedule, evaluated())


def build_report(schedule: Schedule, instances: Iterable[EvalInstance]) -> ScoreReport:
    """Aggregate counts overall and per discipline/level/area group."""
    by_id = schedule.index.by_id
    report = ScoreReport()
    for dim in GROUP_DIMENSIONS:
        report.group_breakdowns[dim] = {}
    for inst in instances:
        kind = inst.mask.task_kind
        report.per_task.setdefault(kind, TaskScore()).add(inst.cells_correct)
        if inst.error is not None:
            report.complete = False
        act = by_id.get(inst.mask.row_id)
        if act is None:
            continue
        for dim in GROUP_DIMENSIONS:
            group = getattr(act, dim)
            slot = report.group_breakdowns[dim].setdefault(group, {})
            slot.setdefault(kind, TaskScore()).add(inst.cells_correct)
    return report


# --- preference pairs -----------------------------------------------------------


def _truth_wire(mask: MaskSpec) -> str:
    return wire_values([mask.ground_truth[c] for c in mask.masked_columns])


def _synthesize_rejection(
    schedule: Schedule, mask: MaskSpec, seed: int
) -> tuple[str, str] | None:
    """Corrupt one masked cell with the same column's value from another row."""
    gen = prng.derive(seed, "corrupt", mask.row_id, mask.task_kind)
    columns = list(mask.masked_columns)
    order = gen.sample(columns, len(columns))
    for col in order:
        truth = mask.ground_truth[col]
        # Values held by at least one activity whose id is not the row's.
        alternatives = sorted(
            value
            for value, ids in schedule.index.value_holders(col).items()
            if value not in (truth, "") and (len(ids) > 1 or mask.row_id not in ids)
        )
        if alternatives:
            swapped = dict(mask.ground_truth)
            swapped[col] = alternatives[gen.randint(len(alternatives))]
            return wire_values([swapped[c] for c in mask.masked_columns]), col
    return None


class _PreferenceGroup:
    """What one ``(row_id, task_kind)`` group's record needs, kept while
    its instances are read: the chosen text (the first mask's truth), the
    positions of the first wrong and first fully correct instance, and the
    wrong response texts in order."""

    __slots__ = ("chosen", "wrong_at", "correct_at", "wrong")

    def __init__(self, chosen: str):
        self.chosen = chosen
        self.wrong_at: int | None = None
        self.correct_at: int | None = None
        self.wrong: list[str] = []


def collect_preferences(
    schedule: Schedule,
    instances: Iterable[EvalInstance],
    *,
    synthesize_negatives: bool = False,
    seed: int = 42,
    reread: Callable[[set[int]], Iterable[EvalInstance]] | None = None,
) -> Iterator[PreferenceRecord]:
    """Pair ground-truth completions against observed (or synthetic) rejects.

    Instances sharing (row, kind) contribute a single record: the first
    incorrect completion becomes the rejection, later ones ride along in
    meta. Fully correct groups only pair up when negative synthesis is on.
    Records come in the order their groups first appear.

    Two passes keep no prompt text beyond its record. The first, in this
    call, reads every instance and keeps only what each group's record
    needs, so a bad instance raises before any record is made. The second,
    in the returned iterator, reads again only each record's source
    instance: ``reread(positions)`` yields the instances at those positions
    (from 0), in order; without it ``instances`` is indexed. A record whose
    source comes after that of a later group is held back until its turn.
    """
    groups: dict[tuple[str, str], _PreferenceGroup] = {}
    for pos, inst in enumerate(instances):
        key = (inst.mask.row_id, inst.mask.task_kind)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _PreferenceGroup(_truth_wire(inst.mask))
        if inst.error is None and inst.response_text is not None and not inst.all_correct:
            group.wrong.append(inst.response_text)
            if group.wrong_at is None:
                group.wrong_at = pos
        elif inst.all_correct and group.correct_at is None:
            group.correct_at = pos

    # Each record's group, in first-appearance order, by its source's position.
    sources: dict[int, _PreferenceGroup] = {}
    for group in groups.values():
        if group.wrong:
            if group.wrong[0] != group.chosen:
                sources[group.wrong_at] = group
        elif synthesize_negatives and group.correct_at is not None:
            sources[group.correct_at] = group
    if reread is None:
        reread = lambda positions: (instances[i] for i in sorted(positions))
    return _paired(schedule, sources, reread(set(sources)), seed)


def _paired(schedule, sources, read, seed) -> Iterator[PreferenceRecord]:
    """Each source's record as ``read`` yields the sources in file order,
    held back until every earlier group's record is out."""
    turns = list(sources)  # source positions, in group order
    held: dict[int, PreferenceRecord | None] = {}
    turn = 0
    for pos, source in zip(sorted(sources), read):
        held[pos] = _preference_record(schedule, sources[pos], source, seed)
        while turn < len(turns) and turns[turn] in held:
            record = held.pop(turns[turn])
            turn += 1
            if record is not None:
                yield record


def _preference_record(
    schedule: Schedule, group: _PreferenceGroup, source: EvalInstance, seed: int
) -> PreferenceRecord | None:
    """The group's record from its source instance; None when no rejection
    can be synthesized."""
    if group.wrong:
        rejected = group.wrong[0]
        meta: dict = {"extra_rejected": group.wrong[1:]} if len(group.wrong) > 1 else {}
    else:
        synth = _synthesize_rejection(schedule, source.mask, seed)
        if synth is None:
            return None
        rejected, corrupted_col = synth
        meta = {"synthetic_negative": True, "corrupted_column": corrupted_col}
    return PreferenceRecord(
        prompt_text=source.prompt_user,
        chosen_text=group.chosen,
        rejected_text=rejected,
        task_kind=source.mask.task_kind,
        row_id=source.mask.row_id,
        context_length_tokens=word_count(source.prompt_user),
        meta=meta,
    )


def save_instances(fh: TextIO, instances: Iterable[EvalInstance]) -> None:
    """One ``INSTANCE_FIELDS`` line per instance, to an open text file that
    a streaming caller writes instance by instance; each line is written in
    its pieces, and a prompt already encoded (``prompt_user_json``) is not
    encoded again or copied into it."""
    for inst in instances:
        encoded = encode_fields(MASK_FIELDS, partial(getattr, inst.mask))
        encoded["prompt_user"] = inst.prompt_user_json
        write_line(fh, INSTANCE_FIELDS, partial(getattr, inst), encoded)


def load_instances(path: Path, only: set[int] | None = None, rows=None) -> Iterator[EvalInstance]:
    """The saved instances, read one line at a time; with ``only``, just
    those at these positions (``records.read_jsonl``). A task kind that is
    not MVP, DA or AP (``MaskSpec``) or a masked column that
    ``ground_truth`` has no text for is a ``ValueError``; with ``rows``, so
    is a ``row_id`` that is not among them."""

    def make(**values) -> EvalInstance:
        mask = MaskSpec(**{name: values.pop(name) for name, _, _ in MASK_FIELDS})
        for column in mask.masked_columns:
            if not isinstance(mask.ground_truth.get(column), str):
                raise ValueError(f"ground_truth has no text for masked column {column!r}")
        if rows is not None and mask.row_id not in rows:
            raise ValueError(f"row_id {mask.row_id!r} is no activity of the schedule")
        return EvalInstance(mask, **values)

    return read_jsonl(path, INSTANCE_FIELDS, make, CorruptRecordError, only)
