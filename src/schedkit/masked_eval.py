"""Masked-cell evaluation over schedules: tasks, scoring, preference pairs.

Ground-truth cells are hidden per task kind (three random columns, the
four relational columns, or the two date columns), prompts are built from
the masked row plus retrieved knowledge and context, and completions are
scored cell-wise with top-k candidate credit. Evaluated runs also yield
chosen/rejected preference pairs for alignment training.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, TextIO

from . import rng as prng
from .gateway import (
    Gateway,
    GatewayError,
    MISSING_COLUMNS_LABEL,
    encode_json,
    json_object,
    read_jsonl,
    wire_values,
)
from .knowledge import count_tokens
from .prompt_forge import AP, DA, MVP, build_task_prompt, prompt_tokens, word_count
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


class EvalError(Exception):
    pass


class TooFewColumnsError(EvalError):
    pass


class CorruptRecordError(EvalError):
    pass


class GatewayEvalError(EvalError):
    """Raised when a run lost instances to gateway failures."""

    def __init__(self, partial_report: "ScoreReport", failures: int):
        super().__init__(f"{failures} instance(s) failed at the gateway")
        self.partial_report = partial_report
        self.failures = failures


@dataclass(frozen=True)
class MaskSpec:
    row_id: str
    task_kind: str
    masked_columns: tuple[str, ...]
    ground_truth: dict[str, str]


@dataclass(frozen=True)
class Completion:
    raw_text: str
    parsed_cells: tuple[tuple[str, ...], ...]
    parse_ok: bool


@dataclass
class EvalInstance:
    mask: MaskSpec
    prompt_system: str
    prompt_user: str
    response_text: str | None
    parse_ok: bool
    cells_correct: tuple[bool, ...]
    error: str | None = None
    # The JSON encoding of ``prompt_user``, set by ``evaluate_tasks`` so
    # that ``save_instances`` reuses it.
    prompt_user_json: str | None = field(default=None, compare=False, repr=False)

    @property
    def all_correct(self) -> bool:
        return (
            self.error is None
            and self.parse_ok
            and bool(self.cells_correct)
            and all(self.cells_correct)
        )

    def to_dict(self) -> dict:
        return {
            "row_id": self.mask.row_id,
            "task_kind": self.mask.task_kind,
            "masked_columns": list(self.mask.masked_columns),
            "ground_truth": dict(self.mask.ground_truth),
            "prompt_system": self.prompt_system,
            "prompt_user": self.prompt_user,
            "response_text": self.response_text,
            "parse_ok": self.parse_ok,
            "cells_correct": list(self.cells_correct),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "EvalInstance":
        return cls(
            mask=MaskSpec(
                rec["row_id"],
                rec["task_kind"],
                tuple(rec["masked_columns"]),
                dict(rec["ground_truth"]),
            ),
            prompt_system=rec["prompt_system"],
            prompt_user=rec["prompt_user"],
            response_text=rec["response_text"],
            parse_ok=rec["parse_ok"],
            cells_correct=tuple(rec["cells_correct"]),
            error=rec["error"],
        )


@dataclass(frozen=True)
class EvalOutcome:
    """The part of an instance that ``build_report`` reads."""

    mask: MaskSpec
    cells_correct: tuple[bool, ...]
    error: str | None


@dataclass
class TaskScore:
    cells_total: int = 0
    cells_correct: int = 0
    rows_total: int = 0
    rows_correct: int = 0

    def add(self, correct_flags) -> None:
        self.cells_total += len(correct_flags)
        self.cells_correct += sum(bool(f) for f in correct_flags)
        self.rows_total += 1
        self.rows_correct += int(bool(correct_flags) and all(correct_flags))

    def accuracy(self, denominator: str = "cells") -> float:
        total = self.cells_total if denominator == "cells" else self.rows_total
        hit = self.cells_correct if denominator == "cells" else self.rows_correct
        return 100.0 * hit / total if total else 0.0


@dataclass
class ScoreReport:
    per_task: dict[str, TaskScore] = field(default_factory=dict)
    group_breakdowns: dict[str, dict[str, dict[str, TaskScore]]] = field(
        default_factory=dict
    )
    complete: bool = True

    def accuracy(self, kind: str, denominator: str = "cells") -> float:
        score = self.per_task.get(kind)
        return score.accuracy(denominator) if score else 0.0

    def to_json(self) -> str:
        def score_dict(s: TaskScore) -> dict:
            return {
                "cells_total": s.cells_total,
                "cells_correct": s.cells_correct,
                "rows_total": s.rows_total,
                "rows_correct": s.rows_correct,
                "accuracy_cells": s.accuracy("cells"),
                "accuracy_rows": s.accuracy("rows"),
            }

        payload = {
            "complete": self.complete,
            "per_task": {k: score_dict(v) for k, v in self.per_task.items()},
            "group_breakdowns": {
                dim: {
                    group: {k: score_dict(v) for k, v in kinds.items()}
                    for group, kinds in groups.items()
                }
                for dim, groups in self.group_breakdowns.items()
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScoreReport":
        """Inverse of ``to_json``: the counts come back, accuracies are
        recomputed from them."""

        def count(rec: dict, name: str) -> int:
            value = rec[name]
            if type(value) is not int:  # bool is an int, but not a JSON integer
                raise TypeError(f"{name}: expected a JSON integer, got {value!r}")
            return value

        def score(rec: dict) -> TaskScore:
            return TaskScore(*(count(rec, f.name) for f in fields(TaskScore)))

        def items(value) -> Iterable:
            if not isinstance(value, dict):
                raise TypeError(f"expected a JSON object, got {type(value).__name__}")
            return value.items()

        payload = json.loads(text)
        return cls(
            per_task={k: score(v) for k, v in items(payload["per_task"])},
            group_breakdowns={
                dim: {
                    group: {k: score(v) for k, v in items(kinds)}
                    for group, kinds in items(groups)
                }
                for dim, groups in items(payload["group_breakdowns"])
            },
            complete=payload["complete"],
        )

    def render_table(self) -> str:
        """Human summary: one accuracy row overall plus per-group rows."""
        kinds = sorted(self.per_task)
        lines = ["Group | " + " | ".join(f"{k} (%)" for k in kinds)]
        lines.append(
            "overall | "
            + " | ".join(f"{self.per_task[k].accuracy():.1f}" for k in kinds)
        )
        for dim in sorted(self.group_breakdowns):
            for group in sorted(self.group_breakdowns[dim]):
                cells = self.group_breakdowns[dim][group]
                row = [f"{dim}={group}"]
                for k in kinds:
                    row.append(f"{cells[k].accuracy():.1f}" if k in cells else "-")
                lines.append(" | ".join(row))
        return "\n".join(lines) + "\n"


def maskable_columns(row: dict[str, str]) -> list[str]:
    """Columns of a canonical row eligible for MVP masking: everything except
    the identity columns (id, name) and columns whose serialized value is
    empty."""
    return [
        col for col, value in row.items() if col not in (COL_ID, COL_NAME) and value != ""
    ]


def make_mask_tasks(schedule: Schedule, kind: str, seed: int = 42) -> list[MaskSpec]:
    """One MaskSpec per activity; MVP column picks are seeded per row."""
    rows = schedule.index.rows
    tasks = []
    for act in schedule.activities:
        row = rows[act.activity_id]
        if kind == MVP:
            pool = maskable_columns(row)
            if len(pool) < 3:
                raise TooFewColumnsError(
                    f"row {act.activity_id!r} has only {len(pool)} maskable column(s)"
                )
            gen = prng.derive(seed, "mask", act.activity_id)
            columns = tuple(gen.sample(pool, 3))
        elif kind == DA:
            columns = RELATIONAL_COLUMNS
        elif kind == AP:
            columns = DATE_COLUMNS
        else:
            raise EvalError(f"unknown task kind {kind!r}")
        tasks.append(
            MaskSpec(
                row_id=act.activity_id,
                task_kind=kind,
                masked_columns=columns,
                ground_truth={c: row[c] for c in columns},
            )
        )
    return tasks


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
    tasks: list[MaskSpec],
    gateway: Gateway,
    *,
    static_knowledge: str = "",
    rules: str = "",
    context_provider=None,
    k: int = 2,
    sink: Callable[[EvalInstance], None] | None = None,
) -> list[EvalOutcome]:
    """Fan prompts out to the gateway and score each completion.

    Gateway failures are captured per instance rather than raised, so a
    partial run still produces instances. Each instance goes to ``sink``
    (if any) in task order, regardless of worker interleaving, as soon as
    its exchange and every earlier one are done. Only its ``EvalOutcome``
    is returned, so no prompt text outlives the sink call; a caller that
    wants the instances passes ``sink=instances.append``.

    Each prompt is JSON-encoded once, for the transcript and the sink. Its
    token count is added up from its pieces, and each distinct system text,
    context and tail is counted once.
    """
    counts: dict[str, int] = {}

    def count(text: str) -> int:
        # Racing workers at worst count one text twice, to the same result.
        n = counts.get(text)
        if n is None:
            n = counts[text] = word_count(text)
        return n

    def run_one(mask: MaskSpec) -> EvalInstance:
        row_text = render_masked_row(schedule, mask)
        context_text = context_provider(mask.row_id) if context_provider else ""
        prompt = build_task_prompt(
            mask.task_kind,
            row_text,
            static_knowledge,
            context_text,
            rules,
            masked_columns=mask.masked_columns,
            top_k=k,
        )
        user_json = encode_json(prompt.user_text)
        inst = EvalInstance(
            mask=mask,
            prompt_system=prompt.system_text,
            prompt_user=prompt.user_text,
            response_text=None,
            parse_ok=False,
            cells_correct=tuple(False for _ in mask.masked_columns),
            prompt_user_json=user_json,
        )
        try:
            response = gateway.complete(
                prompt.system_text,
                prompt.user_text,
                prompt_tokens=prompt_tokens(prompt, count),
                user_json=user_json,
            )
        except GatewayError as exc:
            inst.error = f"{type(exc).__name__}: {exc}"
            return inst
        completion = parse_values(response, len(mask.masked_columns), k=k)
        inst.response_text = response
        inst.parse_ok = completion.parse_ok
        inst.cells_correct = score_completion(mask, completion)
        return inst

    workers = gateway.cfg.max_parallel
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = map(run_one, tasks) if pool is None else pool.map(run_one, tasks)
        outcomes = []
        for inst in results:
            if sink is not None:
                sink(inst)
            outcomes.append(EvalOutcome(inst.mask, inst.cells_correct, inst.error))
        return outcomes


def build_report(
    schedule: Schedule, instances: Iterable[EvalInstance | EvalOutcome]
) -> ScoreReport:
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


def run_eval(
    schedule: Schedule,
    tasks: list[MaskSpec],
    gateway: Gateway,
    **eval_inputs,
) -> ScoreReport:
    """Evaluate all tasks and aggregate; ``eval_inputs`` (prompt inputs,
    ``k`` and ``sink``) go to ``evaluate_tasks``. Gateway failures surface
    after the fold, as a ``GatewayEvalError`` with the partial report
    attached."""
    outcomes = evaluate_tasks(schedule, tasks, gateway, **eval_inputs)
    report = build_report(schedule, outcomes)
    failures = sum(1 for o in outcomes if o.error is not None)
    if failures:
        raise GatewayEvalError(report, failures)
    return report


# --- preference pairs -----------------------------------------------------------


@dataclass(frozen=True)
class PreferenceRecord:
    prompt_text: str
    chosen_text: str
    rejected_text: str
    task_kind: str
    row_id: str
    context_length_tokens: int
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, rec: dict) -> "PreferenceRecord":
        return cls(
            prompt_text=rec["prompt_text"],
            chosen_text=rec["chosen_text"],
            rejected_text=rec["rejected_text"],
            task_kind=rec["task_kind"],
            row_id=rec["row_id"],
            context_length_tokens=rec["context_length_tokens"],
            meta=rec.get("meta", {}),
        )


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


def collect_preferences(
    schedule: Schedule,
    instances: list[EvalInstance],
    *,
    synthesize_negatives: bool = False,
    seed: int = 42,
) -> list[PreferenceRecord]:
    """Pair ground-truth completions against observed (or synthetic) rejects.

    Instances sharing (row, kind) contribute a single record: the first
    incorrect completion becomes the rejection, later ones ride along in
    meta. Fully correct groups only pair up when negative synthesis is on.
    """
    groups: dict[tuple[str, str], list[EvalInstance]] = {}
    for inst in instances:
        groups.setdefault((inst.mask.row_id, inst.mask.task_kind), []).append(inst)

    records = []
    for group in groups.values():
        chosen = _truth_wire(group[0].mask)
        wrong = [
            inst
            for inst in group
            if inst.error is None
            and inst.response_text is not None
            and not inst.all_correct
        ]
        if wrong:
            source, rejected = wrong[0], wrong[0].response_text
            if rejected == chosen:
                continue
            meta: dict = {}
            if len(wrong) > 1:
                meta["extra_rejected"] = [w.response_text for w in wrong[1:]]
        elif synthesize_negatives:
            source = next((inst for inst in group if inst.all_correct), None)
            synth = None if source is None else _synthesize_rejection(schedule, source.mask, seed)
            if synth is None:
                continue
            rejected, corrupted_col = synth
            meta = {"synthetic_negative": True, "corrupted_column": corrupted_col}
        else:
            continue
        records.append(
            PreferenceRecord(
                prompt_text=source.prompt_user,
                chosen_text=chosen,
                rejected_text=rejected,
                task_kind=source.mask.task_kind,
                row_id=source.mask.row_id,
                context_length_tokens=count_tokens(source.prompt_user),
                meta=meta,
            )
        )
    return records


def preference_store_append(path: Path, record: PreferenceRecord) -> None:
    """One JSON line per record; the single write keeps appends atomic."""
    if record.chosen_text == record.rejected_text:
        raise EvalError("chosen and rejected completions are identical")
    line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)


def preference_store_load(path: Path) -> list[PreferenceRecord]:
    return read_jsonl(path, PreferenceRecord.from_dict, CorruptRecordError)


def instance_line(inst: EvalInstance) -> str:
    """``json.dumps(inst.to_dict(), sort_keys=True)``, built field by field
    so that a prompt already encoded (``prompt_user_json``) is not encoded
    again."""
    fields = {
        "cells_correct": encode_json(list(inst.cells_correct)),
        "error": encode_json(inst.error),
        "ground_truth": encode_json(dict(inst.mask.ground_truth)),
        "masked_columns": encode_json(list(inst.mask.masked_columns)),
        "parse_ok": encode_json(inst.parse_ok),
        "prompt_system": encode_json(inst.prompt_system),
        "prompt_user": inst.prompt_user_json or encode_json(inst.prompt_user),
        "response_text": encode_json(inst.response_text),
        "row_id": encode_json(inst.mask.row_id),
        "task_kind": encode_json(inst.mask.task_kind),
    }
    return json_object(fields)


def save_instances(fh: TextIO, instances: Iterable[EvalInstance]) -> None:
    """One ``instance_line`` per instance, to an open text file that a
    streaming caller writes instance by instance."""
    for inst in instances:
        fh.write(instance_line(inst))
        fh.write("\n")


def load_instances(path: Path) -> list[EvalInstance]:
    return read_jsonl(path, EvalInstance.from_dict, CorruptRecordError)
