"""Score reports of a masked evaluation: cell and row counts per task kind,
overall and per schedule group, their JSON form and their table.

``report`` re-renders a saved report without loading the evaluation loop.
"""

from __future__ import annotations

import json
from typing import Iterable

from . import Struct


class TaskScore(Struct):
    _fields = __slots__ = ("cells_total", "cells_correct", "rows_total", "rows_correct")

    def __init__(
        self,
        cells_total: int = 0,
        cells_correct: int = 0,
        rows_total: int = 0,
        rows_correct: int = 0,
    ):
        self.cells_total = cells_total
        self.cells_correct = cells_correct
        self.rows_total = rows_total
        self.rows_correct = rows_correct

    def add(self, correct_flags) -> None:
        self.cells_total += len(correct_flags)
        self.cells_correct += sum(bool(f) for f in correct_flags)
        self.rows_total += 1
        self.rows_correct += int(bool(correct_flags) and all(correct_flags))

    def accuracy(self, denominator: str = "cells") -> float:
        total = self.cells_total if denominator == "cells" else self.rows_total
        hit = self.cells_correct if denominator == "cells" else self.rows_correct
        return 100.0 * hit / total if total else 0.0


class ScoreReport(Struct):
    _fields = __slots__ = ("per_task", "group_breakdowns", "complete")

    def __init__(
        self,
        per_task: dict[str, TaskScore] | None = None,
        group_breakdowns: dict[str, dict[str, dict[str, TaskScore]]] | None = None,
        complete: bool = True,
    ):
        self.per_task = {} if per_task is None else per_task
        self.group_breakdowns = {} if group_breakdowns is None else group_breakdowns
        self.complete = complete

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
        recomputed from them. Counts no run can produce (negative, or more
        correct than total) and a non-boolean ``complete`` are rejected."""

        def count(rec: dict, name: str) -> int:
            value = rec[name]
            if type(value) is not int:  # bool is an int, but not a JSON integer
                raise TypeError(f"{name}: expected a JSON integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name}: expected a count >= 0, got {value}")
            return value

        def score(rec: dict) -> TaskScore:
            s = TaskScore(*(count(rec, name) for name in TaskScore._fields))
            if s.cells_correct > s.cells_total or s.rows_correct > s.rows_total:
                raise ValueError(f"more correct than total: {s}")
            return s

        def items(value) -> Iterable:
            if not isinstance(value, dict):
                raise TypeError(f"expected a JSON object, got {type(value).__name__}")
            return value.items()

        payload = json.loads(text)
        complete = payload["complete"]
        if type(complete) is not bool:
            raise TypeError(f"complete: expected a JSON boolean, got {complete!r}")
        return cls(
            per_task={k: score(v) for k, v in items(payload["per_task"])},
            group_breakdowns={
                dim: {
                    group: {k: score(v) for k, v in items(kinds)}
                    for group, kinds in items(groups)
                }
                for dim, groups in items(payload["group_breakdowns"])
            },
            complete=complete,
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
