from __future__ import annotations

import io
import json
import re
import sys
from datetime import date
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from schedkit.schedule import (
    Activity,
    DependencyLink,
    Schedule,
    serialize_records,
    serialize_schedule,
)


def make_activity(
    activity_id: str,
    *,
    name: str = "",
    status: str = "Not Started",
    wbs: tuple[str, ...] = ("P",),
    discipline: str = "CSA.Struc.Steel",
    level: str = "SF",
    area: str = "6E",
    zone: str | None = None,
    start: date = date(2024, 1, 1),
    finish: date = date(2024, 1, 8),
    extra: dict[str, str] | None = None,
) -> Activity:
    return Activity(
        activity_id=activity_id,
        name=name or f"Task {activity_id}",
        status=status,
        wbs=wbs,
        discipline=discipline,
        level=level,
        area=area,
        zone=zone,
        current_start=start,
        current_finish=finish,
        extra_attributes=extra or {},
    )


def chain_schedule(ids: tuple[str, ...] = ("A", "B", "C")) -> Schedule:
    acts = tuple(make_activity(i) for i in ids)
    links = tuple(
        DependencyLink(ids[i], ids[i + 1], "FS", 0) for i in range(len(ids) - 1)
    )
    return Schedule(activities=acts, links=links, source_label="chain")


def csv_text(schedule: Schedule) -> str:
    """``serialize_schedule`` of ``schedule``: its ``schedule.csv`` text."""
    buf = io.StringIO()
    serialize_schedule(schedule, buf)
    return buf.getvalue()


def records_text(schedule: Schedule) -> str:
    """``serialize_records`` of ``schedule``: its ``schedule.jsonl`` text."""
    buf = io.StringIO()
    serialize_records(schedule, buf)
    return buf.getvalue()


@pytest.fixture
def chain():
    return chain_schedule()


def check_read_back(load, path: Path, expected: list[dict], items: list, error) -> None:
    """``load(path)`` reads back ``items``, or, if a string of record i of
    ``expected`` holds a lone surrogate, which the writer escapes but UTF-8
    cannot encode, raises ``error`` naming line i + 1."""
    for line_no, record in enumerate(expected, start=1):
        try:
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(error, match=rf"^{re.escape(str(path))}:{line_no}: UnicodeEncodeError: "):
                load(path)
            return
    assert load(path) == items
