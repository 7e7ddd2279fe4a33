"""The preference store: one JSON line per chosen/rejected completion pair.

``collect-prefs`` appends the pairs it makes and ``train-scorer`` reads
them back. The module imports only the package root and ``records``, so a
stage that reads a store loads neither the schedule, the evaluation nor the
gateway modules.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import CorruptRecordError, DataError
from .records import count_records, read_jsonl, record_fields, write_line


class PreferenceRecord(NamedTuple):
    prompt_text: str
    chosen_text: str
    rejected_text: str
    task_kind: str
    row_id: str
    context_length_tokens: int
    # One empty dict for every record made without one; no record's meta
    # is changed after it is made.
    meta: dict = {}


PREFERENCE_FIELDS = record_fields(PreferenceRecord)


class PreferenceStore:
    """The records of a preference file, read from disk on each pass and
    never held: iterating yields them one line at a time
    (``records.read_jsonl``), and ``len`` counts them without parsing them
    (``records.count_records``)."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[PreferenceRecord]:
        return read_jsonl(self.path, PREFERENCE_FIELDS, PreferenceRecord, CorruptRecordError)

    def __len__(self) -> int:
        return count_records(self.path)


def preference_store_append(path: Path, records: Iterable[PreferenceRecord]) -> int:
    """Append one ``PREFERENCE_FIELDS`` line per record, each as the records
    yield it, through one file handle opened at the first record; the
    number appended."""
    count = 0
    fh = None
    try:
        for record in records:
            if record.chosen_text == record.rejected_text:
                raise DataError("chosen and rejected completions are identical")
            if fh is None:
                fh = open(path, "a", encoding="utf-8")
            write_line(fh, PREFERENCE_FIELDS, partial(getattr, record))
            count += 1
    finally:
        if fh is not None:
            fh.close()
    return count


def preference_store_load(path: Path) -> PreferenceStore:
    return PreferenceStore(path)
