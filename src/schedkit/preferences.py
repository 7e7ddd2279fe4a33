"""The preference store: one JSON line per chosen/rejected completion pair.

``collect-prefs`` appends the pairs it makes and ``train-scorer`` reads
them back. The module imports only the package root and ``gateway``'s
field tables, so a stage that reads a store loads neither the schedule nor
the evaluation modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

from . import CorruptRecordError, DataError
from .gateway import dataclass_fields, encode_fields, object_parts, read_jsonl


@dataclass(frozen=True)
class PreferenceRecord:
    prompt_text: str
    chosen_text: str
    rejected_text: str
    task_kind: str
    row_id: str
    context_length_tokens: int
    meta: dict = field(default_factory=dict)


PREFERENCE_FIELDS = dataclass_fields(PreferenceRecord)


class PreferenceStore:
    """The records of a preference file, read from disk on each pass and
    never held: iterating yields them one line at a time
    (``gateway.read_jsonl``), and ``len`` counts the lines that are not
    blank, by the same rule, without parsing them."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[PreferenceRecord]:
        return read_jsonl(self.path, PREFERENCE_FIELDS, PreferenceRecord, CorruptRecordError)

    def __len__(self) -> int:
        # Bytes that are not UTF-8 decode to U+FFFD, which is not blank, so
        # their line counts here and ``read_jsonl`` names it.
        with open(self.path, "rb") as fh:
            return sum(1 for raw in fh if raw.decode("utf-8", "replace").strip())


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
            fh.writelines(object_parts(encode_fields(PREFERENCE_FIELDS, partial(getattr, record))))
            fh.write("\n")
            count += 1
    finally:
        if fh is not None:
            fh.close()
    return count


def preference_store_load(path: Path) -> PreferenceStore:
    return PreferenceStore(path)
