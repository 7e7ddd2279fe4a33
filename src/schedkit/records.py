"""The JSON-lines records that the stages pass to each other.

Each kind of record has a field table; one encoder writes every such line
as ``json.dumps(record, sort_keys=True)`` (``write_line``) and one decoder
reads it back and checks it (``read_jsonl``, ``LineIndex``). The module
imports only the standard library.
"""

from __future__ import annotations

import functools
import json
import operator
import typing
from collections.abc import Sequence
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

# ``json.dumps(value, sort_keys=True)``'s C encoder, built once rather than
# on every call. It keeps no circular-reference markers, which a reused
# encoder would share between calls: a value that contains itself recurses
# until ``RecursionError`` instead of raising ``ValueError``.
_SORTED_JSON = c_make_encoder(
    None,
    json.JSONEncoder().default,
    encode_basestring_ascii,
    None,
    ": ",
    ", ",
    True,
    False,
    True,
)


def encode_json(value) -> str:
    """``json.dumps(value, sort_keys=True)``; strings and None skip the
    encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "null" if value is None else "".join(_SORTED_JSON(value, 0))


@functools.lru_cache(maxsize=256)
def _key_part(key: str, first: bool) -> str:
    """What ``json.dumps`` writes before the value of ``key``: the object's
    opening brace or the item separator, the encoded key and ``": "``. Field
    names are few, so each is encoded once."""
    return ("{" if first else ", ") + encode_basestring_ascii(key) + ": "


def object_parts(encoded: dict[str, str]) -> list[str]:
    """The pieces of the JSON object of the already-encoded values in
    ``encoded``, with sorted keys, as ``json.dumps`` writes it; each value
    is one piece, so a long value is never copied."""
    parts: list[str] = []
    for k in sorted(encoded):
        parts += (_key_part(k, not parts), encoded[k])
    parts.append("}" if parts else "{}")
    return parts


# A field table lists the fields of one kind of JSON-lines record as
# ``(name, type, nullable)``. The type is ``str``, ``int``, ``float`` (any
# JSON number), ``bool``, ``dict`` or ``(list, item type)``; a nullable
# field may also be null. One encoder writes every such record and one
# decoder reads it back.


def dataclass_fields(cls) -> tuple:
    """The field table of a flat dataclass: each field's name and annotated
    type, none nullable."""
    return tuple((name, kind, False) for name, kind in typing.get_type_hints(cls).items())


def encode_fields(fields, get, encoded=None) -> dict[str, str]:
    """The JSON encoding of ``get(name)``, the value of each field ``name``
    in the table ``fields``, by name; ``encoded`` supplies encodings the
    caller already has, and a None there is none. ``object_parts`` of the
    result is the record's line, ``json.dumps(..., sort_keys=True)``. A
    dataclass record is read through ``partial(getattr, record)``, not
    ``vars``, which would give each record a ``__dict__`` for its life."""
    given = encoded or {}
    return {name: given.get(name) or encode_json(get(name)) for name, _, _ in fields}


def write_line(fh, fields, get, encoded=None) -> None:
    """``encode_fields(fields, get, encoded)``'s line and its newline, to ``fh``."""
    fh.writelines(object_parts(encode_fields(fields, get, encoded)))
    fh.write("\n")


def _is(value, kind: type) -> bool:
    """Whether a parsed JSON value has the table type ``kind``; a bool is
    no number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def decode_fields(fields, record: dict) -> dict:
    """The value in the parsed JSON object ``record`` of each field in the
    table ``fields``, by name: ``KeyError`` for a missing field,
    ``TypeError`` naming one of the wrong type, ``UnicodeEncodeError`` for
    a string, in it or in an object, that is not UTF-8. A list's items are
    checked too and come back as a tuple."""
    values = {}
    for name, kind, nullable in fields:
        value = record[name]
        kind, each = kind if isinstance(kind, tuple) else (kind, None)
        if not ((value is None and nullable) or _is(value, kind)):
            raise TypeError(f"{name} is {type(value).__name__}, not {kind.__name__}")
        if each is not None:
            value = tuple(value)
            for item in value:
                if not _is(item, each):
                    raise TypeError(f"{name} holds a {type(item).__name__}, not {each.__name__}")
                _encodable(item)
        else:
            _encodable(value)
        values[name] = value
    return values


def _encodable(value) -> None:
    """``UnicodeEncodeError``, a ``ValueError``, if ``value`` is or holds a
    string that UTF-8 cannot encode: a lone surrogate, which a JSON escape
    such as ``"\\ud800"`` gives."""
    if isinstance(value, str):
        if not value.isascii():
            value.encode("utf-8")
    elif isinstance(value, dict):
        json.dumps(value, ensure_ascii=False).encode("utf-8")


def _decode_line(line: str, fields, make):
    record = json.loads(line)
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {type(record).__name__}")
    return make(**decode_fields(fields, record))


def _blank(line: str) -> bool:
    """Whether a line holds no record, so ``read_jsonl`` skips it."""
    return not line.strip()


def count_records(path: Path) -> int:
    """The number of items ``read_jsonl`` yields, if no line is bad, without
    parsing one; a line that is not UTF-8 counts."""
    with open(path, "rb") as fh:
        return sum(1 for raw in fh if not _blank(raw.decode("utf-8", "replace")))


# What a line that cannot be read as its record raises, before it is
# reported as ``error("<path>:<line>: <Type>: <detail>")``.
_BAD_LINE = (ValueError, KeyError, TypeError, RecursionError)


def read_jsonl(path: Path, fields, make, error, only=None) -> typing.Iterator:
    """``make(**values)`` of each JSON object in the JSON-lines file
    ``path``, its ``values`` read by ``decode_fields`` with the table
    ``fields``, read and yielded one line at a time; blank lines are
    skipped. With ``only``, a set of positions (from 0, blank lines not
    counted), the other lines are not parsed and only those items are
    yielded. A line that is not UTF-8, JSON or an object, that is nested
    too deep to parse, that lacks a field or has one of the wrong type, or
    that ``make`` rejects with ``ValueError``, ``KeyError`` or
    ``TypeError``, raises ``error("<path>:<line>: <Type>: <detail>")``."""
    return map(operator.itemgetter(2), _located(path, fields, make, error, only))


def _located(path: Path, fields, make, error, only=None) -> typing.Iterator[tuple]:
    """``read_jsonl``'s items as ``(offset, line_no, item)``: where the
    item's line starts in bytes, and its number."""
    position = -1
    end = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            offset, end = end, end + len(raw)
            try:
                line = raw.decode("utf-8")
                if _blank(line):
                    continue
                position += 1
                if only is not None and position not in only:
                    continue
                item = _decode_line(line, fields, make)
            except _BAD_LINE as exc:
                raise error(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from None
            yield offset, line_no, item


class LineIndex(Sequence):
    """The items of a JSON-lines file, each read from disk when it is first
    asked for.

    Building the index reads every line once and checks it as
    ``read_jsonl`` does, but keeps only where the line starts, its number
    and ``key`` of its item, in ``keys``. ``self[i]`` reads line i again
    and keeps its item, so every caller shares one copy of its text. A line
    that no longer reads back, or whose key changed (the file was rewritten
    after it was indexed), raises ``error`` naming ``path:line``.
    """

    def __init__(self, path: Path, fields, make, key, error):
        self.path = Path(path)
        self._fields, self._make, self._key, self._error = fields, make, key, error
        self._lines: list[tuple[int, int]] = []  # (offset, line_no)
        self.keys = []
        for offset, line_no, item in _located(self.path, fields, make, error):
            self._lines.append((offset, line_no))
            self.keys.append(key(item))
        self._items: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int):
        i = operator.index(i)
        if i not in self._items:
            offset, line_no = self._lines[i]
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                raw = fh.readline()
            try:
                line = raw.decode("utf-8")
                if _blank(line):
                    raise ValueError("the line is blank or gone: the file changed after it was read")
                item = _decode_line(line, self._fields, self._make)
                if (key := self._key(item)) != self.keys[i]:
                    raise ValueError(f"key {key!r} was {self.keys[i]!r} when the file was indexed")
            except _BAD_LINE as exc:
                raise self._error(f"{self.path}:{line_no}: {type(exc).__name__}: {exc}") from None
            self._items[i] = item
        return self._items[i]
