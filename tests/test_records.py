"""The JSON-lines codec (``schedkit.records``) and the package root's UTF-8
reader: the encoder writes what ``json.dumps`` does, one function writes
every field-table line, a ``LineIndex`` reads each line again as
``read_jsonl`` read it, ``count_records`` counts what ``read_jsonl`` yields,
and ``read_utf8`` reads a file as text mode does.
"""

from __future__ import annotations

import ast
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import DataError, read_utf8, records
from schedkit.records import LineIndex, count_records, read_jsonl

SRC = Path(__file__).resolve().parent.parent / "src" / "schedkit"

# Arbitrary Unicode with JSON's escape cases drawn often.
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028é😀\n\t')))


# JSON values with the encoder's edge cases: integers past 64 bits, bools
# (ints to Python), NaN, both infinities, -0.0, and nested containers under
# non-ASCII keys.
JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0])
    | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUE)
def test_encode_json_equals_json_dumps(value):
    """The reused encoder writes what ``json.dumps(sort_keys=True)`` does,
    call after call. Mutations that fail it: building the encoder without
    ``sort_keys``, with ``","`` or ``":"`` as separators, or with
    ``allow_nan`` off."""
    expected = json.dumps(value, sort_keys=True)
    assert records.encode_json(value) == expected
    assert records.encode_json([value, value]) == f"[{expected}, {expected}]"


def test_only_write_line_writes_a_field_table_line():
    """Outside ``records``, ``object_parts`` builds only the transcript's
    content hash; every line is written by ``records.write_line``."""
    callers = set()
    for path in SRC.glob("*.py"):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == "object_parts" for n in ast.walk(node)
            ):
                callers.add(f"{path.stem}.{node.name}")
    assert callers == {"gateway._content_hash"}


# A two-field table and its item, keyed by ``name``.
FIELDS = (("name", str, False), ("size", int, False))


def _item(**values) -> tuple:
    return values["name"], values["size"]


def _key(item: tuple) -> str:
    return item[0]


def _write(path: Path, *lines: str) -> None:
    path.write_text("".join(line + "\n" for line in lines), "utf-8")


def test_a_line_index_reads_each_line_again_as_read_jsonl_read_it(tmp_path):
    path = tmp_path / "items.jsonl"
    _write(path, "", '{"name": "a", "size": 1}', "  ", '{"name": "b", "size": 2}')
    index = LineIndex(path, FIELDS, _item, _key, DataError)
    assert index.keys == ["a", "b"]
    assert list(index) == list(read_jsonl(path, FIELDS, _item, DataError)) == [("a", 1), ("b", 2)]
    # Each item is read once and then shared.
    assert index[1] is index[1]


def test_a_line_index_names_a_line_rewritten_after_indexing(tmp_path):
    """A line whose key changed, or that is gone, raises the index's own
    error naming the line's number in the file it indexed."""
    path = tmp_path / "items.jsonl"
    _write(path, "", '{"name": "a", "size": 1}', '{"name": "b", "size": 2}')
    index = LineIndex(path, FIELDS, _item, _key, DataError)
    _write(path, "", '{"name": "z", "size": 1}')
    with pytest.raises(DataError, match=rf"^{path}:2: ValueError: key 'z' was 'a' "):
        index[0]
    with pytest.raises(DataError, match=rf"^{path}:3: ValueError: the line is blank or gone"):
        index[1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(['{"name": "a", "size": 1}', "", " ", "\t", "\r", "\x0b", "\u3000"])))
def test_count_records_counts_what_read_jsonl_yields(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "items.jsonl"
        _write(path, *lines)
        assert count_records(path) == len(list(read_jsonl(path, FIELDS, _item, DataError)))


def test_count_records_counts_a_line_that_is_not_utf8(tmp_path):
    """So a store's length names a file that its reader rejects."""
    path = tmp_path / "items.jsonl"
    path.write_bytes(b'{"name": "a", "size": 1}\n\n\xff\n')
    assert count_records(path) == 2
    with pytest.raises(DataError, match=rf"^{path}:3: UnicodeDecodeError: "):
        list(read_jsonl(path, FIELDS, _item, DataError))


def _text_mode(path: Path) -> str:
    """What ``read_utf8`` gave when it read the file in text mode."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {type(exc).__name__}: {exc}") from None


# Line ends, a BOM, multi-byte characters, a byte that is never UTF-8 and
# sequences cut short.
PIECES = [b"a", b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", "é".encode(), "€".encode(), b"\xff", b"\xe2\x82", b"\xc3"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=12).map(b"".join))
def test_read_utf8_reads_as_text_mode_did(raw):
    """The same text, or the same error message, byte offsets included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_bytes(raw)
        try:
            expected = _text_mode(path)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                read_utf8(path, DataError)
            assert str(err.value) == str(exc)
        else:
            assert read_utf8(path, DataError) == expected
