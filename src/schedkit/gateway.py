"""Chat-completion access plus deterministic mock gateways.

This is the only nondeterministic boundary in the package.
``Gateway.complete`` returns one exchange's response text or raises its
``GatewayError``, and records nothing. Its callers send one exchange at a
time and write each, successful or not, to a ``TranscriptLog`` in task
order, so a saved transcript can replay a run bit-for-bit without network
access, failed exchanges included.

The oracle mocks answer masked-row prompts; they locate the row id and the
masked column list via the labels below, which the masked-row renderer
shares.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
import typing
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from . import GatewayError

ROW_ID_LABEL = "Activity ID"
MISSING_COLUMNS_LABEL = "Missing columns"

_ROW_ID_RE = re.compile(rf"^{ROW_ID_LABEL}:\s*(.+)$", re.MULTILINE)
_MISSING_RE = re.compile(rf"^{MISSING_COLUMNS_LABEL}:\s*(.+)$", re.MULTILINE)

_BACKOFF_BASE_SECONDS = 0.5
API_KEY_ENV = "OPENAI_API_KEY"

STOPWORDS = frozenset(
    "a an and are as at be by for from has have in is it its of on or that the "
    "this to was were will with".split()
)


class GatewayTimeoutError(GatewayError):
    pass


class HttpStatusError(GatewayError):
    def __init__(self, code: int, body: str = ""):
        super().__init__(f"HTTP {code}: {body[:200]}")
        self.code = code


class MalformedResponseError(GatewayError):
    pass


class RetriesExhaustedError(GatewayError):
    pass


class MissingMockDataError(GatewayError):
    pass


class TranscriptExhaustedError(GatewayError):
    pass


@dataclass(frozen=True)
class GatewayConfig:
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    request_seed: int = 12345
    timeout_seconds: float = 60.0
    retry_limit: int = 3

    def __post_init__(self):
        if not 0 <= self.retry_limit <= 5:
            raise ValueError("retry_limit must be in [0, 5]")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ValueError(f"timeout_seconds must be finite and > 0, got {self.timeout_seconds}")


def exchange_hash(system_text: str, user_text: str) -> bytes:
    return hashlib.sha256(
        system_text.encode("utf-8") + b"\x00" + user_text.encode("utf-8")
    ).digest()


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


@lru_cache(maxsize=256)
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


# What a line that cannot be read as its record raises, before it is
# reported as ``error("<path>:<line>: <Type>: <detail>")``.
_BAD_LINE = (ValueError, KeyError, TypeError, RecursionError)


def read_jsonl(path: Path, fields, make, error, only=None, *, located=False) -> Iterator:
    """``make(**values)`` of each JSON object in the JSON-lines file
    ``path``, its ``values`` read by ``decode_fields`` with the table
    ``fields``, read and yielded one line at a time; blank lines are
    skipped. With ``only``, a set of positions (from 0, blank lines not
    counted), the other lines are not parsed and only those items are
    yielded. With ``located``, each item comes as ``(offset, line_no,
    item)``: the byte offset where its line starts and its line number, as
    ``read_jsonl_line`` takes them. A line that is not UTF-8, JSON or an
    object, that is nested too deep to parse, that lacks a field or has one
    of the wrong type, or that ``make`` rejects with ``ValueError``,
    ``KeyError`` or ``TypeError``, raises
    ``error("<path>:<line>: <Type>: <detail>")``."""
    position = -1
    end = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            offset, end = end, end + len(raw)
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                position += 1
                if only is not None and position not in only:
                    continue
                item = _decode_line(line, fields, make)
            except _BAD_LINE as exc:
                raise error(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from None
            yield (offset, line_no, item) if located else item


def read_jsonl_line(path: Path, offset: int, line_no: int, fields, make, error):
    """The item of the one line of ``path`` that starts at byte ``offset``,
    read again as ``read_jsonl`` read it there as line ``line_no``. The
    same line errors raise ``error`` naming ``path:line_no``, and so does a
    line that is now blank or past the end of the file."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        raw = fh.readline()
    try:
        line = raw.decode("utf-8")
        if not line.strip():
            raise ValueError("the line is blank or gone: the file changed after it was read")
        return _decode_line(line, fields, make)
    except _BAD_LINE as exc:
        raise error(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from None


# A transcript line's fields: the exchange, which ``content_hash`` covers,
# then the rest.
_EXCHANGE_FIELDS = (
    ("error", str, True),
    ("response_text", str, True),
    ("system_text", str, False),
    ("user_text", str, False),
)
TRANSCRIPT_FIELDS = _EXCHANGE_FIELDS + (
    ("completion_tokens", int, False),
    ("content_hash", str, False),
    ("latency_ms", float, False),
    ("prompt_tokens", int, False),
    ("transcript_id", int, False),
)


def _content_hash(hashed: dict[str, str]) -> str:
    """sha256 of ``json.dumps`` of the exchange's fields with sorted keys,
    fed piece by piece from their encodings in ``hashed``."""
    digest = hashlib.sha256()
    for part in object_parts(hashed):
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


class TranscriptLog:
    """Append-only exchange log for one writer, in the order it appends.

    It starts ``path`` empty and keeps it open until ``close``; each record
    is flushed as it is written, and none is kept in memory.
    ``transcript_id`` counts the appends from 0, so a caller that appends in
    task order numbers each exchange by its task's position. ``append``
    takes the fields of ``TRANSCRIPT_FIELDS`` but ``content_hash`` and
    ``transcript_id``, which it adds, as keyword arguments, so a missing or
    misspelled one is a ``TypeError`` before anything is numbered or
    written. Each value is JSON-encoded once, for both the content hash and
    the line, which equals ``json.dumps(record, sort_keys=True)``;
    ``encoded`` may supply encodings of the exchange's fields that the
    caller already has.
    """

    def __init__(self, path: Path):
        self._fh = open(path, "w", encoding="utf-8")
        self._next_id = 0

    def append(
        self, encoded: dict[str, str] | None = None, *, error: str | None,
        response_text: str | None, system_text: str, user_text: str,
        completion_tokens: int, latency_ms: float, prompt_tokens: int,
    ) -> dict:
        record = dict(
            error=error, response_text=response_text, system_text=system_text,
            user_text=user_text, completion_tokens=completion_tokens, latency_ms=latency_ms,
            prompt_tokens=prompt_tokens, transcript_id=self._next_id,
        )
        self._next_id += 1
        get = record.__getitem__
        hashed = encode_fields(_EXCHANGE_FIELDS, get, encoded)
        record["content_hash"] = _content_hash(hashed)
        self._fh.writelines(object_parts(encode_fields(TRANSCRIPT_FIELDS, get, hashed)))
        self._fh.write("\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> TranscriptLog:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _checked(**record) -> dict:
    if _content_hash(encode_fields(_EXCHANGE_FIELDS, record.__getitem__)) != record["content_hash"]:
        raise ValueError("transcript content hash mismatch")
    return record


def load_transcript(path: Path) -> Iterator[dict]:
    """The saved records, each checked against ``TRANSCRIPT_FIELDS`` and its
    content hash as it is read."""
    return read_jsonl(path, TRANSCRIPT_FIELDS, _checked, GatewayError)


class Gateway:
    """Base class: the prompt and response checks."""

    deterministic_latency = True

    def _respond(self, system_text: str, user_text: str) -> str:
        raise NotImplementedError

    def complete(self, system_text: str, user_text: str) -> str:
        """The response text of one exchange, or its ``GatewayError``."""
        if not user_text or user_text.isspace():
            raise GatewayError("prompt is empty")
        response = self._respond(system_text, user_text)
        if not isinstance(response, str):
            raise MalformedResponseError(f"response is {type(response).__name__}, not text")
        return response


def timed_complete(
    gateway: Gateway, system_text: str, user_text: str
) -> tuple[str | None, GatewayError | None, float]:
    """``gateway.complete``'s ``(response, None, latency_ms)``, or ``(None,
    error, latency_ms)`` for its ``GatewayError``; the latency is 0.0 unless
    the class sets ``deterministic_latency = False``."""
    started = time.monotonic()
    try:
        response, error = gateway.complete(system_text, user_text), None
    except GatewayError as exc:
        response, error = None, exc
    if gateway.deterministic_latency:
        return response, error, 0.0
    return response, error, (time.monotonic() - started) * 1000.0


class ReplayedError(GatewayError):
    """A failed exchange replayed from a transcript; its message is the
    ``error`` text the transcript recorded."""


def error_text(error: GatewayError | None) -> str | None:
    """The ``error`` that a transcript and an instance record for an
    exchange: None for a successful one, else ``"<Type>: <message>"``, or a
    replayed failure's recorded text unchanged, so that a replay records
    what its source did."""
    if error is None:
        return None
    if isinstance(error, ReplayedError):
        return str(error)
    return f"{type(error).__name__}: {error}"


def _parse_row_id(user_text: str) -> str:
    m = _ROW_ID_RE.search(user_text)
    if not m:
        raise MalformedResponseError("prompt carries no row id line")
    return m.group(1).strip()


def _parse_missing_columns(user_text: str) -> list[str]:
    m = _MISSING_RE.search(user_text)
    if not m:
        raise MalformedResponseError("prompt carries no missing-columns line")
    return [c.strip() for c in m.group(1).split(",") if c.strip()]


def wire_values(values: list[str]) -> str:
    return ",".join(f"[Value]{v}[/Value]" for v in values)


class EchoOracleGateway(Gateway):
    """Answers every masked-row prompt from a lookup table.

    With the table built from ground truth this is the calibration oracle;
    planting wrong entries yields any target accuracy.
    """

    def __init__(self, answer_table: dict[str, dict[str, str]]):
        if answer_table is None:
            raise MissingMockDataError("EchoOracle needs an answer table")
        self.answer_table = answer_table

    def _respond(self, system_text: str, user_text: str) -> str:
        row_id = _parse_row_id(user_text)
        columns = _parse_missing_columns(user_text)
        row = self.answer_table.get(row_id)
        if row is None:
            raise MissingMockDataError(f"no answers for row {row_id!r}")
        return wire_values([row.get(col, "") for col in columns])


class ConstantWrongGateway(Gateway):
    """Returns the sentinel wrong value at the demanded arity."""

    def _respond(self, system_text: str, user_text: str) -> str:
        arity = len(_parse_missing_columns(user_text))
        return wire_values(["__WRONG__"] * arity)


class ScriptedTranscriptGateway(Gateway):
    """Replays a saved transcript; responses match prompts by content.

    Each saved record is consumed once; a prompt saved more than once gets
    its responses in the order they were saved. A call whose prompt has no
    remaining record raises TranscriptExhaustedError, and a saved failure
    raises ``ReplayedError`` with its recorded text. ``records`` is read to
    its end here, one record at a time, and only each record's
    ``(response_text, error)`` is kept, under its prompt's sha256 digest:
    the first in one dict, and those after it, for a prompt saved more than
    once, in a deque in another.
    """

    def __init__(self, records: Iterable[dict]):
        # Each prompt's next saved exchange, and a repeated prompt's later ones.
        self._next: dict[bytes, tuple[str | None, str | None]] = {}
        self._later: dict[bytes, deque[tuple[str | None, str | None]]] = {}
        for rec in records:
            key = exchange_hash(rec["system_text"], rec["user_text"])
            saved = (rec["response_text"], rec["error"])
            if self._next.setdefault(key, saved) is not saved:
                self._later.setdefault(key, deque()).append(saved)

    def _respond(self, system_text: str, user_text: str) -> str:
        key = exchange_hash(system_text, user_text)
        saved = self._next.pop(key, None)
        if saved is None:
            raise TranscriptExhaustedError("no scripted response left for this prompt")
        if self._later.get(key):
            self._next[key] = self._later[key].popleft()
        response, error = saved
        if response is None:
            raise ReplayedError(error or "scripted error")
        return response


def _polish_payload(user_text: str) -> str:
    marker = "RAW OUTPUT:\n"
    pos = user_text.find(marker)
    if pos < 0:
        return user_text
    return user_text[pos + len(marker) :]


class StopwordStripperGateway(Gateway):
    """Polishing mock: drops stopword tokens from the payload."""

    def _respond(self, system_text: str, user_text: str) -> str:
        payload = _polish_payload(user_text)
        kept = [tok for tok in payload.split() if tok.lower() not in STOPWORDS]
        return " ".join(kept)


class IdentityGateway(Gateway):
    """Polishing mock: returns the payload unchanged."""

    def _respond(self, system_text: str, user_text: str) -> str:
        return _polish_payload(user_text)


class HttpGateway(Gateway):
    """OpenAI-compatible chat-completions client with bounded retries, over
    the standard library's ``urllib.request``.

    Transient failures (connection errors, timeouts, 429, 5xx) back off
    exponentially up to ``retry_limit`` retries; other HTTP statuses fail
    immediately. The request seed is forwarded; servers that ignore it
    still see it recorded in the transcript via the prompt hash.
    """

    deterministic_latency = False

    def __init__(self, cfg: GatewayConfig):
        if not cfg.endpoint_url:
            raise GatewayError("endpoint_url not configured")
        self.cfg = cfg
        # Loaded here, not at the first exchange, so that no exchange's
        # latency_ms includes the import.
        import http.client
        import urllib.error
        import urllib.request

        self._http, self._urllib = http, urllib

    def _respond(self, system_text: str, user_text: str) -> str:
        http, urllib = self._http, self._urllib
        payload = {
            "model": self.cfg.model_name,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": self.cfg.temperature,
            "seed": self.cfg.request_seed,
        }
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        data = json.dumps(payload).encode("utf-8")

        last_error: GatewayError | None = None
        for attempt in range(self.cfg.retry_limit + 1):
            if attempt:
                time.sleep(_BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
            try:
                request = urllib.request.Request(self.cfg.endpoint_url, data, headers)
                try:
                    resp = urllib.request.urlopen(request, timeout=self.cfg.timeout_seconds)
                except urllib.error.HTTPError as exc:
                    resp = exc  # an error status comes with its response
                with resp:
                    status, body = resp.status, resp.read()
            except (OSError, ValueError, http.client.HTTPException) as exc:
                # ValueError: an endpoint URL that urllib cannot parse. A
                # read times out as TimeoutError, a connect as a URLError
                # whose reason is one.
                if isinstance(getattr(exc, "reason", exc), TimeoutError):
                    last_error = GatewayTimeoutError(
                        f"no response within {self.cfg.timeout_seconds}s"
                    )
                else:
                    last_error = GatewayError(f"transport failure: {exc}")
                continue
            if status == 429 or status >= 500:
                last_error = HttpStatusError(status, body.decode("utf-8", "replace"))
                continue
            if status != 200:
                raise HttpStatusError(status, body.decode("utf-8", "replace"))
            try:
                return json.loads(body)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
                raise MalformedResponseError(f"unexpected response shape: {exc}")
        raise RetriesExhaustedError(
            f"gave up after {self.cfg.retry_limit + 1} attempts: {last_error}"
        )


# The ``mock:<mode>`` gateways by mode; ``transcript`` takes ``=PATH``.
MOCKS = {
    "echo": EchoOracleGateway,
    "wrong": ConstantWrongGateway,
    "transcript": ScriptedTranscriptGateway,
    "stopword": StopwordStripperGateway,
    "identity": IdentityGateway,
}
