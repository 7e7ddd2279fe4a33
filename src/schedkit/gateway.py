"""Chat-completion access plus deterministic mock gateways.

This is the only nondeterministic boundary in the package.
``Gateway.complete`` returns one exchange's response text or raises its
``GatewayError``, and records nothing. ``exchange`` is the one step that
sends a prompt: it times it, and writes the exchange, successful or not,
to a ``TranscriptLog``. run-eval and polish send one exchange at a time in
task order, so a saved transcript can replay a run bit-for-bit without
network access, failed exchanges included.

The oracle mocks answer masked-row prompts; they locate the row id and the
masked column list via the labels below, which the masked-row renderer
shares.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from . import GatewayError, Struct, builtin_sha256
from .prompt_forge import word_count
from .records import encode_fields, object_parts, read_jsonl, write_line

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


class GatewayConfig(Struct):
    _fields = __slots__ = (
        "endpoint_url",
        "model_name",
        "temperature",
        "request_seed",
        "timeout_seconds",
        "retry_limit",
    )

    def __init__(
        self,
        endpoint_url: str = "",
        model_name: str = "",
        temperature: float = 0.0,
        request_seed: int = 12345,
        timeout_seconds: float = 60.0,
        retry_limit: int = 3,
    ):
        if not 0 <= retry_limit <= 5:
            raise ValueError("retry_limit must be in [0, 5]")
        if not (math.isfinite(temperature) and temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
        if not (math.isfinite(timeout_seconds) and timeout_seconds > 0):
            raise ValueError(f"timeout_seconds must be finite and > 0, got {timeout_seconds}")
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.temperature = temperature
        self.request_seed = request_seed
        self.timeout_seconds = timeout_seconds
        self.retry_limit = retry_limit


# Until a process has hashed this many bytes it hashes with the
# interpreter's own SHA-256, and with OpenSSL's (``hashlib``) from then
# on. Loading ``hashlib`` takes about 4 ms and adds about 3.5 MB to a
# stage's peak RSS, the built-in 0.1 MB; but the built-in hashes at about
# 4 ms/MB against OpenSSL's 0.8 ms/MB. So a stage that hashes less saves
# 3.4 MB for at most about 15 ms, and one that hashes more pays those
# 15 ms once, on its first 4 MiB.
HASH_BUDGET = 4 << 20

_hashed = 0  # the bytes this process has hashed so far


def _sha256(parts: Iterable[bytes]):
    """A SHA-256 object of ``parts`` joined, whose bytes count as hashed:
    the interpreter's own while this process has hashed fewer than
    ``HASH_BUDGET`` bytes, ``hashlib``'s from then on. Both give the same
    digests."""
    global _hashed
    if _hashed < HASH_BUDGET:
        digest = builtin_sha256()()
    else:
        import hashlib

        digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        _hashed += len(part)
    return digest


def exchange_hash(system_text: str, user_text: str) -> bytes:
    return _sha256((system_text.encode("utf-8"), b"\x00", user_text.encode("utf-8"))).digest()


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
    return _sha256(part.encode("utf-8") for part in object_parts(hashed)).hexdigest()


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
        write_line(self._fh, TRANSCRIPT_FIELDS, get, hashed)
        self._fh.flush()
        return record

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> TranscriptLog:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _checked(**record) -> dict:
    if (record["response_text"] is None) == (record["error"] is None):
        raise ValueError("exactly one of response_text and error must be null")
    if _content_hash(encode_fields(_EXCHANGE_FIELDS, record.__getitem__)) != record["content_hash"]:
        raise ValueError("transcript content hash mismatch")
    return record


def load_transcript(path: Path) -> Iterator[dict]:
    """The saved records, each checked against ``TRANSCRIPT_FIELDS``, for
    exactly one of ``response_text`` and ``error``, and against its content
    hash as it is read."""
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


def exchange(
    gateway: Gateway, system_text: str, user_text: str, transcript: TranscriptLog | None = None,
    prompt_tokens: int = 0, encoded: dict[str, str] | None = None,
) -> tuple[str | None, GatewayError | None]:
    """Send one prompt: ``gateway.complete``'s ``(response, None)``, or
    ``(None, error)`` for its ``GatewayError``. The exchange, a failed one
    included, goes to ``transcript`` (if any) with ``prompt_tokens``, the
    response's ``word_count`` and its latency, which is 0.0 unless the
    class sets ``deterministic_latency = False``. ``encoded`` passes on
    encodings of the prompt that the caller already has
    (``TranscriptLog.append``)."""
    started = time.monotonic()
    try:
        response, error = gateway.complete(system_text, user_text), None
    except GatewayError as exc:
        response, error = None, exc
    if transcript is not None:
        latency_ms = 0.0 if gateway.deterministic_latency else (time.monotonic() - started) * 1000.0
        transcript.append(
            encoded, system_text=system_text, user_text=user_text, response_text=response,
            error=error_text(error), latency_ms=latency_ms, prompt_tokens=prompt_tokens,
            completion_tokens=word_count(response) if response else 0,
        )
    return response, error


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
            raise ReplayedError(error)
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
