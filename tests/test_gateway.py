from __future__ import annotations

import hashlib
import json
import socket
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import gateway as gw
from schedkit.gateway import (
    ConstantWrongGateway,
    EchoOracleGateway,
    Gateway,
    GatewayConfig,
    HttpGateway,
    HttpStatusError,
    IdentityGateway,
    MalformedResponseError,
    MissingMockDataError,
    ReplayedError,
    RetriesExhaustedError,
    ScriptedTranscriptGateway,
    StopwordStripperGateway,
    TranscriptExhaustedError,
    TranscriptLog,
    load_transcript,
    timed_complete,
    wire_values,
)
from schedkit.masked_eval import evaluate_tasks, make_mask_tasks
from schedkit.synthetic import GeneratorParams, generate_schedule

ROW_PROMPT = """ROW:
Activity ID: A100
Activity Name: Pour slab
Level: [MASKED]
Area: [MASKED]
Missing columns: Level, Area

STATIC KNOWLEDGE:
none
"""


def test_echo_oracle_answers_ground_truth():
    g = EchoOracleGateway({"A100": {"Level": "SF", "Area": "6E"}})
    assert g.complete("sys", ROW_PROMPT) == "[Value]SF[/Value],[Value]6E[/Value]"


def test_constant_wrong_matches_arity():
    g = ConstantWrongGateway()
    assert g.complete("sys", ROW_PROMPT) == "[Value]__WRONG__[/Value],[Value]__WRONG__[/Value]"


def test_echo_oracle_requires_table():
    with pytest.raises(MissingMockDataError):
        EchoOracleGateway(None)
    # An empty table (a schedule with no activities) is a table; it answers
    # no row.
    g = EchoOracleGateway({})
    with pytest.raises(MissingMockDataError):
        g.complete("sys", ROW_PROMPT)


def test_transcript_records_every_call(tmp_path):
    """``evaluate_tasks`` writes one record per exchange, failed ones too,
    numbered by the task's position."""
    sched = generate_schedule(GeneratorParams(n_activities=6, seed=1))
    table = dict(sched.index.rows)
    failing = sched.activities[1].activity_id
    del table[failing]
    tasks = list(make_mask_tasks(sched, "DA"))
    with TranscriptLog(tmp_path / "t.jsonl") as log:
        evaluate_tasks(sched, tasks, EchoOracleGateway(table), transcript=log)
    records = list(load_transcript(tmp_path / "t.jsonl"))
    assert [r["transcript_id"] for r in records] == list(range(len(tasks)))
    assert [r["error"] is not None for r in records] == [t.row_id == failing for t in tasks]
    assert records[1]["response_text"] is None
    assert records[1]["error"] == f"MissingMockDataError: no answers for row {failing!r}"
    assert records[0]["response_text"].startswith("[Value]")
    assert {r["latency_ms"] for r in records} == {0.0}


# The fields of a transcript line that a test does not look at.
NO_COUNTS = {"latency_ms": 0.0, "prompt_tokens": 0, "completion_tokens": 0}


def _record(log: TranscriptLog, gateway: Gateway, system_text: str, user_text: str) -> str:
    response = gateway.complete(system_text, user_text)
    log.append(
        system_text=system_text, user_text=user_text, response_text=response, error=None,
        **NO_COUNTS,
    )
    return response


def test_scripted_transcript_replays_and_exhausts(tmp_path):
    live = EchoOracleGateway({"A100": {"Level": "SF", "Area": "6E"}})
    with TranscriptLog(tmp_path / "live.jsonl") as log:
        responses = [_record(log, live, "sys", ROW_PROMPT) for _ in range(3)]

    replay = ScriptedTranscriptGateway(load_transcript(tmp_path / "live.jsonl"))
    for expected in responses:
        assert replay.complete("sys", ROW_PROMPT) == expected
    with pytest.raises(TranscriptExhaustedError):
        replay.complete("sys", ROW_PROMPT)


def test_scripted_transcript_unknown_prompt():
    g = ScriptedTranscriptGateway(
        [
            {
                "system_text": "s",
                "user_text": "u",
                "response_text": "r",
                "error": None,
            }
        ]
    )
    with pytest.raises(TranscriptExhaustedError):
        g.complete("s", "different prompt")


def test_scripted_transcript_keeps_no_record():
    records = [{"system_text": "s", "user_text": "u", "response_text": "r", "error": None}]
    replay = ScriptedTranscriptGateway(records)
    records[0].clear()
    assert replay.complete("s", "u") == "r"


def test_transcript_hash_tamper_detected(tmp_path):
    with TranscriptLog(tmp_path / "t.jsonl") as log:
        _record(log, EchoOracleGateway({"A100": {"Level": "SF", "Area": "6E"}}), "sys", ROW_PROMPT)
    text = (tmp_path / "t.jsonl").read_text("utf-8").replace("SF", "RF")
    (tmp_path / "t.jsonl").write_text(text, "utf-8")
    with pytest.raises(gw.GatewayError):
        list(load_transcript(tmp_path / "t.jsonl"))


def ref_content_hash(record: dict) -> str:
    """The content hash as defined before field encodings were shared."""
    basis = json.dumps(
        {
            "system_text": record["system_text"],
            "user_text": record["user_text"],
            "response_text": record["response_text"],
            "error": record["error"],
        },
        sort_keys=True,
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


# Arbitrary Unicode with JSON's escape cases drawn often.
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028é😀\n\t')))
EXCHANGE = st.fixed_dictionaries(
    {
        "system_text": TEXT,
        "user_text": TEXT,
        "response_text": st.none() | TEXT,
        "error": st.none() | TEXT,
        "latency_ms": st.floats(),
        "prompt_tokens": st.integers(0, 10**6),
        "completion_tokens": st.integers(0, 10**6),
    }
)


@settings(max_examples=200, deadline=None)
@given(st.lists(EXCHANGE, min_size=1, max_size=3))
def test_transcript_line_encoding_is_exact(exchanges):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        with TranscriptLog(path) as log:
            records = [log.append(**fields) for fields in exchanges]
        expected = [
            {**fields, "transcript_id": i, "content_hash": ref_content_hash(fields)}
            for i, fields in enumerate(exchanges)
        ]
        lines = path.read_text("utf-8").splitlines(keepends=True)
        assert lines == [json.dumps(e, sort_keys=True) + "\n" for e in expected]
        assert [json.dumps(r, sort_keys=True) for r in records] == [
            json.dumps(e, sort_keys=True) for e in expected
        ]
        loaded = load_transcript(path)
        assert [json.dumps(r, sort_keys=True) for r in loaded] == [
            json.dumps(e, sort_keys=True) for e in expected
        ]


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
    assert gw.encode_json(value) == expected
    assert gw.encode_json([value, value]) == f"[{expected}, {expected}]"


def test_transcript_log_starts_its_file_empty(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("stale\n", "utf-8")
    with TranscriptLog(path) as log:
        record = log.append(
            system_text="s", user_text="u", response_text="r", error=None, **NO_COUNTS
        )
        # Each record is on disk before the log closes.
        assert list(load_transcript(path)) == [record]
    assert [r["transcript_id"] for r in load_transcript(path)] == [0]


def test_transcript_append_rejects_a_misspelled_field_before_numbering(tmp_path):
    """A misspelled or missing field is a ``TypeError`` at the call, before
    anything is written or an id is used up."""
    path = tmp_path / "t.jsonl"
    fields = dict(system_text="s", user_text="u", response_text="r", error=None, **NO_COUNTS)
    missing = {k: v for k, v in fields.items() if k != "error"}
    with TranscriptLog(path) as log:
        for bad in ({**fields, "eror": None}, {**missing, "eror": None}, missing):
            with pytest.raises(TypeError):
                log.append(**bad)
        assert path.read_text("utf-8") == ""
        log.append(**fields)
    assert [r["transcript_id"] for r in load_transcript(path)] == [0]


def test_scripted_replay_of_repeated_prompts_keeps_the_recorded_order():
    prompts = [f"prompt {i % 5}" for i in range(60)]
    records = [
        {"system_text": "s", "user_text": p, "response_text": f"r{i}", "error": None}
        for i, p in enumerate(prompts)
    ]
    replay = ScriptedTranscriptGateway(records)
    # Each prompt gets its saved responses in the order they were saved.
    assert [replay.complete("s", p) for p in prompts] == [r["response_text"] for r in records]
    with pytest.raises(TranscriptExhaustedError):
        replay.complete("s", prompts[0])


def test_a_prompt_saved_three_times_replays_its_failure_in_order():
    saved = [("r0", None), (None, "HttpStatusError: status 503"), ("r2", None)]
    records = [{"system_text": "s", "user_text": "u", "response_text": r, "error": e} for r, e in saved]
    once = {"system_text": "s", "user_text": "v", "response_text": "only", "error": None}
    replay = ScriptedTranscriptGateway([records[0], once, *records[1:]])
    assert replay.complete("s", "u") == "r0"
    with pytest.raises(ReplayedError, match="^HttpStatusError: status 503$"):
        replay.complete("s", "u")
    assert replay.complete("s", "v") == "only"
    assert replay.complete("s", "u") == "r2"
    for prompt in ("u", "v"):
        with pytest.raises(TranscriptExhaustedError):
            replay.complete("s", prompt)


def test_polish_mocks():
    strip = StopwordStripperGateway()
    assert strip.complete("sys", "RAW OUTPUT:\nthe slab is poured on the deck") == "slab poured deck"
    ident = IdentityGateway()
    assert ident.complete("sys", "RAW OUTPUT:\nthe slab is poured") == "the slab is poured"


def test_empty_prompt_rejected():
    with pytest.raises(gw.GatewayError):
        ConstantWrongGateway().complete("sys", "   ")


def test_config_limits():
    with pytest.raises(ValueError):
        GatewayConfig(retry_limit=9)
    # A NaN temperature cannot be sent as JSON; a timeout of 0 or below is
    # one that urlopen refuses at the first exchange.
    for value in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            GatewayConfig(temperature=value)
    for value in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout_seconds must be finite and > 0"):
            GatewayConfig(timeout_seconds=value)


# --- HTTP gateway against a local stub -----------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    behaviors: list[str] = []
    calls: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).calls.append(body)
        behavior = type(self).behaviors.pop(0) if type(self).behaviors else "ok"
        contents = {"ok": "stub says hi", "null": None, "parts": [{"type": "text", "text": "hi"}]}
        if behavior in contents:
            reply = {
                "choices": [{"message": {"content": contents[behavior]}}],
                "usage": {"prompt_tokens": 3, "completion_tokens": 3},
            }
            payload = json.dumps(reply).encode()
            self.send_response(200)
        elif behavior == "500":
            payload = b"server blew up"
            self.send_response(500)
        elif behavior == "404":
            payload = b"not here"
            self.send_response(404)
        elif behavior == "204":
            payload = b""
            self.send_response(204)
        elif behavior == "slow":  # no answer before the client's timeout
            time.sleep(0.5)
            return
        elif behavior == "not http":
            self.wfile.write(b"NOT HTTP\r\n\r\n")
            return
        else:  # malformed, or nested too deep to parse
            payload = b"[" * 200_000 if behavior == "nested" else b"{notjson"
            self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.behaviors = []
    _StubHandler.calls = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()


def _http_cfg(url, retry_limit=2, timeout_seconds=5.0):
    return GatewayConfig(
        endpoint_url=url,
        model_name="stub-model",
        retry_limit=retry_limit,
        timeout_seconds=timeout_seconds,
    )


def test_http_success_and_seed_forwarded(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    g = HttpGateway(_http_cfg(stub_server))
    assert g.complete("sys text", "user text") == "stub says hi"
    assert _StubHandler.calls[0]["seed"] == 12345
    assert _StubHandler.calls[0]["messages"][0]["role"] == "system"


def test_http_retries_transient_then_succeeds(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["500", "500", "ok"]
    g = HttpGateway(_http_cfg(stub_server))
    assert g.complete("s", "u") == "stub says hi"
    assert len(_StubHandler.calls) == 3


def test_http_retries_exhausted(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["500", "500", "500"]
    g = HttpGateway(_http_cfg(stub_server, retry_limit=2))
    response, error, latency_ms = timed_complete(g, "s", "u")
    assert response is None and isinstance(error, RetriesExhaustedError)
    assert str(error).startswith("gave up after 3 attempts: HTTP 500")
    # An HTTP exchange's latency is measured, not the mocks' 0.0.
    assert latency_ms > 0.0


def test_http_client_error_no_retry(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["404"]
    g = HttpGateway(_http_cfg(stub_server))
    with pytest.raises(HttpStatusError) as err:
        g.complete("s", "u")
    assert err.value.code == 404
    assert len(_StubHandler.calls) == 1


def test_http_success_status_other_than_200_is_an_error_without_retry(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["204"]
    g = HttpGateway(_http_cfg(stub_server))
    with pytest.raises(HttpStatusError) as err:
        g.complete("s", "u")
    assert err.value.code == 204
    assert len(_StubHandler.calls) == 1


def test_http_read_timeout_is_retried(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["slow", "slow"]
    g = HttpGateway(_http_cfg(stub_server, retry_limit=1, timeout_seconds=0.1))
    response, error, _ = timed_complete(g, "s", "u")
    assert response is None and isinstance(error, RetriesExhaustedError)
    assert str(error) == "gave up after 2 attempts: no response within 0.1s"
    assert len(_StubHandler.calls) == 2


def test_http_connect_timeout_is_a_timeout(monkeypatch):
    """urllib reports a connect timeout as a ``URLError`` whose reason is
    a ``TimeoutError``, not as the ``TimeoutError`` of a read."""
    import urllib.error
    import urllib.request

    def time_out(request, timeout):
        raise urllib.error.URLError(TimeoutError("timed out"))

    monkeypatch.setattr(urllib.request, "urlopen", time_out)
    g = HttpGateway(_http_cfg("http://127.0.0.1:9/v1/chat/completions", retry_limit=0))
    response, error, _ = timed_complete(g, "s", "u")
    assert response is None
    assert str(error) == "gave up after 1 attempts: no response within 5.0s"


@pytest.mark.parametrize("failure", ["refused", "no scheme", "not http"])
def test_http_transport_failures_are_retried(stub_server, monkeypatch, failure):
    """A refused connection (an ``OSError``), an endpoint urllib cannot
    parse (a ``ValueError``) and a reply that is not HTTP (an
    ``http.client.HTTPException``) are each a retried transport failure."""
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    url = stub_server
    if failure == "refused":
        with socket.socket() as sock:  # a port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{sock.getsockname()[1]}/v1/chat/completions"
    elif failure == "no scheme":
        url = "chat completions"
    else:
        _StubHandler.behaviors = ["not http", "not http"]
    g = HttpGateway(_http_cfg(url, retry_limit=1))
    response, error, _ = timed_complete(g, "s", "u")
    assert response is None and isinstance(error, RetriesExhaustedError)
    assert str(error).startswith("gave up after 2 attempts: transport failure: "), str(error)


def test_http_malformed_body(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["garbage", "nested"]
    g = HttpGateway(_http_cfg(stub_server))
    for _ in range(2):
        with pytest.raises(MalformedResponseError):
            g.complete("s", "u")


@pytest.mark.parametrize("behavior", ["null", "parts"])
def test_http_content_that_is_not_text_is_a_recorded_gateway_error(
    stub_server, monkeypatch, behavior
):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = [behavior]
    g = HttpGateway(_http_cfg(stub_server))
    response, error, _ = timed_complete(g, "s", "u")
    assert response is None and isinstance(error, MalformedResponseError)
    assert str(error).startswith("response is ")
    assert len(_StubHandler.calls) == 1


def test_wire_values_format():
    assert wire_values(["a", "b"]) == "[Value]a[/Value],[Value]b[/Value]"


@settings(max_examples=100, deadline=None)
@given(EXCHANGE)
def test_transcript_reuses_a_given_encoding(fields):
    with tempfile.TemporaryDirectory() as tmp:
        plain, given_ = Path(tmp) / "plain.jsonl", Path(tmp) / "given.jsonl"
        with TranscriptLog(plain) as a, TranscriptLog(given_) as b:
            ra = a.append(**fields)
            rb = b.append({"user_text": encode_basestring_ascii(fields["user_text"])}, **fields)
        assert ra == rb
        assert plain.read_bytes() == given_.read_bytes()
