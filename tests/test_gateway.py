from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    RetriesExhaustedError,
    ScriptedTranscriptGateway,
    StopwordStripperGateway,
    TranscriptExhaustedError,
    TranscriptLog,
    load_transcript,
    wire_values,
)

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
    assert g.transcript.records[-1]["error"] is None


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
    with TranscriptLog(tmp_path / "t.jsonl") as log:
        g = EchoOracleGateway({"A100": {"Level": "SF", "Area": "6E"}}, transcript=log)
        g.complete("sys", ROW_PROMPT)
        with pytest.raises(MissingMockDataError):
            g.complete("sys", ROW_PROMPT.replace("A100", "A999"))
    records = load_transcript(tmp_path / "t.jsonl")
    assert len(records) == 2
    assert records[0]["error"] is None
    assert records[1]["error"] is not None
    assert records[1]["response_text"] is None
    assert [r["transcript_id"] for r in records] == [0, 1]


def test_scripted_transcript_replays_and_exhausts(tmp_path):
    with TranscriptLog(tmp_path / "live.jsonl") as log:
        live = EchoOracleGateway({"A100": {"Level": "SF", "Area": "6E"}}, transcript=log)
        responses = [live.complete("sys", ROW_PROMPT) for _ in range(3)]

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
        EchoOracleGateway(
            {"A100": {"Level": "SF", "Area": "6E"}}, transcript=log
        ).complete("sys", ROW_PROMPT)
    text = (tmp_path / "t.jsonl").read_text("utf-8").replace("SF", "RF")
    (tmp_path / "t.jsonl").write_text(text, "utf-8")
    with pytest.raises(gw.GatewayError):
        load_transcript(tmp_path / "t.jsonl")


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
        lines = path.read_text("utf-8").splitlines(keepends=True)
        assert lines == [json.dumps(r, sort_keys=True) + "\n" for r in records]
        for i, (fields, record) in enumerate(zip(exchanges, records)):
            assert record == {**fields, "transcript_id": i, "content_hash": record["content_hash"]}
            assert record["content_hash"] == ref_content_hash(record)
        loaded = load_transcript(path)
        assert [json.dumps(r, sort_keys=True) for r in loaded] == [
            json.dumps(r, sort_keys=True) for r in records
        ]


def test_transcript_log_starts_its_file_empty(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("stale\n", "utf-8")
    with TranscriptLog(path) as log:
        record = log.append(system_text="s", user_text="u", response_text="r", error=None)
        # Each record is on disk before the log closes.
        assert load_transcript(path) == [record]
    assert [r["transcript_id"] for r in load_transcript(path)] == [0]


def test_scripted_replay_of_repeated_prompts_in_parallel():
    prompts = [f"prompt {i % 5}" for i in range(60)]
    records = [
        {"system_text": "s", "user_text": p, "response_text": f"r{i}", "error": None}
        for i, p in enumerate(prompts)
    ]
    replay = ScriptedTranscriptGateway(records, cfg=GatewayConfig(max_parallel=4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(
                pool.map(lambda p: replay.complete("s", p), prompts, timeout=60)
            )
    finally:
        sys.setswitchinterval(interval)
    # Every record is served exactly once, to a prompt it was recorded for.
    assert sorted(answers) == sorted(r["response_text"] for r in records)
    for prompt, answer in zip(prompts, answers):
        assert prompts[int(answer[1:])] == prompt
    with pytest.raises(TranscriptExhaustedError):
        replay.complete("s", prompts[0])


def test_polish_mocks():
    strip = StopwordStripperGateway()
    assert strip.complete("sys", "RAW OUTPUT:\nthe slab is poured on the deck") == "slab poured deck"
    ident = IdentityGateway()
    assert ident.complete("sys", "RAW OUTPUT:\nthe slab is poured") == "the slab is poured"


def test_empty_prompt_rejected():
    with pytest.raises(gw.GatewayError):
        ConstantWrongGateway().complete("sys", "   ")


class SlowCountingGateway(Gateway):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.active = 0
        self.peak = 0
        self._count_lock = threading.Lock()

    def _respond(self, system_text, user_text):
        with self._count_lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.02)
        with self._count_lock:
            self.active -= 1
        return "ok"


def test_bounded_concurrency():
    cfg = GatewayConfig(max_parallel=3)
    g = SlowCountingGateway(cfg=cfg)
    threads = [
        threading.Thread(target=g.complete, args=("s", f"prompt {i}")) for i in range(12)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert g.peak <= 3
    assert len(g.transcript.records) == 12


def test_config_limits():
    with pytest.raises(ValueError):
        GatewayConfig(retry_limit=9)
    with pytest.raises(ValueError):
        GatewayConfig(max_parallel=0)
    with pytest.raises(ValueError):
        GatewayConfig(max_parallel=100)


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
        else:  # malformed
            payload = b"{notjson"
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


def _http_cfg(url, retry_limit=2):
    return GatewayConfig(
        endpoint_url=url,
        model_name="stub-model",
        retry_limit=retry_limit,
        timeout_seconds=5.0,
    )


def test_http_success_and_seed_forwarded(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    g = HttpGateway(_http_cfg(stub_server))
    assert g.complete("sys text", "user text") == "stub says hi"
    assert g.transcript.records[-1]["error"] is None
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
    with pytest.raises(RetriesExhaustedError):
        g.complete("s", "u")
    assert g.transcript.records[-1]["error"].startswith("RetriesExhaustedError")


def test_http_client_error_no_retry(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["404"]
    g = HttpGateway(_http_cfg(stub_server))
    with pytest.raises(HttpStatusError) as err:
        g.complete("s", "u")
    assert err.value.code == 404
    assert len(_StubHandler.calls) == 1


def test_http_malformed_body(stub_server, monkeypatch):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = ["garbage"]
    g = HttpGateway(_http_cfg(stub_server))
    with pytest.raises(MalformedResponseError):
        g.complete("s", "u")


@pytest.mark.parametrize("behavior", ["null", "parts"])
def test_http_content_that_is_not_text_is_a_recorded_gateway_error(
    stub_server, monkeypatch, behavior
):
    monkeypatch.setattr(gw, "_BACKOFF_BASE_SECONDS", 0.0)
    _StubHandler.behaviors = [behavior]
    g = HttpGateway(_http_cfg(stub_server))
    with pytest.raises(MalformedResponseError):
        g.complete("s", "u")
    record = g.transcript.records[-1]
    assert record["response_text"] is None
    assert record["error"].startswith("MalformedResponseError: response is ")
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
        # A file-backed log keeps no records in memory.
        assert a.records is None and b.records is None


def test_complete_records_a_given_count_and_encoding():
    g = EchoOracleGateway({"A100": {"Level": "SF", "Area": "6E"}})
    g.complete("sys", ROW_PROMPT)
    g.complete(
        "sys", ROW_PROMPT, prompt_tokens=7, user_json=encode_basestring_ascii(ROW_PROMPT)
    )
    first, second = g.transcript.records
    assert first["prompt_tokens"] == len("sys".split()) + len(ROW_PROMPT.split())
    assert second["prompt_tokens"] == 7
    assert first["content_hash"] == second["content_hash"]
