from __future__ import annotations

import io
import json
import socket
import socketserver
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from taxoforge.cli import main
from taxoforge.errors import BackendError
from taxoforge.gett import parse_name_list
from taxoforge.llm import (
    ChatRequest,
    RemoteChatBackend,
    ScriptedChatBackend,
    TranscriptLogger,
    complete,
)
from taxoforge.remote import MAX_ATTEMPTS, MAX_IN_FLIGHT, post_json

from .httpstub import Reply, serve


# --- scripted backend -----------------------------------------------------------


def test_scripted_first_match():
    backend = ScriptedChatBackend(
        [("List of Entities", "Hospital, Clinic"), ("List", "WRONG"), ("", "nothing")]
    )
    resp = complete(ChatRequest(user="here is the List of Entities please"), backend)
    assert resp.text == "Hospital, Clinic"
    assert resp.finish_reason == "stop"


def test_scripted_fallback():
    # an empty pattern matches every prompt; without one, no match gives ""
    backend = ScriptedChatBackend([("xyz", "match"), ("", "fb")])
    assert complete(ChatRequest(user="no hit"), backend).text == "fb"
    assert complete(ChatRequest(user="no hit"), ScriptedChatBackend([("xyz", "match")])).text == ""


def test_scripted_deterministic():
    backend = ScriptedChatBackend([("a", "A")])
    first = complete(ChatRequest(user="aaa"), backend)
    second = complete(ChatRequest(user="aaa"), backend)
    assert first == second


def test_scripted_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"match": "m", "response": "r"}]), encoding="utf-8")
    backend = ScriptedChatBackend.from_file(path)
    assert backend.complete(ChatRequest(user="mmm")).text == "r"


def test_scripted_from_file_drops_byte_order_mark(tmp_path):
    path = tmp_path / "script.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps([{"match": "m", "response": "r"}]).encode("utf-8"))
    backend = ScriptedChatBackend.from_file(path)
    assert backend.complete(ChatRequest(user="mmm")).text == "r"


def test_transcript_counts_calls(tmp_path):
    backend = ScriptedChatBackend([("a", "A")])
    transcript = TranscriptLogger(tmp_path / "t.jsonl")
    for i in range(3):
        complete(ChatRequest(user=f"a{i}"), backend, transcript)
    lines = (tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    entries = [json.loads(line) for line in lines]
    assert [e["seq"] for e in entries] == [0, 1, 2]
    assert entries[0]["request"]["user"] == "a0"
    assert entries[0]["response"]["text"] == "A"


def test_transcript_opens_its_file_once_and_writes_each_entry_at_once(tmp_path, monkeypatch):
    backend = ScriptedChatBackend([("a", "A")])
    path = tmp_path / "t.jsonl"
    transcript = TranscriptLogger(path)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    for i in range(4):
        complete(ChatRequest(user=f"a{i}"), backend, transcript)
        with real_open(path, encoding="utf-8") as fh:
            assert [json.loads(line)["seq"] for line in fh] == list(range(i + 1))
    assert opened == []


# --- request validation ------------------------------------------------------------


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(user="")


# --- remote backend -----------------------------------------------------------------


COMPLETION = {"choices": [{"message": {"content": "Hospital\nClinic"}, "finish_reason": "stop"}]}


@dataclass
class ChatStub:
    fail_first: int = 0
    fail_status: int | bytes = 503  # an HTTP status, or bytes sent in place of the status line
    reply: object = None  # sent instead of the completion when set: JSON, or bytes as they are
    posts: int = 0
    last_payload: dict | None = None
    url: str = ""

    def answer(self, request) -> Reply:
        self.posts += 1
        self.last_payload = request.json
        if self.fail_first > 0:
            self.fail_first -= 1
            return Reply(status=self.fail_status)
        return Reply(COMPLETION if self.reply is None else self.reply)


@pytest.fixture()
def chat_server():
    stub = ChatStub()
    with serve(stub.answer) as stub.url:
        yield stub


def test_remote_backend_roundtrip(chat_server):
    backend = RemoteChatBackend(base_url=chat_server.url, model="test-model")
    resp = backend.complete(ChatRequest(user="hello"))
    assert resp.text == "Hospital\nClinic"
    assert chat_server.last_payload == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "hello"}],
        "temperature": 0.0,
        "max_tokens": 1024,
    }


def test_remote_backend_retries(chat_server, sleeps):
    chat_server.fail_first = 2
    backend = RemoteChatBackend(base_url=chat_server.url, max_retries=3)
    assert backend.complete(ChatRequest(user="x")).text == "Hospital\nClinic"
    assert chat_server.posts == 3
    assert sleeps == [1, 2]


def test_remote_backend_fails_after_retries(chat_server, sleeps):
    chat_server.fail_first = 99
    backend = RemoteChatBackend(base_url=chat_server.url, max_retries=2)
    with pytest.raises(BackendError) as err:
        backend.complete(ChatRequest(user="x"))
    assert err.value.status == 503
    assert chat_server.posts == 2
    assert sleeps == [1]


def test_remote_backend_retries_429(chat_server, sleeps):
    chat_server.fail_first, chat_server.fail_status = 1, 429
    backend = RemoteChatBackend(base_url=chat_server.url)
    assert backend.complete(ChatRequest(user="x")).text == "Hospital\nClinic"
    assert sleeps == [1]


def test_remote_backend_retries_a_bad_status_line(chat_server, sleeps):
    chat_server.fail_first, chat_server.fail_status = 2, b"NOT HTTP"
    backend = RemoteChatBackend(base_url=chat_server.url, max_retries=3)
    assert backend.complete(ChatRequest(user="x")).text == "Hospital\nClinic"
    assert chat_server.posts == 3
    assert sleeps == [1, 2]


def test_remote_backend_401_is_sent_once(chat_server, sleeps):
    chat_server.fail_first, chat_server.fail_status = 99, 401
    backend = RemoteChatBackend(base_url=chat_server.url, max_retries=3)
    with pytest.raises(BackendError) as err:
        backend.complete(ChatRequest(user="x"))
    assert err.value.status == 401
    assert chat_server.posts == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "reply",
    [
        {},
        {"choices": []},
        {"choices": [{"message": {}}]},
        {"choices": [{"message": {"content": None}}]},
        ["not", "an", "object"],
    ],
)
def test_remote_backend_malformed_200(chat_server, sleeps, reply):
    chat_server.reply = reply
    backend = RemoteChatBackend(base_url=chat_server.url, max_retries=3)
    with pytest.raises(BackendError):
        backend.complete(ChatRequest(user="x"))
    assert chat_server.posts == 1
    assert sleeps == []


@pytest.fixture()
def silent_url():
    """A listening port that never answers, so every request times out."""
    with socket.create_server(("127.0.0.1", 0), backlog=32) as sock:
        yield f"http://127.0.0.1:{sock.getsockname()[1]}"


def test_remote_backend_timeout_is_backend_error(silent_url, sleeps, monkeypatch):
    monkeypatch.setattr("taxoforge.llm.CHAT_TIMEOUT_S", 0.05)
    backend = RemoteChatBackend(base_url=silent_url, max_retries=2)
    with pytest.raises(BackendError) as err:
        backend.complete(ChatRequest(user="x"))
    assert isinstance(err.value.__cause__, TimeoutError)
    assert sleeps == [1]


def test_remote_backend_deeply_nested_reply_is_backend_error(chat_server, sleeps):
    # nested past the JSON decoder's recursion limit
    chat_server.reply = b'{"a": ' * 100_000 + b"1" + b"}" * 100_000
    backend = RemoteChatBackend(base_url=chat_server.url, max_retries=3)
    with pytest.raises(BackendError, match="response is not JSON") as err:
        backend.complete(ChatRequest(user="x"))
    assert err.value.status == 200
    assert chat_server.posts == 1
    assert sleeps == []


@pytest.fixture()
def closed_url():
    """A port that nothing listens on, so every connection is refused."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def test_post_json_retries_a_closed_port(closed_url, sleeps):
    with pytest.raises(BackendError, match=f"failed on attempt {MAX_ATTEMPTS}") as err:
        post_json(closed_url, {}, timeout=5, retries=MAX_ATTEMPTS)
    assert isinstance(err.value.__cause__, OSError)
    assert err.value.status is None
    assert sleeps == [2**i for i in range(MAX_ATTEMPTS - 1)]


@pytest.mark.parametrize(
    "url",
    [
        "file:///dev/null",
        "127.0.0.1:1/v1",
        "not a url",
        "http://",
        "http://127.0.0.1:port/",
        "http://127.0.0.1:99999/",
        "http://[::1/",
        "http://127.0.0.1:1/a b",
    ],
)
def test_post_json_unusable_url_fails_at_once(url, sleeps):
    with pytest.raises(BackendError):
        post_json(url, {}, timeout=5, retries=MAX_ATTEMPTS)
    assert sleeps == []


def test_post_json_payload_with_nan_fails_at_once(closed_url, sleeps):
    with pytest.raises(BackendError, match="JSON compliant"):
        post_json(closed_url, {"x": float("nan")}, timeout=5, retries=MAX_ATTEMPTS)
    assert sleeps == []


@pytest.mark.parametrize("status", [307, 308])
def test_post_json_does_not_follow_a_307_or_308(status, sleeps):
    methods = []

    def answer(request):
        methods.append(request.command)
        return Reply(status=status, headers={"Location": "/moved"})

    with serve(answer) as url, pytest.raises(BackendError) as err:
        post_json(url, {}, timeout=5, retries=MAX_ATTEMPTS)
    assert err.value.status == status
    assert methods == ["POST"]
    assert sleeps == []


def test_post_json_follows_a_303_as_a_get(sleeps):
    seen = []

    def answer(request):
        seen.append((request.command, request.path))
        if request.command == "POST":
            return Reply(status=303, headers={"Location": "/result"})
        return Reply({"answer": 42})

    with serve(answer) as url:
        assert post_json(url + "/submit", {"x": 1}, timeout=5, retries=MAX_ATTEMPTS) == {"answer": 42}
    assert seen == [("POST", "/submit"), ("GET", "/result")]
    assert sleeps == []


def test_max_in_flight_connects_fit_a_default_listen_queue():
    # a server that has accepted none of the connections yet: each one must
    # still be queued at once, not have its SYN dropped and wait 1 s for a resend
    with socket.create_server(("127.0.0.1", 0), backlog=socketserver.TCPServer.request_queue_size) as srv:
        clients = []
        try:
            for _ in range(MAX_IN_FLIGHT):
                clients.append(socket.create_connection(srv.getsockname(), timeout=0.5))
        finally:
            for client in clients:
                client.close()


def gett_remote_args(gett_dir, url, out_dir):
    return [
        "run",
        "--method", "gett",
        "--llm", "remote",
        "--llm-url", url,
        "--tables-dir", str(gett_dir / "tables"),
        "--out-dir", str(out_dir),
        "--edge-scorer", "constant",
    ]


def test_run_remote_llm_malformed_response_exits_1(chat_server, sleeps, gett_dir, tmp_path, capsys):
    chat_server.reply = {}
    code = main(gett_remote_args(gett_dir, chat_server.url, tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert "error: " in err
    assert "Traceback" not in err


def test_run_remote_llm_timeout_exits_1(silent_url, sleeps, gett_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("taxoforge.llm.CHAT_TIMEOUT_S", 0.01)
    code = main(gett_remote_args(gett_dir, silent_url, tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert "error: " in err
    assert "Traceback" not in err


# --- parsing ------------------------------------------------------------------------


def test_parse_numbered_bullets():
    assert parse_name_list("1. Hospital\n2. Medical Clinic") == ["Hospital", "Medical Clinic"]


def test_parse_dash_and_star_bullets():
    assert parse_name_list("- School\n* University\n• Museum") == [
        "School",
        "University",
        "Museum",
    ]


def test_parse_case_insensitive_dedup():
    assert parse_name_list("Hospital, hospital, HOSPITAL") == ["Hospital"]
    # the same name ignoring case and whitespace runs, as gett merges names
    assert parse_name_list("Medical  Clinic\nmedical clinic") == ["Medical  Clinic"]


def test_parse_commas_and_quotes():
    assert parse_name_list('"Park", \'Garden\'') == ["Park", "Garden"]


def test_parse_semicolons_not_split():
    # documented limitation: only newlines and commas split
    assert parse_name_list("Types: School; University") == ["Types: School; University"]


def test_parse_empty_returns_no_names():
    assert parse_name_list("  \n , , \n ") == []


@given(st.lists(st.sampled_from(["Hospital", "School", "Park Lane", "Museum"]), min_size=1, max_size=6))
def test_parse_idempotent(names):
    parsed = parse_name_list(", ".join(names))
    assert parse_name_list(", ".join(parsed)) == parsed
