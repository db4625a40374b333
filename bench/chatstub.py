"""Local chat-completions stub that answers gett prompts from a ChatScript.

It serves ``POST /v1/chat/completions`` on ``127.0.0.1`` from a
``ThreadingHTTPServer``, sleeps a fixed delay per request to stand in for
model latency, and never returns an error: a retry in the client would
add its own backoff sleeps to the timing. Requests are handled on their
own threads and are not serialized, so a client that sends calls in
parallel sees its gain. The stub counts requests, requests per kind, the
most requests in flight at once, and prompts it did not recognise.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from corpora import ChatScript

KINDS = ("generation", "repair", "demonstration", "layer", "edge", "unknown")

# first answers for garbled tables: every line is a bare bullet, so the
# name-list parser finds nothing and the pipeline sends its repair prompt
GARBLED_ANSWER = "-\n-\n-"
DEMONSTRATION = "Food -> Fruit\nFood -> Vegetable\nFruit -> Apple"

_PARENT_RE = re.compile(r'Select the child types of "(.+?)" from the remaining candidate types')
_CANDIDATES_RE = re.compile(r"^Remaining candidate types: (.*)$", re.MULTILINE)
_STATEMENT_RES = (
    re.compile(r"^Statement: (?P<child>.+) is a (?:kind|type) of (?P<parent>.+)\.$", re.MULTILINE),
    re.compile(r"^Statement: Every (?P<child>.+) is a (?P<parent>.+)\.$", re.MULTILINE),
)


def _table_header(prompt: str) -> str:
    _, _, rest = prompt.partition("Table:\n")
    return rest.split("\n", 1)[0]


def classify(prompt: str) -> str:
    if "could not be parsed" in prompt:
        return "repair"
    if "Identify the entity types" in prompt:
        return "generation"
    if "example of a taxonomy" in prompt:
        return "demonstration"
    if _PARENT_RE.search(prompt):
        return "layer"
    if prompt.startswith("Does the statement hold?"):
        return "edge"
    return "unknown"


def answer(script: ChatScript, kind: str, prompt: str) -> str:
    """The scripted reply to one prompt of the given kind."""
    if kind in ("generation", "repair"):
        header = _table_header(prompt)
        if kind == "generation" and header in script.garbled:
            return GARBLED_ANSWER
        return script.answers.get(header, "")
    if kind == "demonstration":
        return DEMONSTRATION
    if kind == "layer":
        parent = _PARENT_RE.search(prompt).group(1)
        found = _CANDIDATES_RE.search(prompt)
        remaining = set(found.group(1).split(", ")) if found else set()
        lines = [f"{parent} -> {child}" for child in script.children.get(parent, []) if child in remaining]
        if parent in script.bogus:
            lines.append(f"{parent} -> {script.bogus[parent]}")
        return "\n".join(lines) if lines else "NONE"
    if kind == "edge":
        for pattern in _STATEMENT_RES:
            found = pattern.search(prompt)
            if found:
                edge = (found.group("parent"), found.group("child"))
                known = edge[1] in script.children.get(edge[0], [])
                return "yes" if known and edge not in script.rejected else "no"
        return "no"
    return "NONE"


class ChatStub:
    def __init__(self, script: ChatScript, delay_s: float):
        self.script = script
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.reset()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                stub._serve(self, body)

            def log_message(self, format, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        # a short poll interval keeps close() quick; set-up starts the stub often
        self._thread = threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.inflight = 0
            self.inflight_max = 0
            self.by_kind = {k: 0 for k in KINDS}

    def _serve(self, handler: BaseHTTPRequestHandler, body: bytes) -> None:
        with self._lock:
            self.requests += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            try:
                messages = json.loads(body)["messages"]
                prompt = messages[-1]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                prompt = ""
            kind = classify(prompt)
            text = answer(self.script, kind, prompt)
            with self._lock:
                self.by_kind[kind] += 1
            time.sleep(self.delay_s)
            payload = json.dumps({
                "choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": "stop"}]
            }).encode("utf-8")
            handler.send_response(200)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(payload)))
            handler.end_headers()
            handler.wfile.write(payload)
        finally:
            with self._lock:
                self.inflight -= 1

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)
