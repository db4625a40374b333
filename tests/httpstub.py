"""The one local HTTP server behind every test of the remote backends.

``serve(answer)`` runs a single-threaded ``HTTPServer`` on 127.0.0.1 and
yields its base URL. Each request is handed to ``answer``, which gets the
request handler with the parsed JSON body as ``json`` (``None`` for a GET)
and returns the ``Reply`` to send.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer


@dataclass
class Reply:
    """What ``answer`` sends back.

    ``body`` is sent as JSON unless it is bytes. A bytes ``status`` is sent
    in place of the whole reply, as a broken status line.
    """

    body: object = b""
    status: int | bytes = 200
    headers: dict[str, str] = field(default_factory=dict)


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.json = None
        self._send(self.server.answer(self))

    def do_POST(self):
        self.json = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self._send(self.server.answer(self))

    def _send(self, reply: Reply) -> None:
        if isinstance(reply.status, bytes):
            self.wfile.write(reply.status + b"\r\n\r\n")
            return
        data = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def serve(answer):
    """Serve ``answer`` until the block ends, then close the listening socket and join the thread."""
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.answer = answer
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()
