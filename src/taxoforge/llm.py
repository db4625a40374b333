"""Chat-completion backends and the request transcript.

The remote backend speaks the common ``/v1/chat/completions`` JSON shape
(which also covers local model servers); the scripted backend replays
canned responses by first substring match on the user prompt, which is
what makes the generative pipeline testable offline. Every request and
response pair is appended to a JSON-lines transcript when a logger is
attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .errors import BackendError, open_input
from .options import DEFAULT_CHAT_MODEL
from .remote import MAX_ATTEMPTS, post_json

CHAT_PATH = "/v1/chat/completions"
CHAT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class ChatRequest:
    """One user prompt; every other request setting is fixed and written to the transcript as is."""

    user: str
    system: ClassVar[str] = ""
    temperature: ClassVar[float] = 0.0
    max_tokens: ClassVar[int] = 1024
    model: ClassVar[str] = "default"

    def __post_init__(self):
        if not self.user:
            raise ValueError("user prompt must be non-empty")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    finish_reason: str = "stop"


class ScriptedChatBackend:
    """Deterministic mock: first entry whose pattern is a substring of the prompt.

    An empty pattern matches every prompt, so a last ``("", text)`` entry is
    the fallback; a prompt that matches nothing gets ``""``.
    """

    def __init__(self, script: list[tuple[str, str]]):
        self.script = list(script)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatBackend":
        """Load ``[{"match", "response"}, ...]``; an empty ``match`` acts as a fallback."""
        with open_input(path) as text:
            entries = json.loads(text)
            if not isinstance(entries, list):
                raise ValueError("script must be a JSON list")
            for i, entry in enumerate(entries):
                for key in ("match", "response"):
                    if not (isinstance(entry, dict) and isinstance(entry.get(key), str)):
                        raise ValueError(f"entry {i} has no string {key!r}")
        return cls([(e["match"], e["response"]) for e in entries])

    def complete(self, req: ChatRequest) -> ChatResponse:
        for pattern, response in self.script:
            if pattern in req.user:
                return ChatResponse(text=response)
        return ChatResponse(text="")


class RemoteChatBackend:
    """OpenAI-compatible chat client; retries and errors come from ``remote.post_json``."""

    def __init__(self, base_url: str, model: str = DEFAULT_CHAT_MODEL, max_retries: int = MAX_ATTEMPTS):
        self.url = base_url.rstrip("/") + CHAT_PATH
        self.model = model
        self.max_retries = max_retries

    def complete(self, req: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": req.user}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        body = post_json(self.url, payload, timeout=CHAT_TIMEOUT_S, retries=self.max_retries)
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, str):
                raise TypeError("message content is not a string")
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response: {str(body)[:200]}") from exc
        reason = choice.get("finish_reason", "stop")
        return ChatResponse(text=text, finish_reason="length" if reason == "length" else "stop")


class TranscriptLogger:
    """Appends one JSON line per completed request; deterministic field order."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.write_text("", encoding="utf-8")
        self._seq = 0

    def log(self, req: ChatRequest, resp: ChatResponse) -> None:
        entry = {
            "seq": self._seq,
            "request": {
                "system": req.system,
                "user": req.user,
                "temperature": req.temperature,
                "max_tokens": req.max_tokens,
                "model": req.model,
            },
            "response": {"text": resp.text, "finish_reason": resp.finish_reason},
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._seq += 1

    @property
    def entries(self) -> int:
        return self._seq


class TranscriptBuffer:
    """Holds one task's request/response pairs until they are written to a ``TranscriptLogger``."""

    def __init__(self):
        self.pairs: list[tuple[ChatRequest, ChatResponse]] = []

    def log(self, req: ChatRequest, resp: ChatResponse) -> None:
        self.pairs.append((req, resp))


def complete(
    req: ChatRequest,
    backend,
    transcript: TranscriptLogger | TranscriptBuffer | None = None,
) -> ChatResponse:
    resp = backend.complete(req)
    if transcript is not None:
        transcript.log(req, resp)
    return resp

