"""Chat-completion backends and response parsing.

The remote backend speaks the common ``/v1/chat/completions`` JSON shape
(which also covers local model servers); the scripted backend replays
canned responses by first substring match on the user prompt, which is
what makes the generative pipeline testable offline. Every request and
response pair is appended to a JSON-lines transcript when a logger is
attached.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendError, EmptyParseError
from .remote import post_json

logger = logging.getLogger(__name__)

CHAT_PATH = "/v1/chat/completions"


@dataclass(frozen=True)
class ChatRequest:
    user: str
    system: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    model: str = "default"

    def __post_init__(self):
        if not self.user:
            raise ValueError("user prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    finish_reason: str = "stop"


class ScriptedChatBackend:
    """Deterministic mock: first entry whose pattern is a substring of the prompt."""

    def __init__(self, script: list[tuple[str, str]], fallback: str = ""):
        self.script = list(script)
        self.fallback = fallback

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatBackend":
        """Load ``[{"match", "response"}, ...]``; an empty ``match`` acts as a fallback."""
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls([(e["match"], e["response"]) for e in entries])

    def complete(self, req: ChatRequest) -> ChatResponse:
        for pattern, response in self.script:
            if pattern in req.user:
                return ChatResponse(text=response)
        return ChatResponse(text=self.fallback)


class RemoteChatBackend:
    """OpenAI-compatible chat client; retries and errors come from ``remote.post_json``."""

    def __init__(
        self,
        base_url: str,
        model: str = "gpt-4",
        timeout: float = 120.0,
        max_retries: int = 3,
    ):
        self.url = base_url.rstrip("/") + CHAT_PATH
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries

    def complete(self, req: ChatRequest) -> ChatResponse:
        messages = []
        if req.system:
            messages.append({"role": "system", "content": req.system})
        messages.append({"role": "user", "content": req.user})
        payload = {
            "model": req.model if req.model != "default" else self.model,
            "messages": messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        body = post_json(self.url, payload, timeout=self.timeout, retries=self.max_retries)
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
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


_BULLET_RE = re.compile(r"^\s*(?:[-*•]+\s*|\d+[.)]\s*)?")


def parse_name_list(text: str) -> list[str]:
    """Extract type names: split on newlines/commas, strip bullets and quotes.

    Order is preserved; duplicates are dropped case-insensitively, keeping
    the first casing seen. Raises EmptyParseError when nothing survives.
    """
    names: list[str] = []
    seen: set[str] = set()
    for piece in re.split(r"[\n,]", text):
        cleaned = _BULLET_RE.sub("", piece, count=1).strip().strip("\"'").strip()
        if not cleaned:
            continue
        key = cleaned.casefold()
        if key not in seen:
            seen.add(key)
            names.append(cleaned)
    if not names:
        raise EmptyParseError("no names found in response")
    return names
