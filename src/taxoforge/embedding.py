"""Column serialization and embedding providers with on-disk caching.

Two providers ship: ``remote`` speaks a JSON embeddings API (order-preserving
``{"model", "input": [...]}`` -> ``{"data": [{"embedding": [...]}]}``), and
``local-hash`` maps each token to a seeded pseudo-random unit vector and
averages, giving a fully offline space where shared vocabulary means high
cosine similarity. Vectors are cached one file per entry, keyed by the
SHA-256 of (provider id || serialized text), so repeated runs are bit-exact
even against nondeterministic remote backends.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .corpus import Corpus, Table
from .errors import BackendError, DimensionMismatchError
from .remote import MAX_ATTEMPTS, in_order, post_json

logger = logging.getLogger(__name__)

EMBED_BATCH_SIZE = 64
EMBED_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ColumnRef:
    table_id: str
    col: int


MAX_DISTINCT_CELLS = 128


def serialize_column(table: Table, col: int) -> str:
    """Render a column as ``<s> <header>H</header> v1 v2 ...``.

    Values are the first ``MAX_DISTINCT_CELLS`` unique non-empty cells in
    first-occurrence order.
    """
    values = islice(table.value_counts(col), MAX_DISTINCT_CELLS)
    return " ".join(["<s>", f"<header>{table.headers[col]}</header>", *values])


class LocalHashProvider:
    """Deterministic offline embedder: average of per-token random unit vectors.

    Each token seeds its own PCG64 stream from a BLAKE2 digest, so vectors
    are identical across processes and platforms for a given dim.
    """

    def __init__(self, dim: int = 64):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        self.provider_id = f"local-hash-d{dim}"
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
            vec = rng.standard_normal(self.dim)
            vec /= np.linalg.norm(vec)
            self._token_cache[token] = vec
        return vec

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            tokens = text.split() or [""]
            acc = np.zeros(self.dim)
            for tok in tokens:
                acc += self._token_vector(tok)
            acc /= len(tokens)
            norm = np.linalg.norm(acc)
            if norm > 0:
                acc /= norm
            out[i] = acc.astype(np.float32)
        return out


class RemoteProvider:
    """Client for a JSON embeddings endpoint; retries and errors come from ``remote.post_json``.

    POSTs ``{"model": ..., "input": [texts]}`` and expects order-preserving
    ``{"data": [{"embedding": [...]}, ...]}`` with one finite vector per text,
    all of one dimension.
    """

    def __init__(self, url: str, model: str):
        self.url = url
        self.model = model
        self.provider_id = f"remote:{model}"

    def _post_batch(self, texts: list[str]) -> list[list[float]]:
        payload = {"model": self.model, "input": texts}
        body = post_json(self.url, payload, timeout=EMBED_TIMEOUT_S, retries=MAX_ATTEMPTS)
        try:
            vectors = [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed embeddings response: {str(body)[:200]}") from exc
        if len(vectors) != len(texts):
            raise BackendError(f"expected {len(texts)} vectors, got {len(vectors)}")
        # JSON numbers only: numpy would turn "1" and true into floats; bool is an int subclass
        if not all(isinstance(v, list) and all(type(x) in (int, float) for x in v) for v in vectors):
            raise BackendError("embeddings are not lists of JSON numbers")
        return vectors

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        batches = [texts[i : i + EMBED_BATCH_SIZE] for i in range(0, len(texts), EMBED_BATCH_SIZE)]
        results = list(in_order(self._post_batch, batches))
        try:
            matrix = np.array([vec for batch in results for vec in batch], dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise BackendError("embeddings are not equal-length lists of numbers") from exc
        if matrix.ndim != 2 or not np.isfinite(matrix).all():
            raise BackendError("embeddings are not finite vectors")
        return matrix


def cache_key(provider_id: str, text: str) -> str:
    payload = provider_id.encode("utf-8") + b"\x00" + text.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class VectorCache:
    """One file per vector: uint32 little-endian dim then float32 values."""

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.vec"

    def get(self, key: str) -> np.ndarray | None:
        """The cached vector; ``None`` when absent, or corrupt (wrong length or a non-finite value)."""
        path = self._path(key)
        if not path.exists():
            return None
        blob = path.read_bytes()
        vec = None
        if len(blob) >= 4 and len(blob) == 4 + 4 * struct.unpack_from("<I", blob)[0]:
            vec = np.frombuffer(blob, dtype="<f4", offset=4)
        if vec is None or not np.isfinite(vec).all():
            logger.warning("corrupt cache entry %s, ignoring", path)
            return None
        return vec.copy()

    def put(self, key: str, vec: np.ndarray) -> None:
        blob = struct.pack("<I", vec.shape[0]) + np.asarray(vec, dtype="<f4").tobytes()
        tmp = self.dir / f".{key}.{os.getpid()}.tmp"
        tmp.write_bytes(blob)
        os.replace(tmp, self._path(key))  # atomic under concurrent writers


class EmbeddingService:
    """Dedupe + cache layer in front of a provider.

    Same serialized text always yields a bit-identical vector: texts are
    deduplicated before the provider is called, and cache hits short-circuit
    the provider entirely.
    """

    def __init__(self, provider, cache_dir: str | Path | None = None):
        self.provider = provider
        self.cache = VectorCache(cache_dir) if cache_dir else None

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, getattr(self.provider, "dim", 0)), dtype=np.float32)
        # each distinct text, in first-occurrence order, to its vector once known
        vectors: dict[str, np.ndarray | None] = dict.fromkeys(texts)
        if self.cache is not None:
            for t in vectors:
                vectors[t] = self.cache.get(cache_key(self.provider.provider_id, t))
        missing = [t for t, vec in vectors.items() if vec is None]
        if missing:
            for t, vec in zip(missing, self.provider.embed_texts(missing)):
                vectors[t] = vec
                if self.cache is not None:
                    self.cache.put(cache_key(self.provider.provider_id, t), vec)
        dims = {v.shape[0] for v in vectors.values()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed dims across texts: {sorted(dims)}")
        return np.stack([vectors[t] for t in texts])

    def embed_columns(self, corpus: Corpus, refs: list[ColumnRef]) -> np.ndarray:
        """One row per ref, in ``refs`` order."""
        return self.embed_texts([serialize_column(corpus.get(r.table_id), r.col) for r in refs])
