"""Column serialization and embedding providers with on-disk caching.

Two providers ship: ``remote`` speaks a JSON embeddings API (order-preserving
``{"model", "input": [...]}`` -> ``{"data": [{"embedding": [...]}]}``), and
``local-hash`` maps each token to a seeded pseudo-random unit vector and
averages, giving a fully offline space where shared vocabulary means high
cosine similarity. Vectors are cached in one append-only pack file per cache
directory, keyed by the SHA-256 of (provider id || serialized text), so
repeated runs are bit-exact even against nondeterministic remote backends.
"""

from __future__ import annotations

import fcntl
import hashlib
import logging
import os
import struct
import weakref
import zlib
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
# local-hash sums a text's token vectors in blocks of about this many bytes, so a text of
# any length takes bounded memory
REDUCE_BLOCK_BYTES = 1 << 20


def serialize_column(table: Table, col: int) -> str:
    """Render a column as ``<s> <header>H</header> v1 v2 ...``.

    Values are the first ``MAX_DISTINCT_CELLS`` unique non-empty cells in
    first-occurrence order.
    """
    values = islice(table.iter_distinct(col), MAX_DISTINCT_CELLS)
    return " ".join(["<s>", f"<header>{table.headers[col]}</header>", *values])


class LocalHashProvider:
    """Deterministic offline embedder: average of per-token random unit vectors.

    Each token seeds its own PCG64 stream from a BLAKE2 digest, so vectors
    are identical across processes and platforms for a given dim.
    """

    def __init__(self, dim: int):
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
        block = max(1, REDUCE_BLOCK_BYTES // (8 * self.dim))
        for i, text in enumerate(texts):
            tokens = text.split() or [""]
            acc = np.zeros(self.dim)
            for start in range(0, len(tokens), block):
                # reducing down axis 0 adds the rows one after another onto the running sum,
                # so the bits are those of adding one token vector at a time
                rows = [acc, *map(self._token_vector, tokens[start : start + block])]
                acc = np.add.reduce(np.array(rows), axis=0)
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


PACK_FILE = "vectors.pack"
_KEY_LEN = struct.Struct("<H")
_DIM_CRC = struct.Struct("<II")


class VectorCache:
    """Vectors in one append-only pack file, ``vectors.pack`` in the cache directory.

    A record is a uint16 key length, the UTF-8 key, a uint32 dim, a CRC32 of
    the record's other bytes, then ``dim`` float32 values, all little-endian.
    The first whole record of a key whose CRC matches and whose values are
    all finite wins; a record whose CRC fails is skipped, with a warning
    unless the pack holds a whole record of the key as parsed. On
    first use one read under a shared ``flock`` indexes the pack. ``put``
    takes an exclusive ``flock``, indexes what other writers appended since,
    truncates a tail cut short by a crashed writer, then appends, so
    processes may share a directory. Nothing else in the directory is read.
    The cache only saves work, so the first ``put`` that fails with an
    ``OSError`` (a short write, ``EFBIG``, ``ENOSPC``) logs one warning and
    turns writes off for the life of this cache; reads go on.
    """

    def __init__(self, cache_dir: str | Path):
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        self.path = Path(cache_dir) / PACK_FILE
        self._fd: int | None = None
        # key -> offset of its values << 32 | dim: one int per key, where a tuple costs 56 bytes more
        self._index: dict[str, int] = {}
        self._end = 0  # the pack is indexed up to here, the end of a whole record
        self._writable = True

    def get(self, key: str) -> np.ndarray | None:
        """The cached vector; ``None`` when absent, or when its values are not all finite."""
        if self._fd is None and self._open(create=False):
            fcntl.flock(self._fd, fcntl.LOCK_SH)
            try:
                self._index_appended()
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        entry = self._index.get(key)
        if entry is None:
            return None
        vec = self._read(entry)
        if vec is None:
            logger.warning("non-finite cache record at %s offset %d, recomputing", self.path, entry >> 32)
            del self._index[key]  # so that put appends the recomputed vector
        return vec

    def put(self, key: str, vec: np.ndarray) -> None:
        """Append ``vec`` under ``key``, unless the pack already holds the key or writes are off."""
        if not self._writable:
            return
        try:
            self._append(key, vec)
        except OSError as exc:
            logger.warning("cannot write the vector cache %s (%s), writing no more to it", self.path, exc)
            self._writable = False

    def _append(self, key: str, vec: np.ndarray) -> None:
        """``put``'s write: lock, index what others appended, truncate a torn tail, append."""
        raw_key = key.encode("utf-8")
        values = np.asarray(vec, dtype="<f4").tobytes()
        head = _KEY_LEN.pack(len(raw_key)) + raw_key + struct.pack("<I", len(values) // 4)
        record = head + struct.pack("<I", zlib.crc32(values, zlib.crc32(head))) + values
        self._open(create=True)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        try:
            size = self._index_appended()
            if size > self._end:
                torn = size - self._end
                logger.warning(
                    "torn cache record at %s offset %d, truncating %d bytes", self.path, self._end, torn
                )
                os.ftruncate(self._fd, self._end)
            if key in self._index:
                return
            if os.pwrite(self._fd, record, self._end) != len(record):
                raise OSError("short write")
            self._index[key] = (self._end + len(head) + 4) << 32 | len(values) // 4
            self._end += len(record)
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def _open(self, create: bool) -> bool:
        """Open the pack for the life of this cache unless open; False when absent and not ``create``."""
        if self._fd is None:
            try:
                self._fd = os.open(self.path, os.O_RDWR | (os.O_CREAT if create else 0), 0o644)
            except FileNotFoundError:
                return False
            weakref.finalize(self, os.close, self._fd)
        return True

    def _index_appended(self) -> int:
        """Index the whole records past ``_end``, move ``_end`` past them and return the pack's size."""
        size = os.fstat(self._fd).st_size
        if size <= self._end:
            return size
        blob = os.pread(self._fd, size - self._end, self._end)
        view = memoryview(blob)
        pos = 0
        corrupt: list[tuple[str, int]] = []  # (key as parsed, offset) of each record whose CRC failed
        while pos + _KEY_LEN.size <= len(blob):
            at = pos + _KEY_LEN.size + _KEY_LEN.unpack_from(blob, pos)[0]  # where the dim and the CRC sit
            if at + _DIM_CRC.size > len(blob):
                break
            dim, crc = _DIM_CRC.unpack_from(blob, at)
            values_at = at + _DIM_CRC.size
            end = values_at + 4 * dim
            if end > len(blob):
                break
            key = blob[pos + _KEY_LEN.size : at].decode("utf-8", "replace")
            # the CRC covers the key length, the key, the dim and the values
            if zlib.crc32(view[values_at:end], zlib.crc32(view[pos : at + 4])) != crc:
                corrupt.append((key, self._end + pos))
            else:
                held = self._index.get(key)
                if held is None or self._read(held) is None:
                    self._index[key] = (self._end + values_at) << 32 | dim
            pos = end
        # a damaged record whose key has a whole record too was already recomputed and appended
        for key, offset in corrupt:
            if key not in self._index:
                logger.warning("corrupt cache record at %s offset %d, skipping", self.path, offset)
        self._end += pos
        return size

    def _read(self, entry: int) -> np.ndarray | None:
        """The vector an index entry points at; ``None`` unless all its values are there and finite."""
        vec = np.empty(entry & 0xFFFFFFFF, dtype="<f4")
        if os.preadv(self._fd, [vec], entry >> 32) != vec.nbytes or not np.isfinite(vec).all():
            return None
        return vec


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
