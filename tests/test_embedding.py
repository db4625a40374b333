from __future__ import annotations

import errno
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import taxoforge
from taxoforge.cli import main
from taxoforge.corpus import Table, Corpus
from taxoforge.embedding import (
    ColumnRef,
    EmbeddingService,
    REDUCE_BLOCK_BYTES,
    LocalHashProvider,
    RemoteProvider,
    VectorCache,
    cache_key,
    serialize_column,
)
from taxoforge.errors import BackendError, DimensionMismatchError

from .builders import table_of
from .httpstub import Reply, serve
from .oracles import reference_local_hash


# --- serialization ---------------------------------------------------------


def test_serialize_dedupes_values():
    t = table_of(["city"], [["Paris", "Paris", "Lyon"]])
    assert serialize_column(t, 0) == "<s> <header>city</header> Paris Lyon"


def test_serialize_empty_column():
    t = Table.from_rows(id="t", headers=["x"], rows=[[""], [""]])
    assert serialize_column(t, 0) == "<s> <header>x</header>"


def test_serialize_caps_distinct_values():
    t = table_of(["v"], [[f"val{i}" for i in range(500)]])
    out = serialize_column(t, 0)
    assert len(out.split()) == 2 + 128  # <s>, header segment, 128 values


# --- local hash provider -----------------------------------------------------


def test_local_hash_dims_and_norm():
    provider = LocalHashProvider(dim=64)
    vecs = provider.embed_texts(["alpha beta", "gamma", "alpha beta"])
    assert vecs.shape == (3, 64)
    norms = np.linalg.norm(vecs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)
    assert np.array_equal(vecs[0], vecs[2])


def test_local_hash_cross_instance_determinism():
    a = LocalHashProvider(dim=32).embed_texts(["shared tokens here"])
    b = LocalHashProvider(dim=32).embed_texts(["shared tokens here"])
    assert np.array_equal(a, b)


def test_local_hash_disjoint_vocab_near_orthogonal():
    # 1k random disjoint-vocabulary pairs: mean cosine must sit near 0
    rng = np.random.default_rng(7)
    provider = LocalHashProvider(dim=64)
    left = [" ".join(f"a{rng.integers(1_000_000)}" for _ in range(5)) for _ in range(1000)]
    right = [" ".join(f"b{rng.integers(1_000_000)}" for _ in range(5)) for _ in range(1000)]
    lv = provider.embed_texts(left).astype(np.float64)
    rv = provider.embed_texts(right).astype(np.float64)
    cosines = np.sum(lv * rv, axis=1)
    assert abs(float(cosines.mean())) < 0.05


def test_shared_vocab_high_similarity():
    # high dim keeps single-pair cosine noise well below the separation
    provider = LocalHashProvider(dim=512)
    vecs = provider.embed_texts(
        ["paris lyon nice lille brest tours", "paris lyon nice lille brest dijon", "xs9 qq3 zz7 kk4 pp2 mm1"]
    )
    sim_shared = float(vecs[0] @ vecs[1])
    sim_disjoint = float(vecs[0] @ vecs[2])
    assert sim_shared > 0.6
    assert abs(sim_disjoint) < 0.3
    assert sim_shared > sim_disjoint


TOKENS = st.one_of(
    st.sampled_from(["paris", "lyon", "x1", "<s>", "<header>city</header>"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
)
# 300 to 400 tokens from a pool of 20: every token repeats
LONG_TEXTS = st.lists(st.sampled_from([f"w{i}" for i in range(20)]), min_size=300, max_size=400).map(" ".join)
TEXTS = st.one_of(
    st.just(""),
    st.sampled_from([" ", "\t", " \r\n\u3000"]),
    TOKENS,
    st.lists(TOKENS, max_size=8).map(" ".join),
    LONG_TEXTS,
)
EDGE_TEXTS = ["", " \t ", "solo", " ".join(["city", "paris", "lyon", "nice"] * 80)]
REUSED_PROVIDERS: dict[int, LocalHashProvider] = {}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 64, 4096]), texts=st.lists(TEXTS, max_size=5))
@example(dim=2, texts=EDGE_TEXTS)
@example(dim=64, texts=EDGE_TEXTS)
@example(dim=4096, texts=EDGE_TEXTS)
def test_local_hash_equals_the_running_sum_reference_byte_for_byte(dim, texts):
    expected = reference_local_hash(dim, texts).tobytes()
    assert LocalHashProvider(dim).embed_texts(texts).tobytes() == expected
    # a reused provider answers from the token vectors of earlier examples
    reused = REUSED_PROVIDERS.setdefault(dim, LocalHashProvider(dim))
    assert reused.embed_texts(texts).tobytes() == expected


def test_local_hash_sums_a_long_text_in_bounded_memory():
    # 2000 tokens at dim 4096 would be 65 MB of float64 rows summed in one piece
    provider = LocalHashProvider(4096)
    text = " ".join(["alpha", "beta"] * 1000)
    provider.embed_texts(["alpha beta"])  # make the token vectors first: only the sum is traced
    tracemalloc.start()
    try:
        vecs = provider.embed_texts([text])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.tobytes() == reference_local_hash(4096, [text]).tobytes()
    assert peak < 4 * REDUCE_BLOCK_BYTES


def test_vectors_and_cosine_scores_do_not_depend_on_the_blas_thread_count():
    # library callers never pass through cli.main, which pins OpenBLAS to one thread
    code = (
        "import hashlib\n"
        "from taxoforge.embedding import EmbeddingService, LocalHashProvider\n"
        "from taxoforge.gett import EmbeddingCosineScorer\n"
        "texts = ['city paris lyon', 'animal cat', ' '.join(f'w{i}' for i in range(500))]\n"
        "print(hashlib.sha256(LocalHashProvider(4096).embed_texts(texts).tobytes()).hexdigest())\n"
        "edges = [('place', 'city'), ('animal', 'cat'), ('city', 'cat'), (texts[2], 'w7 w8')]\n"
        "scorer = EmbeddingCosineScorer(EmbeddingService(LocalHashProvider(4096)))\n"
        "print([score.hex() for score in scorer.scores(edges, 0.5)])\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(taxoforge.__file__).resolve().parents[1])}
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# --- cache -------------------------------------------------------------------


class CountingProvider:
    def __init__(self, dim=8):
        self.inner = LocalHashProvider(dim=dim)
        self.provider_id = "counting"
        self.calls = 0

    def embed_texts(self, texts):
        self.calls += 1
        return self.inner.embed_texts(texts)


def test_cache_roundtrip(tmp_path):
    cache = VectorCache(tmp_path)
    vec = np.array([1.5, -2.25, 3.0], dtype=np.float32)
    cache.put("k1", vec)
    assert np.array_equal(cache.get("k1"), vec)
    assert cache.get("absent") is None


def test_cache_warm_run_hits_no_provider(tmp_path):
    texts = ["one two", "three", "one two"]
    provider = CountingProvider()
    service = EmbeddingService(provider, cache_dir=tmp_path)
    first = service.embed_texts(texts)
    assert provider.calls == 1
    provider2 = CountingProvider()
    service2 = EmbeddingService(provider2, cache_dir=tmp_path)
    second = service2.embed_texts(texts)
    assert provider2.calls == 0
    assert np.array_equal(first, second)


def test_cache_key_distinguishes_provider_and_text():
    assert cache_key("p1", "x") != cache_key("p2", "x")
    assert cache_key("p1", "x") != cache_key("p1", "y")


def record_size(key, dim):
    return 2 + len(key.encode()) + 8 + 4 * dim


def test_cache_truncated_entry_treated_as_miss(tmp_path, caplog):
    """A tail cut short is a miss, and the next put truncates it before appending."""
    cache = VectorCache(tmp_path)
    one, two, three, four = (np.full(3, x, dtype=np.float32) for x in (1, 2, 3, 4))
    cache.put("one", one)
    cache.put("two", two)
    pack = tmp_path / "vectors.pack"
    whole = record_size("one", 3)
    with pack.open("r+b") as fh:
        fh.truncate(whole + 5)
    reader = VectorCache(tmp_path)
    assert np.array_equal(reader.get("one"), one)
    assert reader.get("two") is None
    caplog.clear()
    writer = VectorCache(tmp_path)
    writer.put("three", three)
    writer.put("four", four)
    warned = [r.getMessage() for r in caplog.records]
    assert warned == [f"torn cache record at {pack} offset {whole}, truncating 5 bytes"]
    fresh = VectorCache(tmp_path)
    assert fresh.get("two") is None
    for key, vec in (("one", one), ("three", three), ("four", four)):
        assert np.array_equal(fresh.get(key), vec)
    assert pack.stat().st_size == whole + record_size("three", 3) + record_size("four", 3)


def test_cache_write_failure_turns_writes_off_and_reads_go_on(tmp_path, monkeypatch, caplog):
    """The first put that fails warns once; no later put writes, and what the pack held still reads."""
    one, two, three = (np.full(3, x, dtype=np.float32) for x in (1, 2, 3))
    cache = VectorCache(tmp_path)
    cache.put("one", one)

    def full(fd, data, offset):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    caplog.clear()
    monkeypatch.setattr(os, "pwrite", full)
    cache.put("two", two)
    monkeypatch.undo()
    cache.put("three", three)
    pack = tmp_path / "vectors.pack"
    assert [r.getMessage() for r in caplog.records] == [
        f"cannot write the vector cache {pack} ([Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}),"
        " writing no more to it"
    ]
    assert pack.stat().st_size == record_size("one", 3)
    assert np.array_equal(cache.get("one"), one)
    assert cache.get("two") is None and cache.get("three") is None


def test_cache_warns_only_about_corrupt_records_still_unresolved(tmp_path, caplog):
    """A CRC-failed record is warned about until its key is appended again, then never."""
    one, two = np.full(3, 1, dtype=np.float32), np.full(3, 2, dtype=np.float32)
    writer = VectorCache(tmp_path)
    writer.put("one", one)
    writer.put("two", two)
    pack = tmp_path / "vectors.pack"
    blob = bytearray(pack.read_bytes())
    blob[record_size("one", 3) - 1] ^= 0xFF  # a value byte of "one": its CRC fails
    blob[-1] ^= 0xFF  # and of "two"
    pack.write_bytes(blob)
    warning = f"corrupt cache record at {pack} offset %d, skipping"
    caplog.clear()
    healer = VectorCache(tmp_path)
    assert healer.get("one") is None and healer.get("two") is None
    healer.put("one", one)
    assert [r.getMessage() for r in caplog.records] == [warning % 0, warning % record_size("one", 3)]
    caplog.clear()
    fresh = VectorCache(tmp_path)
    assert np.array_equal(fresh.get("one"), one)
    assert fresh.get("two") is None
    assert [r.getMessage() for r in caplog.records] == [warning % record_size("one", 3)]


PUTTER = """
import sys
import time
import numpy as np
from taxoforge.embedding import VectorCache
cache = VectorCache(sys.argv[1])
print("ready", flush=True)
time.sleep(max(0.0, float(sys.stdin.readline()) - time.time()))
for i in range(500):
    cache.put(sys.argv[2] + str(i), np.full(4, i, dtype=np.float32))
"""


def test_cache_writers_in_four_processes_lose_no_record(tmp_path):
    """Four processes putting 500 distinct keys each into one directory at once: every record lands once."""
    env = {**os.environ, "PYTHONPATH": str(Path(taxoforge.__file__).resolve().parents[1])}
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", PUTTER, str(tmp_path), prefix],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        for prefix in "abcd"
    ]
    try:
        for writer in writers:
            assert writer.stdout.readline() == "ready\n"
        start = f"{time.time() + 0.2}\n"  # all start putting at this moment
        for writer in writers:
            writer.stdin.write(start)
            writer.stdin.close()
        assert [writer.wait(timeout=60) for writer in writers] == [0] * len(writers)
    finally:
        for writer in writers:
            writer.kill()
            writer.stdout.close()
    cache = VectorCache(tmp_path)
    keys = [f"{prefix}{i}" for prefix in "abcd" for i in range(500)]
    assert [cache.get(key)[0] for key in keys] == [int(key[1:]) for key in keys]
    assert (tmp_path / "vectors.pack").stat().st_size == sum(record_size(key, 4) for key in keys)


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    puts=st.lists(
        st.tuples(st.booleans(), st.sampled_from("abcde"), st.lists(finite32, min_size=1, max_size=4)),
        max_size=25,
    )
)
def test_cache_reopened_equals_a_first_write_wins_dict(puts):
    """Two writers on one directory, reopened, hold the first vector put under each key."""
    model: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        writers = [VectorCache(tmp), VectorCache(tmp)]
        for second, key, values in puts:
            vec = np.array(values, dtype=np.float32)
            writers[second].put(key, vec)
            model.setdefault(key, vec.tobytes())
        fresh = VectorCache(tmp)
        held = {key: fresh.get(key) for key in "abcde"}
        size = sum(path.stat().st_size for path in Path(tmp).iterdir())
    assert {key: vec.tobytes() for key, vec in held.items() if vec is not None} == model
    assert size == sum(record_size(key, len(vec) // 4) for key, vec in model.items())  # nothing appended twice


def test_embed_texts_empty_list(tmp_path):
    service = EmbeddingService(LocalHashProvider(dim=16), cache_dir=tmp_path)
    out = service.embed_texts([])
    assert out.shape == (0, 16)


def test_embed_columns_identical_texts_identical_vectors():
    t1 = table_of(["city"], [["Paris", "Lyon"]], table_id="t1")
    t2 = table_of(["city"], [["Paris", "Lyon"]], table_id="t2")
    corpus = Corpus(tables=[t1, t2])
    service = EmbeddingService(LocalHashProvider(dim=16))
    refs = [ColumnRef("t1", 0), ColumnRef("t2", 0)]
    vecs = service.embed_columns(corpus, refs)
    assert vecs.shape == (2, 16)
    assert np.array_equal(vecs[0], vecs[1])


# --- remote provider ----------------------------------------------------------


@dataclass
class EmbedStub:
    fail_first: int = 0
    fail_status: int = 500
    dim: int = 4
    fill: object = None  # every component takes this value when set
    reply: object = None  # JSON sent instead of the vectors when set
    seen_auth: list[str] = field(default_factory=list)
    url: str = ""

    def answer(self, request) -> Reply:
        self.seen_auth.append(request.headers.get("Authorization", ""))
        if self.fail_first > 0:
            self.fail_first -= 1
            return Reply(b"boom", self.fail_status)
        data = [
            {"embedding": [float(len(text)) if self.fill is None else self.fill] * self.dim}
            for text in request.json["input"]
        ]
        return Reply({"data": data} if self.reply is None else self.reply)


@pytest.fixture()
def embed_server():
    stub = EmbedStub()
    with serve(stub.answer) as stub.url:
        yield stub


def test_remote_provider_roundtrip(embed_server, monkeypatch):
    monkeypatch.setenv("TAXOFORGE_API_KEY", "sekret")
    monkeypatch.setattr("taxoforge.embedding.EMBED_BATCH_SIZE", 2)
    provider = RemoteProvider(url=embed_server.url, model="m")
    vecs = provider.embed_texts(["a", "bb", "ccc"])
    assert vecs.shape == (3, 4)
    assert vecs[1][0] == 2.0
    assert all(auth == "Bearer sekret" for auth in embed_server.seen_auth)


def test_remote_provider_retries_then_succeeds(embed_server, sleeps):
    embed_server.fail_first = 2
    provider = RemoteProvider(url=embed_server.url, model="m")
    vecs = provider.embed_texts(["abc"])
    assert vecs.shape == (1, 4)
    assert sleeps == [1, 2]


def test_remote_provider_error_after_retries(embed_server, sleeps):
    embed_server.fail_first = 99
    provider = RemoteProvider(url=embed_server.url, model="m")
    with pytest.raises(BackendError) as err:
        provider.embed_texts(["abc"])
    assert err.value.status == 500
    assert err.value.body == "boom"
    assert len(embed_server.seen_auth) == 3
    assert sleeps == [1, 2]


def test_remote_provider_401_is_sent_once(embed_server, sleeps):
    embed_server.fail_first, embed_server.fail_status = 99, 401
    provider = RemoteProvider(url=embed_server.url, model="m")
    with pytest.raises(BackendError) as err:
        provider.embed_texts(["abc"])
    assert err.value.status == 401
    assert len(embed_server.seen_auth) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "reply, texts",
    [
        ({"data": 5}, ["a"]),
        ({"vectors": []}, ["a"]),
        ({"data": [{"vector": [1.0, 2.0]}]}, ["a"]),
        ({"data": [{"embedding": "1.0 2.0"}]}, ["a"]),
        ({"data": [{"embedding": [1.0, 2.0]}, {"embedding": [1.0]}]}, ["a", "b"]),
        ({"data": [{"embedding": ["1", "2"]}]}, ["a"]),
        ({"data": [{"embedding": [True, False]}]}, ["a"]),
    ],
    ids=[
        "data-not-a-list",
        "no-data",
        "no-embedding",
        "embedding-not-numbers",
        "mixed-dims",
        "string-components",
        "bool-components",
    ],
)
def test_remote_provider_malformed_200(embed_server, sleeps, reply, texts):
    embed_server.reply = reply
    provider = RemoteProvider(url=embed_server.url, model="m")
    with pytest.raises(BackendError):
        provider.embed_texts(texts)
    assert len(embed_server.seen_auth) == 1
    assert sleeps == []


@pytest.mark.parametrize("n_texts", [1, 3])
def test_remote_provider_wrong_vector_count(embed_server, n_texts):
    embed_server.reply = {"data": [{"embedding": [1.0, 2.0]}] * 2}
    provider = RemoteProvider(url=embed_server.url, model="m")
    with pytest.raises(BackendError, match=f"expected {n_texts} vectors, got 2"):
        provider.embed_texts([f"t{i}" for i in range(n_texts)])


def test_remote_provider_nan_vector_is_not_cached(embed_server, tmp_path):
    embed_server.fill = float("nan")
    service = EmbeddingService(RemoteProvider(url=embed_server.url, model="m"), cache_dir=tmp_path)
    with pytest.raises(BackendError):
        service.embed_texts(["abc", "de"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "stub",
    [
        {"reply": {"data": 5}},
        {"fail_first": 99, "fail_status": 401},
        {"fail_first": 99},
        {"reply": {"data": []}},
        {"fill": float("inf")},
        {"fill": "1"},
        {"fill": True},
    ],
    ids=[
        "malformed-200",
        "4xx",
        "5xx-after-retries",
        "wrong-vector-count",
        "non-finite-vector",
        "string-components",
        "bool-components",
    ],
)
def test_run_remote_embedder_failure_exits_1(
    embed_server, sleeps, planted_dir, tmp_path, capsys, stub
):
    for name, value in stub.items():
        setattr(embed_server, name, value)
    cache_dir = tmp_path / "cache"
    code = main(
        [
            "run",
            "--method", "emtt",
            "--embedder", "remote",
            "--embed-url", embed_server.url,
            "--tables-dir", str(planted_dir / "tables"),
            "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(cache_dir),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "error: " in err
    assert "Traceback" not in err
    assert list(cache_dir.iterdir()) == []


class MixedDimProvider:
    provider_id = "mixed"

    def embed_texts(self, texts):
        raise AssertionError("unused")


def test_dimension_mismatch_detected():
    class BadProvider:
        provider_id = "bad"

        def embed_texts(self, texts):
            return [np.zeros(3), np.zeros(4)]

    service = EmbeddingService(BadProvider())
    with pytest.raises(DimensionMismatchError):
        service.embed_texts(["a", "b"])
