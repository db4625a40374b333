from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from taxoforge.cli import main
from taxoforge.corpus import Table, Corpus
from taxoforge.embedding import (
    ColumnRef,
    EmbeddingService,
    LocalHashProvider,
    RemoteProvider,
    VectorCache,
    cache_key,
    serialize_column,
)
from taxoforge.errors import BackendError, DimensionMismatchError


def table_of(headers, columns, table_id="t"):
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    return Table(id=table_id, headers=headers, rows=rows)


# --- serialization ---------------------------------------------------------


def test_serialize_dedupes_values():
    t = table_of(["city"], [["Paris", "Paris", "Lyon"]])
    assert serialize_column(t, 0) == "<s> <header>city</header> Paris Lyon"


def test_serialize_empty_column():
    t = Table(id="t", headers=["x"], rows=[[""], [""]])
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


def test_cache_truncated_entry_treated_as_miss(tmp_path):
    cache = VectorCache(tmp_path)
    (tmp_path / "bad.vec").write_bytes(b"\x01")
    assert cache.get("bad") is None


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


class EmbedHandler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 500
    dim = 4
    fill = None  # every component takes this value when set
    reply = None  # JSON sent instead of the vectors when set
    seen_auth: list[str] = []

    def do_POST(self):
        cls = type(self)
        cls.seen_auth.append(self.headers.get("Authorization", ""))
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(cls.fail_status)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        data = [
            {"embedding": [float(len(text)) if cls.fill is None else cls.fill] * cls.dim}
            for text in body["input"]
        ]
        payload = json.dumps({"data": data} if cls.reply is None else cls.reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    EmbedHandler.fail_first = 0
    EmbedHandler.fail_status = 500
    EmbedHandler.fill = None
    EmbedHandler.reply = None
    EmbedHandler.seen_auth = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_remote_provider_roundtrip(embed_server, monkeypatch):
    monkeypatch.setenv("TAXOFORGE_API_KEY", "sekret")
    provider = RemoteProvider(url=embed_server, model="m", batch_size=2)
    vecs = provider.embed_texts(["a", "bb", "ccc"])
    assert vecs.shape == (3, 4)
    assert vecs[1][0] == 2.0
    assert all(auth == "Bearer sekret" for auth in EmbedHandler.seen_auth)


def test_remote_provider_retries_then_succeeds(embed_server, sleeps):
    EmbedHandler.fail_first = 2
    provider = RemoteProvider(url=embed_server, model="m", max_retries=3)
    vecs = provider.embed_texts(["abc"])
    assert vecs.shape == (1, 4)
    assert sleeps == [1, 2]


def test_remote_provider_error_after_retries(embed_server, sleeps):
    EmbedHandler.fail_first = 99
    provider = RemoteProvider(url=embed_server, model="m", max_retries=3)
    with pytest.raises(BackendError) as err:
        provider.embed_texts(["abc"])
    assert err.value.status == 500
    assert err.value.body == "boom"
    assert len(EmbedHandler.seen_auth) == 3
    assert sleeps == [1, 2]


def test_remote_provider_401_is_sent_once(embed_server, sleeps):
    EmbedHandler.fail_first, EmbedHandler.fail_status = 99, 401
    provider = RemoteProvider(url=embed_server, model="m", max_retries=3)
    with pytest.raises(BackendError) as err:
        provider.embed_texts(["abc"])
    assert err.value.status == 401
    assert len(EmbedHandler.seen_auth) == 1
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
    EmbedHandler.reply = reply
    provider = RemoteProvider(url=embed_server, model="m", max_retries=3)
    with pytest.raises(BackendError):
        provider.embed_texts(texts)
    assert len(EmbedHandler.seen_auth) == 1
    assert sleeps == []


@pytest.mark.parametrize("n_texts", [1, 3])
def test_remote_provider_wrong_vector_count(embed_server, n_texts):
    EmbedHandler.reply = {"data": [{"embedding": [1.0, 2.0]}] * 2}
    provider = RemoteProvider(url=embed_server, model="m")
    with pytest.raises(BackendError, match=f"expected {n_texts} vectors, got 2"):
        provider.embed_texts([f"t{i}" for i in range(n_texts)])


def test_remote_provider_nan_vector_is_not_cached(embed_server, tmp_path):
    EmbedHandler.fill = float("nan")
    service = EmbeddingService(RemoteProvider(url=embed_server, model="m"), cache_dir=tmp_path)
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
    embed_server, sleeps, planted_dir, tmp_path, capsys, monkeypatch, stub
):
    for name, value in stub.items():
        monkeypatch.setattr(EmbedHandler, name, value)
    cache_dir = tmp_path / "cache"
    code = main(
        [
            "run",
            "--method", "emtt",
            "--embedder", "remote",
            "--embed-url", embed_server,
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
