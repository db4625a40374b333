from __future__ import annotations

import sys
import threading
import time

import pytest

from taxoforge import embedding, remote
from taxoforge.embedding import EMBED_BATCH_SIZE, EmbeddingService, RemoteProvider
from taxoforge.errors import BackendError
from taxoforge.remote import MAX_IN_FLIGHT, in_order


def straggler(n):
    """``fn`` over ``range(n)`` whose item 0 returns True only once every other item has run.

    Item 0 gives up after 5 s and returns False, so a scheduler that waits on
    it before starting the rest fails instead of hanging.
    """
    others_ran = threading.Event()
    ran = []
    lock = threading.Lock()

    def fn(i):
        if i == 0:
            return others_ran.wait(5)
        with lock:
            ran.append(i)
            if len(ran) == n - 1:
                others_ran.set()
        return True

    return fn


def test_in_order_runs_the_rest_while_the_first_call_waits():
    n = 3 * MAX_IN_FLIGHT
    assert list(in_order(straggler(n), range(n))) == [True] * n


def test_in_order_takes_every_item_before_handing_back_the_slow_first_call():
    n = 3 * MAX_IN_FLIGHT
    pulled = []

    def items():
        for i in range(n):
            pulled.append(i)
            yield i

    # each result, with the number of items taken when it is handed back:
    # every other item has started before the slow first one is handed back
    seen = [(result, len(pulled)) for result in in_order(straggler(n), items())]
    assert seen == [(True, n)] * n


@pytest.mark.parametrize("limit", [1, 3, MAX_IN_FLIGHT])
def test_in_order_runs_at_most_max_in_flight_at_once(limit, monkeypatch):
    monkeypatch.setattr(remote, "MAX_IN_FLIGHT", limit)
    # the first `limit` calls meet at a barrier, so all of them run at once
    barrier = threading.Barrier(limit, timeout=5)
    lock = threading.Lock()
    in_flight = peak = 0

    def fn(i):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        try:
            if i < limit:
                barrier.wait()
            time.sleep((i * 7 % 5) / 1000)
            return i
        finally:
            with lock:
                in_flight -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = list(in_order(fn, range(5 * limit + 3)))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(5 * limit + 3))
    assert peak == limit


def test_in_order_takes_an_item_only_after_a_call_has_finished():
    n = 5 * MAX_IN_FLIGHT
    first_batch_taken = threading.Event()
    lock = threading.Lock()
    finished = []
    finished_at_pull = []  # the number of calls finished when each item is taken

    def items():
        for i in range(n):
            with lock:
                finished_at_pull.append(len(finished))
            if i == MAX_IN_FLIGHT - 1:
                first_batch_taken.set()
            yield i

    def fn(i):
        # no call finishes before the first MAX_IN_FLIGHT items are taken
        assert first_batch_taken.wait(5)
        time.sleep((i * 7 % 5) / 1000)
        with lock:
            finished.append(i)
        return i

    assert list(in_order(fn, items())) == list(range(n))
    assert finished_at_pull[:MAX_IN_FLIGHT] == [0] * MAX_IN_FLIGHT
    # items taken minus calls finished, at every pull
    assert max(i + 1 - done for i, done in enumerate(finished_at_pull)) == MAX_IN_FLIGHT


def test_closing_in_order_after_the_first_result_starts_nothing_more():
    handed_back = threading.Event()
    pulled, started, finished = [], [], []

    def items():
        for i in range(3 * MAX_IN_FLIGHT):
            pulled.append(i)
            yield i

    def fn(i):
        started.append(i)
        if i:
            # the other calls finish only after the first result is handed back
            handed_back.wait(5)
            time.sleep(0.01)
        finished.append(i)
        return i

    results = in_order(fn, items())
    assert next(results) == 0
    handed_back.set()
    results.close()
    assert pulled == list(range(MAX_IN_FLIGHT))
    assert sorted(started) == list(range(MAX_IN_FLIGHT))
    # closing waits for the calls still running
    assert sorted(finished) == sorted(started)


def test_in_order_yields_in_input_order():
    def fn(i):
        time.sleep((i * 7 % 5) / 1000)
        return i * i

    assert list(in_order(fn, range(4 * MAX_IN_FLIGHT))) == [i * i for i in range(4 * MAX_IN_FLIGHT)]


def test_in_order_raises_the_first_failure_in_input_order():
    later_failed = threading.Event()

    def fn(i):
        if i == 4:
            later_failed.set()
            raise ValueError("item 4")
        if i == 2:
            # fail only after item 4 has failed; if it never does, the missing raise fails the test
            if later_failed.wait(5):
                raise ValueError("item 2")
        return i

    got = []
    with pytest.raises(ValueError, match="item 2"):
        for result in in_order(fn, range(3 * MAX_IN_FLIGHT)):
            got.append(result)
    assert got == [0, 1]


def test_in_order_starts_nothing_after_a_call_has_failed():
    # item 1 fails first; the other calls return 50 ms after it has, and item 0
    # 0.5 s after, long enough for every item past the first batch to start
    item_1_failed = threading.Event()
    started = []

    def fn(i):
        started.append(i)
        if i == 1:
            item_1_failed.set()
            raise ValueError("item 1")
        item_1_failed.wait(5)
        time.sleep(0.5 if i == 0 else 0.05)
        return i

    with pytest.raises(ValueError, match="item 1"):
        list(in_order(fn, range(3 * MAX_IN_FLIGHT)))
    assert sorted(started) == list(range(MAX_IN_FLIGHT))


def test_embed_texts_keeps_row_order_when_the_first_batch_is_slowest(monkeypatch):
    n_batches = 3 * MAX_IN_FLIGHT
    texts = [str(i) for i in range(EMBED_BATCH_SIZE * n_batches - 5)]
    others_done = threading.Event()
    done = []
    waited = []
    lock = threading.Lock()

    def fake_post_json(url, payload, *, timeout, retries):
        batch = payload["input"]
        if batch[0] == "0":
            waited.append(others_done.wait(5))
        else:
            with lock:
                done.append(batch[0])
                if len(done) == n_batches - 1:
                    others_done.set()
        return {"data": [{"embedding": [float(text), 1.0]} for text in batch]}

    monkeypatch.setattr(embedding, "post_json", fake_post_json)
    matrix = RemoteProvider("http://127.0.0.1:9/v1/embeddings", "m").embed_texts(texts)
    assert waited == [True]
    assert matrix.shape == (len(texts), 2)
    assert matrix[:, 0].tolist() == list(range(len(texts)))


def test_embed_texts_posts_nothing_more_once_the_first_batch_has_failed(monkeypatch, tmp_path):
    # the first batch fails first; the others return 50 ms after it has
    texts = [str(i) for i in range(EMBED_BATCH_SIZE * 3 * MAX_IN_FLIGHT)]
    first_failed = threading.Event()
    posted = []

    def fake_post_json(url, payload, *, timeout, retries):
        batch = payload["input"]
        posted.append(batch[0])
        if batch[0] == "0":
            first_failed.set()
            raise BackendError("POST failed: HTTP 500")
        first_failed.wait(5)
        time.sleep(0.05)
        return {"data": [{"embedding": [float(text), 1.0]} for text in batch]}

    monkeypatch.setattr(embedding, "post_json", fake_post_json)
    service = EmbeddingService(RemoteProvider("http://127.0.0.1:9/v1/embeddings", "m"), tmp_path)
    with pytest.raises(BackendError, match="HTTP 500"):
        service.embed_texts(texts)
    assert len(posted) <= MAX_IN_FLIGHT
    assert list(tmp_path.iterdir()) == []
