from __future__ import annotations

import sys
import threading
import time

import pytest

from taxoforge import embedding, remote
from taxoforge.embedding import EMBED_BATCH_SIZE, RemoteProvider
from taxoforge.remote import MAX_IN_FLIGHT, completed, in_order


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


def test_completed_hands_back_the_slow_first_call_last():
    n = 3 * MAX_IN_FLIGHT
    results = [(k, future.result()) for k, future in completed(straggler(n), range(n))]
    assert results[-1] == (0, True)
    assert sorted(results) == [(k, True) for k in range(n)]


@pytest.mark.parametrize("limit", [1, 3, MAX_IN_FLIGHT])
def test_completed_runs_at_most_max_in_flight_at_once(limit, monkeypatch):
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
        results = sorted(future.result() for _, future in completed(fn, range(5 * limit + 3)))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(5 * limit + 3))
    assert peak == limit


def test_completed_takes_an_item_only_after_handing_a_call_back():
    n = 3 * MAX_IN_FLIGHT
    pulled = []

    def items():
        for i in range(n):
            pulled.append(i)
            yield i

    seen = [len(pulled) for _ in completed(lambda i: i, items())]
    assert seen == [min(MAX_IN_FLIGHT + j, n) for j in range(n)]


def test_closing_completed_after_the_first_result_starts_nothing_more():
    pulled, started, finished = [], [], []

    def items():
        for i in range(3 * MAX_IN_FLIGHT):
            pulled.append(i)
            yield i

    def fn(i):
        started.append(i)
        time.sleep(0.01 if i else 0)
        finished.append(i)

    results = completed(fn, items())
    next(results)
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
