"""``pool.run`` on trivial functions: how a worker's failure, or this process's, ends the map."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import taxoforge
from taxoforge import pool
from taxoforge.errors import CycleError, DimensionMismatchError, TaxoforgeError


@pytest.fixture()
def forks(monkeypatch):
    """Pids of the processes that called ``os.fork``, which still forks."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def in_parent_or_worker(where, action, fn=lambda x: x):
    """``fn``, calling ``action`` first in this process or in a worker only."""
    parent = os.getpid()

    def patched(x):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return fn(x)

    return patched


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raiser(exc):
    def action():
        raise exc

    return action


@settings(derandomize=True, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(costs=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=6), cpus=st.integers(1, 3))
def test_run_equals_the_serial_map(forks, usable_cpus, costs, cpus):
    """Each item computed once, in whichever process, and the results in item order."""
    usable_cpus(cpus)
    forked = len(forks)
    names = [f"item {k}" for k in range(len(costs))]
    items = list(names)
    with tempfile.TemporaryDirectory() as tmp:
        calls = Path(tmp) / "calls"

        def shout(x):
            with calls.open("a") as fh:  # one short append per call, whole whatever process writes it
                fh.write(f"{x}\t{os.getpid()}\n")
            return x.upper(), os.getpid()

        results = pool.run(shout, items, costs)
        computed = calls.read_text().splitlines()
    assert [value for value, _ in results] == [x.upper() for x in names]
    assert sorted(computed) == sorted(f"{x}\t{pid}" for x, (_, pid) in zip(names, results))
    assert len({pid for _, pid in results}) <= cpus
    assert len(forks) - forked <= cpus - 1
    assert items == [None] * len(names)
    assert_no_children()


@pytest.mark.parametrize("exc", [ValueError("bad cell"), DimensionMismatchError("mixed dims: [3, 4]")])
def test_worker_exception_is_reraised_with_its_type_and_message(forks, usable_cpus, exc):
    usable_cpus(2)
    with pytest.raises(type(exc)) as raised:
        pool.run(in_parent_or_worker("worker", raiser(exc)), [0, 1], [1, 1])
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert len(forks) == 1
    assert_no_children()


def test_worker_exception_that_cannot_be_rebuilt_is_a_taxoforge_error(forks, usable_cpus):
    # pickle rebuilds CycleError from its one formatted message, which its two-name __init__ refuses
    usable_cpus(2)
    with pytest.raises(TaxoforgeError) as raised:
        pool.run(in_parent_or_worker("worker", raiser(CycleError("a", "b"))), [0, 1], [1, 1])
    assert type(raised.value) is TaxoforgeError
    assert str(CycleError("a", "b")) in str(raised.value) and "CycleError" in str(raised.value)
    assert len(forks) == 1
    assert_no_children()


def test_worker_killed_by_a_signal_is_a_taxoforge_error(forks, usable_cpus):
    usable_cpus(2)
    killed = in_parent_or_worker("worker", lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(TaxoforgeError, match="SIGKILL"):
        pool.run(killed, [0, 1], [1, 1])
    assert len(forks) == 1
    assert_no_children()


@pytest.mark.parametrize("exc", [RuntimeError("parent share failed"), KeyboardInterrupt()])
def test_parent_share_failure_kills_and_reaps_every_worker(forks, usable_cpus, exc):
    usable_cpus(3)
    # every worker forks before the parent runs its share, so all are running when it raises
    sleeper = in_parent_or_worker("worker", lambda: time.sleep(120))
    started = time.monotonic()
    with pytest.raises(type(exc)):
        pool.run(in_parent_or_worker("parent", raiser(exc), sleeper), [0, 1, 2], [1, 1, 1])
    assert time.monotonic() - started < 60  # killed, not waited out
    assert len(forks) == 2
    assert_no_children()


@pytest.mark.parametrize(
    "condition", ["second thread", "one cpu", "one item", "no sched_getaffinity", "little work"]
)
def test_no_fork_where_unsafe_or_pointless(monkeypatch, forks, usable_cpus, condition):
    usable_cpus(2)
    items, costs = [1, 2, 3], [1, 1, 1]
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if condition == "second thread":
        thread.start()
    elif condition == "one cpu":
        usable_cpus(1)
    elif condition == "one item":
        items, costs = [1], [5]
    elif condition == "no sched_getaffinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif condition == "little work":
        costs = [0.5, 0.5, 0.9]  # under two forks' worth in all
    expected = [x * 2 for x in items]
    try:
        assert pool.run(lambda x: x * 2, items, costs) == expected
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


# a map of two sleeping items over two processes; the worker writes its pid to argv[1]
SLEEPING_POOL = """
import os, sys, time
from taxoforge import pool
os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()

def sleep(x):
    if os.getpid() != parent:
        with open(sys.argv[1] + ".part", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename(sys.argv[1] + ".part", sys.argv[1])
    time.sleep(60)

pool.run(sleep, [0, 1], [1, 1])
"""


def test_sigterm_kills_and_reaps_every_worker_then_the_process(tmp_path):
    pid_file = tmp_path / "worker.pid"
    env = {**os.environ, "PYTHONPATH": str(Path(taxoforge.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", SLEEPING_POOL, str(pid_file)], env=env)
    worker = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        worker = int(pid_file.read_text())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)
    finally:
        proc.kill()
        proc.wait()
        if worker is not None:
            try:
                os.kill(worker, signal.SIGKILL)
            except ProcessLookupError:
                pass
