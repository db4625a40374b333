"""A map spread over forked processes, one per usable CPU: ``run``."""

from __future__ import annotations

import io
import os
import pickle
import signal
import sys
import threading

from .errors import TaxoforgeError


def _process_count(costs: list[float]) -> int:
    """Processes to run items of these costs in: one per usable CPU, at most one per
    item and one per unit of the costs' sum.

    1 where forking is unsafe or unavailable: a fork copies only the calling
    thread, so while another thread is alive a lock it holds could stay held
    in the child forever.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), len(costs), int(sum(costs))))


def _split(costs: list[float], n: int) -> list[list[int]]:
    """Deal the indices of ``costs``, costliest first, each to the least-loaded of ``n`` shares."""
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for k in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        p = loads.index(min(loads))
        shares[p].append(k)
        loads[p] += costs[k]
    return shares


def _outcome(run_share, share: list[int]) -> bytes:
    """``run_share(share)``'s result, or what it raised, pickled behind an 8-byte length."""
    try:
        blob = pickle.dumps(("ok", run_share(share)))
    except BaseException as exc:  # the parent re-raises it
        try:
            raised = pickle.dumps(exc)
        except Exception:  # an exception pickle cannot send arrives as its description alone
            raised = b""
        blob = pickle.dumps(("raised", f"{type(exc).__name__}: {exc}", raised))
    return len(blob).to_bytes(8, "little") + blob


def _fork(run_share, share: list[int]) -> tuple[int, io.BufferedReader] | None:
    """Start a child that sends ``_outcome(run_share, share)`` through a pipe; None when fork fails.

    The child always leaves through ``os._exit``, so it never returns into
    the caller, runs no exit handler and flushes no buffer it inherited.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                pipe.write(_outcome(run_share, share))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _received(pid: int, status: int, data: bytes) -> dict:
    """A reaped worker's results from its wait ``status`` and the bytes it sent, or what it raised."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        raise TaxoforgeError(f"worker {pid} was killed by {name}")
    if code != 0:
        raise TaxoforgeError(f"worker {pid} exited with status {code}")
    size = 8 + int.from_bytes(data[:8], "little")
    if len(data) != size:
        raise TaxoforgeError(f"worker {pid} sent {len(data)} bytes of a {size}-byte result")
    kind, *rest = pickle.loads(data[8:])
    if kind == "ok":
        return rest[0]
    described, raised = rest
    try:
        exc = pickle.loads(raised)
    except Exception:  # pickle rebuilds an exception from its args; CycleError's do not fit
        exc = None
    if exc is None or f"{type(exc).__name__}: {exc}" != described:
        raise TaxoforgeError(f"worker {pid} raised {described}")
    raise exc


class _Terminated(BaseException):
    """A SIGTERM that arrived while workers ran."""


def _terminate(signum, frame):
    raise _Terminated


def run(fn, items: list, costs: list[float]) -> list:
    """``[fn(x) for x in items]``, spread over ``_process_count(costs)`` processes.

    ``costs[k]`` is item k's work in units of what one fork is worth. The
    items are dealt by ``_split``: this process runs the first share and one
    forked worker runs each other share, or this process does when the fork
    fails. Each process sets to None in ``items`` every item it does not
    run, and each of its own once ``fn`` has taken it. ``fn``'s results must
    not depend on which process computes them, and must pickle. A worker's
    exception is re-raised here; any exception here kills and reaps every
    worker still running before it propagates. While workers may run, and
    when SIGTERM's action is the default one and this is the main thread,
    a SIGTERM is such an exception: once the workers are reaped, this
    process restores the default action and sends SIGTERM to itself.
    """

    def run_share(share: list[int]) -> dict:
        for k in range(len(items)):
            if k not in share:
                items[k] = None
        results = {}
        for k in share:
            item, items[k] = items[k], None
            results[k] = fn(item)
        return results

    shares = _split(costs, _process_count(costs))
    own = shares[0]
    live: dict[int, io.BufferedReader] = {}  # pid -> read end of its pipe
    terminable = (
        len(shares) > 1
        and threading.current_thread() is threading.main_thread()
        and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    )
    if len(shares) > 1:
        sys.stdout.flush()
        sys.stderr.flush()
    if terminable:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        for share in shares[1:]:
            started = _fork(run_share, share)
            if started is None:
                own = own + share
            else:
                live[started[0]] = started[1]
        results = run_share(own)
        for pid, pipe in list(live.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del live[pid]
            results.update(_received(pid, status, data))
    except BaseException as exc:
        for pid, pipe in live.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if isinstance(exc, _Terminated):
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        if terminable:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return [results[k] for k in range(len(items))]
