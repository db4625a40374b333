"""Spawns benchmark children on request and reports how each one ran.

Linux charges a child's ``ru_maxrss`` with the peak RSS of the process
that spawned it: at exec the kernel records the spawning memory map's
high-water mark. The memory of ``bench/run.py`` grows with the corpora it
generates, so children are spawned from this small process instead.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"timeout"}``; one JSON reply per stdout line, ``{"spawned", "wall_s",
"exit_code", "rss_mb", "cpu_s"}``. ``spawned`` is a ``time.perf_counter``
reading, which shares its clock with ``bench/run.py``. A child still running
after ``timeout`` seconds is killed. The launcher exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        request["argv"], cwd=request["cwd"], env=request["env"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(request["timeout"], proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawned": spawned,
        "wall_s": wall,
        "exit_code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
