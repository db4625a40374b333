from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from conftest import BENCH, ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(wall: float = 1.0) -> run.Run:
    return run.Run(wall_s=wall, exit_code=0, rss_mb=50.0, cpu_s=0.5, spawned=0.0,
                   report={"rand_index": 1.0, "purity": 0.5, "tcs": 0.25}, stats=(3, 2))


def test_declared_metrics_are_all_computed():
    e2e = run.end_to_end_metrics([0.2, 0.1, 0.3], [_run(2.0), _run(1.0), _run(3.0)])
    assert {m["name"] for m in DECLARED["end_to_end"]} == set(e2e)
    assert e2e["run_s"] == 2.0 and e2e["setup_s"] == 0.2

    spans = {"spans": [{"name": "cli.main", "run": "r", "parent": None, "start": 0.4, "end": 1.0}], "missing": []}
    layers = run.traced_metrics(spans, _run(), 1.0, (5, 1, {}), 0.02)
    assert {m["name"] for m in DECLARED["per_layer"]} <= set(layers)
    assert layers["cli.startup_s"] == 0.4


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "emtt-many", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_rss_is_its_own():
    # a child spawned straight from a big process reports that process's peak RSS
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    launcher = run.Launcher()
    try:
        result = launcher.run([sys.executable, "-c", "pass"])
    finally:
        launcher.close()
    del ballast
    assert result.exit_code == 0
    assert 1 < result.rss_mb < 100
    assert result.wall_s > 0 and result.cpu_s > 0
