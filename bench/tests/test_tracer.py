from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import tracer

from conftest import BENCH, ROOT

FIXTURES = ROOT / "tests" / "fixtures"


def _cli_args(method: str, out_dir) -> list[str]:
    if method == "emtt":
        base = FIXTURES / "planted"
        extra = ["--embedder", "local-hash"]
    else:
        base = FIXTURES / "gett"
        extra = ["--llm", "scripted", "--script-path", str(base / "script.json"), "--edge-scorer", "constant"]
    return [
        "run", "--method", method, "--tables-dir", str(base / "tables"), "--gt-path", str(base / "gt"),
        "--out-dir", str(out_dir), "--seed", "7", *extra,
    ]


def _run(argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120)


@pytest.mark.parametrize("method", ["emtt", "gett"])
def test_tracer_leaves_artifacts_unchanged(method, tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    trace_path = tmp_path / "trace.json"
    _run([sys.executable, "-m", "taxoforge.cli", *_cli_args(method, plain)])
    _run([sys.executable, str(BENCH / "tracer.py"), str(trace_path), "r0", *_cli_args(method, traced)])

    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name

    trace = json.loads(trace_path.read_text())
    assert trace["missing"] == []
    assert {s["run"] for s in trace["spans"]} == {"r0"}
    assert trace["spans"][0]["name"] == "cli.main" and trace["spans"][0]["parent"] is None
    metrics = tracer.layer_metrics(trace)
    assert metrics["corpus.tables"] > 0
    if method == "emtt":
        assert metrics["clustering.agglomerate_calls"] > 0 and metrics["llm.calls"] == 0
    else:
        assert metrics["llm.calls"] > 0 and metrics["clustering.agglomerate_calls"] == 0


def _span(name, parent, start, end, **attrs):
    return {"name": name, "run": "r", "parent": parent, "start": start, "end": end, **attrs}


def test_self_time_and_call_kinds():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("gett.run", 0, 1.0, 9.0),
        _span("gett.generate", 1, 1.0, 2.0),
        _span("llm.complete", 2, 1.1, 1.4, prompt_chars=10, response_chars=1),
        _span("llm.complete", 2, 1.5, 1.9, prompt_chars=12, response_chars=3),
        _span("gett.layer", 1, 3.0, 8.0, candidates=2, threshold=0.5),
        _span("llm.complete", 5, 3.0, 3.5, prompt_chars=5, response_chars=5),
        _span("llm.complete", 5, 4.0, 4.5, prompt_chars=5, response_chars=5),
        _span("gett.filter", 5, 5.0, 7.0, scores=[1.0, 0.0]),
        _span("llm.complete", 8, 5.0, 6.0, prompt_chars=1, response_chars=1),
    ]
    m = tracer.layer_metrics({"spans": spans, "missing": []})
    assert m["llm.calls"] == 5
    assert m["llm.calls.generation"] == 1 and m["llm.calls.repair"] == 1 and m["gett.repairs"] == 1
    assert m["llm.calls.demonstration"] == 1 and m["llm.calls.layer"] == 1 and m["llm.calls.edge"] == 1
    assert m["gett.edges_scored"] == 2 and m["gett.edges_kept"] == 1 and m["gett.edge_keep_ratio"] == 0.5
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["llm.self_s"] == pytest.approx(0.3 + 0.4 + 0.5 + 0.5 + 1.0)
    assert m["gett.self_s"] == pytest.approx(8.0 - 1.0 - 5.0 + 1.0 - 0.7 + 5.0 - 3.0 + 2.0 - 1.0)
    assert m["llm.prompt_chars"] == 33 and m["llm.response_chars"] == 15


def test_wrapper_records_errors_and_reuses_wrappers():
    t = tracer.Tracer("r")

    def boom():
        raise KeyError("x")

    wrapped = t.wrap(boom, "corpus.ingest")
    assert t.wrap(boom, "other.name") is wrapped
    with pytest.raises(KeyError):
        wrapped()
    assert t.spans[0]["error"] == "KeyError" and t.spans[0]["end"] >= t.spans[0]["start"]
