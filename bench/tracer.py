"""Span tracing of one ``taxoforge`` run, recorded from outside the package.

Run as a script, it wraps the package's public functions where their
callers look them up, then calls ``taxoforge.cli.main``:

    PYTHONPATH=src python bench/tracer.py TRACE_JSON RUN_ID run --method emtt ...

Modules that bind a function with ``from .x import f`` (``emtt`` binds the
clustering functions, ``cli`` binds ``ingest``, ``gett`` binds
``complete``) are patched under their own names too, so every call is seen.
Each span records name, start, end, parent and run id, plus a few counts
taken from the call's arguments and result after the span has ended. Spans
stay in memory and are written out when ``cli.main`` returns. A name that
the package no longer has is skipped and listed under ``missing``.

``layer_metrics`` turns a written trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: dict[int, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, describe=None):
        """Return ``fn`` recording one span per call; the same function object
        reached under several names gets one wrapper."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"name": name, "run": self.run_id, "parent": stack[-1] if stack else None}
            with self._lock:
                stack.append(len(spans))
                spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        self._wrapped[id(fn)] = traced
        return traced

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, describe))

    def dump(self, path: str | Path) -> None:
        payload = {"run": self.run_id, "missing": self.missing, "spans": self.spans}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _corpus_counts(args, kwargs, corpus):
    tables = corpus.tables
    source = Path(corpus.source_dir)
    return {
        "tables": len(tables),
        "columns": sum(t.n_cols for t in tables),
        "cells": sum(t.n_cols * t.n_rows for t in tables),
        "bytes": sum(p.stat().st_size for p in source.glob("*.csv")),
    }


def _cells_scored(args, kwargs, _):
    return {"cells": sum(t.n_cols * t.n_rows for t in _arg(args, kwargs, 0, "corpus").tables)}


def _texts(args, kwargs, _):
    texts = _arg(args, kwargs, 1, "texts")
    return {"texts": len(texts), "unique": len(set(texts))}


def _provider_texts(args, kwargs, _):
    texts = _arg(args, kwargs, 1, "texts")
    return {"texts": len(texts), "tokens": sum(len(t.split()) for t in texts)}


def _cache_hit(args, kwargs, vec):
    return {"hit": vec is not None}


def _result_n(args, kwargs, dm):
    return {"n": dm.n}


def _arg_n(args, kwargs, _):
    return {"n": _arg(args, kwargs, 0, "dm").n}


def _result_len(args, kwargs, result):
    return {"count": len(result)}


def _prune_counts(args, kwargs, fragments):
    den = _arg(args, kwargs, 0, "den")
    return {"levels": len({m.height for m in den.merges}), "count": len(fragments)}


def _layer_args(args, kwargs, _):
    return {
        "candidates": len(_arg(args, kwargs, 0, "candidates").names),
        "threshold": _arg(args, kwargs, 3, "edge_filter").threshold,
    }


def _edge_scores(args, kwargs, scores):
    return {"scores": [e.score for e in scores]}


def _chat_chars(args, kwargs, resp):
    req = _arg(args, kwargs, 0, "req")
    return {"prompt_chars": len(req.system) + len(req.user), "response_chars": len(resp.text)}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions at every name they are called by."""
    import requests

    from taxoforge import cli, clustering, embedding, emtt, gett, llm, metrics, taxonomy

    t = tracer
    t.patch(cli, "ingest", "corpus.ingest", _corpus_counts)
    t.patch(emtt, "assign_subjects", "subject.assign", _cells_scored)

    t.patch(embedding, "serialize_column", "embedding.serialize")
    t.patch(embedding.EmbeddingService, "embed_texts", "embedding.embed", _texts)
    t.patch(embedding.LocalHashProvider, "embed_texts", "embedding.provider", _provider_texts)
    t.patch(embedding.RemoteProvider, "embed_texts", "embedding.provider", _provider_texts)
    t.patch(embedding.VectorCache, "get", "embedding.cache_get", _cache_hit)
    t.patch(embedding.VectorCache, "put", "embedding.cache_put")

    for module in (clustering, emtt):
        t.patch(module, "euclidean_matrix", "clustering.euclidean", _result_n)
        t.patch(module, "agglomerate", "clustering.agglomerate", _arg_n)
        t.patch(module, "select_k", "clustering.select_k")
        t.patch(module, "silhouette", "clustering.silhouette")
        t.patch(module, "cut", "clustering.cut")

    t.patch(emtt, "run_emtt", "emtt.run")
    t.patch(emtt, "identify_top_level", "emtt.top_level", _result_len)
    t.patch(emtt, "identify_attributes", "emtt.attributes", _result_len)
    t.patch(emtt, "jaccard_matrix", "emtt.jaccard", _result_n)
    t.patch(emtt, "prune_dendrogram", "emtt.prune", _prune_counts)

    t.patch(gett, "run_gett", "gett.run")
    t.patch(gett, "generate_types", "gett.generate")
    t.patch(gett, "chain_of_layer", "gett.layer", _layer_args)
    t.patch(gett, "filter_edges", "gett.filter", _edge_scores)
    t.patch(gett, "complete", "llm.complete", _chat_chars)
    t.patch(llm.RemoteChatBackend, "complete", "llm.backend")
    t.patch(llm.ScriptedChatBackend, "complete", "llm.backend")
    t.patch(llm.TranscriptLogger, "log", "llm.transcript")
    t.patch(requests, "post", "llm.http")

    t.patch(taxonomy.Taxonomy, "save", "cli.write")
    t.patch(cli, "_write_json", "cli.write")
    t.patch(metrics, "load_ground_truth", "metrics.load_gt")
    t.patch(metrics, "report", "metrics.report")


# --- reading a trace --------------------------------------------------------

LAYERS = ("cli", "corpus", "subject", "embedding", "clustering", "emtt", "gett", "llm", "metrics")
CALL_KINDS = ("generation", "repair", "demonstration", "layer", "edge")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _llm_kind(span: dict, spans: list[dict], seen: dict[int, int]) -> str:
    """Kind of one chat call, from the span that encloses it.

    Inside ``generate_types`` the first call generates and any later one
    repairs; inside ``filter_edges`` every call scores an edge; directly
    inside ``chain_of_layer`` the first call asks for the demonstration
    and the rest propose layers.
    """
    parent = span["parent"]
    enclosing = spans[parent]["name"] if parent is not None else ""
    order = seen.get(parent, 0)
    seen[parent] = order + 1
    if enclosing == "gett.generate":
        return "generation" if order == 0 else "repair"
    if enclosing == "gett.filter":
        return "edge"
    if enclosing == "gett.layer":
        return "demonstration" if order == 0 else "layer"
    return "other"


def layer_metrics(trace: dict, chat_delay_s: float = 0.0) -> dict[str, float]:
    """Per-layer times (summed call durations), self times and counts."""
    spans = trace["spans"]
    by_name: dict[str, list[dict]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_time[span["parent"]] += _dur(span)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    def attr_max(name: str, key: str) -> float:
        return max((s[key] for s in by_name.get(name, [])), default=0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            _dur(s) - child_time[i] for i, s in enumerate(spans) if s["name"].split(".")[0] == layer
        )
    m["cli.write_s"] = total("cli.write")

    m["corpus.ingest_s"] = total("corpus.ingest")
    for key in ("tables", "columns", "cells", "bytes"):
        m[f"corpus.{key}"] = attr_sum("corpus.ingest", key)

    m["subject.assign_s"] = total("subject.assign")
    m["subject.cells_scored"] = attr_sum("subject.assign", "cells")

    m["embedding.serialize_s"] = total("embedding.serialize")
    m["embedding.embed_s"] = total("embedding.embed")
    m["embedding.provider_s"] = total("embedding.provider")
    m["embedding.cache_get_s"] = total("embedding.cache_get")
    m["embedding.cache_put_s"] = total("embedding.cache_put")
    m["embedding.provider_calls"] = calls("embedding.provider")
    m["embedding.texts"] = attr_sum("embedding.embed", "texts")
    m["embedding.unique_texts"] = attr_sum("embedding.embed", "unique")
    m["embedding.tokens"] = attr_sum("embedding.provider", "tokens")
    hits = sum(1 for s in by_name.get("embedding.cache_get", []) if s["hit"])
    lookups = calls("embedding.cache_get")
    m["embedding.cache_hits"] = hits
    m["embedding.cache_misses"] = lookups - hits
    m["embedding.cache_puts"] = calls("embedding.cache_put")
    m["embedding.dedupe_ratio"] = m["embedding.unique_texts"] / m["embedding.texts"] if m["embedding.texts"] else 0.0
    m["embedding.cache_hit_ratio"] = hits / lookups if lookups else 0.0

    for op in ("euclidean", "agglomerate", "select_k", "silhouette", "cut"):
        m[f"clustering.{op}_s"] = total(f"clustering.{op}")
        m[f"clustering.{op}_calls"] = calls(f"clustering.{op}")
    m["clustering.euclidean_n_max"] = attr_max("clustering.euclidean", "n")
    m["clustering.agglomerate_n_max"] = attr_max("clustering.agglomerate", "n")
    m["clustering.dm_bytes_max"] = 8 * m["clustering.agglomerate_n_max"] ** 2

    m["emtt.top_level_s"] = total("emtt.top_level")
    m["emtt.attributes_s"] = total("emtt.attributes")
    m["emtt.jaccard_s"] = total("emtt.jaccard")
    m["emtt.prune_s"] = total("emtt.prune")
    m["emtt.prune_levels"] = attr_sum("emtt.prune", "levels")
    m["emtt.fragments"] = attr_sum("emtt.prune", "count")
    m["emtt.top_level_types"] = attr_sum("emtt.top_level", "count")
    m["emtt.attributes"] = attr_sum("emtt.attributes", "count")

    m["gett.generate_s"] = total("gett.generate")
    m["gett.layer_s"] = total("gett.layer")
    m["gett.filter_s"] = total("gett.filter")
    m["gett.candidates"] = attr_sum("gett.layer", "candidates")
    scored = kept = 0
    for s in by_name.get("gett.filter", []):
        threshold = spans[s["parent"]].get("threshold", 0.0) if s["parent"] is not None else 0.0
        scores = s.get("scores", [])
        scored += len(scores)
        kept += sum(1 for score in scores if score >= threshold)
    m["gett.edges_scored"] = scored
    m["gett.edges_kept"] = kept
    m["gett.edge_keep_ratio"] = kept / scored if scored else 0.0
    m["gett.generation_failures"] = sum(
        1 for s in by_name.get("gett.generate", []) if s.get("error") == "GenerationFailedError"
    )

    kinds = dict.fromkeys(CALL_KINDS, 0)
    seen: dict[int, int] = {}
    for s in by_name.get("llm.complete", []):
        kind = _llm_kind(s, spans, seen)
        kinds[kind] = kinds.get(kind, 0) + 1
    m["gett.repairs"] = kinds["repair"]
    m["llm.calls"] = calls("llm.complete")
    for kind in CALL_KINDS:
        m[f"llm.calls.{kind}"] = kinds[kind]
    backend_ms = [_dur(s) * 1000 for s in by_name.get("llm.backend", [])]
    m["llm.wait_s"] = total("llm.backend")
    m["llm.call_ms.p50"] = _percentile(backend_ms, 50)
    m["llm.call_ms.p95"] = _percentile(backend_ms, 95)
    m["llm.overhead_ms.p50"] = _percentile([ms - chat_delay_s * 1000 for ms in backend_ms], 50)
    http_in_backend = sum(
        1 for s in by_name.get("llm.http", [])
        if s["parent"] is not None and spans[s["parent"]]["name"] == "llm.backend"
    )
    m["llm.retries"] = http_in_backend - calls("llm.backend") if http_in_backend else 0
    m["llm.transcript_s"] = total("llm.transcript")
    m["llm.prompt_chars"] = attr_sum("llm.complete", "prompt_chars")
    m["llm.response_chars"] = attr_sum("llm.complete", "response_chars")

    m["metrics.load_gt_s"] = total("metrics.load_gt")
    m["metrics.report_s"] = total("metrics.report")
    return m


def main(argv: list[str]) -> int:
    trace_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    from taxoforge import cli

    try:
        return tracer.wrap(cli.main, "cli.main")(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
