#!/usr/bin/env python3
"""Offline benchmark of ``taxoforge run``, end to end and per layer.

    python3 bench/run.py --workload emtt-many --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of a source checkout; it needs nothing installed
beyond the package's own dependencies. For one workload it:

1. sets up (``setup_s``) several times and keeps the last: generates the
   seeded corpus and its ground truth under ``.bench_work/``, warms the
   vector cache where the workload says so, and starts the chat stub for
   gett. Every repeat must write the same corpus bytes;
2. runs ``python -m taxoforge.cli run ... --gt-path ...`` in a fresh child
   process, one at a time, until ``--seconds`` have passed (at least
   ``MIN_RUNS`` runs), timing each from spawn to exit and reading its peak
   RSS from ``os.wait4`` in ``bench/launcher.py``;
3. checks every run: exit code 0, every artifact parses,
   ``Taxonomy.load`` accepts the taxonomy, every table is assigned, the
   report's metrics are not null, no chat request was retried, and the
   artifacts are byte-identical across all runs of the workload;
4. with ``--trace 1``, makes one more run through ``bench/tracer.py``,
   whose artifacts must match the timed runs' too, and derives the
   per-layer metrics from its spans.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units are the ones ``BENCHMARK.json`` declares: its
``end_to_end`` list with ``--trace 0``, its ``per_layer`` list with
``--trace 1``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpora
import tracer
from chatstub import ChatStub

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# set-up repeats until both bounds are met, so a cheap set-up is still
# timed over enough repeats for a steady median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 15
MIN_RUNS = 3
CHAT_DELAY_S = 0.020
EMBED_DIM = 64
# a run takes seconds; a child still running after this is killed and fails
CHILD_TIMEOUT_S = 60.0
QUALITY = ("rand_index", "purity", "tcs")


@dataclass(frozen=True)
class Workload:
    method: str
    warm_cache: bool = False
    fresh_cache: bool = False

    @property
    def artifacts(self) -> tuple[str, ...]:
        if self.method == "emtt":
            return ("taxonomy.json", "report.json", "toplevel.json", "attributes.json")
        return ("taxonomy.json", "report.json", "transcript.jsonl")


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "emtt-many": Workload("emtt", warm_cache=True),
    "emtt-long": Workload("emtt", fresh_cache=True),
    "gett-chat": Workload("gett"),
}


@dataclass
class Run:
    wall_s: float
    exit_code: int
    rss_mb: float
    cpu_s: float
    spawned: float
    digests: dict[str, str] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    stats: tuple[int, int] = (0, 0)
    problems: list[str] = field(default_factory=list)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Launcher:
    """Children are spawned by ``bench/launcher.py``, a process kept small,
    so that their peak RSS is their own (see that file)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> Run:
        # The package need not be installed: the child finds it through src.
        request = {"argv": argv, "cwd": str(ROOT), "env": dict(os.environ, PYTHONPATH=str(SRC)),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return Run(**json.loads(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


class Bench:
    """One workload at one seed: set-up state, runs and checks."""

    def __init__(self, name: str, seed: int, work: Path, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.stub: ChatStub | None = None
        self.problems: list[str] = []

    # --- set-up ---------------------------------------------------------------

    def setup(self) -> list[float]:
        times = []
        corpus_digests = set()
        rep = 0
        while rep < SETUP_MIN_REPEATS or (sum(times) < SETUP_MIN_SECONDS and rep < SETUP_MAX_REPEATS):
            if rep:
                shutil.rmtree(self.work / f"setup{rep - 1}")
            self.close_stub()
            base = self.work / f"setup{rep}"
            started = time.perf_counter()
            self.gen = corpora.generate(self.name, self.seed, base / "corpus")
            self.cache_dir = base / "cache" if self.wl.warm_cache else None
            if self.cache_dir is not None:
                warm_cache(self.gen.tables_dir, self.cache_dir)
            if self.wl.method == "gett":
                self.stub = ChatStub(self.gen.script, CHAT_DELAY_S)
            times.append(time.perf_counter() - started)
            digest = hashlib.sha256()
            for path in self.gen.files:
                digest.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
            corpus_digests.add(digest.hexdigest())
            rep += 1
        if len(corpus_digests) != 1:
            self.problems.append("corpus generator wrote different bytes for the same seed")
        self.corpus_digest = corpus_digests.pop()
        return times

    def close_stub(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    # --- runs -----------------------------------------------------------------

    def cli_args(self, out_dir: Path, cache_dir: Path | None) -> list[str]:
        args = [
            "run", "--method", self.wl.method,
            "--tables-dir", str(self.gen.tables_dir),
            "--gt-path", str(self.gen.gt_dir),
            "--out-dir", str(out_dir),
            "--seed", str(self.seed),
        ]
        if self.wl.method == "emtt":
            args += ["--embedder", "local-hash", "--embed-dim", str(EMBED_DIM)]
            if cache_dir is not None:
                args += ["--cache-dir", str(cache_dir)]
        else:
            args += [
                "--llm", "remote", "--llm-url", self.stub.url,
                "--edge-scorer", "llm", "--root-name", corpora.ROOT_NAME,
            ]
        return args

    def run_once(self, label: str, trace_path: Path | None = None) -> Run:
        run_dir = self.work / label
        out_dir = run_dir / "out"
        cache_dir = run_dir / "cache" if self.wl.fresh_cache else self.cache_dir
        args = self.cli_args(out_dir, cache_dir)
        if trace_path is None:
            argv = [sys.executable, "-m", "taxoforge.cli", *args]
        else:
            argv = [sys.executable, str(Path(tracer.__file__)), str(trace_path), label, *args]
        if self.stub is not None:
            self.stub.reset()
        run = self.launcher.run(argv)
        if run.exit_code != 0:
            run.problems.append(f"exit code {run.exit_code}")
        self.check(run, out_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def check(self, run: Run, out_dir: Path) -> None:
        from taxoforge.taxonomy import Taxonomy

        for name in self.wl.artifacts:
            path = out_dir / name
            if not path.is_file():
                run.problems.append(f"{name} missing")
                continue
            run.digests[name] = sha256(path)
            text = path.read_text(encoding="utf-8")
            try:
                parsed = [json.loads(line) for line in text.splitlines()] if name.endswith(".jsonl") else json.loads(text)
            except ValueError as exc:
                run.problems.append(f"{name} does not parse: {exc}")
                continue
            if name == "report.json":
                run.report = parsed
                for key in QUALITY:
                    if parsed.get(key) is None:
                        run.problems.append(f"report.json {key} is null")
            if name == "transcript.jsonl" and self.stub is not None:
                if self.stub.requests != len(parsed):
                    run.problems.append(
                        f"{self.stub.requests} chat requests for {len(parsed)} calls: the client retried"
                    )
                if self.stub.by_kind["unknown"]:
                    run.problems.append(f"{self.stub.by_kind['unknown']} prompts the chat stub does not know")
        if "taxonomy.json" in run.digests:
            try:
                taxonomy = Taxonomy.load(out_dir / "taxonomy.json")
            except Exception as exc:  # any failure to load is a failed check
                run.problems.append(f"Taxonomy.load failed: {exc!r}")
            else:
                run.stats = taxonomy.stats()
                assigned = set().union(*(t.tables for t in taxonomy.types.values()))
                unassigned = set(self.gen.table_ids) - assigned
                if unassigned:
                    run.problems.append(f"{len(unassigned)} tables unassigned")


def warm_cache(tables_dir: Path, cache_dir: Path) -> None:
    """Embed every column once, so each lookup of the timed runs hits."""
    from taxoforge.corpus import ingest
    from taxoforge.embedding import ColumnRef, EmbeddingService, LocalHashProvider

    corpus = ingest(tables_dir)
    refs = [ColumnRef(t.id, c) for t in corpus.tables for c in range(t.n_cols)]
    EmbeddingService(LocalHashProvider(dim=EMBED_DIM), cache_dir=cache_dir).embed_columns(corpus, refs)


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def end_to_end_metrics(setup_times: list[float], runs: list[Run]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r.wall_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        **{key: float(runs[0].report.get(key) or 0.0) for key in QUALITY},
    }


def traced_metrics(spans: dict, traced: Run, run_s: float, stub_counts: tuple | None,
                   chat_delay_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced run: its spans plus what run.py saw of it."""
    layers = tracer.layer_metrics(spans, chat_delay_s)
    main_spans = [s for s in spans["spans"] if s["name"] == "cli.main"]
    layers["cli.startup_s"] = main_spans[0]["start"] - traced.spawned if main_spans else 0.0
    layers["cli.cpu_s"] = traced.cpu_s
    layers["taxonomy.types"], layers["taxonomy.depth"] = traced.stats
    layers["stub.requests"], layers["stub.inflight_max"] = stub_counts[:2] if stub_counts else (0, 0)
    layers["trace.run_s"] = traced.wall_s
    layers["trace.overhead_s"] = traced.wall_s - run_s
    layers["trace.spans"] = len(spans["spans"])
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict,
                 launcher: Launcher) -> dict:
    """Measure one workload; print its report; return the result object."""
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(name, seed, work, launcher)
    env = machine()
    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"machine {json.dumps(env, sort_keys=True)}")
    try:
        setup_times = bench.setup()
        deadline = time.perf_counter() + seconds
        runs: list[Run] = []
        while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
            runs.append(bench.run_once(f"run{len(runs)}"))
        traced = spans = None
        if trace:
            trace_path = work / "trace.json"
            traced = bench.run_once("traced", trace_path)
            spans = json.loads(trace_path.read_text(encoding="utf-8")) if trace_path.is_file() else None
            if spans is None:
                traced.problems.append("traced run wrote no trace")
        stub_counts = None
        if bench.stub is not None:
            stub_counts = (bench.stub.requests, bench.stub.inflight_max, dict(bench.stub.by_kind))
    finally:
        bench.close_stub()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    e2e = end_to_end_metrics(setup_times, runs)
    layers: dict[str, float] = {}
    if traced is not None and spans is not None:
        chat_delay_s = CHAT_DELAY_S if bench.wl.method == "gett" else 0.0
        layers = traced_metrics(spans, traced, e2e["run_s"], stub_counts, chat_delay_s)
        if layers["llm.retries"]:
            traced.problems.append(f"llm.retries is {layers['llm.retries']}")

    everything = runs + ([traced] if traced else [])
    reference = runs[0].digests
    for run in everything[1:]:
        if run.digests != reference:
            run.problems.append("artifact digests differ from run0")
    failed = [r for r in everything if r.problems]
    problems = bench.problems + [p for r in failed for p in r.problems]

    walls = [r.wall_s for r in runs]
    print(f"setup_s {e2e['setup_s']:.4f} s  (median of {len(setup_times)}: "
          + " ".join(f"{t:.3f}" for t in setup_times) + ")")
    print(f"corpus {len(bench.gen.table_ids)} tables  sha256 {bench.corpus_digest}")
    print(f"run_s {e2e['run_s']:.4f} s  (median of {len(runs)} runs; min {min(walls):.4f} max {max(walls):.4f})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  (median of {len(runs)} runs)")
    for key in QUALITY:
        print(f"{key} {e2e[key]!r}")
    print(f"runs_failed_ratio {len(failed)}/{len(everything)} = {len(failed) / len(everything):.4f}")
    for artifact, digest in sorted(reference.items()):
        print(f"sha256 {artifact} {digest}")
    if layers:
        if spans["missing"]:
            print(f"tracer could not wrap: {', '.join(spans['missing'])}")
        if stub_counts:
            print(f"stub requests by kind (traced run): {json.dumps(stub_counts[2], sort_keys=True)}")
        print("per-layer metrics (traced run):")
        for m in declared["per_layer"]:
            print(f"  {m['name']} {layers.get(m['name'])!r} {m['unit']}")

    for problem in problems:
        print(f"FAILED {problem}")
    print(f"loadavg at end {[round(x, 2) for x in os.getloadavg()]}")
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    values = layers if trace else e2e
    return {
        "correct": not problems,
        "attempted": len(everything),
        "failed": len(failed),
        # a run that failed before a metric was measured reports it as 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    if not (SRC / "taxoforge" / "cli.py").is_file():
        print(f"error: no taxoforge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    launcher = Launcher()
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), declared, launcher)
            for name in names
        }
    finally:
        launcher.close()
    if len(results) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} {json.dumps(res, sort_keys=True)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
