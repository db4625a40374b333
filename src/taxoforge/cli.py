"""Command-line entry point: run, eval, stats, ingest-check.

All artifacts land under --out-dir with fixed names (taxonomy.json,
report.json, transcript.jsonl, toplevel.json, attributes.json). A config
file of ``key=value`` lines can seed any option; explicit flags win. The
only environment input is the API key (``remote.API_KEY_ENV``), so secrets
never live in config files. ``main`` also sets ``OPENBLAS_NUM_THREADS=1`` in
its own process before numpy loads, over any value already there, so that
value is no input either. The package's only BLAS calls are norms and dot
products of single embedding vectors, too short for OpenBLAS to split
(local-hash gives the same bits either way up to ``MAX_EMBED_DIM``), so the
worker-thread pool OpenBLAS would start when numpy loads only costs start-up
time. emtt clusters its top-level types in up to one forked process per
usable CPU, so the process's CPU affinity sets the speed of a run but not
its artifacts. All randomness flows from --seed. Every subcommand exits 0
on success and 1 on any error or bad command line, with one ``error:`` line
on stderr; ``run`` exits 2 when some gett tables failed.

``emtt`` and ``embedding`` load numpy, so they are imported only where a run
clusters or embeds: ``eval``, ``stats``, ``ingest-check`` and gett with the
``llm`` or ``constant`` edge scorer never load it. Likewise ``gett`` and
``llm`` are imported only by a gett run; the defaults of their flags come
from ``options``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import metrics as metrics_mod
from .corpus import ingest
from .errors import TaxoforgeError, open_input
from .options import (
    DEFAULT_CHAT_MODEL,
    DEFAULT_DELTA,
    DEFAULT_EDGE_THRESHOLD,
    DEFAULT_K_MAX,
    DEFAULT_LINKAGE,
    DEFAULT_MAX_ITERS,
    DEFAULT_ROOT,
    LINKAGES,
)
from .remote import check_url
from .subject import load_overrides
from .taxonomy import Taxonomy

# named, not __name__, which reads "__main__" under python -m taxoforge.cli
logger = logging.getLogger("taxoforge.cli")

GT_TAXONOMY_FILE = "gt_taxonomy.json"
GT_ANNOTATIONS_FILE = "gt_annotations.csv"

# the allowed values of each RunConfig field that has a fixed set of them
CHOICES = {
    "method": ("emtt", "gett"),
    "embedder": ("remote", "local-hash"),
    "llm": ("remote", "scripted"),
    "linkage": LINKAGES,
    "edge_scorer": ("cosine", "llm", "constant"),
}
# converts a flag or config value by its field's annotation; the rest stay strings
CONVERTERS = {"int": int, "float": float}
# the local-hash embedder allocates embed_dim floats per column text; the default is 64
MAX_EMBED_DIM = 4096


@dataclass
class RunConfig:
    """Every option of ``run``; each field is both a ``--flag-name`` and a config key."""

    tables_dir: str = ""
    gt_path: str | None = dataclasses.field(
        default=None, metadata={"help": "directory with gt_taxonomy.json and gt_annotations.csv"}
    )
    method: str = "emtt"
    embedder: str = "local-hash"
    llm: str = "scripted"
    delta: float = DEFAULT_DELTA
    linkage: str = DEFAULT_LINKAGE
    seed: int = 0
    out_dir: str = "out"
    cache_dir: str | None = None
    llm_url: str | None = None
    llm_model: str = DEFAULT_CHAT_MODEL
    script_path: str | None = None
    subject_col_map: str | None = None
    embed_url: str | None = None
    embed_model: str = "sbert"
    embed_dim: int = 64
    k_max: int = DEFAULT_K_MAX
    edge_scorer: str = "cosine"
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    root_name: str = DEFAULT_ROOT
    max_iters: int = DEFAULT_MAX_ITERS

    def validate(self) -> None:
        if not self.tables_dir:
            raise ValueError("tables_dir is required")
        for name, choices in CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(choices)}")
        if self.method == "gett" and self.llm == "scripted" and not self.script_path:
            raise ValueError("scripted llm requires --script-path")
        remote_llm = self.method == "gett" and self.llm == "remote"
        if remote_llm and not self.llm_url:
            raise ValueError("remote llm requires --llm-url")
        if not 0 <= self.delta <= 2:
            raise ValueError("delta must be in [0, 2]")
        for name in ("embed_dim", "k_max"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        if self.embed_dim > MAX_EMBED_DIM:
            raise ValueError(f"embed_dim must be <= {MAX_EMBED_DIM}")
        if math.isnan(self.edge_threshold):
            raise ValueError("edge_threshold must not be NaN")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.root_name.strip():
            raise ValueError("root_name must not be blank")
        embeds = self.method == "emtt" or self.edge_scorer == "cosine"
        remote_embedder = self.embedder == "remote" and embeds
        if remote_embedder and not self.embed_url:
            raise ValueError("remote embedder requires --embed-url")
        for name, used in (("llm_url", remote_llm), ("embed_url", remote_embedder)):
            url = getattr(self, name)
            if used:
                try:
                    check_url(url)
                except ValueError as exc:
                    raise ValueError(f"{name} {url!r}: {exc}") from None


def load_config_file(path: str | Path) -> dict[str, object]:
    """``RunConfig`` field -> converted value; unknown keys and bad values are errors, ``-`` reads as ``_``."""
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    with open_input(path) as text:
        for line_no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {line_no}: expected key=value")
            key = key.strip()
            name = key.replace("-", "_")
            if name not in types:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            try:
                values[name] = CONVERTERS.get(types[name], str)(value.strip())
            except ValueError as exc:
                raise ValueError(f"config line {line_no}: key {key!r}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for name, value in load_config_file(args.config).items():
            setattr(cfg, name, value)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _make_embedding_service(cfg: RunConfig):
    from .embedding import EmbeddingService, LocalHashProvider, RemoteProvider

    if cfg.embedder == "remote":
        provider = RemoteProvider(url=cfg.embed_url, model=cfg.embed_model)
    else:
        provider = LocalHashProvider(dim=cfg.embed_dim)
    return EmbeddingService(provider, cache_dir=cfg.cache_dir)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_gt(gt_path: str) -> metrics_mod.GroundTruth:
    base = Path(gt_path)
    return metrics_mod.load_ground_truth(base / GT_TAXONOMY_FILE, base / GT_ANNOTATIONS_FILE)


def _check_dir(flag: str, value: str) -> None:
    """Refuse a directory flag whose path is a file or lies under one; a missing path is fine."""
    for path in (Path(value), *Path(value).parents):
        if path.is_dir():
            return
        if path.exists():
            raise ValueError(f"{flag} {value!r}: {str(path)!r} is not a directory")


def cmd_run(cfg: RunConfig) -> int:
    cfg.validate()
    emtt = cfg.method == "emtt"
    # the output and vector-cache directories are checked before any work
    out_dir = Path(cfg.out_dir)
    _check_dir("--out-dir", cfg.out_dir)
    if cfg.cache_dir and (emtt or cfg.edge_scorer == "cosine"):
        _check_dir("--cache-dir", cfg.cache_dir)
    if not emtt:
        # imported before the inputs are read: importing them with the corpus live raises peak memory
        from . import gett as gett_mod
        from . import llm as llm_mod
    # read every input before --out-dir is made, so a bad one leaves nothing behind
    gt = _load_gt(cfg.gt_path) if cfg.gt_path else None
    corpus = ingest(cfg.tables_dir)
    overrides = load_overrides(cfg.subject_col_map, corpus) if emtt and cfg.subject_col_map else None
    partial = False
    if emtt:
        from . import emtt as emtt_mod

        result = emtt_mod.run_emtt(
            corpus,
            _make_embedding_service(cfg),
            delta=cfg.delta,
            linkage=cfg.linkage,
            k_max=cfg.k_max,
            subject_overrides=overrides,
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        taxonomy = result.taxonomy
        _write_json(out_dir / "toplevel.json", result.toplevel_dict())
        _write_json(out_dir / "attributes.json", result.attributes_dict())
    else:
        if cfg.llm == "remote":
            backend = llm_mod.RemoteChatBackend(base_url=cfg.llm_url, model=cfg.llm_model)
        else:
            backend = llm_mod.ScriptedChatBackend.from_file(cfg.script_path)
        # every scorer but llm's is made before --out-dir: cosine's vector cache makes --cache-dir
        if cfg.edge_scorer == "constant":
            scorer = gett_mod.ConstantScorer()
        elif cfg.edge_scorer == "cosine":
            if cfg.embedder == "local-hash":
                logger.warning(
                    "the cosine edge scorer over local-hash vectors measures shared tokens, no better "
                    "than chance for type names that share none; --edge-scorer llm or --embedder "
                    "remote scores meaning"
                )
            scorer = gett_mod.EmbeddingCosineScorer(_make_embedding_service(cfg))
        out_dir.mkdir(parents=True, exist_ok=True)
        transcript = llm_mod.TranscriptLogger(out_dir / "transcript.jsonl")
        if cfg.edge_scorer == "llm":
            scorer = gett_mod.LlmYesNoScorer(backend, transcript)
        result = gett_mod.run_gett(
            corpus,
            backend,
            gett_mod.EdgeFilter(scorer=scorer, threshold=cfg.edge_threshold),
            root_name=cfg.root_name,
            seed=cfg.seed,
            max_iters=cfg.max_iters,
            transcript=transcript,
        )
        taxonomy = result.taxonomy
        partial = bool(result.failures)
        if partial:
            print(f"warning: {len(result.failures)} tables failed generation", file=sys.stderr)
    taxonomy.save(out_dir / "taxonomy.json")
    if gt is not None:
        _write_json(out_dir / "report.json", metrics_mod.report(taxonomy, gt))
    return 2 if partial else 0


def cmd_eval(taxonomy_path: str, gt_path: str, out: str | None = None) -> int:
    rep = metrics_mod.report(Taxonomy.load(taxonomy_path), _load_gt(gt_path))
    text = json.dumps(rep, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_stats(taxonomy_path: str) -> int:
    count, depth = Taxonomy.load(taxonomy_path).stats()
    print(json.dumps({"type_count": count, "depth": depth}, sort_keys=True))
    return 0


def cmd_ingest_check(tables_dir: str) -> int:
    corpus = ingest(tables_dir)
    summary = {
        "tables": len(corpus),
        "columns": corpus.total_columns,
        "rows": sum(t.n_rows for t in corpus.tables),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=CONVERTERS.get(f.type, str),
            choices=CHOICES.get(f.name),
            help=f.metadata.get("help"),
        )


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so ``main``'s boundary reports it; subparsers inherit this."""

    def error(self, message: str):
        raise ValueError(message)


def main(argv: list[str] | None = None) -> int:
    # before anything imports numpy; see the module docstring
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = _Parser(prog="taxoforge")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="infer a taxonomy for a table directory")
    _add_run_arguments(run_p)

    eval_p = sub.add_parser("eval", help="evaluate a taxonomy against ground truth")
    eval_p.add_argument("taxonomy", help="taxonomy JSON produced by run")
    eval_p.add_argument("--gt", required=True, help="directory with gt_taxonomy.json and gt_annotations.csv")
    eval_p.add_argument("--out", help="also write the report JSON here")

    stats_p = sub.add_parser("stats", help="print type count and depth of a taxonomy")
    stats_p.add_argument("taxonomy")

    check_p = sub.add_parser("ingest-check", help="parse a table directory and print a summary")
    check_p.add_argument("tables_dir")

    # the one error boundary: a bad command line or input, or running out of memory, ends in
    # one line and exit 1
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(build_config(args))
        if args.command == "eval":
            return cmd_eval(args.taxonomy, args.gt, args.out)
        if args.command == "stats":
            return cmd_stats(args.taxonomy)
        return cmd_ingest_check(args.tables_dir)
    except (TaxoforgeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array's size, shape and dtype
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
