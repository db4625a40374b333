"""Command-line entry point: run, eval, stats, ingest-check.

All artifacts land under --out-dir with fixed names (taxonomy.json,
report.json, transcript.jsonl, toplevel.json, attributes.json). A config
file of ``key=value`` lines can seed any option; explicit flags win. The
only environment input is the API key (``remote.API_KEY_ENV``), so secrets
never live in config files. All randomness flows from --seed. ``run`` exits
0 on success, 1 on any error, and 2 when some gett tables failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from . import emtt as emtt_mod
from . import gett as gett_mod
from . import metrics as metrics_mod
from .clustering import LINKAGES
from .corpus import ingest
from .embedding import EmbeddingService, LocalHashProvider, RemoteProvider
from .errors import TaxoforgeError
from .llm import RemoteChatBackend, ScriptedChatBackend, TranscriptLogger
from .subject import load_overrides
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

GT_TAXONOMY_FILE = "gt_taxonomy.json"
GT_ANNOTATIONS_FILE = "gt_annotations.csv"

METHODS = ("emtt", "gett")
EMBEDDERS = ("remote", "local-hash")
LLMS = ("remote", "scripted")
EDGE_SCORERS = ("cosine", "llm", "constant")


@dataclass
class RunConfig:
    tables_dir: str = ""
    gt_path: str | None = None
    method: str = "emtt"
    embedder: str = "local-hash"
    llm: str = "scripted"
    delta: float = emtt_mod.DEFAULT_DELTA
    linkage: str = "average"
    seed: int = 0
    out_dir: str = "out"
    cache_dir: str | None = None
    llm_url: str | None = None
    llm_model: str = "gpt-4"
    script_path: str | None = None
    subject_col_map: str | None = None
    embed_url: str | None = None
    embed_model: str = "sbert"
    embed_dim: int = 64
    k_max: int = emtt_mod.DEFAULT_K_MAX
    edge_scorer: str = "cosine"
    edge_threshold: float = 0.5
    root_name: str = gett_mod.DEFAULT_ROOT
    max_iters: int = gett_mod.DEFAULT_MAX_ITERS

    def validate(self) -> None:
        if not self.tables_dir:
            raise ValueError("tables_dir is required")
        for name, choices in (
            ("method", METHODS),
            ("embedder", EMBEDDERS),
            ("llm", LLMS),
            ("linkage", LINKAGES),
            ("edge_scorer", EDGE_SCORERS),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(choices)}")
        if self.method == "gett" and self.llm == "scripted" and not self.script_path:
            raise ValueError("scripted llm requires --script-path")
        if self.method == "gett" and self.llm == "remote" and not self.llm_url:
            raise ValueError("remote llm requires --llm-url")
        if self.embedder == "remote" and self.method == "emtt" and not self.embed_url:
            raise ValueError("remote embedder requires --embed-url")


def load_config_file(path: str | Path) -> dict[str, str]:
    """``RunConfig`` field -> raw value; unknown keys are errors, ``-`` reads as ``_``."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {line_no}: expected key=value")
        key = key.strip()
        name = key.replace("-", "_")
        if name not in fields:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        values[name] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        convert = {"int": int, "float": float}
        for name, raw in load_config_file(args.config).items():
            setattr(cfg, name, convert.get(types[name], str)(raw))
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _make_embedding_service(cfg: RunConfig) -> EmbeddingService:
    if cfg.embedder == "remote":
        provider = RemoteProvider(url=cfg.embed_url, model=cfg.embed_model)
    else:
        provider = LocalHashProvider(dim=cfg.embed_dim)
    return EmbeddingService(provider, cache_dir=cfg.cache_dir)


def _make_chat_backend(cfg: RunConfig):
    if cfg.llm == "remote":
        return RemoteChatBackend(base_url=cfg.llm_url, model=cfg.llm_model)
    return ScriptedChatBackend.from_file(cfg.script_path)


def _make_edge_filter(cfg: RunConfig, backend, transcript) -> gett_mod.EdgeFilter:
    if cfg.edge_scorer == "constant":
        scorer = gett_mod.ConstantScorer(1.0)
    elif cfg.edge_scorer == "llm":
        scorer = gett_mod.LlmYesNoScorer(backend, transcript)
    else:
        scorer = gett_mod.EmbeddingCosineScorer(_make_embedding_service(cfg))
    return gett_mod.EdgeFilter(scorer=scorer, threshold=cfg.edge_threshold)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_gt(gt_path: str) -> metrics_mod.GroundTruth:
    base = Path(gt_path)
    return metrics_mod.load_ground_truth(base / GT_TAXONOMY_FILE, base / GT_ANNOTATIONS_FILE)


def cmd_run(cfg: RunConfig) -> int:
    cfg.validate()
    tables_dir = Path(cfg.tables_dir)
    if not tables_dir.is_dir():
        print(f"error: tables directory not found: {tables_dir}", file=sys.stderr)
        return 1
    gt = _load_gt(cfg.gt_path) if cfg.gt_path else None
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = ingest(tables_dir)
    partial = False
    if cfg.method == "emtt":
        service = _make_embedding_service(cfg)
        overrides = load_overrides(cfg.subject_col_map) if cfg.subject_col_map else None
        result = emtt_mod.run_emtt(
            corpus,
            service,
            delta=cfg.delta,
            linkage=cfg.linkage,
            k_max=cfg.k_max,
            subject_overrides=overrides,
        )
        taxonomy = result.taxonomy
        _write_json(out_dir / "toplevel.json", result.toplevel_dict())
        _write_json(out_dir / "attributes.json", result.attributes_dict())
    else:
        backend = _make_chat_backend(cfg)
        transcript = TranscriptLogger(out_dir / "transcript.jsonl")
        edge_filter = _make_edge_filter(cfg, backend, transcript)
        result = gett_mod.run_gett(
            corpus,
            backend,
            edge_filter,
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
    try:
        taxonomy = Taxonomy.load(taxonomy_path)
        gt = _load_gt(gt_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, TaxoforgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rep = metrics_mod.report(taxonomy, gt)
    text = json.dumps(rep, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_stats(taxonomy_path: str) -> int:
    try:
        taxonomy = Taxonomy.load(taxonomy_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, TaxoforgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    count, depth = taxonomy.stats()
    print(json.dumps({"type_count": count, "depth": depth}, sort_keys=True))
    return 0


def cmd_ingest_check(tables_dir: str) -> int:
    try:
        corpus = ingest(tables_dir)
    except TaxoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "tables": len(corpus),
        "columns": corpus.total_columns,
        "rows": sum(t.n_rows for t in corpus.tables),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--tables-dir", dest="tables_dir")
    parser.add_argument("--gt-path", dest="gt_path", help="directory with gt_taxonomy.json and gt_annotations.csv")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--embedder", choices=EMBEDDERS)
    parser.add_argument("--llm", choices=LLMS)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--linkage", choices=LINKAGES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--cache-dir", dest="cache_dir")
    parser.add_argument("--llm-url", dest="llm_url")
    parser.add_argument("--llm-model", dest="llm_model")
    parser.add_argument("--script-path", dest="script_path")
    parser.add_argument("--subject-col-map", dest="subject_col_map")
    parser.add_argument("--embed-url", dest="embed_url")
    parser.add_argument("--embed-model", dest="embed_model")
    parser.add_argument("--embed-dim", dest="embed_dim", type=int)
    parser.add_argument("--k-max", dest="k_max", type=int)
    parser.add_argument("--edge-scorer", dest="edge_scorer", choices=EDGE_SCORERS)
    parser.add_argument("--edge-threshold", dest="edge_threshold", type=float)
    parser.add_argument("--root-name", dest="root_name")
    parser.add_argument("--max-iters", dest="max_iters", type=int)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="taxoforge")
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

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(build_config(args))
        if args.command == "eval":
            return cmd_eval(args.taxonomy, args.gt, args.out)
        if args.command == "stats":
            return cmd_stats(args.taxonomy)
        if args.command == "ingest-check":
            return cmd_ingest_check(args.tables_dir)
    except (TaxoforgeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
