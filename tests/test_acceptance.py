"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

from __future__ import annotations

import json
import os
import random
import string
import time

import numpy as np
import pytest

from .oracles import (
    brute_purity,
    brute_rand_index,
    brute_tcs,
    emission_height,
    naive_agglomerate,
    oracle_prune,
)
from taxoforge.clustering import DistanceMatrix, agglomerate, cut, silhouette
from taxoforge.cli import main as cli_main
from taxoforge.corpus import Table, ingest
from taxoforge.embedding import EmbeddingService, LocalHashProvider
from taxoforge.emtt import jaccard_matrix, prune_dendrogram, run_emtt
from taxoforge.gett import build_generation_prompt
from taxoforge.metrics import (
    GroundTruth,
    load_ground_truth,
    match_types,
    purity,
    rand_index,
    report,
)
from taxoforge.taxonomy import EntityType, Taxonomy


def check(name: str, fn) -> None:
    started = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def build_tax(types, edges, tables=None, synthetic=()):
    tax = Taxonomy()
    tables = tables or {}
    for t in types:
        tax.add_type(
            EntityType(id=t, name=t, tables=set(tables.get(t, ())), synthetic=t in synthetic)
        )
    for p, c in edges:
        tax.add_edge(p, c)
    return tax


def gt_from(types, edges, annotations):
    tables = {t: set() for t in types}
    for table, path in annotations.items():
        tables[path[-1]].add(table)
    tax = build_tax(types, edges, tables=tables)
    per_table = {table: list(path) for table, path in annotations.items()}
    return GroundTruth(taxonomy=tax, per_table=per_table)


# --- criterion 1: metric oracle equivalence -----------------------------------------


def random_tcs_instance(rng: random.Random):
    gt_n = rng.randint(2, 15)
    gt_names = [f"G{i}" for i in range(gt_n)]
    gt_edges = [(gt_names[rng.randint(0, j - 1)], gt_names[j]) for j in range(1, gt_n)]
    parent_of = {c: p for p, c in gt_edges}

    def path_to(name):
        path = [name]
        while path[0] in parent_of:
            path.insert(0, parent_of[path[0]])
        return path

    tables = [f"t{i}" for i in range(rng.randint(2, 20))]
    annotations = {t: path_to(rng.choice(gt_names)) for t in tables}
    out_n = rng.randint(1, 15)
    out_names = [f"o{i}" for i in range(out_n)]
    out_edges = []
    for j in range(1, out_n):
        for i in range(j):
            if rng.random() < 0.25:
                out_edges.append((out_names[i], out_names[j]))
    out_tables = {name: set() for name in out_names}
    for t in tables:
        if rng.random() < 0.85:
            out_tables[rng.choice(out_names)].add(t)
    return gt_names, gt_edges, annotations, out_names, out_edges, out_tables


def test_criterion_1_metric_oracles():
    def body():
        started = time.perf_counter()
        rng = random.Random(2024)
        # rand_index & purity on random partitions, n <= 30
        for _ in range(200):
            n = rng.randint(2, 30)
            tables = [f"t{i}" for i in range(n)]
            gt = gt_from(
                sorted(set("XYZWV")),
                [],
                {t: [rng.choice("XYZWV")] for t in tables},
            )
            out_assign = {t: f"c{rng.randint(0, 5)}" for t in tables}
            mine = rand_index(out_assign, gt)
            ref = brute_rand_index(
                [out_assign[t] for t in tables], [gt.top_level_of(t) for t in tables]
            )
            assert abs(mine - ref) <= 1e-12
            clusters: dict[str, set[str]] = {}
            for t in tables:
                clusters.setdefault(out_assign[t], set()).add(t)
            mine_p = purity(clusters, gt)
            ref_p = brute_purity(clusters, {t: gt.top_level_of(t) for t in tables})
            assert abs(mine_p - ref_p) <= 1e-12
        # tcs on random DAGs, <= 15 nodes
        checked = 0
        while checked < 200:
            gt_names, gt_edges, annotations, out_names, out_edges, out_tables = (
                random_tcs_instance(rng)
            )
            expected = brute_tcs(
                out_names, out_edges, out_tables, {}, gt_names, gt_edges,
                {t: path[-1] for t, path in annotations.items()},
            )
            if expected is None:
                continue
            gt = gt_from(gt_names, gt_edges, annotations)
            out = build_tax(out_names, out_edges, tables=out_tables)
            assert abs(report(out, gt)["tcs"] - expected) <= 1e-12
            checked += 1
        assert time.perf_counter() - started < 60

    check("criterion 1 (metric oracle equivalence)", body)


# --- criterion 2: clustering reference equivalence -------------------------------------


def test_criterion_2_clustering_reference():
    def body():
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        linkages = ("average", "complete", "single")
        for trial in range(100):
            n = int(rng.integers(2, 51))
            d = rng.random((n, n))
            d = (d + d.T) / 2
            np.fill_diagonal(d, 0.0)
            dm = DistanceMatrix(d)
            linkage = linkages[trial % 3]
            den = agglomerate(dm, linkage)
            ref = naive_agglomerate(d.tolist(), linkage)
            assert [(m.left, m.right) for m in den.merges] == [
                (r[0], r[1]) for r in ref
            ], f"merge sequence differs (trial {trial}, linkage {linkage})"
            for mine, theirs in zip(den.heights, (r[2] for r in ref)):
                assert abs(mine - theirs) <= 1e-9
        assert time.perf_counter() - started < 60

    check("criterion 2 (clustering reference equivalence)", body)


# --- criterion 3: planted-taxonomy recovery ---------------------------------------------


def test_criterion_3_planted_recovery(planted_dir):
    def body():
        started = time.perf_counter()
        corpus = ingest(planted_dir / "tables")
        assert len(corpus) == 24
        service = EmbeddingService(LocalHashProvider(dim=64))
        result = run_emtt(corpus, service, 0.15)
        gt = load_ground_truth(
            planted_dir / "gt" / "gt_taxonomy.json", planted_dir / "gt" / "gt_annotations.csv"
        )
        rep = report(result.taxonomy, gt)
        assert rep["rand_index"] == 1.0
        assert rep["purity"] == 1.0
        assert rep["tcs"] == 1.0
        assert rep["type_count"] == 9
        # plant contract: intra-subtype Jaccard distance 0, inter >= 0.6,
        # and the emitted fragments agree with the exhaustive-cut oracle
        sets: dict[str, set[str]] = {}
        for ref, attr in result.attributes.items():
            sets.setdefault(ref.table_id, set()).add(attr)
        for tlt in result.taxonomy.top_level_ids():
            ids = sorted(result.taxonomy.associated_tables(tlt))
            dm = jaccard_matrix(ids, sets)
            subtypes = [
                et.tables
                for et in result.taxonomy.types.values()
                if et.id.startswith(f"{tlt}.")
            ]
            for block in subtypes:
                idx = [ids.index(t) for t in block]
                for i in idx:
                    for j in idx:
                        if i != j:
                            assert dm.d[i, j] == 0.0
                outside = [k for k in range(len(ids)) if ids[k] not in block]
                for i in idx:
                    for j in outside:
                        assert dm.d[i, j] >= 0.6
            den = agglomerate(dm)
            nodes = prune_dendrogram(den, dm, 0.15)
            merges = [(m.left, m.right, m.height) for m in den.merges]
            expected = oracle_prune(merges, den.leaf_count, dm.d.tolist(), 0.15)
            assert {n.members: n.parent for n in nodes} == expected
            assert {frozenset(ids[i] for i in members) for members in expected} == {
                frozenset(block) for block in subtypes
            }
        assert time.perf_counter() - started < 30

    check("criterion 3 (planted-taxonomy recovery)", body)


# --- criterion 4: pruning window property -----------------------------------------------


def test_criterion_4_pruning_window():
    def body():
        rng = random.Random(4242)
        emitted_total = 0
        delta = 0.15
        for _ in range(50):
            n_tables = rng.randint(4, 16)
            n_attrs = rng.randint(3, 9)
            sets = {
                f"t{i}": {f"a{j}" for j in range(n_attrs) if rng.random() < 0.45}
                | {f"a{i % n_attrs}"}
                for i in range(n_tables)
            }
            ids = sorted(sets)
            dm = jaccard_matrix(ids, sets)
            den = agglomerate(dm)
            nodes = prune_dendrogram(den, dm, delta)
            levels = sorted(set(den.heights), reverse=True)
            valid = []
            for h in levels:
                groups = cut(den, h)
                if 2 <= len(groups) <= den.leaf_count - 1:
                    valid.append(silhouette(dm, groups))
            if not valid:
                assert nodes == []
                continue
            max_sil = max(valid)
            for node in nodes:
                recomputed = silhouette(dm, cut(den, emission_height(dm, den, node.members, delta)))
                assert recomputed > max_sil - delta
                if node.parent is not None:
                    assert node.members < node.parent
                emitted_total += 1
        assert emitted_total > 0

    check("criterion 4 (pruning window property)", body)


# --- criterion 5: scripted generative end-to-end ------------------------------------------


def test_criterion_5_gett_scripted(gett_dir, tmp_path):
    def body():
        outputs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            code = cli_main(
                [
                    "run",
                    "--method", "gett",
                    "--llm", "scripted",
                    "--script-path", str(gett_dir / "script.json"),
                    "--tables-dir", str(gett_dir / "tables"),
                    "--out-dir", str(out_dir),
                    "--edge-scorer", "constant",
                    "--seed", "11",
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (out_dir / "taxonomy.json").read_bytes(),
                    (out_dir / "transcript.jsonl").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0], "taxonomy.json not byte-identical"
        assert outputs[0][1] == outputs[1][1], "transcript.jsonl not byte-identical"
        tax = Taxonomy.load(tmp_path / "run0" / "taxonomy.json")
        tax.topological_order()  # acyclic
        assert tax.roots == ["Thing"]
        assert tax.types["Thing"].synthetic
        placed = sorted(t for t in tax.types if not tax.types[t].synthetic)
        assert placed == sorted(
            ["Animal", "Bird", "Cat", "Duck", "Eagle", "Facility", "Hospital", "School"]
        )
        count, depth = tax.stats()
        assert count == 8 and depth == 3
        gt = load_ground_truth(
            gett_dir / "gt" / "gt_taxonomy.json", gett_dir / "gt" / "gt_annotations.csv"
        )
        assert report(tax, gt)["tcs"] == 1.0

    check("criterion 5 (scripted generative end-to-end)", body)


# --- criterion 6: prompt conformance -------------------------------------------------------


def test_criterion_6_prompt_conformance():
    def body():
        rng = random.Random(600)
        alphabet = string.ascii_lowercase + string.digits
        for i in range(100):
            n_cols = rng.randint(1, 6)
            n_rows = rng.randint(0, 14)
            rows = []
            for _ in range(n_rows):
                rows.append(
                    [
                        " ".join(
                            "".join(rng.choices(alphabet, k=3))
                            for _ in range(rng.choice([1, 3, 30, 60, 110]))
                        )
                        for _ in range(n_cols)
                    ]
                )
            table = Table.from_rows(id=f"t{i}", headers=[f"h{c}" for c in range(n_cols)], rows=rows)
            prompt = build_generation_prompt(table, seed=i)
            lines = prompt.splitlines()
            start = lines.index("Table:") + 1
            end = start
            while end < len(lines) and lines[end].strip():
                end += 1
            block = lines[start:end]
            data_rows = block[1:]
            assert len(data_rows) == min(5, n_rows)
            for line in data_rows:
                cells = line.split(", ")
                assert len(cells) == n_cols, "values must be comma-separated"
                for cell in cells:
                    if cell.endswith("..."):
                        assert len(cell[:-3].split()) == 50
                    else:
                        assert len(cell.split()) <= 50

    check("criterion 6 (prompt conformance)", body)


# --- criterion 7: hand-worked tree-consistency cases ----------------------------------------


def test_criterion_7_tcs_hand_worked():
    def body():
        # chain vs chain -> 1.0
        gt = gt_from(
            ["A", "B", "C"], [("A", "B"), ("B", "C")], {"t1": ["A"], "t2": ["A", "B", "C"]}
        )
        out = build_tax(["Ap", "Cp"], [("Ap", "Cp")], tables={"Ap": {"t1"}, "Cp": {"t2"}})
        matching = match_types(out, gt)
        assert matching == {"Ap": "A", "Cp": "C"}
        assert report(out, gt)["tcs"] == 1.0
        # sibling collapse -> 0.5
        gt2 = gt_from(
            ["A", "B", "C"], [("A", "B"), ("A", "C")], {"t1": ["A", "B"], "t2": ["A", "C"]}
        )
        out2 = build_tax(["Bp", "Cp"], [("Bp", "Cp")], tables={"Bp": {"t1"}, "Cp": {"t2"}})
        matching2 = match_types(out2, gt2)
        assert matching2 == {"Bp": "B", "Cp": "C"}
        assert report(out2, gt2)["tcs"] == 0.5

    check("criterion 7 (tree-consistency hand-worked cases)", body)


# --- criterion 8: live mode (non-gating) -----------------------------------------------------


LIVE_VARS = ("TAXOFORGE_LIVE_TABLES", "TAXOFORGE_LIVE_GT", "TAXOFORGE_EMBED_URL")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in LIVE_VARS),
    reason="live mode needs TAXOFORGE_LIVE_TABLES, TAXOFORGE_LIVE_GT, TAXOFORGE_EMBED_URL",
)
def test_criterion_8_live_mode(tmp_path):
    def body():
        from taxoforge.embedding import RemoteProvider

        corpus = ingest(os.environ["TAXOFORGE_LIVE_TABLES"])
        provider = RemoteProvider(
            url=os.environ["TAXOFORGE_EMBED_URL"],
            model=os.environ.get("TAXOFORGE_EMBED_MODEL", "sbert"),
        )
        service = EmbeddingService(provider, cache_dir=tmp_path / "cache")
        result = run_emtt(corpus, service)
        gt_dir = os.environ["TAXOFORGE_LIVE_GT"]
        gt = load_ground_truth(
            os.path.join(gt_dir, "gt_taxonomy.json"), os.path.join(gt_dir, "gt_annotations.csv")
        )
        rep = report(result.taxonomy, gt)
        # reference GT statistics for the 602-table web corpus
        assert (rep["gt_type_count"], rep["gt_depth"]) == (71, 4)
        for key in ("rand_index", "purity", "tcs"):
            assert rep[key] is not None and 0.0 <= rep[key] <= 1.0
        print(
            json.dumps(
                {k: rep[k] for k in ("rand_index", "purity", "tcs", "type_count", "depth")},
                sort_keys=True,
            )
        )
        if os.environ.get("TAXOFORGE_LIVE_LLM_URL"):
            from taxoforge.gett import EdgeFilter, EmbeddingCosineScorer, run_gett
            from taxoforge.llm import RemoteChatBackend, TranscriptLogger

            backend = RemoteChatBackend(
                base_url=os.environ["TAXOFORGE_LIVE_LLM_URL"],
                model=os.environ.get("TAXOFORGE_LIVE_LLM_MODEL", "gpt-4"),
            )
            gen = run_gett(
                corpus,
                backend,
                EdgeFilter(EmbeddingCosineScorer(service)),
                transcript=TranscriptLogger(tmp_path / "transcript.jsonl"),
            )
            gen_rep = report(gen.taxonomy, gt)
            for key in ("rand_index", "purity", "tcs"):
                assert gen_rep[key] is not None and 0.0 <= gen_rep[key] <= 1.0
            print(
                json.dumps(
                    {k: gen_rep[k] for k in ("rand_index", "purity", "tcs", "type_count", "depth")},
                    sort_keys=True,
                )
            )

    check("criterion 8 (live mode, non-gating)", body)
