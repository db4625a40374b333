from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from .builders import table_of
from .oracles import (
    emission_height,
    oracle_prune as shared_oracle_prune,
    reference_prune,
    table_attribute_distance,
)
from taxoforge.clustering import DistanceMatrix, agglomerate, cut, euclidean_matrix, silhouette
from taxoforge.corpus import Corpus, ingest
from taxoforge.embedding import ColumnRef, EmbeddingService, LocalHashProvider
from taxoforge.emtt import (
    identify_attributes,
    identify_top_level,
    jaccard_matrix,
    prune_dendrogram,
    run_emtt,
)
from taxoforge.metrics import load_ground_truth, report
from taxoforge.subject import assign_subjects


def service():
    return EmbeddingService(LocalHashProvider(dim=64))


def two_domain_corpus() -> tuple[Corpus, dict[str, int]]:
    """8 company + 8 movie tables with disjoint subject vocabularies."""
    companies = ["Acme Ltd", "Binko Corp", "Crate Co", "Dynamo Plc", "Evershed", "Fulcrum"]
    movies = ["Night Train", "Red Harbor", "Glass Veil", "Moon Tide", "Iron Field", "Last Ferry"]
    tables = []
    plant = {}
    for i in range(8):
        tables.append(table_of(["company", f"metric_{i}"],
                               [companies, [str(100 + i * 7 + j) for j in range(6)]], f"com_{i}"))
        plant[f"com_{i}"] = 0
        tables.append(table_of(["film_title", f"figure_{i}"],
                               [movies, [str(500 + i * 3 + j) for j in range(6)]], f"mov_{i}"))
        plant[f"mov_{i}"] = 1
    tables.sort(key=lambda t: t.id)
    return Corpus(tables=tables), plant


def test_identify_top_level_planted_split():
    corpus, plant = two_domain_corpus()
    tlts = identify_top_level(corpus, service(), assign_subjects(corpus))
    assert len(tlts) == 2
    partitions = {frozenset(t) for t in tlts}
    expected = {
        frozenset(tid for tid, lab in plant.items() if lab == 0),
        frozenset(tid for tid, lab in plant.items() if lab == 1),
    }
    assert partitions == expected


def test_identify_top_level_single_table():
    t = table_of(["name"], [["Ada", "Bo"]], "solo")
    corpus = Corpus(tables=[t])
    tlts = identify_top_level(corpus, service(), assign_subjects(corpus))
    assert len(tlts) == 1
    assert tlts[0] == ["solo"]


def attributes_of(table_ids, corpus):
    refs = [ColumnRef(tid, col) for tid in table_ids for col in range(corpus.get(tid).n_cols)]
    return identify_attributes(refs, service().embed_columns(corpus, refs))


def test_identify_attributes_shared_vocab_merges():
    cities = ["Paris", "Lyon", "Nice", "Lille"]
    t1 = table_of(["location", "staff"], [cities, ["5", "8", "5", "9"]], "t1")
    t2 = table_of(["place", "budget"], [cities, ["100", "330", "87", "12"]], "t2")
    corpus = Corpus(tables=[t1, t2])
    attrs = attributes_of(["t1", "t2"], corpus)
    by_col = {}
    for label, attr in enumerate(attrs):
        for ref in attr:
            by_col[(ref.table_id, ref.col)] = label
    assert by_col[("t1", 0)] == by_col[("t2", 0)]  # location ~ place
    assert by_col[("t1", 1)] != by_col[("t1", 0)]


def test_identify_attributes_partition_property():
    corpus, _ = two_domain_corpus()
    members = [t.id for t in corpus.tables if t.id.startswith("com_")]
    attrs = attributes_of(members, corpus)
    total_columns = sum(corpus.get(tid).n_cols for tid in members)
    assert sum(len(a) for a in attrs) == total_columns
    all_refs = [ref for a in attrs for ref in a]
    assert len(all_refs) == len(set(all_refs))


def test_identify_attributes_single_column():
    t = table_of(["only"], [["x", "y"]], "t1")
    corpus = Corpus(tables=[t])
    attrs = attributes_of(["t1"], corpus)
    assert len(attrs) == 1


def test_table_attribute_distance():
    assert table_attribute_distance({"a", "b"}, {"a", "b"}) == 0.0
    assert table_attribute_distance({"a", "b"}, {"b", "c"}) == pytest.approx(2 / 3)
    assert table_attribute_distance({"a"}, {"b"}) == 1.0
    assert table_attribute_distance(set(), set()) == 0.0


@given(st.lists(st.one_of(st.none(), st.sets(st.sampled_from("abcdefgh"), max_size=8)), max_size=12))
def test_jaccard_matrix_is_pairwise_distance_bit_for_bit(sets):
    # None: the table has no entry in attr_sets and counts as having no attributes
    ids = [f"t{i}" for i in range(len(sets))]
    attr_sets = {tid: attrs for tid, attrs in zip(ids, sets) if attrs is not None}
    expected = [
        [table_attribute_distance(attr_sets.get(a, set()), attr_sets.get(b, set())) for b in ids]
        for a in ids
    ]
    assert jaccard_matrix(ids, attr_sets).d.tolist() == expected


# --- pruning ------------------------------------------------------------------


def oracle_prune(den, dm: DistanceMatrix, delta: float):
    """Exhaustive cut-enumeration oracle, independent of prune_dendrogram."""
    merges = [(m.left, m.right, m.height) for m in den.merges]
    return shared_oracle_prune(merges, den.leaf_count, dm.d.tolist(), delta)


def block_matrix(blocks: list[list[int]], intra: float, inter: float) -> DistanceMatrix:
    n = sum(len(b) for b in blocks)
    d = np.full((n, n), inter)
    for block in blocks:
        for i in block:
            for j in block:
                d[i, j] = 0.0 if i == j else intra
    return DistanceMatrix(d)


def test_prune_two_tables_empty_fragment():
    dm = DistanceMatrix(np.array([[0.0, 0.7], [0.7, 0.0]]))
    den = agglomerate(dm)
    for delta in (0.05, 0.15, 1.0):
        assert prune_dendrogram(den, dm, delta) == []


def test_prune_three_planted_blocks():
    blocks = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    dm = block_matrix(blocks, intra=0.0, inter=1.0)
    den = agglomerate(dm)
    nodes = prune_dendrogram(den, dm, 0.15)
    assert {node.members for node in nodes} == {frozenset(b) for b in blocks}
    assert all(node.parent is None for node in nodes)
    assert {node.members: node.parent for node in nodes} == oracle_prune(den, dm, 0.15)


def test_prune_nested_plant_builds_two_levels():
    d = np.full((8, 8), 1.0)
    subs = [[0, 1], [2, 3], [4, 5], [6, 7]]
    supers = [[0, 1, 2, 3], [4, 5, 6, 7]]
    for block in supers:
        for i in block:
            for j in block:
                if i != j:
                    d[i, j] = 0.4
    for block in subs:
        for i in block:
            for j in block:
                if i != j:
                    d[i, j] = 0.1
    np.fill_diagonal(d, 0.0)
    dm = DistanceMatrix(d)
    den = agglomerate(dm)
    nodes = prune_dendrogram(den, dm, 0.15)
    by_members = {node.members: node for node in nodes}
    assert set(by_members) == {frozenset(b) for b in subs + supers}
    for sub in subs:
        parent = by_members[frozenset(sub)].parent
        assert parent is not None and frozenset(sub) < parent
        assert parent in {frozenset(b) for b in supers}
    for sup in supers:
        assert by_members[frozenset(sup)].parent is None
        # direct members are the ones not claimed by emitted children
        assert by_members[frozenset(sup)].direct == frozenset()
    assert {n.members: n.parent for n in nodes} == oracle_prune(den, dm, 0.15)


def test_prune_window_property_random_jaccard():
    rng = random.Random(7)
    checked_nodes = 0
    for _ in range(20):
        n_tables = rng.randint(4, 12)
        n_attrs = rng.randint(3, 8)
        sets = {
            f"t{i}": {f"a{j}" for j in range(n_attrs) if rng.random() < 0.5} | {f"a{i % n_attrs}"}
            for i in range(n_tables)
        }
        ids = sorted(sets)
        dm = jaccard_matrix(ids, sets)
        den = agglomerate(dm)
        delta = 0.15
        nodes = prune_dendrogram(den, dm, delta)
        levels = sorted(set(den.heights), reverse=True)
        scores = [silhouette(dm, cut(den, h)) for h in levels]
        valid = [s for s in scores if s is not None]
        if not valid:
            assert nodes == []
            continue
        max_sil = max(valid)
        for node in nodes:
            recomputed = silhouette(dm, cut(den, emission_height(dm, den, node.members, delta)))
            assert recomputed > max_sil - delta
            if node.parent is not None:
                assert node.members < node.parent
            checked_nodes += 1
        assert {n.members: n.parent for n in nodes} == oracle_prune(den, dm, 0.15)
    assert checked_nodes > 0


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=12),
    st.sampled_from(["integer", "grid", "jaccard"]),
    st.sampled_from(["average", "complete", "single"]),
    st.sampled_from([0.0, 0.05, 0.15, 2.0]),
)
@settings(max_examples=300)
def test_prune_matches_reference(seed, n, kind, linkage, delta):
    # equal as lists: emission order, members, direct and parent
    rng = np.random.default_rng(seed)
    if kind == "integer":
        d = np.triu(rng.integers(0, 4, size=(n, n)), 1).astype(np.float64)
        dm = DistanceMatrix(d + d.T)
    elif kind == "grid":
        # few grid points for n items: repeated points tie at distance 0
        dm = euclidean_matrix(rng.integers(0, 3, size=(n, 2)).astype(np.float64))
    else:
        ids = [f"t{i}" for i in range(n)]
        dm = jaccard_matrix(ids, {t: {f"a{j}" for j in range(6) if rng.random() < 0.5} for t in ids})
    den = agglomerate(dm, linkage)
    nodes = prune_dendrogram(den, dm, delta)
    assert nodes == reference_prune(den, dm, delta)
    # the level with k = 1 has no silhouette, so no delta lets it emit all n leaves
    assert all(len(node.members) < n for node in nodes)


# --- full pipeline --------------------------------------------------------------


def test_run_emtt_planted_fixture(planted_dir):
    corpus = ingest(planted_dir / "tables")
    result = run_emtt(corpus, service(), 0.15)
    gt = load_ground_truth(planted_dir / "gt" / "gt_taxonomy.json",
                           planted_dir / "gt" / "gt_annotations.csv")
    rep = report(result.taxonomy, gt)
    assert rep["rand_index"] == 1.0
    assert rep["purity"] == 1.0
    assert rep["tcs"] == 1.0
    assert rep["type_count"] == 9


def test_run_emtt_taxonomy_invariants(planted_dir):
    corpus = ingest(planted_dir / "tables")
    result = run_emtt(corpus, service())
    tax = result.taxonomy
    tax.topological_order()  # raises on cycles
    # each table directly assigned exactly once, to its deepest cluster
    seen: dict[str, str] = {}
    for et in tax.types.values():
        for table in et.tables:
            assert table not in seen, f"table {table} assigned to {seen[table]} and {et.id}"
            seen[table] = et.id
    assert set(seen) == {t.id for t in corpus.tables}
    for parent, child in tax.edges:
        assert tax.associated_tables(parent) > tax.associated_tables(child) or (
            tax.associated_tables(parent) == tax.associated_tables(child)
        )


def test_run_emtt_deterministic(planted_dir):
    corpus1 = ingest(planted_dir / "tables")
    corpus2 = ingest(planted_dir / "tables")
    out1 = run_emtt(corpus1, service()).taxonomy.to_json()
    out2 = run_emtt(corpus2, service()).taxonomy.to_json()
    assert out1 == out2


def test_run_emtt_overrides_do_not_outlive_their_run(planted_dir):
    corpus = ingest(planted_dir / "tables")
    overridden = run_emtt(corpus, service(), subject_overrides={"uni_col_1": 1})
    fresh = run_emtt(ingest(planted_dir / "tables"), service()).taxonomy.to_json()
    assert overridden.taxonomy.to_json() != fresh
    assert run_emtt(corpus, service()).taxonomy.to_json() == fresh


def test_run_emtt_table_order_invariance(planted_dir):
    corpus = ingest(planted_dir / "tables")
    baseline = run_emtt(corpus, service()).taxonomy.to_json()
    shuffled = Corpus(tables=list(reversed(ingest(planted_dir / "tables").tables)))
    assert run_emtt(shuffled, service()).taxonomy.to_json() == baseline


def test_run_emtt_identical_attributes_no_subtypes():
    shared_attr = (["stock"], [["12", "9", "4"]])
    groups = {
        "org": ["Acme Ltd", "Binko Corp", "Crate Co"],
        "spc": ["Red Fox", "Grey Owl", "Elk"],
    }
    tables = []
    for prefix, names in groups.items():
        for i in range(3):
            tables.append(
                table_of(["name", "stock"], [names, ["12", "9", "4"]], f"{prefix}_{i}")
            )
    tables.sort(key=lambda t: t.id)
    corpus = Corpus(tables=tables)
    result = run_emtt(corpus, service())
    tax = result.taxonomy
    assert all("." not in tid for tid in tax.types), "no subtypes expected"
    assert sorted(tax.types) == tax.top_level_ids()


# --- per-type clustering in forked workers ---------------------------------------


def test_planted_corpus_is_too_little_work_to_fork(planted_dir, monkeypatch):
    # the planted types have tens of columns each, far below MIN_SHARE_COST
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    corpus = ingest(planted_dir / "tables")
    result = run_emtt(corpus, service())
    assert {t.id for t in corpus.tables} == set(result.taxonomy.top_level_assignment())
