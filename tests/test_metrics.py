from __future__ import annotations

import json
import random

import pytest
from .builders import build_tax, gt_from
from .oracles import brute_purity, brute_rand_index, brute_tcs
from taxoforge.emtt import EmttResult
from taxoforge.metrics import (
    GroundTruth,
    load_ground_truth,
    match_types,
    purity,
    rand_index,
    report,
)
from taxoforge.taxonomy import Taxonomy


# --- rand index ---------------------------------------------------------------


def simple_gt(tops: dict[str, str]) -> GroundTruth:
    names = sorted(set(tops.values()))
    return gt_from(names, [], {t: [top] for t, top in tops.items()})


def test_rand_index_identical_partitions():
    gt = simple_gt({"a": "X", "b": "X", "c": "Y"})
    assert rand_index({"a": "p", "b": "p", "c": "q"}, gt) == 1.0


def test_rand_index_worked_example():
    # out {{a,b},{c,d}} vs GT {{a,b,c},{d}}: TP=1 TN=2 FP=1 FN=2
    gt = simple_gt({"a": "X", "b": "X", "c": "X", "d": "Y"})
    out = {"a": "p", "b": "p", "c": "q", "d": "q"}
    assert rand_index(out, gt) == pytest.approx(0.5, abs=0)


def test_rand_index_excludes_one_sided_tables():
    gt = simple_gt({"a": "X", "b": "X", "c": "Y"})
    out = {"a": "p", "b": "q", "zz": "p"}
    value = rand_index(out, gt)
    assert value == brute_rand_index(["p", "q"], ["X", "X"])


def test_rand_index_insufficient():
    gt = simple_gt({"a": "X"})
    assert rand_index({"a": "p"}, gt) is None


def test_rand_index_relabeling_symmetry():
    rng = random.Random(8)
    tables = [f"t{i}" for i in range(12)]
    gt = simple_gt({t: rng.choice("XY") for t in tables})
    out = {t: f"c{rng.randint(0, 3)}" for t in tables}
    relabeled = {t: f"renamed_{v}" for t, v in out.items()}
    assert rand_index(out, gt) == rand_index(relabeled, gt)


def test_rand_index_matches_brute_force():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 25)
        out = [rng.randint(0, 4) for _ in range(n)]
        gt = [rng.randint(0, 4) for _ in range(n)]
        tables = [f"t{i:02d}" for i in range(n)]
        value = rand_index(
            {t: str(o) for t, o in zip(tables, out)},
            simple_gt({t: str(g) for t, g in zip(tables, gt)}),
        )
        assert value == brute_rand_index(out, gt)


# --- purity ---------------------------------------------------------------------


def test_purity_all_pure():
    gt = simple_gt({"a": "X", "b": "X", "c": "Y"})
    assert purity({"c1": {"a", "b"}, "c2": {"c"}}, gt) == 1.0


def test_purity_worked_example():
    gt = simple_gt({"a": "X", "b": "X", "c": "Y", "d": "X", "e": "Y", "f": "Y"})
    # cluster1 tops [X, X, Y] -> 2/3; cluster2 tops [X, Y, Y] -> 2/3
    value = purity({"c1": {"a", "b", "c"}, "c2": {"d", "e", "f"}}, gt)
    assert value == pytest.approx(2 / 3)


def test_purity_matches_brute():
    rng = random.Random(1)
    for _ in range(20):
        tables = [f"t{i}" for i in range(rng.randint(3, 20))]
        gt = simple_gt({t: rng.choice("XYZ") for t in tables})
        clusters: dict[str, set[str]] = {}
        for t in tables:
            clusters.setdefault(f"c{rng.randint(0, 3)}", set()).add(t)
        mine = purity(clusters, gt)
        ref = brute_purity(clusters, {t: gt.top_level_of(t) for t in tables})
        assert mine == pytest.approx(ref, abs=1e-12)


def test_purity_no_types():
    gt = simple_gt({"a": "X", "b": "X"})
    assert purity({"c1": {"zz"}}, gt) is None


# --- matching --------------------------------------------------------------------


def test_match_types_majority_and_ties():
    gt = gt_from(
        ["School", "Hospital"],
        [],
        {"t1": ["School"], "t2": ["School"], "t3": ["Hospital"], "t4": ["Hospital"]},
    )
    out = build_tax(["u", "v", "w"], [], tables={"u": {"t1", "t2", "t3"}, "v": {"t3", "t4"}, "w": set()})
    matching = match_types(out, gt)
    assert matching["u"] == "School"
    assert matching["v"] == "Hospital"
    assert "w" not in matching


def test_match_types_tie_lexicographic():
    gt = gt_from(["A", "B"], [], {"t1": ["A"], "t2": ["A"], "t3": ["B"], "t4": ["B"]})
    out = build_tax(["u"], [], tables={"u": {"t1", "t2", "t3", "t4"}})
    assert match_types(out, gt)["u"] == "A"


# --- tcs -------------------------------------------------------------------------


def test_tcs_chain_vs_chain_is_one():
    # GT chain A->B->C; output A'->C' with m(A')=A, m(C')=C
    gt = gt_from(["A", "B", "C"], [("A", "B"), ("B", "C")], {"t1": ["A"], "t2": ["A", "B", "C"]})
    out = build_tax(["Ap", "Cp"], [("Ap", "Cp")], tables={"Ap": {"t1"}, "Cp": {"t2"}})
    matching = match_types(out, gt)
    assert matching == {"Ap": "A", "Cp": "C"}
    assert report(out, gt)["tcs"] == 1.0


def test_tcs_sibling_collapse_is_half():
    # GT A->B, A->C disjoint; output chain B'->C' with m(B')=B, m(C')=C
    gt = gt_from(["A", "B", "C"], [("A", "B"), ("A", "C")], {"t1": ["A", "B"], "t2": ["A", "C"]})
    out = build_tax(["Bp", "Cp"], [("Bp", "Cp")], tables={"Bp": {"t1"}, "Cp": {"t2"}})
    matching = match_types(out, gt)
    assert matching == {"Bp": "B", "Cp": "C"}
    assert report(out, gt)["tcs"] == 0.5


def test_tcs_self_comparison_identity():
    gt = gt_from(
        ["A", "B", "C"],
        [("A", "B"), ("A", "C")],
        {"t1": ["A"], "t2": ["A", "B"], "t3": ["A", "C"]},
    )
    assert report(gt.taxonomy, gt)["tcs"] == 1.0


def test_tcs_synthetic_root_ignored():
    gt = gt_from(["A", "B"], [("A", "B")], {"t1": ["A"], "t2": ["A", "B"]})
    out = build_tax(
        ["root", "A1", "B1"],
        [("root", "A1"), ("A1", "B1")],
        tables={"A1": {"t1"}, "B1": {"t2"}},
        synthetic={"root"},
    )
    assert report(out, gt)["tcs"] == 1.0


# --- report -----------------------------------------------------------------------


def test_report_gt_against_itself():
    gt = gt_from(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C")],
        {"t1": ["A"], "t2": ["A", "B"], "t3": ["A", "C"], "t4": ["D"]},
    )
    rep = report(gt.taxonomy, gt)
    assert rep["rand_index"] == 1.0
    assert rep["purity"] == 1.0
    assert rep["tcs"] == 1.0
    assert rep["type_count"] == 4
    assert rep["gt_type_count"] == 4


def test_report_undefined_metrics_are_null():
    gt = gt_from(["A", "B"], [("A", "B")], {"t1": ["A"], "t2": ["A", "B"]})
    out = build_tax(["X"], [], tables={"X": {"zz"}})
    rep = json.loads(json.dumps(report(out, gt)))
    assert (rep["rand_index"], rep["purity"], rep["tcs"]) == (None, None, None)
    assert rep["unmatched_types"] == ["X"]


def test_report_deterministic_json():
    gt = gt_from(["A", "B"], [("A", "B")], {"t1": ["A"], "t2": ["A", "B"]})
    rep1 = json.dumps(report(gt.taxonomy, gt), sort_keys=True)
    rep2 = json.dumps(report(gt.taxonomy, gt), sort_keys=True)
    assert rep1 == rep2


def diamond() -> Taxonomy:
    """Synthetic ``r`` over ``a`` and ``b``, which share the child ``c`` holding ``t1``."""
    return build_tax(
        ["r", "a", "b", "c"],
        [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")],
        tables={"c": {"t1"}},
        synthetic={"r"},
    )


def test_top_level_assignment_dag_deterministic():
    assert diamond().top_level_assignment() == {"t1": "a"}


def test_toplevel_json_and_report_share_one_rule():
    # toplevel.json and rand_index read the same map, ties to the smallest id
    tax = diamond()
    toplevel = EmttResult(tax, {}).toplevel_dict()
    assert toplevel["assignments"] == tax.top_level_assignment() == {"t1": "a"}


# --- ground truth loading ------------------------------------------------------------


def write_gt(tmp_path, taxonomy: dict, lines: list[str]):
    tax_path = tmp_path / "gt_taxonomy.json"
    ann_path = tmp_path / "gt_annotations.csv"
    tax_path.write_text(json.dumps(taxonomy), encoding="utf-8")
    ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tax_path, ann_path


BASE_TAX = {
    "types": [
        {"id": "A", "name": "A", "tables": [], "synthetic": False},
        {"id": "B", "name": "B", "tables": ["t1"], "synthetic": False},
    ],
    "edges": [["A", "B"]],
}


def test_load_ground_truth_ok(tmp_path):
    tax_path, ann_path = write_gt(tmp_path, BASE_TAX, ["table_id,top_level,path", "t1,A,A>B"])
    gt = load_ground_truth(tax_path, ann_path)
    assert gt.per_table == {"t1": ["A", "B"]}
    assert gt.ancestor_names("B") == {"A"}


def test_load_ground_truth_accepts_byte_order_mark(planted_dir, tmp_path):
    # spreadsheet exports often start with a UTF-8 BOM; it is not part of the header
    gt_dir = planted_dir / "gt"
    bom_path = tmp_path / "gt_annotations.csv"
    bom_path.write_bytes(b"\xef\xbb\xbf" + (gt_dir / "gt_annotations.csv").read_bytes())
    plain = load_ground_truth(gt_dir / "gt_taxonomy.json", gt_dir / "gt_annotations.csv")
    assert load_ground_truth(gt_dir / "gt_taxonomy.json", bom_path).per_table == plain.per_table


def test_load_ground_truth_accepts_byte_order_mark_in_the_taxonomy(planted_dir, tmp_path):
    # every input file is UTF-8 with a leading BOM dropped, JSON included
    gt_dir = planted_dir / "gt"
    bom_path = tmp_path / "gt_taxonomy.json"
    bom_path.write_bytes(b"\xef\xbb\xbf" + (gt_dir / "gt_taxonomy.json").read_bytes())
    plain = load_ground_truth(gt_dir / "gt_taxonomy.json", gt_dir / "gt_annotations.csv")
    loaded = load_ground_truth(bom_path, gt_dir / "gt_annotations.csv")
    assert loaded.taxonomy.to_json() == plain.taxonomy.to_json()


def test_load_ground_truth_rejects_bad_path(tmp_path):
    tax_path, ann_path = write_gt(tmp_path, BASE_TAX, ["t1,B,B>A"])
    with pytest.raises(ValueError):
        load_ground_truth(tax_path, ann_path)


def test_load_ground_truth_rejects_unknown_type(tmp_path):
    tax_path, ann_path = write_gt(tmp_path, BASE_TAX, ["t1,A,A>Z"])
    with pytest.raises(ValueError):
        load_ground_truth(tax_path, ann_path)


def test_load_ground_truth_names_the_file_line_after_a_multiline_record(tmp_path):
    # a quoted table id spans lines 2-3, so the bad record is on line 4, not record 3
    lines = ["table_id,top_level,path", '"t\n1",A,A>B', "t2,A,Nope"]
    tax_path, ann_path = write_gt(tmp_path, BASE_TAX, lines)
    message = r"csv: annotation line 4: path must start at the top-level type$"
    with pytest.raises(ValueError, match=message):
        load_ground_truth(tax_path, ann_path)


def test_load_ground_truth_rejects_duplicate_type_names(tmp_path):
    tax = {
        "types": BASE_TAX["types"] + [{"id": "B2", "name": "B", "tables": [], "synthetic": False}],
        "edges": BASE_TAX["edges"] + [["A", "B2"]],
    }
    tax_path, ann_path = write_gt(tmp_path, tax, ["t1,A,A>B"])
    with pytest.raises(ValueError, match="'B' is not unique"):
        load_ground_truth(tax_path, ann_path)


# --- randomized oracle agreement -------------------------------------------------------


def random_instance(rng: random.Random):
    """Random GT tree + annotations, random output DAG over shared tables."""
    gt_n = rng.randint(2, 8)
    gt_names = [f"G{i}" for i in range(gt_n)]
    gt_edges = [(gt_names[rng.randint(0, j - 1)], gt_names[j]) for j in range(1, gt_n)]
    parent_of = {c: p for p, c in gt_edges}

    def path_to(name):
        path = [name]
        while path[0] in parent_of:
            path.insert(0, parent_of[path[0]])
        return path

    tables = [f"t{i}" for i in range(rng.randint(2, 14))]
    annotations = {t: path_to(rng.choice(gt_names)) for t in tables}

    out_n = rng.randint(1, 9)
    out_names = [f"o{i}" for i in range(out_n)]
    out_edges = []
    for j in range(1, out_n):
        for i in range(j):
            if rng.random() < 0.3:
                out_edges.append((out_names[i], out_names[j]))
    out_tables: dict[str, set[str]] = {name: set() for name in out_names}
    for t in tables:
        if rng.random() < 0.8:
            out_tables[rng.choice(out_names)].add(t)
    return gt_names, gt_edges, annotations, out_names, out_edges, out_tables


def test_tcs_matches_brute_oracle_random():
    rng = random.Random(123)
    checked = 0
    for _ in range(60):
        gt_names, gt_edges, annotations, out_names, out_edges, out_tables = random_instance(rng)
        gt = gt_from(gt_names, gt_edges, annotations)
        out = build_tax(out_names, out_edges, tables=out_tables)
        expected = brute_tcs(
            out_names,
            out_edges,
            out_tables,
            {},
            gt_names,
            gt_edges,
            {t: path[-1] for t, path in annotations.items()},
        )
        if expected is None:
            continue
        assert report(out, gt)["tcs"] == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked > 20
