from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from .oracles import reference_top_level_ids
from taxoforge.errors import CycleError, UnknownTypeError
from taxoforge.taxonomy import EntityType, Taxonomy


def build(types, edges, tables=None, synthetic=()):
    tax = Taxonomy()
    tables = tables or {}
    for t in types:
        tax.add_type(EntityType(id=t, name=t, tables=set(tables.get(t, ())), synthetic=t in synthetic))
    for p, c in edges:
        tax.add_edge(p, c)
    return tax


def test_two_cycle_rejected():
    tax = build(["A", "B"], [("A", "B")])
    with pytest.raises(CycleError):
        tax.add_edge("B", "A")


def test_self_loop_rejected():
    tax = build(["A"], [])
    with pytest.raises(CycleError):
        tax.add_edge("A", "A")


def test_duplicate_edge_noop():
    tax = build(["A", "B"], [("A", "B")])
    tax.add_edge("A", "B")
    assert tax.edges == [("A", "B")]


def test_diamond_allowed():
    tax = build(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    assert tax.ancestors("D") == {"A", "B", "C"}


def test_unknown_type():
    tax = build(["A"], [])
    with pytest.raises(UnknownTypeError):
        tax.add_edge("A", "Z")
    with pytest.raises(UnknownTypeError):
        tax.ancestors("Z")


def test_ancestors_root_and_chain():
    tax = build(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert tax.ancestors("A") == set()
    assert tax.ancestors("C") == {"A", "B"}


def test_associated_tables_union():
    tax = build(
        ["P", "X", "Y"],
        [("P", "X"), ("P", "Y")],
        tables={"X": {"x"}, "Y": {"y"}},
    )
    assert tax.associated_tables("X") == {"x"}
    assert tax.associated_tables("P") == {"x", "y"}


def test_associated_tables_diamond_counts_once():
    tax = build(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        tables={"D": {"t1"}},
    )
    assert tax.associated_tables("A") == {"t1"}


def test_stats_basic():
    tax = build(["R", "a", "b", "c"], [("R", "a"), ("R", "b"), ("R", "c")])
    assert tax.stats() == (4, 2)


def test_stats_synthetic_root_excluded():
    tax = build(["R", "a", "b", "c"], [("R", "a"), ("R", "b"), ("R", "c")], synthetic={"R"})
    assert tax.stats() == (3, 1)


def test_stats_empty():
    assert Taxonomy().stats() == (0, 0)


def test_top_level_ids():
    tax = build(["R", "a", "b", "c"], [("R", "a"), ("R", "b"), ("a", "c")], synthetic={"R"})
    assert tax.top_level_ids() == ["a", "b"]


def test_serialization_roundtrip(tmp_path):
    tax = build(
        ["A", "B", "C"],
        [("A", "B"), ("A", "C")],
        tables={"B": {"t2", "t1"}},
        synthetic={"A"},
    )
    path = tmp_path / "tax.json"
    tax.save(path)
    loaded = Taxonomy.load(path)
    assert loaded.to_json() == tax.to_json()
    assert loaded.types["B"].tables == {"t1", "t2"}
    assert loaded.types["A"].synthetic is True


def test_serialization_deterministic():
    t1 = build(["A", "B"], [("A", "B")], tables={"B": {"z", "a", "m"}})
    t2 = Taxonomy()
    t2.add_type(EntityType(id="B", name="B", tables={"m", "z", "a"}))
    t2.add_type(EntityType(id="A", name="A"))
    t2.add_edge("A", "B")
    assert t1.to_json() == t2.to_json()


def test_topological_order_ignores_insertion_order():
    edges = [("z", "b"), ("z", "a"), ("b", "a"), ("m", "a"), ("a", "c"), ("m", "c")]
    forward = build(["z", "b", "m", "a", "c"], edges)
    backward = build(["c", "a", "m", "b", "z"], edges[::-1])
    order = forward.topological_order()
    assert backward.topological_order() == order
    assert sorted(order) == ["a", "b", "c", "m", "z"]
    assert all(order.index(p) < order.index(c) for p, c in edges)


@st.composite
def random_dag(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    return names, edges


@given(random_dag())
@settings(max_examples=60)
def test_ancestor_transitivity(dag):
    names, edges = dag
    tax = build(names, edges)
    for c in names:
        for b in tax.ancestors(c):
            for a in tax.ancestors(b):
                assert a in tax.ancestors(c)
    order = tax.topological_order()
    position = {t: i for i, t in enumerate(order)}
    assert all(position[p] < position[c] for p, c in edges)


@given(random_dag())
@settings(max_examples=40)
def test_parent_tables_superset(dag):
    names, edges = dag
    tables = {name: {f"tab_{name}"} for name in names}
    tax = build(names, edges, tables=tables)
    for p, c in edges:
        assert tax.associated_tables(p) >= tax.associated_tables(c)


@given(random_dag(), st.data())
@settings(max_examples=200)
def test_top_level_ids_matches_reference(dag, data):
    names, edges = dag
    synthetic = data.draw(st.sets(st.sampled_from(names)))
    tax = build(names, edges, synthetic=synthetic)
    assert tax.top_level_ids() == reference_top_level_ids(tax)
