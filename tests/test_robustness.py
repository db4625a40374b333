"""Randomized end-to-end robustness: weird corpora and unruly backends."""

from __future__ import annotations

import random
import string

import pytest

from taxoforge.corpus import Corpus, Table
from taxoforge.embedding import EmbeddingService, LocalHashProvider
from taxoforge.emtt import run_emtt
from taxoforge.errors import LayerParseError
from taxoforge.gett import ConstantScorer, EdgeFilter, TypeCandidateList, chain_of_layer
from taxoforge.llm import ChatRequest


WORDS = [
    "alpha", "bravo", "copper", "delta", "ember", "fjord", "gable", "harbor",
    "ingot", "jetty", "kiln", "lumen", "marsh", "nickel", "onyx", "pylon",
]


def random_corpus(rng: random.Random, n_tables: int) -> Corpus:
    tables = []
    for i in range(n_tables):
        n_cols = rng.randint(1, 6)
        n_rows = rng.randint(1, 10)
        headers = [rng.choice(WORDS) + str(c) for c in range(n_cols)]
        rows = []
        for r in range(n_rows):
            row = []
            for c in range(n_cols):
                kind = rng.random()
                if kind < 0.15:
                    row.append("")
                elif kind < 0.45:
                    row.append(str(rng.randint(0, 5000)))
                else:
                    row.append(" ".join(rng.choices(WORDS, k=rng.randint(1, 3))))
            rows.append(row)
        # subject detection needs at least one non-empty cell
        rows[0][0] = rows[0][0] or "anchor"
        tables.append(Table.from_rows(id=f"t{i:03d}", headers=headers, rows=rows))
    return Corpus(tables=tables)


def build_random_corpus(seed: int) -> Corpus:
    rng = random.Random(seed)
    return random_corpus(rng, rng.randint(2, 40))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_run_emtt_random_corpora_invariants(seed):
    corpus = build_random_corpus(seed)
    service = EmbeddingService(LocalHashProvider(dim=32))
    result = run_emtt(corpus, service)
    tax = result.taxonomy
    tax.topological_order()
    direct: dict[str, str] = {}
    for et in tax.types.values():
        for table in et.tables:
            assert table not in direct
            direct[table] = et.id
    assert set(direct) == {t.id for t in corpus.tables}
    # toplevel.json: the taxonomy's top-level types partition the tables, by the report's rule
    toplevel = result.toplevel_dict()
    members = toplevel["top_level_types"]
    assert members == {t: sorted(tax.associated_tables(t)) for t in tax.top_level_ids()}
    listed = [tid for tables in members.values() for tid in tables]
    assert sorted(listed) == sorted(t.id for t in corpus.tables)
    assert toplevel["assignments"] == {tid: top for top, tables in members.items() for tid in tables}
    # attributes.json: every column of every table in one attribute of its own top-level type
    attributes = result.attributes_dict()
    assert set(attributes) == {t.id for t in corpus.tables}
    for table in corpus.tables:
        assert set(attributes[table.id]) == {str(col) for col in range(table.n_cols)}
        prefix = toplevel["assignments"][table.id] + ".attr"
        assert all(attr.startswith(prefix) for attr in attributes[table.id].values())
    # a fresh corpus and service must reproduce the taxonomy exactly
    rerun = run_emtt(build_random_corpus(seed), EmbeddingService(LocalHashProvider(dim=32)))
    assert rerun.taxonomy.to_json() == tax.to_json()


class ChaoticBackend:
    """Emits a seeded mix of valid relations, junk, markers, and unknown names."""

    def __init__(self, seed: int, candidates: list[str]):
        self.rng = random.Random(seed)
        self.candidates = candidates

    def complete(self, req: ChatRequest):
        from taxoforge.llm import ChatResponse

        roll = self.rng.random()
        if roll < 0.15:
            return ChatResponse(text="NONE")
        if roll < 0.3:
            return ChatResponse(text="".join(self.rng.choices(string.ascii_letters, k=30)))
        lines = []
        for _ in range(self.rng.randint(1, 4)):
            parent = self.rng.choice(self.candidates + ["Thing", "Phantom"])
            child = self.rng.choice(self.candidates + ["Ghost"])
            lines.append(f"{parent} -> {child}")
        return ChatResponse(text="\n".join(lines))


@pytest.mark.parametrize("seed", range(12))
def test_chain_of_layer_chaotic_backend(seed):
    names = [f"Type{i}" for i in range(8)]
    candidates = TypeCandidateList(origin={n: {f"tab{n}"} for n in names})
    backend = ChaoticBackend(seed, names)
    try:
        tax = chain_of_layer(candidates, "Thing", backend, EdgeFilter(ConstantScorer()))
    except LayerParseError:
        return  # acceptable outcome for garbage-only iterations
    tax.topological_order()
    placed = sorted(t for t in tax.types if not tax.types[t].synthetic)
    assert placed == sorted(names), "every candidate placed exactly once"
    for name in names:
        assert tax.types[name].tables == {f"tab{name}"}
    assert "Ghost" not in tax.types and "Phantom" not in tax.types
