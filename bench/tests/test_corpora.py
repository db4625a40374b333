from __future__ import annotations

import csv

import pytest

import corpora
from taxoforge.corpus import ingest
from taxoforge.metrics import load_ground_truth


def _bytes(gen: corpora.Generated, base) -> dict[str, bytes]:
    return {p.relative_to(base).as_posix(): p.read_bytes() for p in gen.files}


@pytest.mark.parametrize("workload", sorted(corpora.SHAPES))
def test_same_seed_same_bytes(workload, tmp_path):
    first = corpora.generate(workload, 3, tmp_path / "a")
    again = corpora.generate(workload, 3, tmp_path / "b")
    other = corpora.generate(workload, 4, tmp_path / "c")
    assert _bytes(first, tmp_path / "a") == _bytes(again, tmp_path / "b")
    assert _bytes(first, tmp_path / "a") != _bytes(other, tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(corpora.SHAPES))
def test_ground_truth_covers_every_table(workload, tmp_path):
    gen = corpora.generate(workload, 1, tmp_path)
    corpus = ingest(gen.tables_dir)
    gt = load_ground_truth(gen.gt_dir / "gt_taxonomy.json", gen.gt_dir / "gt_annotations.csv")
    assert [t.id for t in corpus.tables] == gen.table_ids
    assert set(gt.per_table) == set(gen.table_ids)


@pytest.mark.parametrize("workload", ["emtt-many", "emtt-long"])
def test_emtt_layout_does_not_depend_on_seed(workload, tmp_path):
    shape = corpora.SHAPES[workload]
    widths = []
    for seed in (5, 6):
        gen = corpora.generate(workload, seed, tmp_path / str(seed))
        width = {}
        for path in gen.tables_dir.glob("*.csv"):
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == shape.rows + 1
            width[path.stem] = len(rows[0]) - 1
        widths.append(width)
    lo, hi = shape.attrs_per_table
    assert widths[0] == widths[1]
    assert all(lo <= n <= hi for n in widths[0].values())


def test_gett_script_matches_corpus(tmp_path):
    gen = corpora.generate("gett-chat", 2, tmp_path)
    script = gen.script
    corpus = ingest(gen.tables_dir)
    headers = {", ".join(t.headers) for t in corpus.tables}
    assert set(script.answers) == headers
    assert script.garbled <= headers and script.garbled
    names = {n for kids in script.children.values() for n in kids}
    assert len(names) == 40 and corpora.ROOT_NAME not in names
    assert not set(script.bogus.values()) & names
    assert all(child in script.children[parent] for parent, child in script.rejected)
