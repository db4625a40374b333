"""Tables held as dictionary-encoded columns: the same reads as rows, in a fraction of the memory.

Random tables are written to CSV and ingested; subject scores, serialized
columns, sampled rows and every row must equal what the rows-based readers
in ``oracles`` give on the same file, floats bit for bit.
"""

from __future__ import annotations

import csv
import gc
import sys
import tempfile
import tracemalloc
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taxoforge.corpus import Table, ingest
from taxoforge.embedding import MAX_DISTINCT_CELLS, serialize_column
from taxoforge.gett import sample_rows
from taxoforge.subject import score_columns

from .oracles import read_rows, rows_sample_rows, rows_score_columns, rows_serialize_column

PADDING = st.sampled_from(["", " ", "  ", "\t"])
CORE = st.one_of(
    st.just(""),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.dates().map(date.isoformat),
    st.sampled_from(["2024-02-30", "2024-1-05", "Acme Ltd", "Paris", "n/a"]),
    # any text a UTF-8 file can hold but a NUL, line breaks and quotes included
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
)
# empty and whitespace-only cells, numbers, YYYY-MM-DD dates and text, some padded
CELLS = st.tuples(PADDING, CORE, PADDING).map("".join)
# duplicate and blank headers; ingest suffixes the duplicates
HEADERS = st.sampled_from(["name", "name", " city ", "", "id", "name_2"])


@st.composite
def raw_tables(draw) -> tuple[list[str], list[list[str]]]:
    """A header row and data rows, some of them short."""
    width = draw(st.integers(1, 4))
    headers = draw(st.lists(HEADERS, min_size=width, max_size=width))
    if not any(h.strip() for h in headers):
        headers[0] = "name"
    # past MAX_DISTINCT_CELLS rows, a column of mostly fresh values overflows the cap
    n_rows = draw(st.one_of(st.integers(0, 12), st.integers(MAX_DISTINCT_CELLS + 1, 300)))
    rnd = draw(st.randoms(use_true_random=False))
    columns = []
    for _ in range(width):
        pool = draw(st.lists(CELLS, min_size=1, max_size=8))
        if draw(st.booleans()):
            columns.append([rnd.choice([str(r), f"item {r}", f" {r}-x ", rnd.choice(pool)]) for r in range(n_rows)])
        else:
            columns.append([rnd.choice(pool) for _ in range(n_rows)])
    rows = [[column[r] for column in columns] for r in range(n_rows)]
    rows = [row[: rnd.randint(0, width - 1)] if rnd.random() < 0.2 else row for row in rows]
    return headers, rows


def bits(scores) -> list[tuple[int, str, str, str]]:
    return [(s.col, s.uniqueness.hex(), s.text_ratio.hex(), s.position_bonus.hex()) for s in scores]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table=raw_tables(), terminator=st.sampled_from(["\r\n", "\n", "\r"]), seed=st.integers(0, 2**32))
def test_column_store_reads_equal_the_rows_references(table, terminator, seed):
    headers, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator=terminator).writerows([headers, *rows])
        stored = ingest(tmp).get("t")
        reference = read_rows(path, stored.n_cols)
    assert stored.n_rows == len(reference)
    assert [stored.row(r) for r in range(stored.n_rows)] == reference
    assert bits(score_columns(stored)) == bits(rows_score_columns(reference, stored.n_cols))
    for col in range(stored.n_cols):
        assert list(stored.iter_distinct(col)) == list(stored.value_counts(col))
        column = [row[col] for row in reference]
        assert serialize_column(stored, col) == rows_serialize_column(stored.headers[col], column)
    assert sample_rows(stored, seed) == rows_sample_rows(reference, seed)


def test_ingest_retains_under_10_bytes_per_cell(tmp_path):
    # 20 000 rows of 3 columns, at most 10 distinct values per column
    rows = [[f"name {r % 10}", str(r % 7), f"2024-01-0{r % 9 + 1}"] for r in range(20_000)]
    with (tmp_path / "t.csv").open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["name", "n", "day"], *rows])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = ingest(tmp_path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert corpus.get("t").n_rows == 20_000
    assert retained / 60_000 < 10


def test_reads_outside_the_table_raise():
    table = Table.from_rows("t", ["a", "b"], [["x", "1"], ["y"]])
    assert table.row(1) == ["y", ""]
    for r in (-1, 2):
        with pytest.raises(IndexError, match=f"row {r} out of range"):
            table.row(r)
    for col in (-1, 2):
        with pytest.raises(IndexError, match=f"column {col} out of range"):
            table.value_counts(col)
        with pytest.raises(IndexError, match=f"column {col} out of range"):
            list(table.iter_distinct(col))


def retained_by_ingest(tmp_path, headers: list[str], rows: list[list[str]]) -> tuple[Table, int]:
    """The table ingested from ``rows`` and the bytes that ingesting it left allocated."""
    with (tmp_path / "t.csv").open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([headers, *rows])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = ingest(tmp_path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return corpus.get("t"), retained


def test_distinct_cells_retain_under_their_characters_plus_8_bytes(tmp_path):
    cells = [f"entity {r}" for r in range(20_000)]
    table, retained = retained_by_ingest(tmp_path, ["name"], [[cell] for cell in cells])
    assert list(table.iter_distinct(0)) == cells
    assert retained / len(cells) < sum(map(len, cells)) / len(cells) + 8


def test_columns_of_at_most_256_distinct_cells_retain_under_2_bytes_per_cell(tmp_path):
    # 20 000 rows of 3 columns holding 256, 2 and 100 distinct cells
    rows = [[f"name {r % 256}", str(r % 2), f"city {r % 100}"] for r in range(20_000)]
    table, retained = retained_by_ingest(tmp_path, ["name", "n", "city"], rows)
    assert [len(list(table.iter_distinct(col))) for col in range(3)] == [256, 2, 100]
    assert retained / 60_000 < 2


def test_a_wide_character_retains_no_more_than_one_str_per_distinct_cell(tmp_path):
    """One character outside the Basic Multilingual Plane costs its own cell, not its column."""
    cells = [f"{r:050d}" for r in range(2_000)] + ["wide \U0001f600"]
    table, retained = retained_by_ingest(tmp_path, ["name"], [[cell] for cell in cells])
    assert list(table.iter_distinct(0)) == cells
    # each distinct cell as its own str, a list pointer to it and a 4-byte code per row
    one_str_per_cell = sum(sys.getsizeof(cell) + 8 + 4 for cell in cells)
    assert retained <= one_str_per_cell


def test_any_str_reads_back_as_it_was_stored():
    # ASCII, two- and three-byte UTF-8, a character outside the BMP and a lone surrogate
    cells = ["plain", "café", "中文", "\U0001f600", "\ud800 lone", "", "plain"]
    table = Table.from_rows("t", ["a", "b"], [[cell, "x"] for cell in cells])
    assert [table.row(r) for r in range(len(cells))] == [[cell, "x"] for cell in cells]
    assert list(table.iter_distinct(0)) == cells[:5]
    assert table.value_counts(0) == {"plain": 2, **dict.fromkeys(cells[1:5], 1)}
    assert table.value_counts(1) == {"x": 7}
