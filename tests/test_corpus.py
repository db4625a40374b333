from __future__ import annotations

import csv
import io
import re
from collections import Counter
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from taxoforge import corpus
from taxoforge.corpus import Table, _csv_rows, _dedupe_headers, ingest
from taxoforge.errors import EmptyCorpusError, MalformedTableError
from taxoforge.gett import CELL_TOKEN_LIMIT, ROW_SAMPLE, sample_rows, truncate_cell


def write_csv(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_ingest_counts_and_order(tmp_path):
    write_csv(tmp_path / "b.csv", [["x", "y"], ["1", "2"]])
    write_csv(tmp_path / "a.csv", [["x"], ["1"]])
    write_csv(tmp_path / "c.csv", [["x"], []])
    corpus = ingest(tmp_path)
    assert len(corpus) == 3
    assert [t.id for t in corpus.tables] == ["a", "b", "c"]


def test_ingest_trims_and_pads(tmp_path):
    write_csv(tmp_path / "t.csv", [[" name ", "city"], [" Acme ", "Paris"], ["Solo"]])
    table = ingest(tmp_path).get("t")
    assert table.headers == ["name", "city"]
    assert table.n_rows == 2
    assert [table.row(r) for r in range(2)] == [["Acme", "Paris"], ["Solo", ""]]


def test_ingest_strips_byte_order_mark(tmp_path):
    # spreadsheet exports often start with a UTF-8 BOM; it is not part of the first header
    (tmp_path / "t.csv").write_bytes("\ufeffname,age\nAda,36\n".encode("utf-8"))
    table = ingest(tmp_path).get("t")
    assert table.headers == ["name", "age"]
    assert table.n_rows == 1
    assert table.row(0) == ["Ada", "36"]


def test_ingest_dedupes_headers(tmp_path):
    write_csv(tmp_path / "t.csv", [["name", "name", "name"], ["a", "b", "c"]])
    table = ingest(tmp_path).get("t")
    assert table.headers == ["name", "name_2", "name_3"]


@pytest.mark.parametrize(
    "headers, expected",
    [
        (["name", "name_2", "name"], ["name", "name_2", "name_3"]),
        (["name", "name", "name_2"], ["name", "name_3", "name_2"]),
        (["", "_2", ""], ["", "_2", "_3"]),
    ],
)
def test_ingest_renames_a_repeat_past_every_header(tmp_path, headers, expected):
    write_csv(tmp_path / "t.csv", [headers, ["a", "b", "c"]])
    assert ingest(tmp_path).get("t").headers == expected


@given(st.lists(st.sampled_from(["a", "a", "a_2", "a_3", "a_2_2", "b", ""]), max_size=8))
def test_dedupe_headers_keeps_what_it_can_and_takes_the_smallest_free_suffix(headers):
    out = _dedupe_headers(headers)
    assert len(set(out)) == len(out) == len(headers)
    for i, (header, name) in enumerate(zip(headers, out)):
        if header not in out[:i]:
            assert name == header
        else:
            suffixed = (f"{header}_{k}" for k in count(2))
            assert name == next(s for s in suffixed if s not in headers and s not in out[:i])


def test_ingest_rejects_long_rows(tmp_path):
    write_csv(tmp_path / "t.csv", [["a", "b"], ["1", "2", "3"]])
    with pytest.raises(MalformedTableError):
        ingest(tmp_path)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"name,city\ncaf\xe9,Paris\n", "'utf-8' codec can't decode byte 0xe9"),
        (b"", "no header row"),
        (b" , \nAda,36\n", "no header row"),
        # one field past the csv module's default limit of 131072 characters
        (b"name\n" + b"x" * 131073 + b"\n", "field larger than field limit (131072)"),
    ],
    ids=["latin-1", "zero-byte", "blank-header", "field-too-large"],
)
def test_ingest_names_a_bad_table_file_and_skips_none(tmp_path, content, message):
    write_csv(tmp_path / "a.csv", [["x"], ["1"]])
    (tmp_path / "t.csv").write_bytes(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 't.csv'))}: {re.escape(message)}"):
        ingest(tmp_path)


def test_ingest_empty_dir(tmp_path):
    with pytest.raises(EmptyCorpusError):
        ingest(tmp_path)
    with pytest.raises(EmptyCorpusError):
        ingest(tmp_path / "missing")


def test_ingest_idempotent(tmp_path):
    write_csv(tmp_path / "t.csv", [["a", "b"], ["1", "2"], ["3", "4"]])
    first = ingest(tmp_path)
    second = ingest(tmp_path)
    assert first.tables == second.tables


def test_row_width_invariant(tmp_path):
    write_csv(tmp_path / "t.csv", [["a", "b", "c"], ["1"], ["1", "2"], ["1", "2", "3"]])
    table = ingest(tmp_path).get("t")
    assert table.n_rows == 3
    assert all(len(table.row(r)) == table.n_cols for r in range(table.n_rows))


# --- reading a table's text: split directly where that gives the csv module's rows --

def rows_or_error(read, text):
    """``read(text)``, or the message of the ``csv.Error`` it raises."""
    try:
        return read(text)
    except csv.Error as exc:
        return f"csv.Error: {exc}"


def csv_module(text):
    return list(csv.reader(io.StringIO(text, newline="")))


# the line breaks of csv and of str.splitlines, quotes, and cells that strip or do not
PIECES = ["a", "b", "é", " ", "\t", ",", '"', "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
          "\x1e", "\x85", "\u2028", "\u2029", "\xa0"]


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(
    st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
    st.one_of(st.integers(min_value=1, max_value=6), st.just(csv.field_size_limit())),
)
def test_csv_rows_equal_the_csv_module(text, limit):
    """Rows, or the ``csv.Error`` message, equal ``csv.reader``'s, under the default field
    limit and under small ones."""
    old = csv.field_size_limit(limit)
    try:
        assert rows_or_error(_csv_rows, text) == rows_or_error(csv_module, text)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("cells", [1, 2], ids=["one field", "two fields"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_rows_at_the_field_limit(cells, extra):
    """A line of the field limit −1, +0 and +1 characters, as one field or as two."""
    size = csv.field_size_limit() + extra
    line = "x" * size if cells == 1 else "x" * (size - 2) + ",y"
    text = f"name\n{line}\n"
    assert rows_or_error(_csv_rows, text) == rows_or_error(csv_module, text)


def test_quote_free_tables_do_not_go_through_the_csv_module(planted_dir, tmp_path, monkeypatch):
    """The planted tables are split directly; a quoted cell holding a comma and a CRLF still
    reads through csv, as one cell."""
    (tmp_path / "t.csv").write_bytes(b'name,note\r\nAda,"a,b\r\nc"\r\n')
    assert ingest(tmp_path).get("t").row(0) == ["Ada", "a,b\r\nc"]

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(corpus.csv, "reader", refuse)
    assert len(ingest(planted_dir / "tables")) == len(list((planted_dir / "tables").glob("*.csv")))
    with pytest.raises(AssertionError, match="csv.reader called"):
        ingest(tmp_path)


# --- gett's table block: the row sampler and the cell cap --------------------------


def make_rows(n):
    return [[str(i)] for i in range(n)]


def test_sample_rows_fewer_than_n():
    table = Table.from_rows(id="t", headers=["a"], rows=make_rows(3))
    sampled = sample_rows(table, seed=1)
    assert sorted(sampled) == make_rows(3)


def test_sample_rows_deterministic():
    table = Table.from_rows(id="t", headers=["a"], rows=make_rows(50))
    assert sample_rows(table, seed=9) == sample_rows(table, seed=9)
    assert sample_rows(table, seed=9) != sample_rows(table, seed=10)


def test_sample_rows_empty_table():
    table = Table.from_rows(id="t", headers=["a"], rows=[])
    assert sample_rows(table, seed=1) == []


def test_sample_rows_distinct():
    assert ROW_SAMPLE == 5
    table = Table.from_rows(id="t", headers=["a"], rows=make_rows(10))
    sampled = sample_rows(table, seed=3)
    assert len({tuple(r) for r in sampled}) == 5


def test_sample_rows_uniform_chi_square():
    # 10k seeded draws of 5 from 100 rows: each row expected 500 times
    table = Table.from_rows(id="t", headers=["a"], rows=make_rows(100))
    counts = Counter()
    for seed in range(10_000):
        for row in sample_rows(table, seed=seed):
            counts[row[0]] += 1
    observed = [counts[str(i)] for i in range(100)]
    _, p_value = scipy_stats.chisquare(observed)
    assert p_value > 1e-4


def test_truncate_cell_short_unchanged():
    cell = " ".join(["tok"] * 50)
    assert truncate_cell(cell) == cell


def test_truncate_cell_long():
    assert CELL_TOKEN_LIMIT == 50
    cell = " ".join(f"w{i}" for i in range(120))
    out = truncate_cell(cell)
    assert out.endswith("...")
    assert out[:-3].split() == [f"w{i}" for i in range(50)]


def test_truncate_cell_rejoins_whitespace():
    cell = "  ".join(["a\tb"] * 26)  # 52 tokens, two kinds of gap
    assert truncate_cell(cell) == " ".join(["a", "b"] * 25) + "..."


# 30 to 80 whitespace-free words, so that cells over the 50-token cap are drawn
LONG_CELLS = st.builds(
    str.join,
    st.sampled_from([" ", "  ", "\t"]),
    st.lists(
        st.text(st.characters(blacklist_categories=("Z", "Cc")), min_size=1, max_size=3),
        min_size=30,
        max_size=80,
    ),
)


@given(st.one_of(st.text(max_size=200), LONG_CELLS))
def test_truncate_cell_token_bound(cell):
    out = truncate_cell(cell)
    tokens = cell.split()
    if len(tokens) > 50:
        assert out == " ".join(tokens[:50]) + "..."
    else:
        assert out == cell
