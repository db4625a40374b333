"""Table corpus ingestion.

A corpus is a directory of ``<id>.csv`` files (read by ``open_input``,
comma-delimited, RFC-4180 quoting). The first row of each file is the header
row; a file without one is an error. Data rows shorter than the header are
padded with empty strings, longer rows are rejected. No file is skipped.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count, zip_longest
from pathlib import Path

from .errors import EmptyCorpusError, MalformedTableError, open_input


@dataclass
class Table:
    """One ingested entity table, held as dictionary-encoded columns.

    Each column keeps its distinct cells once, ``""`` included, in
    first-occurrence order, and one code per row that indexes them; the codes
    of all columns share one array, column after column. Build a table with
    ``from_rows``; read it through ``distinct``, ``value_counts`` and ``row``.
    """

    id: str
    headers: list[str]
    n_rows: int
    _values: list[list[str]] = field(repr=False)
    _codes: array = field(repr=False)

    @classmethod
    def from_rows(cls, id: str, headers: list[str], rows: Sequence[Sequence[str]]) -> Table:
        """Encode ``rows`` under ``headers``: cells are stripped and short rows padded with ``""``.

        A row longer than the header row raises ``MalformedTableError``
        naming its 1-based data row.
        """
        width = len(headers)
        # zip_longest pads short rows; an extra column means some row is too long
        columns = list(zip_longest(*rows, fillvalue=""))
        if len(columns) > width:
            i, row = next((i, row) for i, row in enumerate(rows, 1) if len(row) > width)
            raise MalformedTableError(id, i, len(row), width)
        columns += [("",) * len(rows)] * (width - len(columns))
        values, codes = [], array("I")
        for column in columns:
            cells = list(map(str.strip, column))
            index = dict(zip(dict.fromkeys(cells), count()))
            values.append(list(index))
            codes.extend(map(index.__getitem__, cells))
        return cls(id, headers, len(rows), values, codes)

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def _column_values(self, col: int) -> list[str]:
        """Column ``col``'s distinct cells, ``""`` included; ``IndexError`` out of range."""
        if not 0 <= col < self.n_cols:
            raise IndexError(f"column {col} out of range for table {self.id!r}")
        return self._values[col]

    def distinct(self, col: int) -> list[str]:
        """The non-empty cells of column ``col``, each once, in first-occurrence order."""
        return [value for value in self._column_values(col) if value]

    def value_counts(self, col: int) -> dict[str, int]:
        """Non-empty cell -> number of rows holding it, in first-occurrence order."""
        values = self._column_values(col)
        counts = [0] * len(values)
        for code in self._codes[col * self.n_rows:(col + 1) * self.n_rows]:
            counts[code] += 1
        return {value: n for value, n in zip(values, counts) if value}

    def row(self, r: int) -> list[str]:
        """The cells of data row ``r`` (0-based), one per column."""
        if not 0 <= r < self.n_rows:
            raise IndexError(f"row {r} out of range for table {self.id!r}")
        # row r's codes sit n_rows apart, one per column
        return [values[code] for values, code in zip(self._values, self._codes[r::self.n_rows])]


@dataclass
class Corpus:
    """Id-sorted table collection; downstream behaviour never depends on
    the order tables were supplied or enumerated on disk."""

    tables: list[Table] = field(default_factory=list)
    source_dir: str = ""
    _by_id: dict[str, Table] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tables = sorted(self.tables, key=lambda t: t.id)
        self._by_id = {t.id: t for t in self.tables}
        if len(self._by_id) != len(self.tables):
            raise ValueError("duplicate table ids in corpus")

    def __len__(self) -> int:
        return len(self.tables)

    def get(self, table_id: str) -> Table:
        return self._by_id[table_id]

    @property
    def total_columns(self) -> int:
        return sum(t.n_cols for t in self.tables)


def _dedupe_headers(headers: list[str]) -> list[str]:
    """Make every header unique, keeping as many of them as can be kept.

    A header keeps its text unless an earlier column took it. A repeat gets
    the smallest ``_k`` suffix, k >= 2, that is neither another header of
    the table nor taken.
    """
    reserved = set(headers)
    taken: set[str] = set()
    next_k: dict[str, int] = {}  # no smaller suffix of a header is free: taken only grows
    out = []
    for h in headers:
        name = h
        if name in taken:
            k = next_k.get(h, 2)
            while (name := f"{h}_{k}") in reserved or name in taken:
                k += 1
            next_k[h] = k + 1
        taken.add(name)
        out.append(name)
    return out


def _read_table(path: Path) -> Table:
    with open_input(path) as fh:
        raw = list(csv.reader(fh))
        if not raw or not any(cell.strip() for cell in raw[0]):
            raise ValueError("no header row")
    headers = _dedupe_headers([h.strip() for h in raw[0]])
    # csv.reader yields [] for a blank line; a "," line is a real row of empty cells
    return Table.from_rows(path.stem, headers, [row for row in raw[1:] if row])


def ingest(dir_path: str | Path) -> Corpus:
    """Ingest every ``*.csv`` file under ``dir_path`` into a Corpus.

    Tables are ordered by id so downstream behaviour is independent of
    filesystem enumeration order.
    """
    base = Path(dir_path)
    if not base.is_dir():
        raise EmptyCorpusError(f"not a directory: {base}")
    tables = [_read_table(path) for path in sorted(base.glob("*.csv"))]
    if not tables:
        raise EmptyCorpusError(f"no parseable .csv files in {base}")
    return Corpus(tables=tables, source_dir=str(base))

