"""Table corpus ingestion.

A corpus is a directory of ``<id>.csv`` files (read by ``open_input``,
comma-delimited, RFC-4180 quoting). The first row of each file is the header
row; a file without one is an error. Data rows shorter than the header are
padded with empty strings, longer rows are rejected. No file is skipped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyCorpusError, MalformedTableError, open_input


@dataclass
class Table:
    """One ingested entity table."""

    id: str
    headers: list[str]
    rows: list[list[str]]

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, col: int) -> list[str]:
        """Cell values of one column, top to bottom."""
        return [row[col] for row in self.rows]


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
    # duplicate headers get "_2", "_3", ... suffixes in occurrence order
    seen: dict[str, int] = {}
    out = []
    for h in headers:
        count = seen.get(h, 0) + 1
        seen[h] = count
        out.append(h if count == 1 else f"{h}_{count}")
    return out


def _read_table(path: Path) -> Table:
    table_id = path.stem
    with open_input(path) as fh:
        raw = list(csv.reader(fh))
        if not raw or not any(cell.strip() for cell in raw[0]):
            raise ValueError("no header row")
    headers = _dedupe_headers([h.strip() for h in raw[0]])
    width = len(headers)
    rows: list[list[str]] = []
    for i, raw_row in enumerate(raw[1:], start=1):
        if len(raw_row) > width:
            raise MalformedTableError(table_id, i, len(raw_row), width)
        cells = [c.strip() for c in raw_row]
        cells += [""] * (width - len(cells))
        rows.append(cells)
    return Table(id=table_id, headers=headers, rows=rows)


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

