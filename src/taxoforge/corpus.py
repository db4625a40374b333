"""Table corpus ingestion and shared row/cell utilities.

A corpus is a directory of ``<id>.csv`` files (UTF-8, comma-delimited,
RFC-4180 quoting). The first row of each file is taken as the header row;
data rows shorter than the header are padded with empty strings, longer
rows are rejected.
"""

from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyCorpusError, MalformedTableError

logger = logging.getLogger(__name__)


@dataclass
class Table:
    """One ingested entity table.

    ``subject_col`` starts as None and is filled by subject-column
    detection (or an override file) before the embedding pipeline runs.
    """

    id: str
    headers: list[str]
    rows: list[list[str]]
    subject_col: int | None = None

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


def _read_table(path: Path) -> Table | None:
    table_id = path.stem
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            raw = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        logger.warning("skipping unreadable file %s: %s", path, exc)
        return None
    if not raw or not any(cell.strip() for cell in raw[0]):
        logger.warning("skipping %s: no header row", path)
        return None
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
    tables = []
    for path in sorted(base.glob("*.csv")):
        table = _read_table(path)
        if table is not None:
            tables.append(table)
    if not tables:
        raise EmptyCorpusError(f"no parseable .csv files in {base}")
    return Corpus(tables=tables, source_dir=str(base))


def sample_rows(table: Table, n: int, seed: int) -> list[list[str]]:
    """Sample ``min(n, n_rows)`` distinct rows uniformly without replacement.

    Uses an explicit partial Fisher-Yates shuffle driven only by
    ``random.Random.random()`` so the sampled order is reproducible across
    Python versions (only ``random()`` itself carries that guarantee).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = table.n_rows
    if total == 0:
        return []
    take = min(n, total)
    rng = random.Random(seed)
    indices = list(range(total))
    for i in range(take):
        j = i + int(rng.random() * (total - i))
        indices[i], indices[j] = indices[j], indices[i]
    return [table.rows[i] for i in indices[:take]]


def tokenize_cell(cell: str) -> list[str]:
    """Whitespace tokens of a cell (Unicode whitespace, empties dropped)."""
    return cell.split()


def truncate_cell(cell: str, limit: int) -> str:
    """Cap a cell at ``limit`` whitespace tokens, appending "..." when cut.

    Cells within the limit are returned unchanged (original spacing kept);
    truncated cells are rejoined with single spaces.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    tokens = tokenize_cell(cell)
    if len(tokens) <= limit:
        return cell
    return " ".join(tokens[:limit]) + "..."
