"""Table corpus ingestion.

A corpus is a directory of ``<id>.csv`` files (read by ``open_input``,
comma-delimited, RFC-4180 quoting). The first row of each file is the header
row; a file without one is an error. Data rows shorter than the header are
padded with empty strings, longer rows are rejected. No file is skipped.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, count, pairwise, zip_longest
from pathlib import Path

from .errors import EmptyCorpusError, MalformedTableError, open_input


def _packed(values: list[int], largest: int) -> bytes | array:
    """``values``, each in 0 .. ``largest``, at the narrowest width that holds them."""
    if largest < 256:
        return bytes(values)
    return array(next(t for t in "HIQ" if largest < 1 << 8 * array(t).itemsize), values)


@dataclass
class Table:
    """One ingested entity table, held as dictionary-encoded columns.

    Each column keeps its distinct cells once, ``""`` included, in
    first-occurrence order, and one code per row that indexes them. The
    distinct cells of all columns lie end to end, column after column, as
    UTF-8 in one ``bytes`` buffer, beside an array of where each one starts
    (then where the last one ends). Codes and offsets each take the narrowest
    width that fits: one byte up to 256 values, held as ``bytes`` (it reads
    like an ``array("B")`` in one object rather than two), else an ``array``
    of typecode ``H`` up to 65,536 values and ``I`` past that (``Q`` past
    2**32). Each column's codes take their own width. A read decodes only the
    cells it returns.

    The buffer is UTF-8, not a ``str``, because a ``str`` stores every
    character at the width of its widest: one character outside the Basic
    Multilingual Plane would take a table of ASCII text to 4 bytes per
    character, where UTF-8 spends 4 bytes on that character and 1 on each
    ASCII one. UTF-8's worst case is text of the Basic Multilingual Plane past
    U+07FF, CJK for one: 3 bytes per character, where a ``str`` takes 2.

    Build a table with ``from_rows``; read it through ``iter_distinct``,
    ``value_counts`` and ``row``.
    """

    id: str
    headers: list[str]
    n_rows: int
    _cells: bytes = field(repr=False)
    _offsets: bytes | array = field(repr=False)
    # the index of each column's first distinct cell among all of them, then their total
    _first: bytes | array = field(repr=False)
    _codes: list[bytes | array] = field(repr=False)

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
        values: list[str] = []
        first = [0]
        codes = []
        for column in columns:
            cells = list(map(str.strip, column))
            index = dict(zip(dict.fromkeys(cells), count()))
            codes.append(_packed(list(map(index.__getitem__, cells)), len(index) - 1))
            values += index
            first.append(len(values))
        # surrogatepass: a str, unlike a decoded file, may hold a lone surrogate
        encoded = [value.encode("utf-8", "surrogatepass") for value in values]
        buf = b"".join(encoded)
        return cls(
            id,
            headers,
            len(rows),
            buf,
            _packed(list(accumulate(map(len, encoded), initial=0)), len(buf)),
            _packed(first, len(values)),
            codes,
        )

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def _spans(self, col: int) -> Iterator[tuple[int, int]]:
        """Where each of column ``col``'s distinct cells, ``""`` included, starts and ends in the buffer."""
        if not 0 <= col < self.n_cols:
            raise IndexError(f"column {col} out of range for table {self.id!r}")
        return pairwise(self._offsets[self._first[col] : self._first[col + 1] + 1])

    def iter_distinct(self, col: int) -> Iterator[str]:
        """The non-empty cells of column ``col``, each once, in first-occurrence order.

        Each cell is built only when it is reached.
        """
        buf = self._cells
        return (buf[a:b].decode("utf-8", "surrogatepass") for a, b in self._spans(col) if a != b)

    def value_counts(self, col: int) -> dict[str, int]:
        """Non-empty cell -> number of rows holding it, in first-occurrence order."""
        buf, spans = self._cells, self._spans(col)
        # code k first occurs after codes 0 .. k-1, so the Counter lists them in code order
        counts = Counter(self._codes[col]).values()
        return {
            buf[a:b].decode("utf-8", "surrogatepass"): n for (a, b), n in zip(spans, counts) if a != b
        }

    def row(self, r: int) -> list[str]:
        """The cells of data row ``r`` (0-based), one per column."""
        if not 0 <= r < self.n_rows:
            raise IndexError(f"row {r} out of range for table {self.id!r}")
        buf, offsets = self._cells, self._offsets
        out = []
        for first, codes in zip(self._first, self._codes):
            i = first + codes[r]
            out.append(buf[offsets[i] : offsets[i + 1]].decode("utf-8", "surrogatepass"))
        return out


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


# str.splitlines ends a line at each of these too, where the csv module does not
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _csv_rows(text: str) -> list[list[str]]:
    """``csv.reader``'s rows of ``text``, split with ``str`` methods where that gives the same rows.

    That is where ``text`` holds no quote, no line break that only
    ``str.splitlines`` knows, and no line longer than the csv field limit, so
    an over-long field still gets the csv module's own error.
    """
    if '"' not in text and not any(c in text for c in _SPLITLINES_ONLY):
        lines = text.splitlines()
        if max(map(len, lines), default=0) <= csv.field_size_limit():
            return [line.split(",") if line else [] for line in lines]
    return list(csv.reader(io.StringIO(text, newline="")))


def _read_table(path: Path) -> Table:
    with open_input(path) as text:
        raw = _csv_rows(text)
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

