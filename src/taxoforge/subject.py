"""Subject-column detection.

The subject column is the column naming the entity each row describes.
Detection scores each column on value uniqueness, textiness, and a small
left-position prior; the heuristic is deliberately transparent and can be
bypassed per table with an override file (``<table_id>,<col_index>`` lines).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .corpus import Corpus, Table
from .errors import NoCandidateError, open_input

POSITION_WEIGHT = 0.1

_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
# the one date form every supported Python's date.fromisoformat accepts
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def is_numeric_or_date(value: str) -> bool:
    """True for integers, decimals, and ``YYYY-MM-DD`` dates; everything else is text."""
    v = value.strip()
    # every number and every date starts with a sign, a point or a digit
    if not v or not (v[0] in "+-." or v[0].isdecimal()):
        return False
    if _DECIMAL_RE.match(v):
        return True
    if not _DATE_RE.fullmatch(v):
        return False
    try:
        date.fromisoformat(v)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class SubjectScore:
    col: int
    uniqueness: float
    text_ratio: float
    position_bonus: float

    @property
    def total(self) -> float:
        return self.uniqueness + self.text_ratio + self.position_bonus


def score_columns(table: Table) -> list[SubjectScore]:
    n_cols = table.n_cols
    scores = []
    for col in range(n_cols):
        counts = table.value_counts(col)
        total = sum(counts.values())
        if total:
            # each distinct value is classified once and weighted by its count
            uniqueness = len(counts) / total
            text_ratio = sum(n for v, n in counts.items() if not is_numeric_or_date(v)) / total
        else:
            uniqueness = 0.0
            text_ratio = 0.0
        bonus = POSITION_WEIGHT * (1.0 - col / n_cols)
        scores.append(SubjectScore(col, uniqueness, text_ratio, bonus))
    return scores


def detect_subject(table: Table) -> int | None:
    """Pick the subject column: argmax of total score, ties to the smallest column index.

    ``None`` when no column has a non-empty cell.
    """
    scores = score_columns(table)
    # a column's uniqueness is 0 exactly when it has no non-empty cell
    if all(s.uniqueness == 0 for s in scores):
        return None
    return max(scores, key=lambda s: (s.total, -s.col)).col


def load_overrides(path: str | Path, corpus: Corpus) -> dict[str, int]:
    """Parse a subject-column override file: lines of ``table_id,col_index``, one per table.

    Each line must name a table of ``corpus`` and one of its columns.
    """
    overrides: dict[str, int] = {}
    with open_input(path) as text:
        for line_no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            table_id, _, col = line.rpartition(",")
            table_id = table_id.strip()
            if not table_id:
                raise ValueError(f"override line {line_no}: expected 'table_id,col_index'")
            if table_id in overrides:
                raise ValueError(f"override line {line_no}: duplicate table id {table_id!r}")
            try:
                col_index = int(col)
            except ValueError as exc:
                raise ValueError(f"override line {line_no}: {exc}") from exc
            try:
                n_cols = corpus.get(table_id).n_cols
            except KeyError:
                raise ValueError(f"override line {line_no}: unknown table id {table_id!r}") from None
            if not 0 <= col_index < n_cols:
                raise ValueError(
                    f"override line {line_no}: column {col_index} out of range"
                    f" for {table_id!r} ({n_cols} columns)"
                )
            overrides[table_id] = col_index
    return overrides


def assign_subjects(corpus: Corpus, overrides: dict[str, int] | None = None) -> dict[str, int]:
    """Table id -> subject column, from ``overrides`` where given, else detected."""
    overrides = overrides or {}
    subjects: dict[str, int] = {}
    for table in corpus.tables:
        col = overrides.get(table.id)
        if col is None:
            col = detect_subject(table)
            if col is None:
                raise NoCandidateError(f"{Path(corpus.source_dir) / table.id}.csv: no non-empty cell")
        elif not 0 <= col < table.n_cols:
            raise ValueError(f"override for {table.id!r} out of range: {col} (ncols={table.n_cols})")
        subjects[table.id] = col
    return subjects
