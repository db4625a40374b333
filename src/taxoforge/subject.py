"""Subject-column detection.

The subject column is the column naming the entity each row describes.
Detection scores each column on value uniqueness, textiness, and a small
left-position prior; the heuristic is deliberately transparent and can be
bypassed per table with an override file (``<table_id>,<col_index>`` lines).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .corpus import Corpus, Table
from .errors import NoCandidateError

logger = logging.getLogger(__name__)

POSITION_WEIGHT = 0.1

_INT_RE = re.compile(r"^[+-]?\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


def is_numeric_or_date(value: str) -> bool:
    """True for integers, decimals, and ISO-8601 dates; everything else is text."""
    v = value.strip()
    # both patterns and every ISO-8601 date start with a sign, a point or a digit
    if not v or not (v[0] in "+-." or v[0].isdecimal()):
        return False
    if _INT_RE.match(v) or _DECIMAL_RE.match(v):
        return True
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
        values = [v for v in table.column(col) if v != ""]
        if values:
            uniqueness = len(set(values)) / len(values)
            text_ratio = sum(1 for v in values if not is_numeric_or_date(v)) / len(values)
        else:
            uniqueness = 0.0
            text_ratio = 0.0
        bonus = POSITION_WEIGHT * (1.0 - col / n_cols)
        scores.append(SubjectScore(col, uniqueness, text_ratio, bonus))
    return scores


def detect_subject(table: Table) -> int:
    """Pick the subject column and store it on the table.

    Argmax of total score; ties go to the smallest column index.
    """
    if table.n_cols < 1 or table.n_rows < 1:
        raise NoCandidateError(f"table {table.id!r} has no scoreable cells")
    if all(all(v == "" for v in table.column(c)) for c in range(table.n_cols)):
        raise NoCandidateError(f"table {table.id!r} is entirely empty")
    scores = score_columns(table)
    best = max(scores, key=lambda s: (s.total, -s.col))
    table.subject_col = best.col
    return best.col


def load_overrides(path: str | Path) -> dict[str, int]:
    """Parse a subject-column override file: lines of ``table_id,col_index``, one per table."""
    overrides: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
            overrides[table_id] = int(col)
        except ValueError as exc:
            raise ValueError(f"override line {line_no}: {exc}") from exc
    return overrides


def assign_subjects(corpus: Corpus, overrides: dict[str, int] | None = None) -> None:
    """Detect (or override) the subject column of every table in the corpus."""
    overrides = overrides or {}
    for table in corpus.tables:
        if table.id in overrides:
            col = overrides[table.id]
            if not 0 <= col < table.n_cols:
                raise ValueError(
                    f"override for {table.id!r} out of range: {col} (ncols={table.n_cols})"
                )
            table.subject_col = col
        else:
            detect_subject(table)
