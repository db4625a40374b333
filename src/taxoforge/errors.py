"""Exception types shared across the pipeline modules, and the one opener of input files."""

from __future__ import annotations

import csv
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


class TaxoforgeError(Exception):
    """Base class for all taxoforge errors."""


# --- corpus ---------------------------------------------------------------

class EmptyCorpusError(TaxoforgeError):
    """A directory yielded no parseable tables."""


class MalformedTableError(TaxoforgeError):
    """A data row is longer than the header row."""

    def __init__(self, table_id: str, row_index: int, row_len: int, header_len: int):
        super().__init__(
            f"table {table_id!r}: row {row_index} has {row_len} cells, "
            f"header has {header_len}"
        )


# --- subject column -------------------------------------------------------

class NoCandidateError(TaxoforgeError):
    """No column has any non-empty cell to score."""


# --- embedding ------------------------------------------------------------

class DimensionMismatchError(TaxoforgeError):
    """Vectors of different dimensions where one dimension was expected."""


# --- taxonomy -------------------------------------------------------------

class CycleError(TaxoforgeError):
    """Adding an edge would create a directed cycle."""

    def __init__(self, parent: str, child: str):
        super().__init__(f"edge {parent!r} -> {child!r} would create a cycle")


class UnknownTypeError(TaxoforgeError):
    """A type id is not present in the taxonomy."""


# --- remote backends ------------------------------------------------------

class BackendError(TaxoforgeError):
    """A remote embedding or chat backend failed: transport, HTTP status or response shape."""

    def __init__(self, message: str, status: int | None = None, body: str = ""):
        self.status = status
        self.body = body
        super().__init__(f"{message}: {body[:200]}" if body else message)


# --- gett -----------------------------------------------------------------

class GenerationFailedError(TaxoforgeError):
    """A table's type generation failed even after the repair prompt."""

    def __init__(self, table_id: str):
        super().__init__(f"type generation failed for table {table_id!r}")


class LayerParseError(TaxoforgeError):
    """A layering iteration produced no parseable edges twice in a row."""

    def __init__(self, iteration: int):
        super().__init__(f"no parseable edges in iteration {iteration} (after retry)")


class PipelineAbortedError(TaxoforgeError):
    """More than half of the tables failed type generation."""


# --- input files ----------------------------------------------------------

@contextmanager
def open_input(path: str | Path) -> Iterator[str]:
    """Read an input file whole and yield its text: UTF-8, a leading byte-order mark dropped.

    Line breaks are kept as the file has them. A file holding a NUL byte is
    refused, on every Python version (the csv module stopped refusing one in
    3.11). A ``ValueError`` (undecodable bytes included), ``csv.Error`` or
    ``RecursionError`` raised while it is open becomes one ``ValueError`` that
    starts with the path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if b"\0" in data:
            raise ValueError("line contains NUL")
        text = data.decode("utf-8-sig")
        del data  # only the text is held while the caller reads it
        yield text
    except (ValueError, csv.Error, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
