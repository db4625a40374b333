"""Small constructors of test inputs and ``run`` command lines that several test files share."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import taxoforge
from taxoforge.corpus import Table
from taxoforge.metrics import GroundTruth
from taxoforge.taxonomy import EntityType, Taxonomy

# the directory that holds the package: a child process's PYTHONPATH, so that the child
# imports the same package as the tests, installed or not
SRC_DIR = str(Path(taxoforge.__file__).resolve().parents[1])


def table_of(headers, columns, table_id="t"):
    """A table given column by column."""
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    return Table.from_rows(id=table_id, headers=headers, rows=rows)


def build_tax(types, edges, tables=None, synthetic=()):
    tax = Taxonomy()
    tables = tables or {}
    for t in types:
        tax.add_type(
            EntityType(id=t, name=t, tables=set(tables.get(t, ())), synthetic=t in synthetic)
        )
    for p, c in edges:
        tax.add_edge(p, c)
    return tax


def gt_from(types, edges, annotations):
    """annotations: table -> path list (root first)."""
    tables: dict[str, set[str]] = {t: set() for t in types}
    for table, path in annotations.items():
        tables[path[-1]].add(table)
    tax = build_tax(types, edges, tables=tables)
    per_table = {table: list(path) for table, path in annotations.items()}
    return GroundTruth(taxonomy=tax, per_table=per_table)


def emtt_args(planted_dir, out_dir, extra=()):
    """``run`` of emtt with local-hash on the planted fixture at seed 7; ``extra`` flags win."""
    return [
        "run",
        "--method", "emtt",
        "--embedder", "local-hash",
        "--tables-dir", str(planted_dir / "tables"),
        "--out-dir", str(out_dir),
        "--seed", "7",
        *extra,
    ]


def gett_args(gett_dir, out_dir, extra=(), script=None):
    """``run`` of gett on the scripted fixture, or on the chat script at ``script``; ``extra`` flags win."""
    return [
        "run",
        "--method", "gett",
        "--llm", "scripted",
        "--script-path", str(script or gett_dir / "script.json"),
        "--tables-dir", str(gett_dir / "tables"),
        "--out-dir", str(out_dir),
        *extra,
    ]


def record_size(key, dim):
    return 2 + len(key.encode()) + 8 + 4 * dim  # key length, key, dim, CRC, then float32 values


def pack_records(blob: bytes) -> list[tuple[int, str, int, int]]:
    """``(offset, key, offset of the values, dim)`` of each record of a vector pack."""
    records, pos = [], 0
    while pos < len(blob):
        values_at = pos + 2 + struct.unpack_from("<H", blob, pos)[0] + 8  # past the key, the dim and the CRC
        dim = struct.unpack_from("<I", blob, values_at - 8)[0]
        records.append((pos, blob[pos + 2 : values_at - 8].decode(), values_at, dim))
        pos = values_at + 4 * dim
    return records


def nan_fill(blob: bytearray, record: tuple[int, str, int, int]) -> None:
    """Overwrite the values of one record of ``pack_records`` with NaN, under a matching CRC."""
    offset, _, values_at, dim = record
    nan = b"\x00\x00\xc0\x7f" * dim  # float32 NaN, little-endian
    blob[values_at : values_at + len(nan)] = nan
    struct.pack_into("<I", blob, values_at - 4, zlib.crc32(nan, zlib.crc32(blob[offset : values_at - 4])))
