"""Small constructors of tables, taxonomies and ground truths that several test files share."""

from __future__ import annotations

from taxoforge.corpus import Table
from taxoforge.metrics import GroundTruth
from taxoforge.taxonomy import EntityType, Taxonomy


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
