"""Evaluation against annotated ground truth.

Top-level assignments are scored as a clustering (Rand Index over table
pairs, mean per-type Purity); whole taxonomies are scored with the tree
consistency score: each output type is matched to the ground-truth type
most frequently annotated (as most-specific) on its associated tables,
and its consistency is the fraction of its output ancestors whose matches
are ancestors of its own match in the ground truth. Types without
hierarchy above them score 1 by convention. A metric with nothing to
average over is undefined and returned as ``None``.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .errors import open_input
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

PATH_SEPARATOR = ">"
ANNOTATION_HEADER = ("table_id", "top_level", "path")


@dataclass
class GroundTruth:
    """GT taxonomy plus each table's annotation path, top-level type first; type names are unique."""

    taxonomy: Taxonomy
    per_table: dict[str, list[str]]
    ids_by_name: dict[str, str] = field(init=False, repr=False)

    def __post_init__(self):
        self.ids_by_name = {}
        for et in self.taxonomy.types.values():
            if et.name in self.ids_by_name:
                raise ValueError(f"ground-truth type name {et.name!r} is not unique")
            self.ids_by_name[et.name] = et.id

    def top_level_of(self, table_id: str) -> str:
        return self.per_table[table_id][0]

    def most_specific_of(self, table_id: str) -> str:
        return self.per_table[table_id][-1]

    def ancestor_names(self, name: str) -> set[str]:
        type_id = self.ids_by_name[name]
        return {self.taxonomy.types[a].name for a in self.taxonomy.ancestors(type_id)}


def _annotation_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row of ``text`` with the file line it ends on; a row the csv
    module rejects, such as one with a field over its size limit, is a
    ValueError naming the line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"annotation line {reader.line_num}: {exc}") from exc


def load_ground_truth(taxonomy_path: str | Path, annotations_path: str | Path) -> GroundTruth:
    """Load the GT taxonomy JSON and the ``table_id,top_level,path`` CSV.

    Every annotation path must be a root-to-node path in the GT taxonomy,
    starting at its declared top-level type, and each table is annotated once.
    """
    tax = Taxonomy.load(taxonomy_path)
    gt = GroundTruth(taxonomy=tax, per_table={})
    names = gt.ids_by_name
    roots = set(tax.roots)
    with open_input(annotations_path) as text:
        for row_no, row in _annotation_rows(text):
            if not row or not any(c.strip() for c in row):
                continue
            if tuple(c.strip() for c in row) == ANNOTATION_HEADER:
                continue
            if len(row) != 3:
                raise ValueError(f"annotation line {row_no}: expected 3 fields, got {len(row)}")
            table_id, top_level, path_text = (c.strip() for c in row)
            if table_id in gt.per_table:
                raise ValueError(f"annotation line {row_no}: duplicate table id {table_id!r}")
            path = [p.strip() for p in path_text.split(PATH_SEPARATOR) if p.strip()]
            if not path or path[0] != top_level:
                raise ValueError(f"annotation line {row_no}: path must start at the top-level type")
            for name in path:
                if name not in names:
                    raise ValueError(f"annotation line {row_no}: unknown type {name!r}")
            if names[path[0]] not in roots:
                raise ValueError(f"annotation line {row_no}: {path[0]!r} is not a GT root")
            for parent, child in zip(path, path[1:]):
                if names[child] not in tax.children(names[parent]):
                    raise ValueError(
                        f"annotation line {row_no}: {parent!r} -> {child!r} is not a GT edge"
                    )
            gt.per_table[table_id] = path
        if not gt.per_table:
            raise ValueError("no annotations")
    return gt


def _pairs(counts: Counter) -> int:
    """Pairs of items that share a key, over every key of ``counts``."""
    return sum(c * (c - 1) // 2 for c in counts.values())


def _mean(values: Collection[float]) -> float | None:
    """Arithmetic mean, or ``None`` when there is nothing to average."""
    return sum(values) / len(values) if values else None


def rand_index(out_assign: dict[str, str], gt: GroundTruth) -> float | None:
    """Share of table pairs both sides put together or both put apart.

    Counts only tables present on both sides; ``None`` below 2 tables.
    """
    shared = sorted(set(out_assign) & set(gt.per_table))
    if len(shared) < 2:
        return None
    out_labels = [out_assign[t] for t in shared]
    gt_labels = [gt.top_level_of(t) for t in shared]
    # agreeing pairs: all pairs minus those that only one side puts together
    both = _pairs(Counter(zip(out_labels, gt_labels)))
    only_out = _pairs(Counter(out_labels)) - both
    only_gt = _pairs(Counter(gt_labels)) - both
    total = len(shared) * (len(shared) - 1) // 2
    return (total - only_out - only_gt) / total


def _majority(names: list[str]) -> str:
    """Most frequent name; ties go to the lexicographically smallest."""
    counts = Counter(names)
    return min(counts, key=lambda name: (-counts[name], name))


def purity(tables_by_type: dict[str, set[str]], gt: GroundTruth) -> float | None:
    """Unweighted mean, over types, of the majority GT-top-level fraction.

    ``None`` when no type has a GT-covered table.
    """
    scores = []
    for type_id in sorted(tables_by_type):
        tops = [gt.top_level_of(t) for t in tables_by_type[type_id] if t in gt.per_table]
        if not tops:
            logger.info("purity skips type %s: no GT-covered tables", type_id)
            continue
        majority = _majority(tops)
        scores.append(tops.count(majority) / len(tops))
    return _mean(scores)


def match_types(out: Taxonomy, gt: GroundTruth) -> dict[str, str]:
    """m(t): most frequent most-specific annotation over t's associated tables."""
    mapping: dict[str, str] = {}
    for type_id in out.types:
        annotated = [
            gt.most_specific_of(t)
            for t in out.associated_tables(type_id)
            if t in gt.per_table
        ]
        if annotated:
            mapping[type_id] = _majority(annotated)
    return mapping


def per_type_consistency(
    out: Taxonomy, gt: GroundTruth, matching: dict[str, str]
) -> dict[str, float]:
    """Type consistency of every matched, non-synthetic output type t, in id order.

    It is the fraction of t's non-synthetic output ancestors whose match is
    a GT ancestor of m(t). Roots (no non-synthetic ancestors) score 1;
    unmatched ancestors count in the denominator but never the numerator.
    """
    scores: dict[str, float] = {}
    for t in sorted(out.types):
        if out.types[t].synthetic or t not in matching:
            continue
        ancestors = [a for a in out.ancestors(t) if not out.types[a].synthetic]
        if not ancestors:
            scores[t] = 1.0
            continue
        gt_ancestors = gt.ancestor_names(matching[t])
        hits = sum(1 for a in ancestors if matching.get(a) in gt_ancestors)
        scores[t] = hits / len(ancestors)
    return scores


def report(out: Taxonomy, gt: GroundTruth) -> dict:
    """All metrics plus the matching table and exclusions, as a JSON-ready dict.

    TCS is the mean of ``per_type_consistency`` over the matched types.

    Metrics that are undefined for the given inputs (too few shared tables,
    nothing matched) are ``None``, which JSON writes as null.
    """
    matching = match_types(out, gt)
    assignment = out.top_level_assignment()
    # the tables only one side holds, which rand_index leaves out
    excluded = sorted(set(assignment) ^ set(gt.per_table))
    if excluded:
        logger.info("rand_index excludes %d tables absent from one side", len(excluded))
    per_type = per_type_consistency(out, gt, matching)
    type_count, depth = out.stats()
    gt_count, gt_depth = gt.taxonomy.stats()
    unmatched = sorted(
        t for t in out.types if t not in matching and not out.types[t].synthetic
    )
    return {
        "rand_index": rand_index(assignment, gt),
        "purity": purity(out.top_level_tables(), gt),
        "tcs": _mean(per_type.values()),
        "type_count": type_count,
        "depth": depth,
        "gt_type_count": gt_count,
        "gt_depth": gt_depth,
        "matching": matching,
        "per_type_consistency": per_type,
        "excluded_tables": excluded,
        "unmatched_types": unmatched,
    }
