"""Evaluation against annotated ground truth.

Top-level assignments are scored as a clustering (Rand Index over table
pairs, mean per-type Purity); whole taxonomies are scored with the tree
consistency score: each output type is matched to the ground-truth type
most frequently annotated (as most-specific) on its associated tables,
and its consistency is the fraction of its output ancestors whose matches
are ancestors of its own match in the ground truth. Types without
hierarchy above them score 1 by convention.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    InsufficientTablesError,
    NoMatchedTypesError,
    NoTypesError,
)
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

PATH_SEPARATOR = ">"
ANNOTATION_HEADER = ("table_id", "top_level", "path")


@dataclass
class GroundTruth:
    """GT taxonomy plus per-table annotations; type names must be unique."""

    taxonomy: Taxonomy
    per_table: dict[str, tuple[str, list[str]]]
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
        return self.per_table[table_id][1][-1]

    def ancestor_names(self, name: str) -> set[str]:
        type_id = self.ids_by_name[name]
        return {self.taxonomy.types[a].name for a in self.taxonomy.ancestors(type_id)}


def load_ground_truth(taxonomy_path: str | Path, annotations_path: str | Path) -> GroundTruth:
    """Load the GT taxonomy JSON and the ``table_id,top_level,path`` CSV.

    Every annotation path must be a root-to-node path in the GT taxonomy,
    starting at its declared top-level type.
    """
    tax = Taxonomy.load(taxonomy_path)
    gt = GroundTruth(taxonomy=tax, per_table={})
    names = gt.ids_by_name
    with Path(annotations_path).open(newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.reader(fh), 1):
            if not row or not any(c.strip() for c in row):
                continue
            if tuple(c.strip() for c in row) == ANNOTATION_HEADER:
                continue
            if len(row) != 3:
                raise ValueError(f"annotation line {row_no}: expected 3 fields, got {len(row)}")
            table_id, top_level, path_text = (c.strip() for c in row)
            path = [p.strip() for p in path_text.split(PATH_SEPARATOR) if p.strip()]
            if not path or path[0] != top_level:
                raise ValueError(f"annotation line {row_no}: path must start at the top-level type")
            for name in path:
                if name not in names:
                    raise ValueError(f"annotation line {row_no}: unknown type {name!r}")
            if names[path[0]] not in tax.roots:
                raise ValueError(f"annotation line {row_no}: {path[0]!r} is not a GT root")
            for parent, child in zip(path, path[1:]):
                if names[child] not in tax.children(names[parent]):
                    raise ValueError(
                        f"annotation line {row_no}: {parent!r} -> {child!r} is not a GT edge"
                    )
            gt.per_table[table_id] = (top_level, path)
    if not gt.per_table:
        raise ValueError(f"no annotations in {annotations_path}")
    return gt


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion_counts(out_labels: list, gt_labels: list) -> ConfusionCounts:
    """Pair counts via contingency sums (equivalent to all-pairs enumeration)."""
    n = len(out_labels)
    pair_counter = Counter(zip(out_labels, gt_labels))
    out_counter = Counter(out_labels)
    gt_counter = Counter(gt_labels)
    tp = sum(c * (c - 1) // 2 for c in pair_counter.values())
    same_out = sum(c * (c - 1) // 2 for c in out_counter.values())
    same_gt = sum(c * (c - 1) // 2 for c in gt_counter.values())
    total = n * (n - 1) // 2
    fp = same_out - tp
    fn = same_gt - tp
    return ConfusionCounts(tp=tp, tn=total - tp - fp - fn, fp=fp, fn=fn)


def rand_index(out_assign: dict[str, str], gt: GroundTruth) -> float:
    """(TP + TN) / all pairs, over tables present on both sides."""
    shared = sorted(set(out_assign) & set(gt.per_table))
    excluded = sorted((set(out_assign) | set(gt.per_table)) - set(shared))
    if excluded:
        logger.info("rand_index excludes %d tables absent from one side", len(excluded))
    if len(shared) < 2:
        raise InsufficientTablesError("need at least 2 tables present in both output and GT")
    counts = confusion_counts(
        [out_assign[t] for t in shared], [gt.top_level_of(t) for t in shared]
    )
    return (counts.tp + counts.tn) / counts.total


def _majority(names: list[str]) -> str:
    """Most frequent name; ties go to the lexicographically smallest."""
    counts = Counter(names)
    return min(counts, key=lambda name: (-counts[name], name))


def purity(tables_by_type: dict[str, set[str]], gt: GroundTruth) -> float:
    """Unweighted mean, over types, of the majority GT-top-level fraction."""
    scores = []
    for type_id in sorted(tables_by_type):
        tops = [gt.top_level_of(t) for t in tables_by_type[type_id] if t in gt.per_table]
        if not tops:
            logger.info("purity skips type %s: no GT-covered tables", type_id)
            continue
        majority = _majority(tops)
        scores.append(tops.count(majority) / len(tops))
    if not scores:
        raise NoTypesError("no types with GT-covered tables to evaluate")
    return sum(scores) / len(scores)


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


def type_consistency(
    out: Taxonomy, gt: GroundTruth, matching: dict[str, str], type_id: str
) -> float:
    """Fraction of non-synthetic output ancestors whose match is a GT ancestor of m(t).

    Roots (no non-synthetic ancestors) score 1; unmatched ancestors count
    in the denominator but never the numerator.
    """
    ancestors = [a for a in out.ancestors(type_id) if not out.types[a].synthetic]
    if not ancestors:
        return 1.0
    gt_ancestors = gt.ancestor_names(matching[type_id])
    hits = 0
    for a in ancestors:
        matched = matching.get(a)
        if matched is not None and matched in gt_ancestors:
            hits += 1
    return hits / len(ancestors)


def per_type_consistency(
    out: Taxonomy, gt: GroundTruth, matching: dict[str, str]
) -> dict[str, float]:
    """Type consistency of every matched, non-synthetic output type, in id order."""
    return {
        t: type_consistency(out, gt, matching, t)
        for t in sorted(out.types)
        if not out.types[t].synthetic and t in matching
    }


def tcs(out: Taxonomy, gt: GroundTruth, matching: dict[str, str] | None = None) -> float:
    """Mean type consistency over matched, non-synthetic output types."""
    if matching is None:
        matching = match_types(out, gt)
    per_type = per_type_consistency(out, gt, matching)
    if not per_type:
        raise NoMatchedTypesError("no matched non-synthetic types")
    return sum(per_type.values()) / len(per_type)


def top_level_assignment(tax: Taxonomy) -> dict[str, str]:
    """Map each table to a top-level type whose subtree contains it.

    With a DAG a table can fall under several top-level types; the
    lexicographically smallest id wins so reruns are stable.
    """
    assignment: dict[str, str] = {}
    for top in tax.top_level_ids():
        for table in tax.associated_tables(top):
            if table not in assignment or top < assignment[table]:
                assignment[table] = top
    return assignment


def report(out: Taxonomy, gt: GroundTruth) -> dict:
    """All metrics plus the matching table and exclusions, as a JSON-ready dict.

    Metrics that are undefined for the given inputs (too few shared tables,
    nothing matched) are reported as null rather than aborting the report.
    """
    matching = match_types(out, gt)
    assignment = top_level_assignment(out)
    shared = set(assignment) & set(gt.per_table)
    excluded = sorted((set(assignment) | set(gt.per_table)) - shared)
    try:
        ri = rand_index(assignment, gt)
    except InsufficientTablesError:
        ri = None
    try:
        pur = purity({t: out.associated_tables(t) for t in out.top_level_ids()}, gt)
    except NoTypesError:
        pur = None
    per_type = per_type_consistency(out, gt, matching)
    tcs_value = sum(per_type.values()) / len(per_type) if per_type else None
    type_count, depth = out.stats()
    gt_count, gt_depth = gt.taxonomy.stats()
    unmatched = sorted(
        t for t in out.types if t not in matching and not out.types[t].synthetic
    )
    return {
        "rand_index": ri,
        "purity": pur,
        "tcs": tcs_value,
        "type_count": type_count,
        "depth": depth,
        "gt_type_count": gt_count,
        "gt_depth": gt_depth,
        "matching": dict(sorted(matching.items())),
        "per_type_consistency": per_type,
        "excluded_tables": excluded,
        "unmatched_types": unmatched,
    }
