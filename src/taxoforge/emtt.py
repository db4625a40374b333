"""Embedding-based pipeline: top-level types, conceptual attributes, sub-taxonomies.

Stage 1 clusters tables on subject-column embeddings, stage 2 clusters all
columns within each top-level type into conceptual attributes, and stage 3
re-clusters each type's tables under Jaccard distance over their attribute
sets and prunes the dendrogram into a subtype forest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

# cut and silhouette are not called here; bench/tracer.py wraps them in this module by name
from .clustering import (
    DistanceMatrix,
    Dendrogram,
    agglomerate,
    cut,
    euclidean_matrix,
    select_k,
    silhouette,
    sweep,
)
from .corpus import Corpus
from .embedding import ColumnRef, EmbeddingService
from .errors import NoValidKError
from .subject import assign_subjects
from .taxonomy import EntityType, Taxonomy

logger = logging.getLogger(__name__)

DEFAULT_DELTA = 0.15
DEFAULT_K_MAX = 50


@dataclass
class TopLevelType:
    id: str
    member_tables: set[str]
    attributes: set[str] = field(default_factory=set)


@dataclass
class ConceptualAttribute:
    id: str
    member_columns: set[ColumnRef]


@dataclass(frozen=True)
class FragmentNode:
    """One pruned cluster: all members, direct members, and its parent cluster."""

    members: frozenset[int]
    direct: frozenset[int]
    parent: frozenset[int] | None
    emitted_at: float
    silhouette_at_emission: float


def _cluster_refs(
    corpus: Corpus,
    service: EmbeddingService,
    refs: list[ColumnRef],
    linkage: str,
    k_max: int,
) -> list[list[int]]:
    """Group refs by the embeddings of their serialized columns.

    Returns the groups of the silhouette-selected cut, or one group of all
    refs when there are fewer than three or no cut is realizable: the
    silhouette criterion needs 2 <= k <= n-1 to separate anything.
    """
    whole = [list(range(len(refs)))]
    if len(refs) <= 2:
        return whole
    dm = euclidean_matrix(service.embed_columns(corpus, refs))
    den = agglomerate(dm, linkage)
    try:
        _, fc = select_k(dm, den, (2, min(k_max, len(refs) - 1)))
    except NoValidKError:
        return whole
    return fc.groups()


def identify_top_level(
    corpus: Corpus,
    service: EmbeddingService,
    linkage: str = "average",
    k_max: int = DEFAULT_K_MAX,
) -> list[TopLevelType]:
    """Cluster tables by subject-column embeddings; one type per cluster."""
    tables = corpus.tables
    for t in tables:
        if t.subject_col is None:
            raise ValueError(f"table {t.id!r} has no subject column assigned")
    refs = [ColumnRef(t.id, t.subject_col) for t in tables]
    groups = _cluster_refs(corpus, service, refs, linkage, k_max)
    logger.info("top-level clustering selected k=%d", len(groups))
    return [
        TopLevelType(id=f"tlt{label}", member_tables={tables[i].id for i in group})
        for label, group in enumerate(groups)
    ]


def identify_attributes(
    tlt: TopLevelType,
    corpus: Corpus,
    service: EmbeddingService,
    linkage: str = "average",
    k_max: int = DEFAULT_K_MAX,
) -> list[ConceptualAttribute]:
    """Cluster every column of the type's tables into conceptual attributes.

    Each column lands in exactly one attribute.
    """
    refs = [
        ColumnRef(tid, col)
        for tid in sorted(tlt.member_tables)
        for col in range(corpus.get(tid).n_cols)
    ]
    if not refs:
        return []
    return [
        ConceptualAttribute(id=f"{tlt.id}.attr{label}", member_columns={refs[i] for i in group})
        for label, group in enumerate(_cluster_refs(corpus, service, refs, linkage, k_max))
    ]


def table_attribute_distance(attrs1: set[str], attrs2: set[str]) -> float:
    """Jaccard distance between two tables' conceptual-attribute sets."""
    if not attrs1 and not attrs2:
        return 0.0
    union = attrs1 | attrs2
    return 1.0 - len(attrs1 & attrs2) / len(union)


def attribute_sets(
    attributes: list[ConceptualAttribute],
) -> dict[str, set[str]]:
    """Per-table set of conceptual attribute ids."""
    out: dict[str, set[str]] = {}
    for attr in attributes:
        for ref in attr.member_columns:
            out.setdefault(ref.table_id, set()).add(attr.id)
    return out


def jaccard_matrix(table_ids: list[str], attr_sets: dict[str, set[str]]) -> DistanceMatrix:
    n = len(table_ids)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist = table_attribute_distance(
                attr_sets.get(table_ids[i], set()), attr_sets.get(table_ids[j], set())
            )
            d[i, j] = dist
            d[j, i] = dist
    return DistanceMatrix(d)


def prune_dendrogram(den: Dendrogram, dm: DistanceMatrix, delta: float) -> list[FragmentNode]:
    """Emit subtype clusters from cuts whose silhouette clears the window.

    The cuts are the levels of ``sweep``: at each distinct merge height h,
    highest first, the first #(merge heights <= h) merges. A cut qualifies
    when its silhouette exceeds the best score over cuts with 2 <= k <= n-1
    minus delta; the others carry the -1 sentinel and only qualify under
    extreme deltas. Each qualifying non-singleton cluster is emitted once, at
    its highest qualifying height; its parent is the smallest previously
    emitted strict superset (unique, because dendrogram clusters are laminar).
    """
    levels = list(sweep(dm, den))
    valid = [score for _, fc, score in levels if 2 <= fc.k <= den.leaf_count - 1]
    if not valid:
        return []
    max_sil = max(valid)
    emitted: dict[frozenset[int], tuple[frozenset[int] | None, float, float]] = {}
    for height, fc, score in levels:
        if score <= max_sil - delta:
            continue
        for group in fc.groups():
            cluster = frozenset(group)
            if len(cluster) < 2 or cluster in emitted:
                continue
            parent: frozenset[int] | None = None
            for candidate in emitted:
                if cluster < candidate and (parent is None or len(candidate) < len(parent)):
                    parent = candidate
            emitted[cluster] = (parent, height, score)
    nodes = []
    for cluster, (parent, height, score) in emitted.items():
        claimed: set[int] = set()
        for other in emitted:
            if other < cluster:
                claimed |= other
        nodes.append(
            FragmentNode(
                members=cluster,
                direct=frozenset(cluster - claimed),
                parent=parent,
                emitted_at=height,
                silhouette_at_emission=score,
            )
        )
    return nodes


@dataclass
class EmttResult:
    taxonomy: Taxonomy
    top_level: list[TopLevelType]
    attributes: dict[str, list[ConceptualAttribute]]
    assignments: dict[str, str]

    def toplevel_dict(self) -> dict:
        return {
            "assignments": dict(sorted(self.assignments.items())),
            "top_level_types": {
                tlt.id: sorted(tlt.member_tables) for tlt in self.top_level
            },
        }

    def attributes_dict(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for attrs in self.attributes.values():
            for attr in attrs:
                for ref in sorted(attr.member_columns, key=lambda r: (r.table_id, r.col)):
                    out.setdefault(ref.table_id, {})[str(ref.col)] = attr.id
        return {tid: dict(sorted(cols.items(), key=lambda kv: int(kv[0]))) for tid, cols in sorted(out.items())}


def run_emtt(
    corpus: Corpus,
    service: EmbeddingService,
    delta: float = DEFAULT_DELTA,
    linkage: str = "average",
    k_max: int = DEFAULT_K_MAX,
    subject_overrides: dict[str, int] | None = None,
) -> EmttResult:
    """Full pipeline: top-level types, attributes per type, pruned subtypes.

    Top-level types become the taxonomy roots; each pruned fragment hangs
    beneath its type, and tables not claimed by any subtype stay directly
    assigned to the top-level type.
    """
    if not 0 <= delta <= 2:
        raise ValueError("delta must be in [0, 2]")
    if any(t.subject_col is None for t in corpus.tables) or subject_overrides:
        assign_subjects(corpus, subject_overrides)
    top_level = identify_top_level(corpus, service, linkage, k_max)
    tax = Taxonomy()
    attributes: dict[str, list[ConceptualAttribute]] = {}
    assignments: dict[str, str] = {}
    for tlt in top_level:
        for tid in tlt.member_tables:
            assignments[tid] = tlt.id
        attrs = identify_attributes(tlt, corpus, service, linkage, k_max)
        tlt.attributes = {a.id for a in attrs}
        attributes[tlt.id] = attrs
        member_ids = sorted(tlt.member_tables)
        fragment: list[FragmentNode] = []
        if len(member_ids) >= 2:
            sets = attribute_sets(attrs)
            dm = jaccard_matrix(member_ids, sets)
            den = agglomerate(dm, linkage)
            fragment = prune_dendrogram(den, dm, delta)
        claimed_by_roots: set[str] = set()
        for node in fragment:
            if node.parent is None:
                claimed_by_roots |= {member_ids[i] for i in node.members}
        tax.add_type(
            EntityType(
                id=tlt.id,
                name=tlt.id,
                tables=set(tlt.member_tables) - claimed_by_roots,
            )
        )
        node_ids: dict[frozenset[int], str] = {}
        for idx, node in enumerate(fragment):
            node_id = f"{tlt.id}.sub{idx}"
            node_ids[node.members] = node_id
            tax.add_type(
                EntityType(
                    id=node_id,
                    name=node_id,
                    tables={member_ids[i] for i in node.direct},
                )
            )
        for node in fragment:
            child_id = node_ids[node.members]
            parent_id = tlt.id if node.parent is None else node_ids[node.parent]
            tax.add_edge(parent_id, child_id)
    return EmttResult(
        taxonomy=tax, top_level=top_level, attributes=attributes, assignments=assignments
    )
