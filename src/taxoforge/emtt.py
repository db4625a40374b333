"""Embedding-based pipeline: top-level types, conceptual attributes, sub-taxonomies.

Stage 1 clusters tables on subject-column embeddings, stage 2 clusters all
columns within each top-level type into conceptual attributes, and stage 3
re-clusters each type's tables under Jaccard distance over their attribute
sets and prunes the dendrogram into a subtype forest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
from .options import DEFAULT_DELTA, DEFAULT_K_MAX, DEFAULT_LINKAGE
from .subject import assign_subjects
from .taxonomy import EntityType, Taxonomy

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FragmentNode:
    """One pruned cluster: all members, direct members, and its parent cluster."""

    members: frozenset[int]
    direct: frozenset[int]
    parent: frozenset[int] | None


def _cluster_refs(
    corpus: Corpus,
    service: EmbeddingService,
    refs: list[ColumnRef],
    linkage: str,
    k_max: int,
) -> list[list[int]]:
    """Group refs by the embeddings of their serialized columns.

    Returns the groups of the silhouette-selected cut, or one group of all
    refs when no cut with 2 <= k <= n-1 has a silhouette, as with fewer
    than three refs.
    """
    dm = euclidean_matrix(service.embed_columns(corpus, refs))
    return select_k(dm, agglomerate(dm, linkage), k_max) or [list(range(len(refs)))]


def identify_top_level(
    corpus: Corpus,
    service: EmbeddingService,
    subjects: dict[str, int],
    linkage: str = DEFAULT_LINKAGE,
    k_max: int = DEFAULT_K_MAX,
) -> list[list[str]]:
    """Cluster tables by the embeddings of their ``subjects`` columns.

    Returns each cluster's table ids, ascending: groups list indices in
    order, and the corpus is sorted by id.
    """
    tables = corpus.tables
    refs = [ColumnRef(t.id, subjects[t.id]) for t in tables]
    groups = _cluster_refs(corpus, service, refs, linkage, k_max)
    logger.info("top-level clustering selected k=%d", len(groups))
    return [[tables[i].id for i in group] for group in groups]


def identify_attributes(
    table_ids: list[str],
    corpus: Corpus,
    service: EmbeddingService,
    linkage: str = DEFAULT_LINKAGE,
    k_max: int = DEFAULT_K_MAX,
) -> list[list[ColumnRef]]:
    """Cluster every column of the tables into conceptual attributes.

    Returns each attribute's columns; each column lands in exactly one.
    """
    refs = [ColumnRef(tid, col) for tid in table_ids for col in range(corpus.get(tid).n_cols)]
    return [
        [refs[i] for i in group]
        for group in _cluster_refs(corpus, service, refs, linkage, k_max)
    ]


def jaccard_matrix(table_ids: list[str], attr_sets: dict[str, set[str]]) -> DistanceMatrix:
    """Jaccard distance between every pair of tables' conceptual-attribute sets.

    Bit for bit the pairwise reference ``tests/oracles.py::table_attribute_distance``.

    Intersections come from one product of the 0/1 table x attribute
    incidence matrix. It is an integer product, so the counts are exact (and
    no BLAS thread start-up is paid on these small shapes), and the one true
    division per pair rounds correctly, as Python's int division does.
    """
    sets = [attr_sets.get(tid, set()) for tid in table_ids]
    column = {attr: k for k, attr in enumerate(sorted(set().union(*sets)))}
    incidence = np.zeros((len(sets), len(column)), dtype=np.int64)
    for row, attrs in enumerate(sets):
        incidence[row, [column[attr] for attr in attrs]] = 1
    inter = incidence @ incidence.T
    sizes = incidence.sum(axis=1)
    union = sizes[:, np.newaxis] + sizes[np.newaxis, :] - inter
    with np.errstate(invalid="ignore"):
        d = np.where(union > 0, 1.0 - inter / union, 0.0)
    return DistanceMatrix(d)


def prune_dendrogram(den: Dendrogram, dm: DistanceMatrix, delta: float) -> list[FragmentNode]:
    """Emit subtype clusters from cuts whose silhouette clears the window.

    The cuts are the levels of ``sweep``: at each distinct merge height h,
    highest first, the first #(merge heights <= h) merges. A cut qualifies
    when it has a silhouette (2 <= k <= n-1) and that exceeds the best
    silhouette minus delta. Each qualifying non-singleton cluster is emitted
    once, at its highest qualifying height; its parent is the smallest
    previously emitted strict superset, and its direct members are those in
    no emitted strict subset.
    """
    levels = [level for level in sweep(dm, den) if level[2] is not None]
    if not levels:
        return []
    max_sil = max(score for _, _, score in levels)
    emitted: list[tuple[frozenset[int], frozenset[int] | None]] = []
    # leaf -> smallest cluster emitted so far that holds it. Each level refines
    # the one before, so any one leaf's entry holds its whole group: it is the
    # group's parent, or the group itself when that was emitted higher up.
    smallest: dict[int, frozenset[int]] = {}
    for _, groups, score in levels:
        if score <= max_sil - delta:
            continue
        for group in groups:
            parent = smallest.get(group[0])
            if len(group) < 2 or (parent is not None and len(parent) == len(group)):
                continue
            cluster = frozenset(group)
            emitted.append((cluster, parent))
            for i in group:
                smallest[i] = cluster
    return [
        FragmentNode(cluster, frozenset(i for i in cluster if smallest[i] is cluster), parent)
        for cluster, parent in emitted
    ]


@dataclass
class EmttResult:
    taxonomy: Taxonomy
    attributes: dict[ColumnRef, str]

    def toplevel_dict(self) -> dict:
        """The taxonomy's top-level tables and assignment, the maps the report scores."""
        tax = self.taxonomy
        return {
            "assignments": tax.top_level_assignment(),
            "top_level_types": {top: sorted(tables) for top, tables in tax.top_level_tables().items()},
        }

    def attributes_dict(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for ref, attr in self.attributes.items():
            out.setdefault(ref.table_id, {})[str(ref.col)] = attr
        return out


def run_emtt(
    corpus: Corpus,
    service: EmbeddingService,
    delta: float = DEFAULT_DELTA,
    linkage: str = DEFAULT_LINKAGE,
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
    subjects = assign_subjects(corpus, subject_overrides)
    tax = Taxonomy()
    attributes: dict[ColumnRef, str] = {}
    for k, member_ids in enumerate(identify_top_level(corpus, service, subjects, linkage, k_max)):
        tlt_id = f"tlt{k}"
        attr_sets: dict[str, set[str]] = {tid: set() for tid in member_ids}
        for j, refs in enumerate(identify_attributes(member_ids, corpus, service, linkage, k_max)):
            attr_id = f"{tlt_id}.attr{j}"
            for ref in refs:
                attributes[ref] = attr_id
                attr_sets[ref.table_id].add(attr_id)
        dm = jaccard_matrix(member_ids, attr_sets)
        fragment = prune_dendrogram(agglomerate(dm, linkage), dm, delta)
        claimed = {member_ids[i] for node in fragment for i in node.members}
        tax.add_type(EntityType(id=tlt_id, name=tlt_id, tables=set(member_ids) - claimed))
        node_ids: dict[frozenset[int] | None, str] = {None: tlt_id}
        for idx, node in enumerate(fragment):
            node_id = node_ids[node.members] = f"{tlt_id}.sub{idx}"
            tax.add_type(
                EntityType(id=node_id, name=node_id, tables={member_ids[i] for i in node.direct})
            )
            tax.add_edge(node_ids[node.parent], node_id)
    return EmttResult(taxonomy=tax, attributes=attributes)
