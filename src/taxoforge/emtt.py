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

from . import pool

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


def _cluster(vectors: np.ndarray, linkage: str, k_max: int) -> list[list[int]]:
    """Group the rows of ``vectors`` by Euclidean distance.

    Returns the groups of the silhouette-selected cut, or one group of all
    rows when no cut with 2 <= k <= n-1 has a silhouette, as with fewer
    than three rows.
    """
    dm = euclidean_matrix(vectors)
    return select_k(dm, agglomerate(dm, linkage), k_max) or [list(range(len(vectors)))]


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
    groups = _cluster(service.embed_columns(corpus, refs), linkage, k_max)
    logger.info("top-level clustering selected k=%d", len(groups))
    return [[tables[i].id for i in group] for group in groups]


def identify_attributes(
    refs: list[ColumnRef],
    vectors: np.ndarray,
    linkage: str = DEFAULT_LINKAGE,
    k_max: int = DEFAULT_K_MAX,
) -> list[list[ColumnRef]]:
    """Cluster columns into conceptual attributes by their embeddings, one row per ref.

    Returns each attribute's columns; each column lands in exactly one.
    """
    return [[refs[i] for i in group] for group in _cluster(vectors, linkage, k_max)]


def cluster_type(
    member_ids: list[str],
    refs: list[ColumnRef],
    vectors: np.ndarray,
    linkage: str = DEFAULT_LINKAGE,
    k_max: int = DEFAULT_K_MAX,
    delta: float = DEFAULT_DELTA,
) -> tuple[list[list[ColumnRef]], list[FragmentNode]]:
    """One top-level type's conceptual attributes and pruned subtype fragment.

    ``refs`` are the columns of the ``member_ids`` tables and ``vectors``
    their embeddings. Returns the attributes of ``identify_attributes`` and
    the fragment that ``prune_dendrogram`` cuts from the tables' Jaccard
    distances over their attribute sets; its members index ``member_ids``.
    It reads nothing of any other type and makes no BLAS call, so any
    process can run it.
    """
    attrs = identify_attributes(refs, vectors, linkage, k_max)
    attr_sets: dict[str, set[int]] = {tid: set() for tid in member_ids}
    for j, attr in enumerate(attrs):
        for ref in attr:
            attr_sets[ref.table_id].add(j)
    dm = jaccard_matrix(member_ids, attr_sets)
    return attrs, prune_dendrogram(agglomerate(dm, linkage), dm, delta)


def jaccard_matrix(table_ids: list[str], attr_sets: dict[str, set]) -> DistanceMatrix:
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


# column pairs of clustering work that one forked process is worth: on a 2-vCPU host a type
# of 256 columns clustered in about 20 ms, and forking, piping and reaping a worker took
# about 10 ms
MIN_SHARE_COST = 256**2


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
    assigned to the top-level type. Every embedding is made here, type after
    type, so provider calls and cache writes keep one order in one process;
    ``pool.run`` then clusters the types, in forked workers where it can,
    and the results do not depend on how many.
    """
    if not 0 <= delta <= 2:
        raise ValueError("delta must be in [0, 2]")
    subjects = assign_subjects(corpus, subject_overrides)
    types = identify_top_level(corpus, service, subjects, linkage, k_max)
    refs = [
        [ColumnRef(tid, col) for tid in ids for col in range(corpus.get(tid).n_cols)] for ids in types
    ]
    work = [(ids, r, service.embed_columns(corpus, r)) for ids, r in zip(types, refs)]
    costs = [len(r) ** 2 / MIN_SHARE_COST for r in refs]
    clustered = pool.run(lambda w: cluster_type(*w, linkage, k_max, delta), work, costs)
    tax = Taxonomy()
    attributes: dict[ColumnRef, str] = {}
    for k, (member_ids, (attrs, fragment)) in enumerate(zip(types, clustered)):
        tlt_id = f"tlt{k}"
        for j, attr in enumerate(attrs):
            for ref in attr:
                attributes[ref] = f"{tlt_id}.attr{j}"
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
