"""Agglomerative clustering, dendrogram cuts, and silhouette-driven k selection.

The merge loop is written here rather than delegated to a library because
the pipeline needs (a) arbitrary precomputed distance matrices (Euclidean
over embeddings, Jaccard over attribute sets), (b) cuts at arbitrary
heights with exact `<=` semantics, and (c) a documented deterministic
tie-break so reruns are byte-identical: among equal-distance pairs, the
pair with the lexicographically smallest (min cluster id, max cluster id)
merges first. Cluster ids are scipy-style: leaves 0..n-1, merge k creates
id n+k.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import DimensionMismatchError
from .options import LINKAGES

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DistanceMatrix:
    d: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.d, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(arr) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("distances must be finite and non-negative")
        object.__setattr__(self, "d", arr)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
    merges: tuple[Merge, ...]

    @property
    def leaf_count(self) -> int:
        """A dendrogram over n leaves has exactly n-1 merges."""
        return len(self.merges) + 1

    @property
    def heights(self) -> list[float]:
        return [m.height for m in self.merges]


def euclidean_matrix(vectors: list[np.ndarray] | np.ndarray) -> DistanceMatrix:
    """Pairwise Euclidean distances, computed from explicit differences.

    Differences (not the Gram-matrix shortcut) keep near-duplicate vectors
    at distances accurate to ~1e-15, which the clustering tie-breaks and
    the zero-height cut both rely on.
    """
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatchError("vectors must share one dimension")
    n = mat.shape[0]
    d = np.zeros((n, n))
    for i in range(n - 1):
        diff = mat[i + 1 :] - mat[i]
        d[i, i + 1 :] = np.sqrt(np.sum(diff * diff, axis=1))
    d += d.T
    return DistanceMatrix(d)


def agglomerate(dm: DistanceMatrix, linkage: str = "average") -> Dendrogram:
    """Build the merge tree under average/complete/single linkage.

    Inter-cluster distances follow the Lance-Williams updates (UPGMA for
    average), so the result matches a naive recomputation from cluster
    members up to floating-point roundoff. Each row's minimum is cached
    exactly; a merge rescans only the rows whose cached argmin pointed at a
    merged slot, and resolves a tie among any number of pairs with a fixed
    handful of O(n) array operations, so each merge costs O(n) NumPy work
    plus O(n) per rescanned row. One item gives a dendrogram with no merges.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    n = dm.n
    if n < 1:
        raise ValueError("need at least 1 item to agglomerate")
    dist = dm.d.copy()
    np.fill_diagonal(dist, np.inf)
    # retired slots keep row_min = inf and row_arg = -1, so they are never
    # tied, never rescanned and never improved
    row_min = dist.min(axis=1)
    row_arg = dist.argmin(axis=1)
    cid = np.arange(n)
    sizes = [1] * n
    merges: list[Merge] = []
    for step in range(n - 1):
        current_min = row_min.min()
        # Every tied pair (a, b) has both endpoints among the tied rows, so no
        # tied pair's smaller id is below the smallest tied row id cid[r]; the
        # pairs that reach it all contain r, and the smallest id among r's tied
        # partners completes the lexicographically smallest (min id, max id).
        tied = np.flatnonzero(row_min == current_min)
        r = tied[cid[tied].argmin()]
        partners = np.flatnonzero(dist[r] == current_min)
        c = partners[cid[partners].argmin()]
        i, j = (r, c) if r < c else (c, r)
        si_size, sj_size = sizes[i], sizes[j]
        merges.append(Merge(int(cid[r]), int(cid[c]), float(current_min)))
        if step == n - 2:
            break
        row_i, row_j = dist[i], dist[j]
        if linkage == "average":
            new_row = (si_size * row_i + sj_size * row_j) / (si_size + sj_size)
        elif linkage == "complete":
            new_row = np.maximum(row_i, row_j)
        else:
            new_row = np.minimum(row_i, row_j)
        new_row[i] = np.inf
        new_row[j] = np.inf
        dist[i, :] = new_row
        dist[:, i] = new_row
        dist[:, j] = np.inf
        row_min[j] = np.inf
        row_arg[j] = -1
        cid[i] = n + step
        sizes[i] = si_size + sj_size
        # rows whose cached minimum lived in a merged slot need a rescan;
        # every other row only sees slot i change, and only downward moves matter
        stale = (row_arg == i) | (row_arg == j)
        stale[i] = True
        stale_rows = np.flatnonzero(stale)
        row_min[stale_rows] = dist[stale_rows].min(axis=1)
        row_arg[stale_rows] = dist[stale_rows].argmin(axis=1)
        improved = new_row < row_min
        row_min[improved] = new_row[improved]
        row_arg[improved] = i
    heights = [m.height for m in merges]
    for prev, cur in zip(heights, heights[1:]):
        if cur < prev - 1e-9 * max(1.0, abs(prev)):
            logger.warning("non-monotone merge heights: %.17g after %.17g", cur, prev)
    return Dendrogram(tuple(merges))


def _leaves(den: Dendrogram, node: int) -> list[int]:
    """Leaves under ``node`` (leaf i, or merge j as n+j), ascending."""
    n = den.leaf_count
    nodes = [node]
    for x in nodes:
        if x >= n:
            nodes += (den.merges[x - n].left, den.merges[x - n].right)
    return sorted(x for x in nodes if x < n)


def _cuts(den: Dendrogram, heights: list[float]) -> Iterator[dict[int, list[int]]]:
    """The cut at each of the descending ``heights``, undoing merges last first.

    The cut at h applies the first #(merge heights <= h) merges. Its clusters
    map node ids to ascending leaves and are ordered by smallest leaf.
    """
    n = den.leaf_count
    ascending = sorted(den.heights)
    roots = {2 * n - 2: list(range(n))}
    for height in heights:
        for j in range(n - len(roots) - 1, bisect_right(ascending, height) - 1, -1):
            del roots[n + j]
            for child in (den.merges[j].left, den.merges[j].right):
                roots[child] = _leaves(den, child)
        yield dict(sorted(roots.items(), key=lambda item: item[1][0]))


def cut(den: Dendrogram, height: float) -> list[list[int]]:
    """The clusters after the first #(merge heights <= ``height``) merges, ordered as in ``_cuts``."""
    if height < 0:
        raise ValueError("cut height must be >= 0")
    return list(next(_cuts(den, [height])).values())


def _mean_silhouette(columns: list[np.ndarray], groups: list[list[int]]) -> float | None:
    """Mean silhouette from each group's column of distance sums to every item."""
    sums = np.stack(columns, axis=1)
    n, k = sums.shape
    if k < 2 or k > n - 1:
        return None
    labels = [0] * n
    for label, group in enumerate(groups):
        for i in group:
            labels[i] = label
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    own = counts[labels]
    a = sums[np.arange(n), labels] / np.maximum(own - 1, 1)
    mean_to = sums / counts[np.newaxis, :]
    mean_to[np.arange(n), labels] = np.inf
    b = mean_to.min(axis=1)
    widest = np.maximum(a, b)
    with np.errstate(invalid="ignore"):
        scores = np.where(widest > 0, (b - a) / widest, 0.0)
    scores[own == 1] = 0.0
    return float(scores.mean())


def silhouette(dm: DistanceMatrix, groups: list[list[int]]) -> float | None:
    """Mean silhouette coefficient; ``None`` (undefined) outside 2 <= k <= n-1.

    ``groups`` must partition ``range(dm.n)``. Items in singleton clusters
    contribute 0, and so do items whose intra and nearest-other mean
    distances are both 0.
    """
    if not all(groups) or sorted(i for group in groups for i in group) != list(range(dm.n)):
        raise ValueError("groups must partition the items 0..n-1")
    return _mean_silhouette([dm.d[:, group].sum(axis=1) for group in groups], groups)


def sweep(
    dm: DistanceMatrix, den: Dendrogram
) -> Iterator[tuple[float, list[list[int]], float | None]]:
    """``(h, cut(den, h), its silhouette)`` at each distinct merge height h, highest first.

    Level h applies the first #(merge heights <= h) merges, so k rises
    strictly from 1. A cluster's distance sums are computed once, when it
    appears, summing in ``silhouette``'s order, so scores equal it bit for bit.
    """
    levels = sorted(set(den.heights), reverse=True)
    sums: dict[int, np.ndarray] = {}
    for height, clusters in zip(levels, _cuts(den, levels)):
        sums = {
            node: sums[node] if node in sums else dm.d[:, leaves].sum(axis=1)
            for node, leaves in clusters.items()
        }
        groups = list(clusters.values())
        yield height, groups, _mean_silhouette(list(sums.values()), groups)


def select_k(dm: DistanceMatrix, den: Dendrogram, k_max: int) -> list[list[int]] | None:
    """The groups of the best-scored level of ``sweep`` with k <= ``k_max``, ties to the smallest k.

    ``None`` when no such level has a silhouette.
    """
    levels = takewhile(lambda level: len(level[1]) <= k_max, sweep(dm, den))
    scored = [(score, groups) for _, groups, score in levels if score is not None]
    return max(scored, key=lambda level: level[0])[1] if scored else None
