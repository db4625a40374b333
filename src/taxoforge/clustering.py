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

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import DimensionMismatchError
from .options import DEFAULT_LINKAGE, LINKAGES

ROW_BLOCK = 16  # distance rows that one numpy call checks, saves, restores or sums, in place of all n


@dataclass(frozen=True)
class DistanceMatrix:
    d: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.d, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square")
        # checked ROW_BLOCK rows at a time, so no n x n temporary is made
        blocks = [(b, arr[b : b + ROW_BLOCK]) for b in range(0, arr.shape[0], ROW_BLOCK)]
        # finiteness first: NaN != NaN, so a NaN would otherwise read as asymmetry; min and
        # max propagate a NaN, and a NaN fails both comparisons
        if not all(0 <= rows.min() and rows.max() < np.inf for _, rows in blocks):
            raise ValueError("distances must be finite and non-negative")
        # each block from the diagonal on against its mirror image below the diagonal
        if not all(np.array_equal(rows[:, b:], arr[b:, b : b + ROW_BLOCK].T) for b, rows in blocks):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(arr) != 0):
            raise ValueError("distance matrix diagonal must be zero")
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
    the zero-height cut both rely on. Row i's differences to every later
    vector are squared in one reused buffer laid out like the input, and
    summed along it by the same ufuncs on the same layout as
    ``tests/oracles.py``'s ``reference_euclidean``, so every distance equals
    it bit for bit. Row i is written to both triangles in the same pass, so
    no n x n temporary is made.
    """
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatchError("vectors must share one dimension")
    n = mat.shape[0]
    d = np.zeros((n, n))
    scratch = np.empty_like(mat)
    for i in range(n - 1):
        diff = scratch[i + 1 :]
        np.subtract(mat[i + 1 :], mat[i], out=diff)
        np.multiply(diff, diff, out=diff)
        row = d[i, i + 1 :]
        np.sum(diff, axis=1, out=row)
        np.sqrt(row, out=row)
        d[i + 1 :, i] = row
    return DistanceMatrix(d)


def agglomerate(dm: DistanceMatrix, linkage: str = DEFAULT_LINKAGE) -> Dendrogram:
    """Build the merge tree under average/complete/single linkage.

    Inter-cluster distances follow the Lance-Williams updates (UPGMA for
    average), so the result matches a naive recomputation from cluster
    members up to floating-point roundoff. Each row's minimum is cached
    exactly; a merge rescans only the rows whose cached argmin pointed at a
    merged slot, and resolves a tie among any number of pairs with a fixed
    handful of O(n) array operations, so each merge costs O(n) NumPy work
    plus O(n) per rescanned row. One item gives a dendrogram with no merges.

    The merges use ``dm.d`` itself as their working space, so no other
    thread may read it during the call. Only its upper triangle is saved,
    as blocks of ``ROW_BLOCK`` rows from the diagonal on (about n^2/2
    values), and on return or on an exception each block is written back
    to its rows and, transposed, to its columns below the diagonal. As
    ``DistanceMatrix`` is exactly symmetric, ``dm.d`` comes back
    byte-identical, unless it mixes the signs of a zero.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    if dm.n < 1:
        raise ValueError("need at least 1 item to agglomerate")
    dist = dm.d
    starts = range(0, dm.n, ROW_BLOCK)
    upper = [dist[b : b + ROW_BLOCK, b:].copy() for b in starts]
    try:
        return Dendrogram(tuple(_merge_in_place(dist, linkage)))
    finally:
        for b, block in zip(starts, upper):
            dist[b + ROW_BLOCK :, b : b + ROW_BLOCK] = block[:, ROW_BLOCK:].T
            dist[b : b + ROW_BLOCK, b:] = block


def _merge_in_place(dist: np.ndarray, linkage: str) -> list[Merge]:
    """``agglomerate``'s merges, overwriting ``dist``."""
    n = len(dist)
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
    return merges


def _leaf_order(den: Dendrogram) -> tuple[list[int], list[int], list[int], list[int]]:
    """One depth-first leaf order of ``den``, left child first, and where each node sits in it.

    Node i < n is leaf i and node n + j is merge j. Returns the order and,
    per node, its smallest leaf and the ``[start, end)`` slice of the order
    that holds its leaves, so ``sorted(order[start:end])`` lists them ascending.
    """
    n = den.leaf_count
    size, low = [1] * n, list(range(n))
    for m in den.merges:
        size.append(size[m.left] + size[m.right])
        low.append(min(low[m.left], low[m.right]))
    start = [0] * (2 * n - 1)
    # a merge's parent is a later merge, so walking back places each parent before its children
    for j in range(n - 2, -1, -1):
        m = den.merges[j]
        start[m.left] = start[n + j]
        start[m.right] = start[n + j] + size[m.left]
    order = [0] * n
    for leaf in range(n):
        order[start[leaf]] = leaf
    return order, low, start, [s + z for s, z in zip(start, size)]


def _descend(
    den: Dendrogram, heights: list[float]
) -> Iterator[tuple[list[list[int]], list[list[int]]]]:
    """The cut at each of the descending ``heights``, undoing merges last first.

    The cut at h applies the first #(merge heights <= h) merges. Yields its
    clusters as ascending leaves, ordered by smallest leaf, and the clusters
    that were not in the previous cut. Clusters are keyed by smallest leaf,
    so undoing a merge puts the child that holds its smallest leaf in its
    place.
    """
    n = den.leaf_count
    order, low, start, end = _leaf_order(den)
    ascending = sorted(den.heights)
    node_at = {0: 2 * n - 2}  # smallest leaf -> the cluster of the cut that holds it
    groups: dict[int, list[int]] = {}  # smallest leaf -> that cluster's ascending leaves
    changed, applied = {0}, n - 1
    for height in heights:
        target = bisect_right(ascending, height)
        for j in range(applied - 1, target - 1, -1):
            for child in (den.merges[j].left, den.merges[j].right):
                node_at[low[child]] = child
                changed.add(low[child])
        applied = min(applied, target)
        fresh = []
        for key in changed:
            node = node_at[key]
            groups[key] = sorted(order[start[node] : end[node]])
            fresh.append(groups[key])
        changed = set()
        yield [groups[key] for key in sorted(groups)], fresh


def cut(den: Dendrogram, height: float) -> list[list[int]]:
    """The clusters after the first #(merge heights <= ``height``) merges, ordered as in ``_descend``."""
    if height < 0:
        raise ValueError("cut height must be >= 0")
    return next(_descend(den, [height]))[0]


def _mean_silhouette(means: np.ndarray, own_sums: np.ndarray, labels: np.ndarray) -> float | None:
    """Mean silhouette from each cluster's row of mean distances to every item.

    ``means`` is k x n; item i is in the cluster of row ``labels[i]``, and
    ``own_sums[i]`` is the sum of its distances to that cluster. Each
    item's own entry of ``means`` is set to inf for the nearest-other
    ``min`` and then put back, so no k x n temporary is made. The result
    does not depend on the order of the rows: the intra means are
    elementwise, the nearest other cluster is an exact ``min``, and the
    mean over items adds them in item order.
    """
    k, n = means.shape
    if k < 2 or k > n - 1:
        return None
    items = np.arange(n)
    own = np.bincount(labels, minlength=k).astype(np.float64)[labels]
    a = own_sums / np.maximum(own - 1, 1)
    own_means = means[labels, items]
    means[labels, items] = np.inf
    b = means.min(axis=0)
    means[labels, items] = own_means
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

    A group's distance sums come from the column gather ``dm.d[:, group]``,
    an F-ordered array, so each item's sum adds its distances one after
    another in ascending member order. ``sweep`` must match this bit for
    bit and is tested against it.
    """
    if not all(groups) or sorted(i for group in groups for i in group) != list(range(dm.n)):
        raise ValueError("groups must partition the items 0..n-1")
    labels = np.empty(dm.n, dtype=np.intp)
    own_sums = np.empty(dm.n)
    means = np.empty((len(groups), dm.n))
    for label, group in enumerate(groups):
        sums = dm.d[:, group].sum(axis=1)
        labels[group] = label
        own_sums[group] = sums[group]
        np.divide(sums, len(group), out=means[label])
    return _mean_silhouette(means, own_sums, labels)


def _sum_rows(d: np.ndarray, leaves: np.ndarray, out: np.ndarray) -> None:
    """``np.sum(d[leaves], axis=0, out=out)`` bit for bit, gathering at most ``ROW_BLOCK`` + 1 rows.

    Summing a C-ordered block along axis 0 adds its rows one after another.
    Row 0 of each later chunk carries the running sum, so every column
    still adds its rows in ``leaves`` order, and no |leaves| x n gather is
    made.
    """
    rows = np.empty((min(len(leaves), ROW_BLOCK + 1), d.shape[1]))
    # mode="clip" takes straight into ``rows``; "raise" would gather into a temporary first
    np.take(d, leaves[: len(rows)], axis=0, out=rows, mode="clip")
    np.sum(rows, axis=0, out=out)
    for start in range(len(rows), len(leaves), ROW_BLOCK):
        chunk = leaves[start : start + ROW_BLOCK]
        rows[0] = out
        np.take(d, chunk, axis=0, out=rows[1 : len(chunk) + 1], mode="clip")
        np.sum(rows[: len(chunk) + 1], axis=0, out=out)


def sweep(
    dm: DistanceMatrix, den: Dendrogram
) -> Iterator[tuple[float, list[list[int]], float | None]]:
    """``(h, cut(den, h), its silhouette)`` at each distinct merge height h, highest first.

    Level h applies the first #(merge heights <= h) merges, so k rises
    strictly from 1. A cluster's distance sums are computed once, when it
    appears: their means go to one row of a k x n array that doubles as k
    grows, up to n - 1 rows, and each member keeps its own sum. A split
    cluster's row goes to its child that holds its smallest leaf, and the
    other child takes the next free row.

    The sums are ``silhouette``'s bit for bit. Its column gather adds each
    item's distances one after another in ascending member order; summing
    the member rows along axis 0 (``_sum_rows``) adds the same numbers in
    the same order, because ``DistanceMatrix`` is exactly symmetric, and
    reads contiguous rows. ``np.take(dm.d, leaves, axis=1).sum(axis=1)``
    would not do: its result is C-ordered, so numpy sums each row pairwise.
    """
    n = dm.n
    levels = sorted(set(den.heights), reverse=True)
    means = np.empty((8, n))
    own_sums, sums = np.empty(n), np.empty(n)
    labels = np.zeros(n, dtype=np.intp)
    row: dict[int, int] = {}  # a cluster's smallest leaf -> its row of means
    for height, (groups, fresh) in zip(levels, _descend(den, levels)):
        k = len(groups)
        if k > 1:  # k is 1 only at the top level, which has no silhouette
            if k > len(means):  # every level below the top applies a merge, so k <= n - 1
                grown = np.empty((min(max(k, 2 * len(means)), n - 1), n))
                grown[: len(means)] = means
                means = grown
            for group in fresh:
                at = row.setdefault(group[0], len(row))
                leaves = np.array(group)
                _sum_rows(dm.d, leaves, sums)
                np.divide(sums, len(group), out=means[at])
                own_sums[leaves] = sums[leaves]
                labels[leaves] = at
        yield height, groups, _mean_silhouette(means[:k], own_sums, labels)


def select_k(dm: DistanceMatrix, den: Dendrogram, k_max: int) -> list[list[int]] | None:
    """The groups of the best-scored level of ``sweep`` with k <= ``k_max``, ties to the smallest k.

    ``None`` when no such level has a silhouette.
    """
    levels = takewhile(lambda level: len(level[1]) <= k_max, sweep(dm, den))
    scored = [(score, groups) for _, groups, score in levels if score is not None]
    return max(scored, key=lambda level: level[0])[1] if scored else None
