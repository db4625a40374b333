"""Independent brute-force references for the oracle-equivalence tests.

Most of what is here recomputes from first principles (member-list linkage
distances, all-pairs enumeration, forward path search) and deliberately
avoids the library's own data structures and algorithms, so agreement is
evidence rather than tautology. The exceptions are earlier, slower
versions of library functions, kept verbatim so that a faster rewrite can
be required to give identical results, ties and rounding included.
"""

from __future__ import annotations

import csv
import hashlib
import random
import re
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np

from taxoforge.clustering import LINKAGES, Dendrogram, DistanceMatrix, Merge, cut, silhouette, sweep
from taxoforge.embedding import MAX_DISTINCT_CELLS
from taxoforge.emtt import FragmentNode
from taxoforge.gett import ROW_SAMPLE
from taxoforge.subject import POSITION_WEIGHT, SubjectScore, is_numeric_or_date


# --- clustering -------------------------------------------------------------

def naive_euclidean(vectors) -> list[list[float]]:
    n = len(vectors)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a, b in zip(vectors[i], vectors[j]):
                acc += (a - b) ** 2
            d[i][j] = acc**0.5
    return d


def reference_euclidean(vectors) -> np.ndarray:
    """The distance loop ``clustering.euclidean_matrix`` must match bit for bit.

    One temporary per row for the differences and one for their squares,
    then ``d += d.T`` to fill the lower triangle.
    """
    mat = np.asarray(vectors, dtype=np.float64)
    n = mat.shape[0]
    d = np.zeros((n, n))
    for i in range(n - 1):
        diff = mat[i + 1 :] - mat[i]
        d[i, i + 1 :] = np.sqrt(np.sum(diff * diff, axis=1))
    d += d.T
    return d


def naive_agglomerate(dist: list[list[float]], linkage: str) -> list[tuple[int, int, float, int]]:
    """O(n^3) reference: recompute linkage distances from member lists.

    Same tie-break contract as the implementation: equal distances resolve
    to the lexicographically smallest (min cluster id, max cluster id).
    """
    n = len(dist)
    clusters: list[tuple[int, list[int]]] = [(i, [i]) for i in range(n)]
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                id_x, members_x = clusters[x]
                id_y, members_y = clusters[y]
                pair_ds = [dist[i][j] for i in members_x for j in members_y]
                if linkage == "average":
                    value = sum(pair_ds) / len(pair_ds)
                elif linkage == "complete":
                    value = max(pair_ds)
                elif linkage == "single":
                    value = min(pair_ds)
                else:
                    raise ValueError(linkage)
                key = (value, min(id_x, id_y), max(id_x, id_y))
                if best is None or key < best[0]:
                    best = (key, x, y)
        (value, lo, hi), x, y = best
        merged = clusters[x][1] + clusters[y][1]
        merges.append((lo, hi, value, len(merged)))
        clusters = [c for k, c in enumerate(clusters) if k not in (x, y)]
        clusters.append((next_id, merged))
        next_id += 1
    return merges


def reference_agglomerate(dm: DistanceMatrix, linkage: str = "average") -> Dendrogram:
    """The per-row tie-scan merge loop that ``clustering.agglomerate`` replaced.

    Same Lance-Williams arithmetic, so its dendrograms must be ``==``; every
    tied pair is enumerated and compared by (min cluster id, max cluster id).
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    n = dm.n
    if n < 2:
        raise ValueError("need at least 2 items to agglomerate")
    dist = dm.d.copy()
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    row_min = dist.min(axis=1)
    row_arg = dist.argmin(axis=1)
    cid = list(range(n))
    sizes = [1] * n
    merges: list[Merge] = []
    next_id = n
    for _ in range(n - 1):
        current_min = row_min[active].min()
        # every tied pair has both endpoints' row minimum at current_min
        best_key: tuple[int, int] | None = None
        best_slots = (-1, -1)
        for r in np.flatnonzero(active & (row_min == current_min)):
            for c in np.flatnonzero(dist[r] == current_min):
                a, b = cid[r], cid[c]
                key = (a, b) if a < b else (b, a)
                if best_key is None or key < best_key:
                    best_key, best_slots = key, (int(r), int(c))
        assert best_key is not None
        i, j = best_slots
        si_size, sj_size = sizes[i], sizes[j]
        merges.append(Merge(best_key[0], best_key[1], float(current_min)))
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
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        active[j] = False
        row_min[j] = np.inf
        cid[i] = next_id
        sizes[i] = si_size + sj_size
        next_id += 1
        if not active.any() or next_id - n == n - 1:
            break
        # rows whose cached minimum lived in a merged slot need a rescan;
        # everyone else only sees slot i change, and only downward moves matter
        stale = active & ((row_arg == i) | (row_arg == j))
        stale[i] = True
        stale_rows = np.flatnonzero(stale)
        if stale_rows.size:
            row_min[stale_rows] = dist[stale_rows].min(axis=1)
            row_arg[stale_rows] = dist[stale_rows].argmin(axis=1)
        fresh = active & ~stale
        improved = fresh & (dist[:, i] < row_min)
        row_min[improved] = dist[improved, i]
        row_arg[improved] = i
    return Dendrogram(tuple(merges))


def labels_of(groups: list[list[int]]) -> list[int]:
    """Each item's cluster index in ``groups``, item by item."""
    label = {i: c for c, group in enumerate(groups) for i in group}
    return [label[i] for i in range(len(label))]


def groups_of(labels: list[int]) -> list[list[int]]:
    """The items with label 0, 1, ..., max label, each list ascending."""
    groups: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for i, label in enumerate(labels):
        groups[label].append(i)
    return groups


def naive_silhouette(dist: list[list[float]], labels: list[int]) -> float | None:
    n = len(labels)
    k = len(set(labels))
    if k < 2 or k > n - 1:
        return None
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = sum(dist[i][j] for j in same) / len(same)
        b = None
        for c in set(labels):
            if c == labels[i]:
                continue
            others = [j for j in range(n) if labels[j] == c]
            mean = sum(dist[i][j] for j in others) / len(others)
            if b is None or mean < b:
                b = mean
        m = max(a, b)
        scores.append(0.0 if m == 0 else (b - a) / m)
    return sum(scores) / n


def naive_cut_members(merges, leaf_count: int, height: float) -> set[frozenset[int]]:
    """Clusters at a height via repeated member-set merging.

    Relies on merge heights being non-decreasing: once a merge exceeds the
    cut height, no later merge can apply either.
    """
    active: dict[int, frozenset[int]] = {i: frozenset([i]) for i in range(leaf_count)}
    for k, (left, right, h) in enumerate(merges):
        if h <= height:
            active[leaf_count + k] = active.pop(left) | active.pop(right)
    return set(active.values())


def oracle_prune(merges, leaf_count: int, dist: list[list[float]], delta: float):
    """Exhaustive cut-enumeration reference for dendrogram pruning.

    Returns {cluster members -> parent members or None} for every emitted
    cluster, derived purely from naive cuts and the naive silhouette.
    """
    heights = sorted({h for _, _, h in merges}, reverse=True)
    cuts = []
    for h in heights:
        clusters = naive_cut_members(merges, leaf_count, h)
        labels = [0] * leaf_count
        for idx, cluster in enumerate(sorted(clusters, key=lambda fs: sorted(fs))):
            for i in cluster:
                labels[i] = idx
        cuts.append((h, clusters, naive_silhouette(dist, labels)))
    valid = [s for _, _, s in cuts if s is not None]
    if not valid:
        return {}
    max_sil = max(valid)
    emitted: dict[frozenset, frozenset | None] = {}
    for _, clusters, score in cuts:
        if score is None or score <= max_sil - delta:
            continue
        for cluster in sorted(clusters, key=lambda fs: sorted(fs)):
            if len(cluster) < 2 or cluster in emitted:
                continue
            supersets = [e for e in emitted if cluster < e]
            emitted[cluster] = min(supersets, key=len) if supersets else None
    return emitted


def reference_prune(den: Dendrogram, dm: DistanceMatrix, delta: float) -> list[FragmentNode]:
    """The pruning loop that ``emtt.prune_dendrogram`` replaced, kept verbatim
    apart from skipping the levels without a silhouette.

    Emit subtype clusters from cuts whose silhouette clears the window.

    The cuts are the levels of ``sweep``: at each distinct merge height h,
    highest first, the first #(merge heights <= h) merges. A cut qualifies
    when it has a silhouette (2 <= k <= n-1) and that exceeds the best
    silhouette minus delta. Each qualifying non-singleton cluster is emitted
    once, at its highest qualifying height; its parent is the smallest
    previously emitted strict superset (unique, because dendrogram clusters
    are laminar).
    """
    levels = list(sweep(dm, den))
    valid = [score for _, _, score in levels if score is not None]
    if not valid:
        return []
    max_sil = max(valid)
    emitted: dict[frozenset[int], frozenset[int] | None] = {}
    for _, groups, score in levels:
        if score is None or score <= max_sil - delta:
            continue
        for group in groups:
            cluster = frozenset(group)
            if len(cluster) < 2 or cluster in emitted:
                continue
            parent: frozenset[int] | None = None
            for candidate in emitted:
                if cluster < candidate and (parent is None or len(candidate) < len(parent)):
                    parent = candidate
            emitted[cluster] = parent
    nodes = []
    for cluster, parent in emitted.items():
        claimed: set[int] = set()
        for other in emitted:
            if other < cluster:
                claimed |= other
        nodes.append(
            FragmentNode(
                members=cluster,
                direct=frozenset(cluster - claimed),
                parent=parent,
            )
        )
    return nodes


def emission_height(dm: DistanceMatrix, den: Dendrogram, members, delta: float) -> float:
    """The highest merge height whose ``cut`` holds ``members`` as one cluster and
    whose ``silhouette`` exceeds the best silhouette minus ``delta``.

    Raises ``StopIteration`` when no such cut exists.
    """
    levels = [(h, cut(den, h)) for h in sorted(set(den.heights), reverse=True)]
    scored = [(h, groups, silhouette(dm, groups)) for h, groups in levels]
    valid = [score for _, _, score in scored if score is not None]
    return next(
        h
        for h, groups, score in scored
        if score is not None and score > max(valid) - delta and sorted(members) in groups
    )


# --- emtt -------------------------------------------------------------------------

def table_attribute_distance(attrs1: set[str], attrs2: set[str]) -> float:
    """Jaccard distance between two tables' conceptual-attribute sets; ``jaccard_matrix``'s reference."""
    if not attrs1 and not attrs2:
        return 0.0
    union = attrs1 | attrs2
    return 1.0 - len(attrs1 & attrs2) / len(union)


# --- subject detection --------------------------------------------------------

_INT_RE = re.compile(r"^[+-]?\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2}$")


def reference_is_numeric_or_date(value: str) -> bool:
    """``subject.is_numeric_or_date`` without its first-character prefilter."""
    v = value.strip()
    if not v:
        return False
    if _INT_RE.match(v) or _DECIMAL_RE.match(v):
        return True
    if not _DATE_RE.match(v):
        return False
    try:
        date.fromisoformat(v)
        return True
    except ValueError:
        return False


# --- taxonomy ---------------------------------------------------------------------

def reference_top_level_ids(tax) -> list[str]:
    """The per-type ancestor walk that ``Taxonomy.top_level_ids`` replaced, kept verbatim.

    Non-synthetic types whose proper ancestors are all synthetic.
    """
    out = []
    for tid, et in tax.types.items():
        if et.synthetic:
            continue
        if all(tax.types[a].synthetic for a in tax.ancestors(tid)):
            out.append(tid)
    return sorted(out)


# --- pair-counting metrics ----------------------------------------------------

def brute_confusion(out_labels, gt_labels):
    n = len(out_labels)
    tp = tn = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_out = out_labels[i] == out_labels[j]
            same_gt = gt_labels[i] == gt_labels[j]
            if same_out and same_gt:
                tp += 1
            elif not same_out and not same_gt:
                tn += 1
            elif same_out:
                fp += 1
            else:
                fn += 1
    return tp, tn, fp, fn


def brute_rand_index(out_labels, gt_labels) -> float:
    tp, tn, fp, fn = brute_confusion(out_labels, gt_labels)
    return (tp + tn) / (tp + tn + fp + fn)


def brute_purity(tables_by_type: dict[str, set[str]], gt_top: dict[str, str]) -> float:
    scores = []
    for type_id in sorted(tables_by_type):
        tops = [gt_top[t] for t in tables_by_type[type_id] if t in gt_top]
        if not tops:
            continue
        counts = Counter(tops)
        best = max(counts.values())
        scores.append(best / len(tops))
    return sum(scores) / len(scores)


# --- tree consistency ---------------------------------------------------------

def _reaches(children: dict[str, set[str]], start: str, goal: str) -> bool:
    """Forward DFS: does a directed path start -> goal exist?"""
    stack = [start]
    visited = set()
    while stack:
        cur = stack.pop()
        if cur == goal:
            return True
        if cur in visited:
            continue
        visited.add(cur)
        stack.extend(children.get(cur, ()))
    return False


def path_ancestors(nodes, edges, target: str) -> set[str]:
    """Ancestors found by forward path search from every other node."""
    children: dict[str, set[str]] = {}
    for p, c in edges:
        children.setdefault(p, set()).add(c)
    return {a for a in nodes if a != target and _reaches(children, a, target)}


def brute_tcs(
    out_nodes: list[str],
    out_edges: list[tuple[str, str]],
    out_tables: dict[str, set[str]],
    synthetic: dict[str, bool],
    gt_nodes: list[str],
    gt_edges: list[tuple[str, str]],
    most_specific: dict[str, str],
) -> float | None:
    """Recompute TCS with path-search ancestors and explicit majorities."""
    children: dict[str, set[str]] = {}
    for p, c in out_edges:
        children.setdefault(p, set()).add(c)

    def associated(t: str) -> set[str]:
        out = set(out_tables.get(t, set()))
        for d in out_nodes:
            if d != t and _reaches(children, t, d):
                out |= out_tables.get(d, set())
        return out

    matching: dict[str, str] = {}
    for t in out_nodes:
        annotated = [most_specific[x] for x in associated(t) if x in most_specific]
        if annotated:
            counts = Counter(annotated)
            matching[t] = min(counts, key=lambda name: (-counts[name], name))
    scores = []
    for t in sorted(out_nodes):
        if synthetic.get(t, False) or t not in matching:
            continue
        ancestors = [
            a for a in path_ancestors(out_nodes, out_edges, t) if not synthetic.get(a, False)
        ]
        if not ancestors:
            scores.append(1.0)
            continue
        gt_anc = path_ancestors(gt_nodes, gt_edges, matching[t])
        hits = sum(1 for a in ancestors if a in matching and matching[a] in gt_anc)
        scores.append(hits / len(ancestors))
    if not scores:
        return None
    return sum(scores) / len(scores)


# --- a table's cells, held as rows ---------------------------------------------------
# --- embedding ----------------------------------------------------------------

def reference_local_hash(dim: int, texts: list[str]) -> np.ndarray:
    """``LocalHashProvider(dim).embed_texts(texts)`` as it was: one running sum per text.

    Kept verbatim, so a faster sum can be required to give the same vectors
    byte for byte; the golden digests would miss a last-bit change that
    leaves the clustering as it was.
    """
    token_cache: dict[str, np.ndarray] = {}

    def token_vector(token: str) -> np.ndarray:
        vec = token_cache.get(token)
        if vec is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
            vec = rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            token_cache[token] = vec
        return vec

    out = np.zeros((len(texts), dim), dtype=np.float32)
    for i, text in enumerate(texts):
        tokens = text.split() or [""]
        acc = np.zeros(dim)
        for tok in tokens:
            acc += token_vector(tok)
        acc /= len(tokens)
        norm = np.linalg.norm(acc)
        if norm > 0:
            acc /= norm
        out[i] = acc.astype(np.float32)
    return out


# Tables were once held as lists of stripped, padded rows. These are the readers of
# that form, kept verbatim but for taking rows in place of a table and for skipping
# blank lines, as ingest now does.

def read_rows(path: Path, width: int) -> list[list[str]]:
    """The data rows of a table file: cells stripped, short rows padded to ``width``."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        raw = list(csv.reader(fh))
    rows = []
    for raw_row in filter(None, raw[1:]):  # a blank line is no row
        assert len(raw_row) <= width
        cells = [c.strip() for c in raw_row]
        cells += [""] * (width - len(cells))
        rows.append(cells)
    return rows


def rows_score_columns(rows: list[list[str]], n_cols: int) -> list[SubjectScore]:
    scores = []
    for col in range(n_cols):
        values = [row[col] for row in rows if row[col] != ""]
        if values:
            uniqueness = len(set(values)) / len(values)
            text_ratio = sum(1 for v in values if not is_numeric_or_date(v)) / len(values)
        else:
            uniqueness = 0.0
            text_ratio = 0.0
        bonus = POSITION_WEIGHT * (1.0 - col / n_cols)
        scores.append(SubjectScore(col, uniqueness, text_ratio, bonus))
    return scores


def rows_serialize_column(header: str, column: list[str]) -> str:
    parts = ["<s>", f"<header>{header}</header>"]
    seen: set[str] = set()
    for value in column:
        if value and value not in seen:
            seen.add(value)
            parts.append(value)
            if len(seen) >= MAX_DISTINCT_CELLS:
                break
    return " ".join(parts)


def rows_sample_rows(rows: list[list[str]], seed: int) -> list[list[str]]:
    total = len(rows)
    take = min(ROW_SAMPLE, total)
    rng = random.Random(seed)
    indices = list(range(total))
    for i in range(take):
        j = i + int(rng.random() * (total - i))
        indices[i], indices[j] = indices[j], indices[i]
    return [rows[i] for i in indices[:take]]
