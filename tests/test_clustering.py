from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from .oracles import (
    groups_of,
    labels_of,
    naive_agglomerate,
    naive_euclidean,
    naive_silhouette,
    reference_agglomerate,
    reference_euclidean,
)
from taxoforge import clustering
from taxoforge.clustering import (
    ROW_BLOCK,
    DistanceMatrix,
    Merge,
    agglomerate,
    cut,
    euclidean_matrix,
    select_k,
    silhouette,
    sweep,
)
from taxoforge.emtt import jaccard_matrix


def dm_from(array) -> DistanceMatrix:
    return DistanceMatrix(np.asarray(array, dtype=np.float64))


def random_distance_matrix(rng, n) -> DistanceMatrix:
    d = rng.random((n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


# --- euclidean ---------------------------------------------------------------


def test_euclidean_identical_vectors():
    dm = euclidean_matrix(np.zeros((3, 4)))
    assert np.array_equal(dm.d, np.zeros((3, 3)))


def test_euclidean_345():
    dm = euclidean_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert dm.d[0, 1] == pytest.approx(5.0, abs=0)


def test_euclidean_matches_naive():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(10, 6))
    dm = euclidean_matrix(vectors)
    naive = np.asarray(naive_euclidean(vectors.tolist()))
    assert np.max(np.abs(dm.d - naive)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3, 300])
@pytest.mark.parametrize("dim", [2, 64, 200])
def test_euclidean_equals_reference_bit_for_bit(n, dim):
    rng = np.random.default_rng(n * 1000 + dim)
    vectors = rng.normal(size=(n, dim))
    if n >= 3:
        vectors[n - 1] = vectors[0]  # a duplicate pair, at distance exactly 0
        vectors[n // 2 :: 7] = vectors[1]  # and a group of duplicates
    d = euclidean_matrix(vectors).d
    assert d.tobytes() == reference_euclidean(vectors).tobytes()
    if n >= 3:
        assert d[0, n - 1] == 0.0 and d[1, n // 2] == 0.0


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        dm_from([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        dm_from([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        dm_from([[0, -1], [-1, 0]])
    # NaN != NaN, so these must not be reported as asymmetry
    with pytest.raises(ValueError, match="finite and non-negative"):
        dm_from([[0, np.nan], [np.nan, 0]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        dm_from([[np.nan, 1], [1, 0]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        dm_from([[0, np.inf], [np.inf, 0]])


BAD_ENTRIES = [(-1.0, "finite and non-negative"), (np.nan, "finite and non-negative"), (7.0, "symmetric")]


@pytest.mark.parametrize(
    "i, j", [(0, 1), (ROW_BLOCK - 1, ROW_BLOCK), (ROW_BLOCK, 2 * ROW_BLOCK + 3), (3, 44)]
)
def test_distance_matrix_validation_reaches_every_block(i, j):
    """An entry in any row block, on either side of the diagonal, is checked."""
    d = random_distance_matrix(np.random.default_rng(i * 100 + j), 45).d
    for value, message in BAD_ENTRIES:
        for r, c in [(i, j), (j, i)]:
            bad = d.copy()
            bad[r, c] = value
            with pytest.raises(ValueError, match=message):
                DistanceMatrix(bad)
    bad = d.copy()
    bad[j, j] = 1.0
    with pytest.raises(ValueError, match="diagonal"):
        DistanceMatrix(bad)


def test_distance_matrix_checks_without_n_by_n_temporaries():
    d = random_distance_matrix(np.random.default_rng(5), 2000).d
    tracemalloc.start()
    try:
        assert DistanceMatrix(d).d is d
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * d.nbytes


# --- agglomerate --------------------------------------------------------------


def test_line_points_average_linkage():
    dm = euclidean_matrix(np.array([[0.0], [1.0], [10.0]]))
    den = agglomerate(dm, "average")
    assert den.merges[0].left == 0 and den.merges[0].right == 1
    assert den.merges[0].height == pytest.approx(1.0)
    # mean of |0-10| and |1-10|
    assert den.merges[1].height == pytest.approx(9.5)
    assert den.merges[1].left == 2 and den.merges[1].right == 3


def test_one_item_gives_no_merges():
    den = agglomerate(DistanceMatrix(np.zeros((1, 1))))
    assert den.merges == ()
    assert den.leaf_count == 1


def test_two_items():
    dm = dm_from([[0.0, 2.5], [2.5, 0.0]])
    den = agglomerate(dm)
    assert len(den.merges) == 1
    assert den.merges[0].height == 2.5
    assert (den.merges[0].left, den.merges[0].right) == (0, 1)


@pytest.mark.parametrize("linkage", ["average", "complete", "single"])
def test_matches_naive_reference(linkage):
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(2, 18))
        dm = random_distance_matrix(rng, n)
        den = agglomerate(dm, linkage)
        reference = naive_agglomerate(dm.d.tolist(), linkage)
        assert [(m.left, m.right) for m in den.merges] == [(r[0], r[1]) for r in reference]
        for mine, ref in zip(den.heights, (r[2] for r in reference)):
            assert mine == pytest.approx(ref, abs=1e-9)


def test_tie_break_prefers_smallest_ids():
    # four equidistant points: first merge must be (0, 1)
    d = np.ones((4, 4)) - np.eye(4)
    den = agglomerate(DistanceMatrix(d), "average")
    assert (den.merges[0].left, den.merges[0].right) == (0, 1)
    assert (den.merges[1].left, den.merges[1].right) == (2, 3)


def integer_distance_matrix(values: list[int], n: int) -> DistanceMatrix:
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = values
    return DistanceMatrix(d + d.T)


tie_heavy_matrices = st.one_of(
    # integer distances in {0..3}: most pairs tie with many others
    st.integers(min_value=2, max_value=24).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(lambda values: integer_distance_matrix(values, n))
    ),
    # points on a small grid, drawn with repeats: duplicate rows sit at distance 0
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=24
    ).map(lambda points: euclidean_matrix(np.asarray(points, dtype=np.float64))),
    # attribute sets over a small vocabulary: Jaccard distances repeat
    st.lists(st.sets(st.sampled_from("abcde"), max_size=4), min_size=2, max_size=24).map(
        lambda sets: jaccard_matrix(
            [f"t{i}" for i in range(len(sets))], {f"t{i}": s for i, s in enumerate(sets)}
        )
    ),
)


@pytest.mark.parametrize("linkage", ["average", "complete", "single"])
@given(dm=tie_heavy_matrices)
@settings(max_examples=150)
def test_matches_reference_under_ties(linkage, dm):
    assert agglomerate(dm, linkage) == reference_agglomerate(dm, linkage)


@pytest.mark.parametrize("linkage", ["average", "complete", "single"])
def test_agglomerate_gives_its_input_back(linkage):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, ROW_BLOCK, 2 * ROW_BLOCK + 3):
        dm = random_distance_matrix(rng, n)
        before = dm.d.tobytes()
        agglomerate(dm, linkage)
        assert dm.d.tobytes() == before


@pytest.mark.parametrize("fail_at", [1, 2, 20, 36])
def test_agglomerate_gives_its_input_back_when_the_loop_raises(monkeypatch, fail_at):
    dm = random_distance_matrix(np.random.default_rng(8), 2 * ROW_BLOCK + 5)
    before = dm.d.tobytes()
    calls = 0

    def failing_merge(*args):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise RuntimeError("merge failed")
        return Merge(*args)

    monkeypatch.setattr(clustering, "Merge", failing_merge)
    with pytest.raises(RuntimeError, match="merge failed"):
        agglomerate(dm)
    assert dm.d.tobytes() == before


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_clustering_holds_at_most_half_a_matrix_more():
    # numpy reports its buffers to tracemalloc, so a full n x n copy or gather shows
    rng = np.random.default_rng(12)
    points = np.concatenate([rng.normal(0, 1, size=(300, 8)), rng.normal(10, 1, size=(300, 8))])
    dm = euclidean_matrix(points)
    den = agglomerate(dm)
    assert traced_peak(agglomerate, dm) <= 0.6 * dm.d.nbytes
    assert traced_peak(select_k, dm, den, 50) <= 0.25 * dm.d.nbytes


def test_heights_non_decreasing():
    rng = np.random.default_rng(3)
    for linkage in ("average", "complete", "single"):
        dm = random_distance_matrix(rng, 20)
        den = agglomerate(dm, linkage)
        heights = den.heights
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


# --- cut ------------------------------------------------------------------------


def line_dendrogram():
    dm = euclidean_matrix(np.array([[0.0], [1.0], [10.0]]))
    return dm, agglomerate(dm, "average")


def test_cut_above_max_height():
    _, den = line_dendrogram()
    assert cut(den, 100.0) == [[0, 1, 2]]


def test_cut_below_min_height():
    _, den = line_dendrogram()
    assert cut(den, 0.5) == [[0], [1], [2]]


def test_cut_between():
    _, den = line_dendrogram()
    assert cut(den, 5.0) == [[0, 1], [2]]


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=3, max_value=12))
@settings(max_examples=40)
def test_cut_monotone_refinement(seed, n):
    rng = np.random.default_rng(seed)
    dm = random_distance_matrix(rng, n)
    den = agglomerate(dm)
    heights = sorted(set(den.heights))
    for h1, h2 in zip(heights, heights[1:]):
        fine = labels_of(cut(den, h1))
        coarse = labels_of(cut(den, h2))
        mapping = {}
        for f_label, c_label in zip(fine, coarse):
            assert mapping.setdefault(f_label, c_label) == c_label


# --- silhouette -------------------------------------------------------------------


def two_blob_matrix():
    # blobs {0,1,2} and {3,4,5}: intra 0.1, inter 10
    d = np.full((6, 6), 10.0)
    for block in ([0, 1, 2], [3, 4, 5]):
        for i in block:
            for j in block:
                d[i, j] = 0.0 if i == j else 0.1
    return DistanceMatrix(d)


def test_silhouette_two_blobs():
    assert silhouette(two_blob_matrix(), groups_of([0, 0, 0, 1, 1, 1])) > 0.9


def test_silhouette_sentinel_for_single_cluster():
    assert silhouette(two_blob_matrix(), groups_of([0, 0, 0, 0, 0, 0])) is None


def test_silhouette_rejects_groups_that_do_not_partition():
    dm = two_blob_matrix()
    with pytest.raises(ValueError, match="partition"):
        silhouette(dm, [[0, 1, 2], [3, 4]])  # item 5 missing
    with pytest.raises(ValueError, match="partition"):
        silhouette(dm, [[0, 1, 2], [2, 3, 4, 5]])  # item 2 twice


def test_silhouette_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 30
        dm = random_distance_matrix(rng, n)
        k = int(rng.integers(2, 8))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster non-empty
        mine = silhouette(dm, groups_of([int(x) for x in labels]))
        ref = naive_silhouette(dm.d.tolist(), [int(x) for x in labels])
        assert mine == pytest.approx(ref, abs=1e-12)


def test_silhouette_range_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dm = random_distance_matrix(rng, 15)
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=15)
        labels[:k] = np.arange(k)
        score = silhouette(dm, groups_of([int(x) for x in labels]))
        assert -1.0 <= score <= 1.0


# --- select_k -----------------------------------------------------------------------


def planted_blobs(rng, centers, per, spread=0.01):
    points = []
    for c in centers:
        points.extend(rng.normal(loc=c, scale=spread, size=(per, len(c))))
    return np.asarray(points)


def test_select_k_planted_three_blobs():
    rng = np.random.default_rng(1)
    points = planted_blobs(rng, [(0, 0), (50, 0), (0, 50)], per=6)
    dm = euclidean_matrix(points)
    den = agglomerate(dm)
    assert len(select_k(dm, den, 10)) == 3


def test_select_k_single_candidate():
    dm = euclidean_matrix(np.array([[0.0], [1.0], [5.0]]))
    den = agglomerate(dm)
    assert select_k(dm, den, 2) == [[0, 1], [2]]


def test_select_k_ties_resolve_to_smallest_exhaustively():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 14))
        dm = random_distance_matrix(rng, n)
        den = agglomerate(dm)
        picked = select_k(dm, den, n - 1)
        # exhaustive scan over realizable counts
        heights = den.heights
        candidates = []
        for kk in range(2, n):
            applied = n - kk
            if heights[applied - 1] == heights[applied]:
                continue
            groups = cut(den, (heights[applied - 1] + heights[applied]) / 2)
            assert len(groups) == kk
            candidates.append((kk, silhouette(dm, groups)))
        best_score = max(s for _, s in candidates)
        smallest_best = min(kk for kk, s in candidates if s == best_score)
        assert len(picked) == smallest_best


def test_select_k_no_valid_k():
    # identical points: every merge at height 0, only k=1 realizable
    dm = euclidean_matrix(np.zeros((4, 2)))
    den = agglomerate(dm)
    assert select_k(dm, den, 3) is None


def test_select_k_scale_invariance():
    rng = np.random.default_rng(2)
    dm = random_distance_matrix(rng, 12)
    scaled = DistanceMatrix(dm.d * 37.5)
    groups1 = select_k(dm, agglomerate(dm), 11)
    groups2 = select_k(scaled, agglomerate(scaled), 11)
    assert len(groups1) == len(groups2)
    assert groups1 == groups2


def ten_point_dendrogram():
    # average linkage gives the heights ..., 0.4714045207910317 twice, then
    # 0.4714045207910316: the cut there applies three merges and no cut
    # applies four, so k = 7 is a cut and k = 6 is not
    points = np.array(
        [(0, 3, 3), (1, 0, 3), (1, 3, 3), (0, 1, 3), (3, 0, 2),
         (1, 2, 0), (0, 1, 3), (1, 1, 2), (0, 0, 2), (3, 2, 1)],
        dtype=np.float64,
    ) / 3
    dm = euclidean_matrix(points)
    return dm, agglomerate(dm, "average")


def test_select_k_non_monotone_heights_picks_only_cuts():
    dm, den = ten_point_dendrogram()
    assert den.heights[2:5] == [0.4714045207910317, 0.4714045207910317, 0.4714045207910316]
    cuts = [cut(den, h) for h in den.heights]
    assert sorted({len(groups) for groups in cuts}) == [1, 2, 3, 4, 5, 7, 8, 9]
    for k_max in range(2, 10):
        assert select_k(dm, den, k_max) in cuts
    # no level has k = 6, so allowing it adds no candidate
    assert select_k(dm, den, 6) == select_k(dm, den, 5)


# --- sweep ----------------------------------------------------------------------


def assert_sweep_matches_cut(dm, den):
    levels = list(sweep(dm, den))
    heights = [h for h, _, _ in levels]
    assert all(a > b for a, b in zip(heights, heights[1:]))
    assert heights == sorted(set(den.heights), reverse=True)
    for h, groups, score in levels:
        assert groups == cut(den, h)
        # every item is in exactly one non-empty cluster
        assert all(groups)
        assert sorted(i for group in groups for i in group) == list(range(den.leaf_count))
        # each cluster ascends, and clusters are in order of their smallest member
        assert all(group == sorted(group) for group in groups)
        assert [group[0] for group in groups] == sorted(group[0] for group in groups)
        assert score == silhouette(dm, groups)


def test_sweep_matches_cut_on_non_monotone_heights():
    assert_sweep_matches_cut(*ten_point_dendrogram())


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=14),
    st.sampled_from(["euclidean", "jaccard"]),
    st.sampled_from(["average", "complete", "single"]),
)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_cut_and_silhouette(seed, n, kind, linkage):
    rng = np.random.default_rng(seed)
    if kind == "euclidean":
        # small integer grids give tied and one-ulp-apart merge heights
        dm = euclidean_matrix(rng.integers(0, 4, size=(n, 3)) / 3)
    else:
        ids = [f"t{i}" for i in range(n)]
        sets = {t: {f"a{j}" for j in range(6) if rng.random() < 0.5} for t in ids}
        dm = jaccard_matrix(ids, sets)
    assert_sweep_matches_cut(dm, agglomerate(dm, linkage))


def float_bits(score: float | None) -> bytes | None:
    return None if score is None else struct.pack("<d", score)


@pytest.mark.parametrize("n", [9, 2 * ROW_BLOCK + 3, 130, 300])
@pytest.mark.parametrize("kind", ["euclidean", "jaccard"])
@pytest.mark.parametrize("linkage", ["average", "complete", "single"])
def test_sweep_equals_cut_and_silhouette_bit_for_bit(n, kind, linkage):
    """Past numpy's 128-element pairwise block, so a sum in any other order shows,
    and past two row blocks, so cluster sums run over several blocks and end in a partial one."""
    rng = np.random.default_rng(n)
    if kind == "euclidean":
        dm = euclidean_matrix(rng.normal(size=(n, 8)))
    else:
        ids = [f"t{i}" for i in range(n)]
        sets = {t: {f"a{j}" for j in range(12) if rng.random() < 0.3} for t in ids}
        dm = jaccard_matrix(ids, sets)
    den = agglomerate(dm, linkage)
    levels = list(sweep(dm, den))
    assert [h for h, _, _ in levels] == sorted(set(den.heights), reverse=True)
    for h, groups, score in levels:
        assert groups == cut(den, h)
        assert float_bits(score) == float_bits(silhouette(dm, groups)), (h, len(groups))
