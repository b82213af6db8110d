import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import cdist

import mpda.graph
from mpda.baselines import fit_pca
from mpda.errors import KTooLargeError
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracles import (
    between_class_graph,
    effective_sigma_loop,
    knn_argsort,
    laplacian,
    lda_graphs,
    mutual_edge_mask,
    within_class_graph_dense,
)
from mpda.geodesy import geodesic_distances
from mpda.graph import (
    KNN_BLOCK_ROWS,
    _nearest,
    _smallest,
    between_class_form,
    knn_neighbors,
    within_class_graph,
)
from mpda.partition import partition_classes
from mpda.tangent import patch_bases, per_point_bases


def brute_force_knn(X, k):
    """Oracle: full pairwise sort with explicit (distance, index) keys."""
    n = len(X)
    out = np.zeros((n, k), dtype=int)
    for i in range(n):
        cand = sorted(
            (float(np.linalg.norm(X[i] - X[j])), j) for j in range(n) if j != i
        )
        out[i] = [j for _, j in cand[:k]]
    return out


def test_knn_on_a_line():
    X = np.array([[0.0], [1.0], [3.0]])
    nb = knn_neighbors(X, 1)
    assert list(nb.indices.ravel()) == [1, 0, 1]


def test_knn_k_too_large():
    X = np.zeros((4, 2))
    with pytest.raises(KTooLargeError):
        knn_neighbors(X, 4)


def test_knn_matches_brute_force(rng):
    X = rng.normal(size=(50, 5))
    nb = knn_neighbors(X, 4)
    assert np.array_equal(nb.indices, brute_force_knn(X, 4))
    # distances sorted ascending and nonnegative
    assert np.all(np.diff(nb.distances, axis=1) >= 0)
    assert np.all(nb.distances >= 0)


def test_knn_tie_break_by_index():
    # points 1 and 2 both at distance 1 from point 0
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nb = knn_neighbors(X, 1)
    assert nb.indices[0, 0] == 1


@st.composite
def tie_heavy_points(draw):
    """Points on a coarse integer grid (many exact ties, duplicates), n up
    to past two k-NN blocks, and any valid k up to n - 1."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(KNN_BLOCK_ROWS - 2, 2 * KNN_BLOCK_ROWS + 5)))
    d = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.one_of(st.integers(1, min(7, n - 1)), st.just(n - 1)))
    X = np.random.default_rng(seed).integers(0, levels, size=(n, d)).astype(np.float64)
    return X, k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tie_heavy_points())
def test_knn_bit_identical_to_full_stable_argsort(case):
    X, k = case
    nb, ref = knn_neighbors(X, k), knn_argsort(X, k)
    assert nb.indices.dtype == ref.indices.dtype
    assert np.array_equal(nb.indices, ref.indices)
    assert np.array_equal(nb.distances, ref.distances)


def test_knn_bit_identical_across_blocks_on_real_valued_data(rng):
    X = rng.normal(size=(2 * KNN_BLOCK_ROWS + 37, 6))
    X[100] = X[7]  # one duplicate pair
    for k in (1, 3, 5, 7):
        nb, ref = knn_neighbors(X, k), knn_argsort(X, k)
        assert np.array_equal(nb.indices, ref.indices)
        assert np.array_equal(nb.distances, ref.distances)


@st.composite
def real_valued_points(draw):
    """Real-valued points, optionally with duplicate rows, far from the
    origin (where the squared-norm expansion cancels worst), n up to past
    two k-NN blocks, and any valid k up to n - 1."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(2 * KNN_BLOCK_ROWS, 2 * KNN_BLOCK_ROWS + 9)))
    d = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    if draw(st.booleans()):
        X[rng.integers(0, n, size=n // 3)] = X[rng.integers(0, n, size=n // 3)]
    X += draw(st.sampled_from([0.0, 1e4, 1e8]))
    k = draw(st.one_of(st.integers(1, min(7, n - 1)), st.just(n - 1)))
    return X, k


@settings(max_examples=30, deadline=None, derandomize=True)
@given(real_valued_points())
def test_knn_bit_identical_to_full_stable_argsort_on_real_valued_data(case):
    X, k = case
    nb, ref = knn_neighbors(X, k), knn_argsort(X, k)
    assert nb.indices.tobytes() == ref.indices.tobytes()
    assert nb.distances.tobytes() == ref.distances.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(tie_heavy_points(), real_valued_points()), st.integers(0, 2**32 - 1))
def test_knn_at_k_is_the_head_of_any_larger_search(case, seed):
    # staged fits search once, at the largest k of a grid, and build each
    # smaller k's graphs from the head of that search's lists
    X, K = case
    y = np.random.default_rng(seed).integers(1, 4, size=len(X))
    big = knn_neighbors(X, K)
    for k in sorted({1, 2, K // 2, K - 1} & set(range(1, K))):
        nb = knn_neighbors(X, k)
        head = mpda.graph.NeighborLists(big.indices[:, :k], big.distances[:, :k], k)
        assert head.indices.tobytes() == nb.indices.tobytes()
        assert head.distances.tobytes() == nb.distances.tobytes()
        W, W_head = within_class_graph(nb, y), within_class_graph(head, y)
        for part in ("data", "indices", "indptr"):
            assert getattr(W, part).tobytes() == getattr(W_head, part).tobytes()
        assert between_class_form(X, y, head).tobytes() == between_class_form(X, y, nb).tobytes()


def test_knn_full_row_fallback_only_for_overflowing_rows(rng, monkeypatch):
    X = rng.normal(size=(KNN_BLOCK_ROWS + 60, 5)) + 1e4
    ranked_whole = []

    def spy(D, k, own=None):
        ranked_whole.extend(own.tolist())
        return nearest(D, k, own)

    nearest = mpda.graph._nearest
    monkeypatch.setattr(mpda.graph, "_nearest", spy)
    for k in (1, 4, 9):
        ranked_whole.clear()
        nb, ref = knn_neighbors(X, k), knn_argsort(X, k)
        assert ranked_whole == []  # every row certified from the matrix product
        assert nb.indices.tobytes() == ref.indices.tobytes()
        assert nb.distances.tobytes() == ref.distances.tobytes()
    # a finite row whose squared norm overflows voids the product's bounds:
    # the full cdist rows still give the lists
    X[KNN_BLOCK_ROWS + 3] *= 1e151
    for k in (1, 4, 9):
        ranked_whole.clear()
        nb, ref = knn_neighbors(X, k), knn_argsort(X, k)
        assert KNN_BLOCK_ROWS + 3 in ranked_whole
        assert nb.indices.tobytes() == ref.indices.tobytes()
        assert nb.distances.tobytes() == ref.distances.tobytes()


@st.composite
def ranking_keys(draw):
    """Rows of few distinct values, +-inf among them, and optionally NaN;
    any valid k up to the row length - 1."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(2, 40))
    values = [-np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, np.inf] + ([np.nan] if draw(st.booleans()) else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key = rng.choice(values, size=(rows, cols))
    return key, draw(st.integers(1, cols - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ranking_keys())
def test_smallest_is_a_stable_argsort_prefix(case):
    key, k = case
    before = key.tobytes()
    got = _smallest(key, k)
    assert key.tobytes() == before
    assert got.shape == (key.shape[0], k)
    assert np.all(np.diff(got, axis=1) > 0)  # ascending columns, no repeat
    want = np.argsort(key, axis=1, kind="stable")[:, :k]
    if not np.isnan(key).any():
        assert np.array_equal(got, np.sort(want, axis=1))
    # NaN ranks after every number: the picks of numbers are exact
    for r in range(key.shape[0]):
        g, w = got[r], want[r]
        assert np.array_equal(g[~np.isnan(key[r, g])], np.sort(w[~np.isnan(key[r, w])]))


def test_nearest_leaves_the_block_as_it_was(rng):
    X = rng.integers(0, 3, size=(40, 2)).astype(np.float64)
    X[5] = (1e200, 0.0)  # this row's distances overflow to +inf
    D = cdist(X, X)
    before = D.tobytes()
    near, dist = _nearest(D, 4)
    assert D.tobytes() == before
    ref = knn_argsort(X, 4)
    assert np.array_equal(near, ref.indices) and dist.tobytes() == ref.distances.tobytes()
    rows = np.array([5, 7, 30])
    B = cdist(X[rows], X)
    before = B.tobytes()
    near, dist = _nearest(B, 4, rows)
    assert B.tobytes() == before
    assert np.array_equal(near, ref.indices[rows]) and dist.tobytes() == ref.distances[rows].tobytes()


def test_point_is_never_its_own_neighbor_among_infinite_distances():
    # row 0's distances to the others overflow to +inf, tying with the
    # mask of its own column when that was +inf
    X = np.array([[1e200, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    nb = knn_neighbors(X, 2)
    assert nb.indices[0].tolist() == [1, 2] and np.all(np.isinf(nb.distances[0]))
    assert not np.any(nb.indices == np.arange(4)[:, None])
    lo, hi, _ = nb.edges
    assert np.all(lo < hi)
    assert within_class_graph(nb, np.ones(4, dtype=int)).diagonal().tolist() == [0, 0, 0, 0]
    ref = knn_argsort(X, 2)
    assert np.array_equal(nb.indices, ref.indices)
    assert nb.distances.tobytes() == ref.distances.tobytes()


@pytest.mark.parametrize("kernel,value", [
    ("knn_neighbors", np.nan),
    ("geodesic_distances", np.inf),
    ("partition_classes", -np.inf),
    ("patch_bases", np.inf),
    ("per_point_bases", -np.inf),
    ("fit_pca", np.nan),
])
def test_kernels_reject_non_finite_input(rng, kernel, value):
    X = rng.normal(size=(KNN_BLOCK_ROWS + 40, 3))
    bad = KNN_BLOCK_ROWS + 7  # in the second k-NN block and the second class
    X[bad, 1] = value
    labels = (np.arange(len(X)) >= KNN_BLOCK_ROWS).astype(int)
    calls = {
        "knn_neighbors": lambda: knn_neighbors(X, 3),
        "geodesic_distances": lambda: geodesic_distances(X, 3),
        "partition_classes": lambda: partition_classes([X[labels == 0], X[labels == 1]]),
        "patch_bases": lambda: patch_bases(X, [np.arange(0, bad), np.arange(bad, len(X))]),
        "per_point_bases": lambda: per_point_bases(X, labels, 3),
        "fit_pca": lambda: fit_pca(X, m=2),
    }
    with pytest.raises(ValueError, match="^X contains NaN or Inf$"):
        calls[kernel]()


def test_effective_sigma_matches_loop_with_duplicates():
    # three copies and a fourth point: the copies' neighbors all coincide
    X = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0], [4.0, 0.0], [4.0, 0.0]])
    for k in (1, 2, 3):
        nb = knn_neighbors(X, k)
        assert np.array_equal(nb.distances[:, -1], effective_sigma_loop(nb))
    assert np.array_equal(knn_neighbors(X, 2).distances[:, -1], [0, 0, 0, 1, 3, 3])


def dense_between_oracle(X, y, k):
    """2 X' L(W') X from the dense graph, with X centred so the oracle's
    own sum does not cancel."""
    Xc = X - X.mean(axis=0)
    return 2.0 * Xc.T @ (laplacian(between_class_graph(X, y, k)) @ Xc)


def between_rel_err(X, y, k):
    form = 2.0 * between_class_form(X, y, knn_neighbors(X, k))
    ref = dense_between_oracle(X, y, k)
    return np.max(np.abs(form - ref)) / np.max(np.abs(ref))


def test_between_form_zero_sigma_and_singleton_class():
    # class 1: three copies (sigma = 0) and a point whose neighbors are the
    # copies, so its links have a vanished scale but a positive distance;
    # class 3 is a singleton
    X = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.5], [5.0, 1.0], [5.5, 2.0], [6.0, 0.0], [2.0, 7.0]])
    y = np.array([1, 1, 1, 1, 2, 2, 2, 3])
    nb = knn_neighbors(X, 2)
    sigma = nb.distances[:, -1]
    assert sigma[0] == 0.0 and sigma[3] > 0.0 and set(nb.indices[3]) <= {0, 1, 2}
    for offset in (0.0, 1e4):
        assert between_rel_err(X + offset, y, 2) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(3, 40), st.integers(1, 5), st.integers(1, 4), st.integers(1, 6),
    st.sampled_from([0.0, 1e4]), st.booleans(), st.integers(0, 2**32 - 1),
)
def test_between_form_matches_dense_oracle(n, d, n_classes, k, offset, duplicates, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if duplicates:
        X[rng.integers(0, n, size=n // 2)] = X[0]
    y = rng.integers(1, n_classes + 1, size=n)
    y[-1] = n_classes + 1  # a singleton class
    assert between_rel_err(X + offset, y, min(k, n - 1)) <= 1e-12


def test_edges_list_each_linked_pair_once_and_feed_the_within_graph(rng):
    for trial in range(24):
        n, d = int(rng.integers(4, 30)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        X[n // 2 :] += 1e3  # two far groups: small k leaves them disconnected
        X = np.vstack([X, X[rng.integers(0, n, size=3)]])  # duplicate rows
        n = len(X)
        k = (1, n - 1, int(rng.integers(1, 5)))[trial % 3]
        y = rng.integers(1, 3, size=n)
        y[-1] = 3  # a singleton class
        nb = knn_neighbors(X, k)
        lo, hi, dist = nb.edges
        assert nb.edges is nb.edges  # built once
        assert np.all(lo < hi)
        key = lo * n + hi
        assert np.all(np.diff(key) > 0)  # sorted by (lo, hi), each pair once
        upper = np.triu(mutual_edge_mask(nb), 1)
        assert np.array_equal(upper[lo, hi], np.ones(lo.size, dtype=bool))
        assert lo.size == upper.sum()
        # the distance bit-equals every list copy of the pair
        for i in range(n):
            for j, w in zip(nb.indices[i], nb.distances[i]):
                e = np.searchsorted(key, min(i, j) * n + max(i, j))
                assert dist[e].tobytes() == w.tobytes()
        W, ref = within_class_graph(nb, y), within_class_graph_dense(nb, y)
        for name in ("indptr", "indices", "data"):
            assert getattr(W, name).tobytes() == getattr(ref, name).tobytes()
        if k == 1:
            far = X[:, 0] > 500
            assert not np.any(far[lo] != far[hi])


def test_graph_builders_reject_a_label_count_that_does_not_match(rng):
    X = rng.normal(size=(6, 2))
    nb, y = knn_neighbors(X, 2), np.array([1, 1, 1, 2, 2])
    with pytest.raises(ValueError, match="labels length must match the neighbor structure"):
        within_class_graph(nb, y)
    with pytest.raises(ValueError, match="X and labels must match the neighbor structure"):
        between_class_form(X, y, nb)


def test_within_graph_rules():
    X = np.array([[0.0], [0.5], [10.0], [10.5]])
    y = np.array([1, 1, 1, 2])
    W = within_class_graph(knn_neighbors(X, 1), y).toarray()
    assert W[0, 1] == 1.0 and W[1, 0] == 1.0  # mutual same-class neighbors
    assert W[2, 3] == 0.0 and W[3, 2] == 0.0  # nearest but different classes
    assert np.array_equal(W, W.T) and np.all(np.diag(W) == 0)


def test_within_graph_matches_exhaustive_predicate(rng):
    X = rng.normal(size=(20, 3))
    y = rng.integers(1, 3, size=20)
    k = 3
    nb = knn_neighbors(X, k)
    W = within_class_graph(nb, y).toarray()
    idx = brute_force_knn(X, k)
    expect = np.zeros((20, 20))
    for i in range(20):
        for j in range(20):
            if i == j or y[i] != y[j]:
                continue
            if j in idx[i] or i in idx[j]:
                expect[i, j] = 1.0
    assert np.array_equal(W, expect)


def test_between_graph_cross_class_value():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 2))
    y = np.array([1] * 5 + [2] * 5)
    W = between_class_graph(X, y, k=2)
    cross = ~(y[:, None] == y[None, :])
    assert np.allclose(W[cross], 0.1)


def test_between_graph_same_class_nonneighbors_zero():
    # two same-class points far apart, never in each other's k-NN
    X = np.vstack([
        [[0.0, 0.0], [0.1, 0.0], [50.0, 0.0], [50.1, 0.0]],
        np.random.default_rng(1).normal(100, 0.1, size=(4, 2)),
    ])
    y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    W = between_class_graph(X, y, k=1)
    assert W[0, 2] == 0.0 and W[0, 3] == 0.0


def test_between_graph_kernel_value_at_sigma():
    # same-class neighbor pair at exactly sigma_i = sigma_j = ||xi - xj||
    rng = np.random.default_rng(5)
    X = np.vstack([[[0.0, 0.0], [1.0, 0.0]], rng.normal(8, 0.5, size=(8, 2))])
    y = np.array([1, 1] + [2] * 8)
    W = between_class_graph(X, y, k=1)
    n, n_c = 10, 2
    assert np.isclose(W[0, 1], np.exp(-1.0) * (1 / n - 1 / n_c))


def test_between_graph_same_class_range(rng):
    X = rng.normal(size=(24, 4))
    y = rng.integers(1, 4, size=24)
    y[:3] = [1, 2, 3]
    W = between_class_graph(X, y, k=3)
    assert np.allclose(W, W.T) and np.all(np.diag(W) == 0)
    n = 24
    for c in np.unique(y):
        n_c = int(np.sum(y == c))
        block = W[np.ix_(y == c, y == c)]
        lo = 1 / n - 1 / n_c
        assert np.all(block >= lo - 1e-15) and np.all(block <= 0.0)


def test_between_graph_duplicate_points():
    # coincident same-class points: kernel limit gives weight 1
    X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 1.0]])
    y = np.array([1, 1, 2, 2])
    W = between_class_graph(X, y, k=1)
    assert np.isclose(W[0, 1], 1.0 * (1 / 4 - 1 / 2))
    assert np.isfinite(W).all()


def test_lda_graphs_values():
    y = np.array([1, 1, 2, 2])
    Wb, Ww = lda_graphs(y)
    assert Ww[0, 1] == 0.5 and Ww[0, 2] == 0.0
    assert Wb[0, 2] == 0.25 and np.isclose(Wb[0, 1], 0.25 - 0.5)
    assert np.all(np.diag(Wb) == 0) and np.all(np.diag(Ww) == 0)


def test_laplacian_two_node_chain():
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_zero_graph():
    assert np.all(laplacian(np.zeros((3, 3))) == 0)


def test_laplacian_quadratic_form_identity(rng):
    # x' L x == 1/2 sum_ij W_ij (x_i - x_j)^2
    W = rng.uniform(0, 1, size=(8, 8))
    W = (W + W.T) / 2
    np.fill_diagonal(W, 0.0)
    L = laplacian(W)
    for _ in range(100):
        x = rng.normal(size=8)
        direct = 0.5 * np.sum(W * (x[:, None] - x[None, :]) ** 2)
        assert np.isclose(x @ L @ x, direct, rtol=1e-12)


def test_laplacian_sparse_matches_dense(rng):
    W = rng.uniform(0, 1, size=(6, 6))
    W = (W + W.T) / 2
    np.fill_diagonal(W, 0.0)
    Ls = laplacian(sp.csr_matrix(W))
    assert np.allclose(Ls.toarray(), laplacian(W))


def test_laplacian_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        laplacian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_laplacian_psd_and_null_vector(rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        W = rng.uniform(0, 2, size=(n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        L = laplacian(W)
        assert np.max(np.abs(L @ np.ones(n))) < 1e-12
        assert np.linalg.eigvalsh(L).min() >= -1e-10
