import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial.distance import cdist

from conftest import split_one_patch
from mpda.errors import KTooLargeError
from mpda.geodesy import geodesic_distances, mean_ratios, tortuosity
from mpda.graph import knn_neighbors
from mpda.partition import partition_classes
from partition_oracles import ratio_matrix


def linearity(dists, members):
    """Mean ratio of one point set, as the partitioner sums it."""
    ix = np.ix_(members, members)
    return float(mean_ratios(tortuosity(dists[0][ix], dists[1][ix])[None])[0])


def floyd_warshall(edges, n):
    """Oracle: textbook triple loop over an explicit edge list."""
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for i, j, w in edges:
        D[i, j] = min(D[i, j], w)
        D[j, i] = min(D[j, i], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if D[i, k] + D[k, j] < D[i, j]:
                    D[i, j] = D[i, k] + D[k, j]
    return D


def edges_of(nb):
    out = []
    for i in range(nb.n):
        for j, w in zip(nb.indices[i], nb.distances[i]):
            out.append((i, int(j), float(w)))
    return out


def dict_loop_graph_matrix(nb):
    """Oracle: the edge-length matrix built one edge at a time (the former loop)."""
    n = nb.n
    rows = np.repeat(np.arange(n), nb.k)
    cols = nb.indices.ravel()
    vals = nb.distances.ravel()
    both = sp.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )
    seen = {}
    for i, j, w in zip(both.row, both.col, both.data):
        seen[(int(i), int(j))] = float(w)
    ii, jj = zip(*seen.keys())
    return sp.csr_matrix((list(seen.values()), (ii, jj)), shape=(n, n))


def test_edge_matrix_matches_dict_loop_on_duplicates_and_gaps(rng):
    for trial in range(30):
        n, d = int(rng.integers(4, 30)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        X[n // 2 :] += 1e3  # two far groups: small k leaves them disconnected
        X = np.vstack([X, X[rng.integers(0, n, size=3)], X[:1]])  # duplicates
        if trial % 2:
            X = X[rng.permutation(len(X))]  # interleave the components' members
        k = int(rng.integers(1, 5))
        old = dict_loop_graph_matrix(knn_neighbors(X, k))
        # zero-length edges stay explicit, so the duplicates are reachable
        assert np.any(old.data == 0.0)
        G, _ = geodesic_distances(X, k)
        assert np.array_equal(G, dijkstra(old, directed=False))
        # the partitioner's roots are the graph's components, in the order
        # of their lowest members; a size cap of n splits none of them
        comp = connected_components(old, directed=False)[1]
        roots, _ = partition_classes([X], k, len(X))[0]
        assert [r.tolist() for r in roots] == [np.flatnonzero(comp == c).tolist() for c in range(comp.max() + 1)]
        if trial == 0:
            assert np.isinf(G).any()


def test_euclidean_is_cdist_with_an_exact_zero_diagonal(rng):
    for scale in (1.0, 1e-200, 1e200):
        X = rng.integers(0, 4, size=(30, 3)) * scale + rng.normal(size=(30, 3)) * scale
        X[10] = X[3]  # a duplicate row
        _, DE = geodesic_distances(X, 4)
        assert DE.tobytes() == cdist(X, X).tobytes()
        assert np.all(np.diag(DE) == 0.0) and DE[3, 10] == 0.0


def test_k_out_of_range_raises():
    X = np.zeros((4, 2))
    with pytest.raises(KTooLargeError):
        geodesic_distances(X, 4)
    with pytest.raises(ValueError):
        geodesic_distances(X, 0)


def test_chain_path_sum():
    X = np.array([[0.0], [1.0], [2.0]])
    G, _ = geodesic_distances(X, k=1)
    assert G[0, 2] == 2.0


def test_disconnected_is_infinite():
    # two tight pairs far apart; k=1 keeps them separate components
    X = np.array([[0.0], [0.1], [100.0], [100.1]])
    G, _ = geodesic_distances(X, k=1)
    assert np.isinf(G[0, 2])
    assert G[0, 1] == pytest.approx(0.1)


def test_matches_floyd_warshall(rng):
    X = rng.normal(size=(30, 3))
    nb = knn_neighbors(X, 4)
    G, _ = geodesic_distances(X, 4)
    ref = floyd_warshall(edges_of(nb), 30)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(G), finite)
    assert np.max(np.abs(G[finite] - ref[finite])) < 1e-10


def test_geodesic_dominates_euclidean(rng):
    X = rng.normal(size=(25, 4))
    G, E = geodesic_distances(X, k=4)
    finite = np.isfinite(G)
    assert np.all(G[finite] >= E[finite] - 1e-9)


def test_adding_edges_never_increases_distances(rng):
    # monotonicity: k+1-NN graph is a supergraph of the k-NN graph
    X = rng.normal(size=(20, 3))
    small, _ = geodesic_distances(X, k=2)
    large, _ = geodesic_distances(X, k=3)
    both = np.isfinite(small)
    assert np.all(large[both] <= small[both] + 1e-12)
    assert np.all(np.isfinite(large[both]))


def test_linearity_collinear_points():
    X = np.array([[0.0], [1.0], [2.0]])
    gm = geodesic_distances(X, k=2)
    assert linearity(gm, np.arange(3)) == pytest.approx(1.0)


def test_linearity_elbow():
    # elbow (0,0)-(1,0)-(1,1): corner pair walks 2 over a sqrt(2) chord,
    # so the 3x3 ratio sum is 3 (diag) + 4 (adjacent) + 2*sqrt(2)
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    gm = geodesic_distances(X, k=1)
    expected = (7 + 2 * np.sqrt(2)) / 9
    assert linearity(gm, np.arange(3)) == pytest.approx(expected, abs=1e-12)


def test_linearity_singleton_is_one(rng):
    X = rng.normal(size=(5, 2))
    gm = geodesic_distances(X, k=2)
    assert linearity(gm, np.array([3])) == 1.0


def test_linearity_coincident_points():
    X = np.array([[0.0], [0.0], [1.0]])
    gm = geodesic_distances(X, k=2)
    R = linearity(gm, np.arange(3))
    assert R == pytest.approx(1.0)  # zero-length pair counts as straight


def test_tortuosity_matrix_is_the_pairwise_ratio_rule():
    # two components: a chain 0-1-2 with a duplicate of 0 at 3, and a pair 4-5
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.5]])
    G, E = geodesic_distances(X, k=1)
    R = G.copy()
    assert tortuosity(R, E) is R  # in place
    for i in range(6):
        for j in range(6):
            DG, DE = G[i, j], E[i, j]
            want = np.inf if np.isinf(DG) else (DG / DE if i != j and DE > 0 else 1.0)
            assert R[i, j] == want
    assert R[0, 3] == 1.0 and np.isinf(R[0, 4])
    # hand-built: an unreachable coincident pair
    hand = tortuosity(np.array([[0.0, np.inf], [np.inf, 0.0]]), np.zeros((2, 2)))
    assert np.array_equal(hand, [[1.0, np.inf], [np.inf, 1.0]])
    # a finite geodesic over a distance near the underflow limit overflows
    # to an infinite ratio without raising
    tiny = np.array([[0.0, 4.0], [4.0, 0.0]]), np.array([[0.0, 1e-308], [1e-308, 0.0]])
    with np.errstate(over="ignore"):
        left, right = split_one_patch(np.arange(2), tiny, kprime=1)
        assert np.array_equal(tortuosity(tiny[0].copy(), tiny[1]), [[1.0, np.inf], [np.inf, 1.0]])
    assert list(left) == [0] and list(right) == [1]


def test_tortuosity_equals_the_former_ratio_matrix(rng):
    # geodesic_distances output with coincident points (duplicates, and
    # rows so small that their squared differences underflow to 0),
    # unreachable pairs (clusters 1e3 apart) and distances near the
    # underflow limit, where a ratio can overflow
    for trial in range(60):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d)) + 1e3 * rng.integers(0, 3, size=(n, 1))
        X = X[rng.integers(0, n, size=n)] if trial % 3 == 0 else X
        X = X * (1.0, 1e-155, 1e-160, 1e-200)[trial % 4]
        G, E = geodesic_distances(X, int(rng.integers(1, n)))
        with np.errstate(over="ignore"):
            want = ratio_matrix(G, E)
            got = tortuosity(G.copy(), E)
        assert got.tobytes() == want.tobytes()


def test_ratios_at_least_one(rng):
    for _ in range(5):
        X = rng.normal(size=(25, 3))
        gm = geodesic_distances(X, k=5)
        members = np.arange(25)
        if np.isfinite(gm[0]).all():
            R = linearity(gm, members)
            assert R >= 1.0 - 1e-9
