"""Neighbor graphs, the between-class form and class scatter matrices.

All constructions are deterministic: k-NN ties are broken by ascending
point index, which makes every downstream matrix reproducible bit for bit.
None holds an n x n array: k-NN reads row blocks of the distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import KTooLargeError

KNN_BLOCK_ROWS = 256  # distance rows held at once; cdist values do not depend on it


@dataclass(frozen=True)
class NeighborLists:
    """Exact k-nearest neighbors per point, sorted by ascending distance.

    ``indices[i]`` are the k neighbors of point i (no self); ``distances``
    holds the matching Euclidean distances.
    """

    indices: np.ndarray  # (n, k) int
    distances: np.ndarray  # (n, k) float
    k: int

    @property
    def n(self) -> int:
        return self.indices.shape[0]


def pairwise_euclidean(X: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of Euclidean distances with an exact zero diagonal."""
    D = cdist(X, X)
    np.fill_diagonal(D, 0.0)
    return D


def _nearest(D: np.ndarray, k: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest columns of each row of a distance block, by (distance, index).

    Row r of ``D`` holds the distances from point ``start + r`` to every
    point; that point's own entry is set to +inf in place.  The order equals
    the first k entries of a stable full-row argsort.
    """
    rows = np.arange(D.shape[0])
    D[rows, start + rows] = np.inf
    near = np.sort(np.argpartition(D, k - 1, axis=1)[:, :k], axis=1)
    dist = np.take_along_axis(D, near, axis=1)
    order = np.argsort(dist, axis=1, kind="stable")  # near is index-sorted
    near = np.take_along_axis(near, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    # argpartition breaks ties at the k-th distance arbitrarily: a row with
    # more than k entries up to that distance (or a NaN one) is sorted whole
    kth = dist[:, -1:]
    for r in np.flatnonzero((np.count_nonzero(D <= kth, axis=1) > k) | np.isnan(kth[:, 0])):
        near[r] = np.argsort(D[r], kind="stable")[:k]
        dist[r] = D[r, near[r]]
    return near, dist


def knn_neighbors(X: np.ndarray, k: int) -> NeighborLists:
    """Exact k nearest neighbors of every row of X by Euclidean distance.

    Ties are broken by ascending point index so the result does not depend
    on search order.  Raises ``KTooLargeError`` unless 1 <= k < n.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise KTooLargeError(f"k={k} must be smaller than the number of points n={n}")
    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    for start in range(0, n, KNN_BLOCK_ROWS):
        stop = min(start + KNN_BLOCK_ROWS, n)
        indices[start:stop], distances[start:stop] = _nearest(cdist(X[start:stop], X), k, start)
    return NeighborLists(indices=indices, distances=distances, k=k)


def _mutual_edge_mask(nb: NeighborLists) -> sp.csr_matrix:
    """Boolean adjacency: edge iff i in N_k(j) or j in N_k(i)."""
    n = nb.n
    rows = np.repeat(np.arange(n), nb.k)
    cols = nb.indices.ravel()
    A = sp.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
    A = (A + A.T).astype(bool)
    return A.tocsr()


def within_class_graph(nb: NeighborLists, labels: np.ndarray) -> sp.csr_matrix:
    """Binary graph linking neighbor pairs that share a class label.

    W_ij = 1 iff (i in N_k(j) or j in N_k(i)) and y_i = y_j; symmetric,
    zero diagonal, stored sparse.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != nb.n:
        raise ValueError("labels length must match the neighbor structure")
    A = _mutual_edge_mask(nb).tocoo()
    keep = labels[A.row] == labels[A.col]
    W = sp.csr_matrix(
        (np.ones(int(keep.sum())), (A.row[keep], A.col[keep])), shape=(nb.n, nb.n)
    )
    W.setdiag(0.0)
    W.eliminate_zeros()
    return W


def _effective_sigma(nb: NeighborLists) -> np.ndarray:
    """Local scale sigma_i = distance to the k-th nearest neighbor.

    Distances ascend along each list, so sigma_i = 0 only when every
    neighbor of i coincides with it; the kernel limit handles those pairs.
    """
    return nb.distances[:, -1].copy()


def class_scatters(X: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class-sum scatter matrices of the rows of X.

    Returns ``(S_b, sizes, S_c)``: per class, in ascending label order, its
    size n_c and scatter S_c = sum_{i in c} (x_i - mu_c)(x_i - mu_c)' stacked
    in ``S_c``; and the scatter of the class means
    S_b = sum_c n_c (mu_c - mu)(mu_c - mu)'.  S_b + sum_c S_c is the total
    scatter S_t.  Every term is built from centred rows, so no difference of
    large matrices cancels.
    """
    X = np.asarray(X, dtype=np.float64)
    _, inverse, sizes = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    Xc = X - X.mean(axis=0)
    means = np.empty((sizes.size, X.shape[1]))
    S_c = np.empty((sizes.size, X.shape[1], X.shape[1]))
    for c in range(sizes.size):
        Z = Xc[inverse == c]
        means[c] = Z.mean(axis=0)
        Z = Z - means[c]
        S_c[c] = Z.T @ Z
    return means.T @ (sizes[:, None] * means), sizes, S_c


def between_class_form(X: np.ndarray, labels: np.ndarray, nb: NeighborLists) -> np.ndarray:
    """X' L(W') X for the graph pulling apart nearby points of different classes.

    W' gives every cross-class pair 1/n and a same-class pair in class c
    A_ij * (1/n - 1/n_c) <= 0, where A_ij is a locally scaled heat kernel
    (Zelnik-Manor & Perona 2004) that is nonzero only for pairs linked in
    ``nb`` (i in N_k(j) or j in N_k(i)).  The cross-class part equals the
    class-sum form S_t - sum_c (n_c/n) S_c = S_b + sum_c (1 - n_c/n) S_c,
    and the kernel part is a sum over the neighbor edges, so the d x d
    result costs O(nk + d^2) memory and no n x n graph.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    n = nb.n
    if X.shape[0] != n or labels.shape[0] != n:
        raise ValueError("X and labels must match the neighbor structure")
    S_b, sizes, S_c = class_scatters(X, labels)
    form = S_b + np.tensordot(1.0 - sizes / n, S_c, axes=1)

    # each linked same-class pair once, with its distance from the lists
    i = np.repeat(np.arange(n), nb.k)
    j = nb.indices.ravel()
    keep = labels[i] == labels[j]
    lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
    _, first = np.unique(lo * n + hi, return_index=True)
    lo, hi, dist = lo[first], hi[first], nb.distances.ravel()[keep][first]

    sigma = _effective_sigma(nb)
    scale = sigma[lo] * sigma[hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.exp(-(dist**2) / scale)
    kernel[(scale == 0) & (dist > 0)] = 0.0  # vanished scale, genuine distance
    kernel[dist == 0] = 1.0  # coincident points: kernel limit
    _, inverse = np.unique(labels, return_inverse=True)
    w = kernel * (1.0 / n - 1.0 / sizes[inverse[lo]])
    E = X[lo] - X[hi]
    return form + E.T @ (w[:, None] * E)
