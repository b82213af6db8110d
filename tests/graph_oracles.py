"""Dense reference constructions the production graph code is checked against.

These are the former n x n implementations of ``mpda.graph``: the full
stable-argsort k-NN search, the dense mutual-edge mask and within graph,
the per-point local-scale loop, the dense between-class graph, the LDA
weight graphs and the graph Laplacian.  The fit path no longer builds any
of them.
"""

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from mpda.graph import NeighborLists


def knn_argsort(X, k):
    """k-NN lists from one stable argsort of every full distance row."""
    X = np.asarray(X, dtype=np.float64)
    D = cdist(X, X)
    # NaN sorts after +inf, so a point is never its own neighbor; the
    # stable sort keeps equal distances in ascending-index order
    np.fill_diagonal(D, np.nan)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    dists = np.take_along_axis(D, order, axis=1)
    return NeighborLists(indices=order, distances=dists, k=k)


def mutual_edge_mask(nb):
    """Dense boolean adjacency: edge iff i in N_k(j) or j in N_k(i)."""
    A = np.zeros((nb.n, nb.n), dtype=bool)
    for i in range(nb.n):
        A[i, nb.indices[i]] = True
    return A | A.T


def within_class_graph_dense(nb, labels):
    """Binary within graph: the mutual-edge mask restricted to same-class pairs."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return sp.csr_matrix((mutual_edge_mask(nb) & same).astype(np.float64))


def effective_sigma_loop(nb):
    """Local scale sigma_i = distance to the k-th nearest neighbor.

    Duplicate points can make sigma_i = 0; it is then replaced by the
    smallest positive neighbor distance of i, or left at 0 when every
    neighbor coincides with i (the kernel limit handles those pairs).
    """
    sigma = nb.distances[:, -1].copy()
    for i in np.flatnonzero(sigma == 0):
        positive = nb.distances[i][nb.distances[i] > 0]
        sigma[i] = positive.min() if positive.size else 0.0
    return sigma


def between_class_graph(X, labels, k):
    """Dense graph pulling apart nearby points from different classes.

    Cross-class pairs get weight 1/n.  A same-class pair in class c gets
    A_ij * (1/n - 1/n_c), where A_ij is a locally scaled heat kernel that
    is nonzero only for neighbor pairs.  Note 1/n - 1/n_c <= 0, so
    same-class entries are nonpositive.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    n = X.shape[0]
    nb = knn_argsort(X, k)
    sigma = effective_sigma_loop(nb)

    same = labels[:, None] == labels[None, :]
    uniq, counts = np.unique(labels, return_counts=True)
    n_c = dict(zip(uniq, counts))
    class_size = np.array([n_c[y] for y in labels], dtype=np.float64)

    W = np.full((n, n), 1.0 / n)
    W[same] = 0.0

    D = cdist(X, X)
    mask = mutual_edge_mask(nb)
    scale = np.outer(sigma, sigma)
    A = np.zeros((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.exp(-(D**2) / scale)
    kernel[(scale == 0) & (D > 0)] = 0.0  # vanished scale, genuine distance
    kernel[D == 0] = 1.0  # coincident points: kernel limit
    A[mask & same] = kernel[mask & same]

    coeff = (1.0 / n) - (1.0 / class_size)  # per-row class term
    W += A * same * coeff[None, :]
    np.fill_diagonal(W, 0.0)
    return W


def lda_graphs(labels):
    """Global between/within weight pair reproducing classical scatter matrices.

    W^w_ij = 1/n_c for same-class pairs, else 0; W^b_ij = 1/n - 1/n_c for
    same-class pairs and 1/n otherwise.  Diagonals are zeroed.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        raise ValueError("labels must be nonempty")
    same = labels[:, None] == labels[None, :]
    uniq, counts = np.unique(labels, return_counts=True)
    n_c = dict(zip(uniq, counts))
    class_size = np.array([n_c[y] for y in labels], dtype=np.float64)

    Ww = np.where(same, 1.0 / class_size[None, :], 0.0)
    Wb = np.where(same, 1.0 / n - 1.0 / class_size[None, :], 1.0 / n)
    np.fill_diagonal(Ww, 0.0)
    np.fill_diagonal(Wb, 0.0)
    return Wb, Ww


def laplacian(W):
    """Graph Laplacian L = D - W with D_ii = sum_{j != i} W_ij.

    Accepts a dense array or scipy sparse matrix and returns the same
    container kind.  Raises ``ValueError`` if W is not symmetric.
    """
    if sp.issparse(W):
        diff = (W - W.T).tocoo()
        if diff.nnz and np.max(np.abs(diff.data)) > 1e-10:
            raise ValueError("weight matrix is not symmetric")
        Wz = W.copy().tolil()
        Wz.setdiag(0.0)
        Wz = Wz.tocsr()
        deg = np.asarray(Wz.sum(axis=1)).ravel()
        return (sp.diags(deg) - Wz).tocsr()
    W = np.asarray(W, dtype=np.float64)
    if not np.allclose(W, W.T, rtol=0.0, atol=1e-10):
        raise ValueError("weight matrix is not symmetric")
    Wz = W.copy()
    np.fill_diagonal(Wz, 0.0)
    return np.diag(Wz.sum(axis=1)) - Wz
