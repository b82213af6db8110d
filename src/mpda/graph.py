"""Neighbor graphs, the between-class form and class scatter matrices.

All constructions are deterministic: one kernel, ``_smallest``, ranks every
neighbor list by (distance, index), ties to the lower index, and no point is
in its own list, so every downstream matrix is reproducible bit for bit.
Every reader of the undirected k-NN graph reads ``NeighborLists.edges``.
None holds an n x n array.  k-NN screens row blocks of squared distances
from one matrix product, then re-ranks a candidate set with cdist's own
arithmetic under a per-row rounding certificate, so its lists equal those
of the full cdist matrix bit for bit, whatever the number of BLAS threads.
Every kernel takes finite points: ``_finite`` rejects NaN and Inf for all.
The kernels are internal to the fit; the package exports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import KTooLargeError

# distance rows held at once by k-NN and the 1-NN scorers: each block holds
# a few 128 x n arrays (2 MB apiece at n = 2000); results do not depend on it
KNN_BLOCK_ROWS = 128
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny  # smallest normal number


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

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each linked pair once as ``(lo, hi, distance)``, lo < hi, sorted by (lo, hi).

        i and j are linked iff i in N_k(j) or j in N_k(i); a mutual pair keeps
        its first listed copy, whose distance bit-equals the other copy's.
        """
        n = self.n
        i = np.repeat(np.arange(n), self.k)
        j = self.indices.ravel()
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        _, first = np.unique(lo * n + hi, return_index=True)
        return lo[first], hi[first], self.distances.ravel()[first]


def _finite(X: np.ndarray) -> np.ndarray:
    """X as a float64 array; raises ``ValueError`` unless every value is finite."""
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or Inf")
    return X


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise KTooLargeError(f"k={k} must be smaller than the number of points n={n}")


def _smallest(key: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest values of each row by (value, index), ascending.

    The one owner of the neighbor ranking rule: the first k entries of a
    stable argsort of the row, NaN after every number.  Needs k < row length.
    """
    part = np.argpartition(key, k, axis=1)
    pick = part[:, :k]
    # argpartition splits a tie at the boundary arbitrarily: such rows go whole
    val = np.take_along_axis(key, part[:, : k + 1], axis=1)
    for r in np.flatnonzero(val[:, :k].max(axis=1) == val[:, k]):
        pick[r] = np.argsort(key[r], kind="stable")[:k]
    pick.sort(axis=1)
    return pick


def _nearest(D: np.ndarray, k: int, own: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest columns of each row of a distance block, by (distance, index).

    Row r of ``D`` holds the distances from one point to every point; its own
    column, ``own[r]`` (r when None), is NaN while ranked, so never picked.
    """
    at = (np.arange(D.shape[0]), np.arange(D.shape[0]) if own is None else own)
    saved, D[at] = D[at], np.nan
    near = _smallest(D, k)
    D[at] = saved  # D is left as it was
    dist = np.take_along_axis(D, near, axis=1)
    order = np.argsort(dist, axis=1, kind="stable")  # near is index-sorted
    return np.take_along_axis(near, order, axis=1), np.take_along_axis(dist, order, axis=1)


def _certified(
    A: np.ndarray, X: np.ndarray, rows: np.ndarray, k: int, err: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact k-NN of the block ``rows`` of X from approximate squared distances.

    ``A`` holds the block's approximate squared distances to every point
    (own entries +inf); each differs from the squared distance of the
    centred rows by at most ``err`` of its row, and centring moves a
    distance by at most ``shift`` of its row.  Every column within that
    bound of the row's k-th value is a candidate and gets cdist's own
    distance; the candidates are ordered by (distance, index).  Returns
    ``(kept, near, dist)``: the block positions of the certified rows, whose
    every non-candidate is provably farther than their k-th distance (or
    who have none), and their neighbors and distances.
    """
    n, d = X.shape
    rel = (d + 5) * _EPS  # twice cdist's relative rounding error, at least
    kth = np.partition(A, k - 1, axis=1)[:, k - 1]
    reach = (np.sqrt(np.maximum(kth, 0.0) + err) + shift) * (1.0 + 3.0 * rel) + shift
    tau = reach**2 + err
    rr, cc = np.divmod(np.flatnonzero(A <= tau[:, None]), n)
    count = np.bincount(rr, minlength=rows.size)
    ok = np.isfinite(tau) & (count >= k)
    keep = ok[rr]
    rr, cc = rr[keep], cc[keep]
    count[~ok] = 0
    exact = np.empty(rr.size)
    zero = np.zeros((1, d))
    step = max(rows.size * n // max(d, 1), 1)  # candidate pairs per pass: O(block n) memory
    for lo in range(0, rr.size, step):
        pairs = slice(lo, lo + step)
        exact[pairs] = cdist(X[rows[rr[pairs]]] - X[cc[pairs]], zero)[:, 0]
    order = np.lexsort((cc, exact, rr))
    sel = np.flatnonzero(ok)
    pos = (np.cumsum(count) - count)[sel, None] + np.arange(k)
    near, dist = cc[order][pos], exact[order][pos]
    # every non-candidate's cdist distance exceeds this lower bound
    floor = (1.0 - rel) * (np.sqrt(tau[sel] - err[sel]) - shift[sel])
    good = (floor > dist[:, -1]) | (count[sel] == n - 1)
    return sel[good], near[good], dist[good]


def knn_neighbors(X: np.ndarray, k: int) -> NeighborLists:
    """Exact k nearest neighbors of every row of X by Euclidean distance.

    Ties are broken by ascending point index so the result does not depend
    on search order.  Raises ``KTooLargeError`` unless 1 <= k < n, and
    ``ValueError`` if X holds a NaN or infinite value.

    Indices and distances equal, bit for bit, the first k entries of a
    stable argsort of each row of ``cdist(X, X)`` with the point's own
    entry excluded, whatever the number of BLAS threads.  Each block of
    ``KNN_BLOCK_ROWS`` rows is searched in four steps:

    1. approximate squared distances ``|x|^2 + |y|^2 - 2 x.y`` from one
       matrix product, on rows centred on their mean;
    2. per row, the k-th smallest of them (``np.partition``);
    3. candidates: every column within a rounding bound of that value,
       bounded per row from the squared norms;
    4. cdist's distances for the candidate pairs, from ``cdist(x - y, 0)``,
       which does cdist's own subtraction and sequential sum of squares,
       ordered by (distance, index).

    A row is kept only with a certificate: every non-candidate is provably
    farther than the row's k-th distance.  Any other row, such as one whose
    squared distances overflow, is ranked from its full ``cdist`` row instead.
    Memory is O(``KNN_BLOCK_ROWS`` n).
    """
    X = _finite(X)
    n, d = X.shape
    _check_k(k, n)
    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    with np.errstate(invalid="ignore", over="ignore"):  # overflowing rows fall back
        Xc = X - X.mean(axis=0)
        sq = np.einsum("ij,ij->i", Xc, Xc)
        ones = np.ones((n, 1))
        # left[i] . right[j] = |x_i|^2 + |x_j|^2 - 2 x_i.x_j in one product
        left = np.hstack([-2.0 * Xc, sq[:, None], ones])
        right = np.hstack([Xc, ones, sq[:, None]])
        # per-row bounds, each at least twice the rounding error it covers:
        # err of A against the centred rows' squared distances, shift of
        # the centring on a distance; the tiny terms cover underflow, and
        # shift's also cdist's.  No row's norm exceeds sq_max.
        sq_max = sq.max()
        err = (3 * d + 8) * (_EPS * (sq + sq_max) + _TINY)
        err[~np.isfinite(2.0 * (sq + sq_max))] = np.inf  # the product's sums may overflow
        shift = 2.0 * _EPS * (np.sqrt(sq) + np.sqrt(sq_max)) + np.sqrt(d * _TINY)
        for start in range(0, n, KNN_BLOCK_ROWS):
            rows = np.arange(start, min(start + KNN_BLOCK_ROWS, n))
            A = left[rows] @ right.T
            A[rows - start, rows] = np.inf
            kept, near, dist = _certified(A, X, rows, k, err[rows], shift[rows])
            indices[rows[kept]], distances[rows[kept]] = near, dist
            rest = np.delete(rows, kept)
            if rest.size:
                indices[rest], distances[rest] = _nearest(cdist(X[rest], X), k, rest)
    return NeighborLists(indices=indices, distances=distances, k=k)


def within_class_graph(nb: NeighborLists, labels: np.ndarray) -> sp.csr_matrix:
    """Binary graph linking neighbor pairs that share a class label.

    W_ij = 1 iff (i in N_k(j) or j in N_k(i)) and y_i = y_j; symmetric,
    zero diagonal, stored sparse.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != nb.n:
        raise ValueError("labels length must match the neighbor structure")
    lo, hi, _ = nb.edges
    keep = labels[lo] == labels[hi]
    return _symmetric(lo[keep], hi[keep], np.ones(np.count_nonzero(keep)), nb.n)


def _symmetric(lo: np.ndarray, hi: np.ndarray, values: np.ndarray, n: int) -> sp.csr_matrix:
    """Sparse n x n matrix holding ``values`` at both (lo, hi) and (hi, lo)."""
    return sp.csr_matrix(
        (np.concatenate([values, values]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    )


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
    A_ij * (1/n - 1/n_c) <= 0, where A_ij = exp(-d_ij^2 / (sigma_i sigma_j))
    for pairs linked in ``nb`` (i in N_k(j) or j in N_k(i)), else 0: a
    locally scaled heat kernel (Zelnik-Manor & Perona 2004), sigma_i the
    last distance in i's list.  The cross-class part equals the
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

    lo, hi, dist = nb.edges
    keep = labels[lo] == labels[hi]
    lo, hi, dist = lo[keep], hi[keep], dist[keep]

    # sigma_i = 0 only when all of i's neighbors coincide with it: kernel limit
    sigma = nb.distances[:, -1]
    scale = sigma[lo] * sigma[hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.exp(-(dist**2) / scale)
    kernel[(scale == 0) & (dist > 0)] = 0.0  # vanished scale, genuine distance
    kernel[dist == 0] = 1.0  # coincident points: kernel limit
    _, inverse = np.unique(labels, return_inverse=True)
    w = kernel * (1.0 / n - 1.0 / sizes[inverse[lo]])
    E = X[lo] - X[hi]
    return form + E.T @ (w[:, None] * E)
