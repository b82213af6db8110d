"""Geodesic distances on neighbor graphs and patch linearity scores.

``geodesic_distances(X, k)`` returns ``(geodesic, euclidean)``: exact
shortest paths on the undirected k'-NN graph of ``NeighborLists.edges``
with Euclidean edge lengths, and X's Euclidean distances.  The linearity
of a point set is the mean geodesic/Euclidean ratio (``tortuosity``) over
all its pairs (1 means the set lies along a straight path, larger means
more tortuous): ``mean_ratios`` of the members' ratio blocks.  These are
internal to the fit; the package exports none of them.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from .graph import NeighborLists, _check_k, _finite, _nearest, _symmetric


def geodesic_distances(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(geodesic, euclidean)``: all-pairs shortest paths on the k-NN graph of X
    and X's Euclidean distances.

    The k-NN lists are ranked in place in X's one ``cdist`` matrix, returned
    as ``euclidean``; the edge matrix is symmetric, so a directed Dijkstra
    suffices.  Unreachable pairs are +inf, which is data for the
    partitioner, not an error.  Raises ``KTooLargeError`` unless 1 <= k < n;
    X must be finite.
    """
    X = _finite(X)
    _check_k(k, X.shape[0])
    DE = cdist(X, X)
    nb = NeighborLists(*_nearest(DE, k), k=k)
    # zero-length edges (coincident points) stay as explicit zeros, so
    # Dijkstra treats them as traversable
    graph = _symmetric(*nb.edges, nb.n)
    return dijkstra(graph, directed=True), DE


def tortuosity(G: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Turn geodesics G into ratios to the Euclidean distances E in place, and
    return G: G/E where E > 0, 1 where E == 0 (a zero-length path is
    trivially straight), +inf wherever G is."""
    finite = np.isfinite(G)
    np.divide(G, E, out=G, where=finite & (E > 0))
    np.copyto(G, 1.0, where=finite & (E == 0))
    return G


def mean_ratios(blocks: np.ndarray) -> np.ndarray:
    """Linearity of each of B same-size point sets from their B x N x N ratio blocks.

    Each block is summed as one contiguous row of N^2 values, the order in
    which the block's own ``.sum()`` adds them, so every value is bit-equal
    to the one-block result.
    """
    B, N, _ = blocks.shape
    return blocks.reshape(B, N * N).sum(axis=1) / (N * N)
