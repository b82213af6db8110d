"""Geodesic distances on neighbor graphs and patch linearity scores.

Geodesics, from ``geodesic_distances(X, k)``, are exact shortest paths on
the undirected k'-NN graph of ``NeighborLists.edges`` with Euclidean edge
lengths.  The linearity of a point set is the mean ratio of geodesic to
straight-line distance over all its pairs (1 means the set lies along a
straight path, larger means more tortuous): ``mean_ratios`` of the
members' block of ``GeodesicMatrix.tortuosity``, for many sets at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from .graph import NeighborLists, _check_k, _finite, _nearest, _symmetric


@dataclass(frozen=True)
class GeodesicMatrix:
    """Shortest-path lengths paired with the companion Euclidean distances.

    ``geodesic[i, j]`` is +inf when j cannot be reached from i in the
    neighbor graph.
    """

    geodesic: np.ndarray
    euclidean: np.ndarray

    @cached_property
    def tortuosity(self) -> np.ndarray:
        """Geodesic/Euclidean ratio of every pair, built on first use.

        1 on the diagonal and for coincident points (a zero-length path is
        trivially straight), +inf wherever the geodesic is.
        """
        DG, DE = self.geodesic, self.euclidean
        R = np.divide(DG, DE, out=np.ones_like(DG), where=np.isfinite(DG) & (DE > 0))
        np.fill_diagonal(R, 1.0)
        R[np.isinf(DG)] = np.inf
        return R

    def components(self) -> np.ndarray:
        """Connected-component label per point: two points share one iff their
        geodesic is finite; labels follow each component's lowest member."""
        lowest = np.isfinite(self.geodesic).argmax(axis=1)
        return np.unique(lowest, return_inverse=True)[1]


def geodesic_distances(X: np.ndarray, k: int) -> GeodesicMatrix:
    """All-pairs shortest paths on the k-NN graph of X, plus Euclidean distances.

    The k-NN lists are ranked in place in X's one ``cdist`` matrix, returned as
    ``euclidean``; the edge matrix is symmetric, so a directed Dijkstra suffices.
    Unreachable pairs are +inf, which is data for the partitioner, not an
    error.  Raises ``KTooLargeError`` unless 1 <= k < n; X must be finite.
    """
    X = _finite(X)
    _check_k(k, X.shape[0])
    DE = cdist(X, X)
    nb = NeighborLists(*_nearest(DE, k), k=k)
    # zero-length edges (coincident points) stay as explicit zeros, so
    # Dijkstra treats them as traversable
    graph = _symmetric(*nb.edges, nb.n)
    return GeodesicMatrix(geodesic=dijkstra(graph, directed=True), euclidean=DE)


def mean_ratios(blocks: np.ndarray) -> np.ndarray:
    """Linearity of each of B same-size point sets from their B x N x N ratio blocks.

    Each block is summed as one contiguous row of N^2 values, the order in
    which the block's own ``.sum()`` adds them, so every value is bit-equal
    to the one-block result.
    """
    B, N, _ = blocks.shape
    return blocks.reshape(B, N * N).sum(axis=1) / (N * N)
