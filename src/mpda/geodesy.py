"""Geodesic distances on neighbor graphs and patch linearity scores.

Geodesics are approximated by exact shortest paths on the undirected
k'-NN graph with Euclidean edge lengths.  The linearity of a point set is
the mean ratio of geodesic to straight-line distance over all its pairs
(1 means the set lies along a straight path, larger means more tortuous).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import UnreachablePairError
from .graph import NeighborLists, knn_neighbors, pairwise_euclidean


@dataclass(frozen=True)
class GeodesicMatrix:
    """Shortest-path lengths paired with the companion Euclidean distances.

    ``geodesic[i, j]`` is +inf when j cannot be reached from i in the
    neighbor graph.
    """

    geodesic: np.ndarray
    euclidean: np.ndarray

    @property
    def n(self) -> int:
        return self.geodesic.shape[0]

    @cached_property
    def tortuosity(self) -> np.ndarray:
        """Geodesic/Euclidean ratio of every pair, built on first use.

        1 on the diagonal and for coincident points (a zero-length path is
        trivially straight), +inf wherever the geodesic is.
        """
        DG, DE = self.geodesic, self.euclidean
        R = np.ones_like(DG)
        positive = DE > 0
        R[positive] = DG[positive] / DE[positive]
        np.fill_diagonal(R, 1.0)
        R[np.isinf(DG)] = np.inf
        return R


def neighbor_graph_matrix(nb: NeighborLists) -> sp.csr_matrix:
    """Sparse undirected edge-length matrix of the k-NN graph.

    Zero-length edges (coincident points) are kept as explicit zeros so
    shortest-path routines treat them as traversable.
    """
    n = nb.n
    rows = np.repeat(np.arange(n), nb.k)
    cols = nb.indices.ravel()
    vals = nb.distances.ravel()
    ii, jj = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    # a mutual pair is listed twice; keep one copy, since csr conversion
    # would sum duplicates (both copies hold the same distance)
    _, first = np.unique(ii * n + jj, return_index=True)
    both = np.concatenate([vals, vals])
    return sp.csr_matrix((both[first], (ii[first], jj[first])), shape=(n, n))


def geodesic_distances(
    X: np.ndarray,
    nb: NeighborLists | None = None,
    k: int | None = None,
    graph: sp.csr_matrix | None = None,
    euclidean: np.ndarray | None = None,
) -> GeodesicMatrix:
    """All-pairs shortest paths on the k-NN graph of X, plus Euclidean distances.

    Provide the graph's edge-length matrix (``neighbor_graph_matrix``), a
    prebuilt neighbor structure or a neighbor count k, and, if already
    computed, X's ``pairwise_euclidean`` matrix as ``euclidean``.
    Unreachable pairs are +inf, which is data for the partitioner, not an
    error.
    """
    X = np.asarray(X, dtype=np.float64)
    if graph is None:
        if nb is None:
            if k is None:
                raise ValueError("provide an edge matrix, neighbor lists or k")
            nb = knn_neighbors(X, k)
        graph = neighbor_graph_matrix(nb)
    DG = dijkstra(graph, directed=False)
    DE = pairwise_euclidean(X) if euclidean is None else euclidean
    return GeodesicMatrix(geodesic=DG, euclidean=DE)


def graph_components(graph: sp.csr_matrix) -> np.ndarray:
    """Connected-component label per point of an undirected edge-length matrix."""
    _, comp = connected_components(graph, directed=False)
    return comp


def pair_tortuosity(dist: GeodesicMatrix, members: np.ndarray) -> np.ndarray:
    """Matrix of geodesic/Euclidean ratios for one point set.

    The members' block of ``dist.tortuosity``: the diagonal and coincident
    distinct points score 1.  Raises ``UnreachablePairError`` on infinite
    geodesics.
    """
    members = np.asarray(members, dtype=np.int64)
    block = np.ix_(members, members)
    R = dist.tortuosity[block]
    # a finite geodesic over a distance near the underflow limit can also
    # give inf; only an infinite geodesic raises
    if np.isinf(R).any() and np.isinf(dist.geodesic[block]).any():
        raise UnreachablePairError("patch contains mutually unreachable points")
    return R


def patch_linearity(members: np.ndarray, dist: GeodesicMatrix) -> float:
    """Mean tortuosity of a point set: (1/N^2) * sum of all pairwise ratios."""
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise ValueError("patch must contain at least one point")
    R = pair_tortuosity(dist, members)
    return float(R.sum() / (len(members) ** 2))
