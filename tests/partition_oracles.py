"""Reference partitioners the production one in ``mpda.partition`` is checked against.

``split_patch_loop`` and ``partition_class_loop`` are the former loops of
the one-patch split (today a one-patch ``partition._grow`` call) and of
the one-class partitioner (today a one-block ``partition_classes``
call): each growth round recomputes both sides' nearest distances from
the patch's distance block, and every pass of the driver loop recomputes
the linearity of every oversize patch.  The
geodesics come from a k'-NN graph built here, one edge at a time, from a
stable argsort of each cdist row, and its components from scipy's
``connected_components`` over its finite edges, and each patch's
linearity is the sum of its own ratio block over N^2.  The finished
patches are numbered in ascending order of their smallest member, and
``partition_class_loop`` returns them with their linearities as the pair
``(patches, linearity)`` of ``partition_classes``.  The outputs define
the partitions the production code must reproduce bit for bit.  A class's distances travel as the pair ``(geodesic,
euclidean)`` that ``geodesic_distances`` returns.

``ratio_matrix`` is the former cached ratio matrix of every pair, the
oracle of ``geodesy.tortuosity``.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial.distance import cdist


def knn_edge_matrix(D, k):
    """Undirected k-NN edge-length matrix from a distance matrix, one edge at a time.

    Each row's k nearest other points come from a stable argsort (ties to
    the lower index); a pair listed by both ends is stored once.
    """
    n = D.shape[0]
    edges = {}
    for i in range(n):
        row = D[i].copy()
        row[i] = np.nan  # sorts after +inf: never its own neighbor
        for j in np.argsort(row, kind="stable")[:k]:
            edges.setdefault((min(i, int(j)), max(i, int(j))), row[j])
    (lo, hi), w = np.array(list(edges)).T, np.array(list(edges.values()))
    return sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))), shape=(n, n)
    )


def ratio_matrix(DG, DE):
    """Geodesic/Euclidean ratio of every pair: DG/DE where the geodesic is
    finite and DE > 0, 1 elsewhere and on the diagonal, +inf wherever the
    geodesic is +inf."""
    R = np.divide(DG, DE, out=np.ones_like(DG), where=np.isfinite(DG) & (DE > 0))
    np.fill_diagonal(R, 1.0)
    R[np.isinf(DG)] = np.inf
    return R


def ratio_block(members, dist):
    """Geodesic/Euclidean ratio of every pair of members: 1 on the diagonal
    and for coincident points.  A patch lies in one component of its
    class's k'-NN graph, so every geodesic in it must be finite."""
    DG = dist[0][np.ix_(members, members)]
    DE = dist[1][np.ix_(members, members)]
    assert np.isfinite(DG).all(), "patch spans two components"
    R = np.ones_like(DG)
    positive = ~np.eye(len(members), dtype=bool) & (DE > 0)
    R[positive] = DG[positive] / DE[positive]
    return R


def mean_ratio(members, dist):
    """Mean ratio over all N^2 ordered pairs of a patch."""
    return float(ratio_block(members, dist).sum() / len(members) ** 2)


def split_patch_loop(members, dist, kprime):
    """Grow both sides from the most distant pair, rescanning the sides each round."""
    members = np.sort(np.asarray(members, dtype=np.int64))
    s = members.size
    if s < 2:
        raise ValueError("cannot split a patch with fewer than 2 points")
    DG = dist[0][np.ix_(members, members)]
    DE = dist[1][np.ix_(members, members)]
    R = ratio_block(members, dist)

    flat = int(np.argmax(DG))  # row-major first occurrence = lowest (i, j)
    a, b = divmod(flat, s)
    if a == b:  # all-zero geodesics (coincident points)
        a, b = 0, 1
    seed_l, seed_r = min(a, b), max(a, b)

    in_left = np.zeros(s, dtype=bool)
    in_right = np.zeros(s, dtype=bool)
    in_left[seed_l] = True
    in_right[seed_r] = True
    pool = np.ones(s, dtype=bool)
    pool[[seed_l, seed_r]] = False
    sum_l = sum_r = 1.0  # each side starts as one point with ratio 1

    def absorb(side, ratio_sum, new):
        # one term: over the absorbed points in ascending position, each
        # one's row sum over the side's earlier members (weight 2) and the
        # absorbed points (weight 1), in ascending position; every sum is
        # added left to right from 0
        absorbed = set(new.tolist())
        term = 0.0
        for i in sorted(absorbed):
            row = 0.0
            for j in range(s):
                if side[j]:
                    row += 2.0 * R[i, j]
                elif j in absorbed:
                    row += R[i, j]
            term += row
        side[new] = True
        return ratio_sum + term

    while pool.any():
        pool_idx = np.flatnonzero(pool)
        take = min(kprime, pool_idx.size)
        dl = DE[np.ix_(pool_idx, np.flatnonzero(in_left))].min(axis=1)
        dr = DE[np.ix_(pool_idx, np.flatnonzero(in_right))].min(axis=1)
        near_l = pool_idx[np.argsort(dl, kind="stable")[:take]]
        near_r = pool_idx[np.argsort(dr, kind="stable")[:take]]
        joint = np.intersect1d(near_l, near_r)
        only_l = np.setdiff1d(near_l, joint)
        only_r = np.setdiff1d(near_r, joint)
        sum_l = absorb(in_left, sum_l, only_l)
        sum_r = absorb(in_right, sum_r, only_r)
        pool[only_l] = False
        pool[only_r] = False
        if joint.size:
            score_l = sum_l / in_left.sum()  # (sum/n^2) * n
            score_r = sum_r / in_right.sum()
            if score_l > score_r:
                sum_r = absorb(in_right, sum_r, joint)
            else:
                sum_l = absorb(in_left, sum_l, joint)
            pool[joint] = False
    return members[in_left], members[in_right]


def partition_class_loop(Xc, kprime, max_patch):
    """Split the top-scoring oversize patch until none is left, rescoring every pass."""
    Xc = np.atleast_2d(np.asarray(Xc, dtype=np.float64))
    n = Xc.shape[0]
    if n == 1:
        return [np.array([0])], np.ones(1)

    DE = cdist(Xc, Xc)
    np.fill_diagonal(DE, 0.0)
    G = knn_edge_matrix(DE, min(kprime, n - 1))
    dist = dijkstra(G, directed=False), DE
    # only a finite edge links two points; a zero-length edge stays a link
    F = G.copy()
    F.data = np.isfinite(F.data).astype(np.float64)
    F.eliminate_zeros()
    _, comp = connected_components(F, directed=False)
    patches = [np.flatnonzero(comp == c) for c in range(comp.max() + 1)]

    while True:
        oversize = [p for p, m in enumerate(patches) if len(m) > max_patch]
        if not oversize:
            break
        scores = {p: mean_ratio(patches[p], dist) * len(patches[p]) for p in oversize}
        best = max(oversize, key=lambda p: (scores[p], -p))
        left, right = split_patch_loop(patches[best], dist, kprime)
        patches[best] = left
        patches.append(right)
    patches.sort(key=lambda m: m[0])  # ids follow each patch's smallest member

    return patches, np.array([mean_ratio(m, dist) for m in patches])
