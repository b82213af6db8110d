"""Top-down divisive partitioning of one class into near-linear patches.

The driver loop repeatedly picks the oversize patch with the largest
linearity*size product and splits it in two around the pair of points at
maximal geodesic distance, growing both sides by alternately absorbing
their k'-nearest remaining points.  Jointly claimed neighbors are awarded
each round to the side with the smaller linearity*size product.  The loop
stops once no patch exceeds the size cap M.

All geodesic information is computed once on the whole class and never
refreshed after splits; patch scores always read from that frozen matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnreachablePairError
from .geodesy import (
    GeodesicMatrix,
    geodesic_distances,
    graph_components,
    neighbor_graph_matrix,
    patch_linearity,
)
from .graph import NeighborLists, _nearest, pairwise_euclidean

DEFAULT_KPRIME = 6
DEFAULT_MAX_PATCH = 10


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of one class's points by near-linear patches."""

    patches: list[np.ndarray]  # sorted member indices per patch
    patch_of: np.ndarray  # point index -> patch id
    linearity: np.ndarray  # R score per patch (1.0 when approximated)

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(p) for p in self.patches], dtype=np.int64)


def split_patch(
    members: np.ndarray, dist: GeodesicMatrix, kprime: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split one patch in two by growing from its most geodesically distant pair.

    Returns two disjoint sorted index arrays covering the input patch.
    Ratio sums for the running linearity*size scores are maintained
    incrementally, so one split costs O(size^2) overall.
    """
    members = np.sort(np.asarray(members, dtype=np.int64))
    s = members.size
    if s < 2:
        raise ValueError("cannot split a patch with fewer than 2 points")
    DG = dist.geodesic[np.ix_(members, members)]
    DE = dist.euclidean[np.ix_(members, members)]
    if np.any(np.isinf(DG)):
        raise UnreachablePairError("patch contains mutually unreachable points")
    R = np.ones_like(DG)
    off = ~np.eye(s, dtype=bool)
    positive = off & (DE > 0)
    R[positive] = DG[positive] / DE[positive]

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

    def absorb(side: np.ndarray, ratio_sum: float, new: np.ndarray) -> float:
        ratio_sum += 2.0 * float(R[np.ix_(new, np.flatnonzero(side))].sum())
        ratio_sum += float(R[np.ix_(new, new)].sum())
        side[new] = True
        return ratio_sum

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
            # joint members go to the side with the smaller linearity*size
            # product; neither side's score counts the joint points yet
            score_l = sum_l / in_left.sum()  # (sum/n^2) * n
            score_r = sum_r / in_right.sum()
            if score_l > score_r:
                sum_r = absorb(in_right, sum_r, joint)
            else:
                sum_l = absorb(in_left, sum_l, joint)
            pool[joint] = False
    return members[in_left], members[in_right]


def partition_class(
    Xc: np.ndarray,
    kprime: int = DEFAULT_KPRIME,
    max_patch: int = DEFAULT_MAX_PATCH,
    approximate: bool = False,
) -> Partition:
    """Partition one class's points into patches of at most ``max_patch`` members.

    ``approximate=True`` skips geodesic computation entirely (treating every
    ratio as 1, a valid limit at high sampling density) and ranks patches by
    size alone; splitting then seeds from the largest Euclidean distance.

    Disconnected components of the k'-NN graph are separated up front, since
    tortuosity is meaningless across components.
    """
    Xc = np.atleast_2d(np.asarray(Xc, dtype=np.float64))
    n = Xc.shape[0]
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    if max_patch < 1:
        raise ValueError("max_patch must be at least 1")

    if n == 1:
        return Partition(
            patches=[np.array([0])], patch_of=np.zeros(1, dtype=np.int64), linearity=np.ones(1)
        )

    DE = pairwise_euclidean(Xc)  # the one distance matrix of the class
    if approximate:
        # Euclidean distances double as "geodesics"; every ratio is 1
        dist = GeodesicMatrix(geodesic=DE, euclidean=DE)
        patches = [np.arange(n, dtype=np.int64)]
    else:
        k_eff = min(kprime, n - 1)
        G = neighbor_graph_matrix(NeighborLists(*_nearest(DE.copy(), k_eff), k=k_eff))
        dist = geodesic_distances(Xc, graph=G, euclidean=DE)
        comp = graph_components(G)
        patches = [np.flatnonzero(comp == c) for c in range(comp.max() + 1)]

    while True:
        oversize = [p for p, m in enumerate(patches) if len(m) > max_patch]
        if not oversize:
            break
        if approximate:
            scores = {p: float(len(patches[p])) for p in oversize}
        else:
            scores = {p: patch_linearity(patches[p], dist) * len(patches[p]) for p in oversize}
        best = max(oversize, key=lambda p: (scores[p], -p))  # ties: lowest patch id
        left, right = split_patch(patches[best], dist, kprime)
        patches[best] = left
        patches.append(right)

    patch_of = np.empty(n, dtype=np.int64)
    for pid, m in enumerate(patches):
        patch_of[m] = pid
    linearity = np.array(
        [1.0 if approximate else patch_linearity(m, dist) for m in patches]
    )
    return Partition(patches=patches, patch_of=patch_of, linearity=linearity)
