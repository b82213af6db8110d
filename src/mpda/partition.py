"""Top-down divisive partitioning of one class into near-linear patches.

The driver loop repeatedly picks the oversize patch with the largest
linearity*size product and splits it in two around the pair of points at
maximal geodesic distance, growing both sides by alternately absorbing
their k'-nearest remaining points.  Jointly claimed neighbors are awarded
each round to the side with the smaller linearity*size product.  The loop
stops once no patch exceeds the size cap M.

All geodesic information is computed once on the whole class, by one
``geodesic_distances`` call, and never refreshed after splits; patch
scores and the initial components always read from that frozen matrix.
Each patch's linearity is computed once, when the patch is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesy import GeodesicMatrix, geodesic_distances, pair_tortuosity, patch_linearity
from .graph import pairwise_euclidean

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
    Each side keeps every member's distance to its nearest point on that
    side, lowered with the columns of the points it absorbs, and the ratio
    sums for the running linearity*size scores grow with each absorption.
    One split thus reads O(size^2) distances and ratios in all, plus one
    sort of the remaining pool per growth round.
    """
    members = np.sort(np.asarray(members, dtype=np.int64))
    s = members.size
    if s < 2:
        raise ValueError("cannot split a patch with fewer than 2 points")
    R = pair_tortuosity(dist, members)
    block = np.ix_(members, members)
    DG = dist.geodesic[block]
    DE = dist.euclidean[block]

    flat = int(np.argmax(DG))  # row-major first occurrence = lowest (i, j)
    a, b = divmod(flat, s)
    if a == b:  # all-zero geodesics (coincident points)
        a, b = 0, 1
    seed_l, seed_r = min(a, b), max(a, b)

    in_left = np.zeros(s, dtype=bool)
    in_right = np.zeros(s, dtype=bool)
    in_left[seed_l] = True
    in_right[seed_r] = True
    near_l = DE[:, seed_l].copy()  # distance to the nearest left point
    near_r = DE[:, seed_r].copy()
    pool = np.ones(s, dtype=bool)
    pool[[seed_l, seed_r]] = False
    sum_l = sum_r = 1.0  # each side starts as one point with ratio 1

    def absorb(side: np.ndarray, near: np.ndarray, ratio_sum: float, new: np.ndarray) -> float:
        rows = R[new]
        # compress/take keep the row-major layout of R[np.ix_(...)], so the
        # sums add in the same order
        ratio_sum += 2.0 * float(rows.compress(side, axis=1).sum())
        ratio_sum += float(rows.take(new, axis=1).sum())
        side[new] = True
        np.minimum(near, DE[:, new].min(axis=1), out=near)
        return ratio_sum

    def nearest(near: np.ndarray, pool_idx: np.ndarray, take: int) -> np.ndarray:
        pick = np.zeros(s, dtype=bool)
        pick[pool_idx[np.argsort(near[pool_idx], kind="stable")[:take]]] = True
        return pick

    while pool.any():
        pool_idx = np.flatnonzero(pool)
        take = min(kprime, pool_idx.size)
        pick_l = nearest(near_l, pool_idx, take)
        pick_r = nearest(near_r, pool_idx, take)
        joint = np.flatnonzero(pick_l & pick_r)
        only_l = np.flatnonzero(pick_l & ~pick_r)
        only_r = np.flatnonzero(pick_r & ~pick_l)
        if only_l.size:
            sum_l = absorb(in_left, near_l, sum_l, only_l)
        if only_r.size:
            sum_r = absorb(in_right, near_r, sum_r, only_r)
        pool[only_l] = False
        pool[only_r] = False
        if joint.size:
            # joint members go to the side with the smaller linearity*size
            # product; neither side's score counts the joint points yet
            score_l = sum_l / in_left.sum()  # (sum/n^2) * n
            score_r = sum_r / in_right.sum()
            if score_l > score_r:
                sum_r = absorb(in_right, near_r, sum_r, joint)
            else:
                sum_l = absorb(in_left, near_l, sum_l, joint)
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

    if approximate:
        # Euclidean distances double as "geodesics"; every ratio is 1
        DE = pairwise_euclidean(Xc)
        dist = GeodesicMatrix(geodesic=DE, euclidean=DE)
        patches = [np.arange(n, dtype=np.int64)]
    else:
        dist = geodesic_distances(Xc, min(kprime, n - 1))
        comp = dist.components()
        patches = [np.flatnonzero(comp == c) for c in range(comp.max() + 1)]

    # one linearity per patch: the initial components, then both halves
    # of each split
    lin = [1.0 if approximate else patch_linearity(m, dist) for m in patches]
    while True:
        oversize = [p for p, m in enumerate(patches) if len(m) > max_patch]
        if not oversize:
            break
        # ties: lowest patch id
        best = max(oversize, key=lambda p: (lin[p] * len(patches[p]), -p))
        left, right = split_patch(patches[best], dist, kprime)
        patches[best] = left
        patches.append(right)
        if approximate:
            lin.append(1.0)
        else:
            lin[best] = patch_linearity(left, dist)
            lin.append(patch_linearity(right, dist))

    patch_of = np.empty(n, dtype=np.int64)
    for pid, m in enumerate(patches):
        patch_of[m] = pid
    linearity = np.array(lin)
    return Partition(patches=patches, patch_of=patch_of, linearity=linearity)
