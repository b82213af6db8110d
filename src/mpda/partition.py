"""Top-down divisive partitioning of each class into near-linear patches.

The driver rule repeatedly picks the oversize patch with the largest
linearity*size product (ties to the lowest patch id) and splits it in two
around the pair of points at maximal geodesic distance, growing both sides
by alternately absorbing their k'-nearest remaining points; the left half
keeps the patch's id and the right half is appended.  Jointly claimed
neighbors are awarded each round to the side with the smaller
linearity*size product.  Splitting stops once no patch exceeds the size
cap M.

All geodesic information is computed once per class, by one
``geodesic_distances`` call, and never refreshed after splits; patch
scores and the initial components always read from that frozen matrix.
A split therefore reads only its own members and its class's matrices, so
the final patches do not depend on the order of the splits, only their ids
do.  ``partition_classes`` is the one entry point (one class is a
one-block list).  It splits every oversize patch of a batch of classes
together, one tree level at a time, on padded (patches x 2 sides x size)
arrays; no growth step reads a linearity.  Once the trees are grown,
their linearities are summed in one bulk pass, once per patch, and the
ids are recovered by replaying the driver rule over each finished tree.
Every bulk step, class batches included, is sized by one padded rule
(``_chunks``).  ``split_patch`` is the one-patch
split; the batched growth hands it any joint award its rounding bound
cannot decide (see ``_grow``), so every partition equals the one-patch
loop's bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnreachablePairError
from .geodesy import GeodesicMatrix, geodesic_distances, mean_ratios
from .graph import _finite, pairwise_euclidean

DEFAULT_KPRIME = 6
DEFAULT_MAX_PATCH = 10
# padded n x n matrix values (count x the largest) of the classes partitioned
# together, each of which holds three such matrices; results do not depend on it
CLASS_BATCH_VALUES = 2**20


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
    sort of the remaining pool per growth round.  Raises
    ``UnreachablePairError`` if the patch holds an infinite geodesic.
    """
    members = np.sort(np.asarray(members, dtype=np.int64))
    s = members.size
    if s < 2:
        raise ValueError("cannot split a patch with fewer than 2 points")
    block = np.ix_(members, members)
    R = dist.tortuosity[block]
    DG = dist.geodesic[block]
    # a finite geodesic over a distance near the underflow limit can also
    # give an infinite ratio; only an infinite geodesic raises
    if np.isinf(R).any() and np.isinf(DG).any():
        raise UnreachablePairError("patch contains mutually unreachable points")
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


class _StraightPaths(GeodesicMatrix):
    """The approximate mode's Euclidean stand-in for geodesics: every ratio is
    exactly 1 and every pair reachable, also where cdist overflows to +inf."""

    @cached_property
    def tortuosity(self) -> np.ndarray:
        return np.ones_like(self.euclidean)


class _ClassTree:
    """One class's split tree: members and linearity per node, children per split node.

    The roots are the class's initial patches (its components, or the whole
    class when approximated); splitting node k appends its two halves and
    records them in ``children[k]``.
    """

    def __init__(self, Xc: np.ndarray, kprime: int, approximate: bool):
        self.n = n = Xc.shape[0]
        self.children: dict[int, tuple[int, int]] = {}
        self.members = [np.arange(n, dtype=np.int64)]
        self.dist: GeodesicMatrix | None = None
        self.linearity: dict[int, float] = {}  # set by the exact mode's pass; 1.0 otherwise
        if n > 1 and approximate:
            DE = pairwise_euclidean(Xc)
            self.dist = _StraightPaths(geodesic=DE, euclidean=DE)
        elif n > 1:
            self.dist = geodesic_distances(Xc, min(kprime, n - 1))
            comp = self.dist.components()
            self.members = [np.flatnonzero(comp == c) for c in range(comp.max() + 1)]

    def add_halves(self, node: int, halves: tuple[np.ndarray, np.ndarray]):
        self.children[node] = (len(self.members), len(self.members) + 1)
        self.members.extend(halves)

    def partition(self, max_patch: int) -> Partition:
        """Replay the driver over the finished tree to number the patches.

        The oversize patch with the largest linearity*size goes first, ties
        to the lowest id; its left half keeps the id and its right half is
        appended.
        """
        nodes = list(range(len(self.members) - 2 * len(self.children)))  # patch id -> node

        def entry(pid: int) -> tuple[float, int]:
            node = nodes[pid]
            return -(self.linearity.get(node, 1.0) * len(self.members[node])), pid

        def oversize(pid: int) -> bool:
            return len(self.members[nodes[pid]]) > max_patch

        heap = [entry(pid) for pid in range(len(nodes)) if oversize(pid)]
        heapq.heapify(heap)
        while heap:
            _, pid = heapq.heappop(heap)
            left, right = self.children[nodes[pid]]
            nodes[pid] = left
            nodes.append(right)
            for p in (pid, len(nodes) - 1):
                if oversize(p):
                    heapq.heappush(heap, entry(p))
        patches = [self.members[node] for node in nodes]
        patch_of = np.empty(self.n, dtype=np.int64)
        patch_of[np.concatenate(patches)] = np.repeat(
            np.arange(len(patches)), [len(m) for m in patches]
        )
        linearity = np.array([self.linearity.get(node, 1.0) for node in nodes])
        return Partition(patches=patches, patch_of=patch_of, linearity=linearity)


def _chunks(sizes: list[int], cost, budget: int) -> list[tuple[int, int]]:
    """Consecutive runs of items whose padded cost, count * cost(largest), fits the budget.

    A run always takes at least one item.
    """
    runs, start, top = [], 0, 0
    for i, s in enumerate(sizes):
        top = max(top, s)
        if i > start and (i - start + 1) * cost(top) > budget:
            runs.append((start, i))
            start, top = i, s
    if sizes:
        runs.append((start, len(sizes)))
    return runs


def _spans(trees: list[_ClassTree]) -> list[tuple[_ClassTree, int, int]]:
    """(tree, start, stop) of each run of consecutive items from one class."""
    spans, start = [], 0
    for i in range(1, len(trees) + 1):
        if i == len(trees) or trees[i] is not trees[start]:
            spans.append((trees[start], start, i))
            start = i
    return spans


def _set_linearities(trees: list[_ClassTree], budget: int) -> None:
    """Linearity of every node of the trees, one ``mean_ratios`` call per class,
    size and chunk."""
    for tree in trees:
        if tree.dist is None:
            continue
        R = tree.dist.tortuosity
        sizes = np.array([len(m) for m in tree.members])
        for N in np.unique(sizes):
            group = np.flatnonzero(sizes == N)
            for lo, hi in _chunks([N] * group.size, lambda s: 2 * s * s, budget):
                if N == tree.n:  # the class's only patch
                    lins = mean_ratios(R[None])
                else:
                    sub = np.stack([tree.members[k] for k in group[lo:hi]])
                    lins = mean_ratios(R[sub[:, :, None], sub[:, None, :]])
                tree.linearity.update(zip(group[lo:hi].tolist(), lins.tolist()))


def _padded(members: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Member lists as rows of one array, padded by repeating each row's first member."""
    sizes = np.array([m.size for m in members])
    col = np.arange(sizes.max())
    pos = np.where(col < sizes[:, None], col, 0)
    return np.concatenate(members)[(np.cumsum(sizes) - sizes)[:, None] + pos], sizes


def _seeds(spans, idx: np.ndarray, sizes: np.ndarray, budget: int):
    """Each patch's two seed positions, as ``split_patch`` picks them, and
    whether its block holds an infinite geodesic (``split_patch`` must then
    decide).

    The argmax runs over the padded block; a padded entry repeats an entry
    earlier in its row, so the first maximum is a real one.  A patch that
    is its whole class reads the class's matrix as it is.
    """
    P, S = idx.shape
    seeds = np.empty((P, 2), dtype=np.int64)
    top = np.empty(P)
    for tree, a, b in spans:
        G = tree.dist.geodesic
        for lo, hi in _chunks([S] * (b - a), lambda s: 2 * s * s, budget):
            lo, hi = a + lo, a + hi
            if sizes[lo] == tree.n:  # the class's only patch
                block, width = G.reshape(1, -1), tree.n
            else:
                sub = idx[lo:hi]
                block, width = G[sub[:, :, None], sub[:, None, :]].reshape(hi - lo, S * S), S
            flat = block.argmax(axis=1)
            top[lo:hi] = block[np.arange(hi - lo), flat]
            seeds[lo:hi] = np.stack(np.divmod(flat, width), axis=1)
    coincident = seeds[:, 0] == seeds[:, 1]  # all-zero geodesics
    seeds.sort(axis=1)
    seeds[coincident] = (0, 1)
    return seeds, np.isinf(top)


def _grow(spans, idx: np.ndarray, sizes: np.ndarray, kprime: int, budget: int):
    """Grow both sides of every patch of one chunk together, one round at a time.

    Returns the (P, 2, S) side masks and the patches whose split must be
    made by ``split_patch``.  Each round follows ``split_patch``'s round for
    every patch: both sides pick their k' nearest pool members by
    (distance, index), pool members before all others even at +inf; they
    take their sole picks, then the joint picks go to the side with the
    smaller linearity*size.  Only the picked rows of each class's ratio and
    distance matrices are read; the distance matrix is bitwise symmetric,
    so a row serves as the column ``split_patch`` reads.

    The ratio sums add in another order than ``split_patch``'s.  For m
    non-negative terms any order is within (m-1)*u of the exact sum, so two
    orders give scores apart by at most eps*N^2*score on a side of N
    points; an award is taken here only when the scores differ by more
    than twice that, or when every ratio among each side's members is
    exactly 1 (integer sums are exact in any order).  Any other award, or a
    score that is not finite, hands the patch to ``split_patch``.
    """
    P, S = idx.shape
    Q = 2 * P  # one row per side: row 2p + s is side s of patch p
    kk = min(kprime, S - 1)  # picks per side (the pool never exceeds S - 2)
    n = np.array([tree.n for tree, a, b in spans for _ in range(a, b)])
    seeds, failed = _seeds(spans, idx, sizes, budget)
    side = np.zeros((P, 2, S), dtype=bool)
    side[np.arange(P)[:, None], [0, 1], seeds] = True
    pool = (np.arange(S) < sizes[:, None]) & ~side.any(axis=1)
    pool[failed] = False

    # near[q]: each member's distance to the nearest point on side q
    near = np.empty((Q, S))
    own = np.repeat(idx, 2, axis=0)  # side q's patch members (class-local)
    flat = (own.take(seeds.ravel() + np.arange(Q) * S) * np.repeat(n, 2))[:, None] + own
    for tree, a, b in spans:
        rows = slice(2 * a, 2 * b)
        np.take(tree.dist.euclidean.reshape(-1), flat[rows], out=near[rows], mode="clip")
    sums = np.ones(Q)  # each side starts as one point with ratio 1
    counts = np.ones(Q, dtype=np.int64)

    row_at = np.arange(Q)[:, None] * S  # offset of row q in a (Q, S) array
    patch_at = row_at // 2 // S * S  # offset of row q's patch in a (P, S) array
    scale = np.repeat(n, 2)[:, None, None]
    flat = np.empty((Q, kk, S), dtype=np.int64)
    ratios = np.empty((Q, kk, S))  # the picked rows of each side
    dists = np.empty((Q, kk, S))
    weights = np.empty((Q, S, 2))
    eps = np.finfo(np.float64).eps
    while pool.any():
        key = np.where(pool[:, None], near.reshape(P, 2, S), np.nan).reshape(Q, S)
        part = np.argpartition(key, kk, axis=1)
        cand = part[:, :kk]
        val = key.take(cand + row_at)
        # argpartition breaks a tie at the boundary arbitrarily: such a row
        # is sorted whole
        for q in np.flatnonzero(val.max(axis=1) == key.take(part[:, kk] + row_at[:, 0])):
            cand[q] = np.argsort(key[q], kind="stable")[:kk]
            val[q] = key[q, cand[q]]
        picked = ~np.isnan(val)  # fewer than k' left: the whole pool
        mark = np.zeros((P, 2, S), dtype=bool)
        np.put(mark, cand + row_at, picked)
        joint = mark[:, 0] & mark[:, 1]
        only = mark & ~joint[:, None]
        at = cand + patch_at
        joint_row = picked & joint.take(at)
        only_row = picked & ~joint_row

        np.add((idx.take(at) * scale[:, :, 0])[:, :, None], own[:, None, :], out=flat)
        for tree, a, b in spans:
            rows = slice(2 * a, 2 * b)
            np.take(tree.dist.tortuosity.reshape(-1), flat[rows], out=ratios[rows], mode="clip")
            np.take(tree.dist.euclidean.reshape(-1), flat[rows], out=dists[rows], mode="clip")
        # sole picks add 2*R[new, side] + R[new, new]; joint picks, if
        # awarded, add 2*R[joint, side + sole picks] + R[joint, joint]
        now = side | only
        weights[:, :, 0] = (side + 1.0 * now).reshape(Q, S)
        weights[:, :, 1] = (2.0 * now + joint[:, None]).reshape(Q, S)
        added = np.where(np.stack((only_row, joint_row), axis=2), ratios @ weights, 0.0).sum(axis=1)
        sums += added[:, 0]
        counts += only.sum(axis=2).ravel()

        n_joint = joint.sum(axis=1)
        score = (sums / counts).reshape(P, 2)
        gap = score[:, 0] - score[:, 1]
        bound = 2.0 * eps * ((counts * counts + 1) * sums / counts).reshape(P, 2).sum(axis=1)
        certain = (np.abs(gap) > bound) & (sums < 2.0**1000).reshape(P, 2).all(axis=1)
        fail = np.zeros(P, dtype=bool)
        for p in np.flatnonzero((n_joint > 0) & ~certain):
            R = next(t for t, a, b in spans if a <= p < b).dist.tortuosity
            halves = (idx[p, now[p, 0]], idx[p, now[p, 1]])
            fail[p] = not all((R[np.ix_(m, m)] == 1.0).all() for m in halves)
        win = (n_joint > 0) & ~fail
        win = np.stack((win & (gap <= 0), win & (gap > 0)), axis=1)
        sums += np.where(win.ravel(), added[:, 1], 0.0)
        counts += (win * n_joint[:, None]).ravel()
        side = now | (joint[:, None] & win[:, :, None])

        dists[~(only_row | (joint_row & win.reshape(Q, 1)))] = np.inf
        np.minimum(near, dists.min(axis=1), out=near)
        pool &= ~mark.any(axis=1)
        pool[fail] = False
        failed |= fail
    return side, failed


def _grow_trees(trees: list[_ClassTree], kprime: int, max_patch: int, approximate: bool) -> None:
    """Split every oversize patch of the classes, one tree level at a time, as
    ``split_patch`` would, then set the linearities of the finished trees:
    ``_grow`` grows a level's patches together in chunks, and ``split_patch``
    makes any split that it leaves undecided."""
    # the most any step holds at once: what the largest class's three
    # n x n matrices take
    budget = 3 * max(tree.n for tree in trees) ** 2
    new = [(tree, k) for tree in trees for k in range(len(tree.members))]
    while new:
        jobs = [(tree, k) for tree, k in new if len(tree.members[k]) > max_patch]
        new = []
        # a round holds, per padded patch of size S, three (2, k', S) row
        # buffers and about sixteen size-S rows of values
        sizes = [len(tree.members[k]) for tree, k in jobs]
        for a, b in _chunks(sizes, lambda s: (6 * min(kprime, s) + 16) * s, budget):
            chunk = jobs[a:b]
            idx, n_members = _padded([tree.members[k] for tree, k in chunk])
            side, failed = _grow(_spans([tree for tree, _ in chunk]), idx, n_members, kprime, budget)
            p, s, c = np.nonzero(side)
            parts = np.split(idx[p, c], np.cumsum(side.sum(axis=2).ravel())[:-1])
            for i, (tree, k) in enumerate(chunk):
                halves = parts[2 * i : 2 * i + 2]
                if failed[i]:
                    halves = split_patch(tree.members[k], tree.dist, kprime)
                new += [(tree, len(tree.members)), (tree, len(tree.members) + 1)]
                tree.add_halves(k, halves)
    if not approximate:
        _set_linearities(trees, budget)


def partition_classes(
    blocks: list[np.ndarray],
    kprime: int = DEFAULT_KPRIME,
    max_patch: int = DEFAULT_MAX_PATCH,
    approximate: bool = False,
) -> list[Partition]:
    """Partition each class's points into patches of at most ``max_patch`` members.

    ``blocks`` holds one feature matrix per class; the result holds one
    ``Partition`` per block, each equal to partitioning that class alone.
    Consecutive classes are split together while their count times the
    largest class's n x n values is at most ``CLASS_BATCH_VALUES``.

    ``approximate=True`` skips geodesic computation entirely (treating every
    ratio as 1, a valid limit at high sampling density, and every pair as
    reachable) and ranks patches by size alone; splitting then seeds from
    the largest Euclidean distance.

    Disconnected components of the k'-NN graph are separated up front, since
    tortuosity is meaningless across components.  Every block must be finite.
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    if max_patch < 1:
        raise ValueError("max_patch must be at least 1")
    blocks = [np.atleast_2d(_finite(Xc)) for Xc in blocks]
    parts: list[Partition] = []
    for a, b in _chunks([Xc.shape[0] for Xc in blocks], lambda n: n * n, CLASS_BATCH_VALUES):
        trees = [_ClassTree(Xc, kprime, approximate) for Xc in blocks[a:b]]
        _grow_trees(trees, kprime, max_patch, approximate)
        parts += [tree.partition(max_patch) for tree in trees]
    return parts
