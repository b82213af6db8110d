"""Top-down divisive partitioning of each class into near-linear patches.

Every patch of more than M points (the size cap) is split in two around
the pair of points at maximal geodesic distance, growing both sides by
alternately absorbing their k'-nearest remaining points.  Jointly
claimed neighbors are awarded each round to the side with the smaller
linearity*size product.  Splitting stops once no patch exceeds M.

All geodesic information is computed once per class, by one
``geodesic_distances`` call, and never refreshed after splits; the
initial components and every split read those frozen matrices, turning
only the values a split reads into ratios (``tortuosity``).  A split
therefore reads only its own members and its class's matrices, so the
final patches do not depend on the order of the splits.  The roots are
the components of the class's k'-NN graph, so no patch spans two and
every geodesic inside a patch is finite.  Each class's patches are
numbered in ascending order of their smallest member, and only these
final patches get a linearity, the mean geodesic/Euclidean ratio of
their pairs, from the geodesics turned into ratios in place.

``partition_classes``, internal to the fit, is the one entry point (one
class is a one-block list).  A batch of classes is held as one pair of
flat buffers, geodesics and distances, each class's n x n matrices
row-major at its own offset, and every read indexes through (offset,
n).  Every oversize patch of the batch is split together, one tree level
at a time, on padded (patches x 2 sides x size) arrays, so a growth
round makes one gather per buffer for its whole chunk.
Every growth step, class batches included, is sized by one padded rule
(``_chunks``).  The ratio sums behind each joint award add in one fixed
order (see ``_grow``) that padding, chunking and the BLAS thread count
cannot change, so a patch splits the same alone, in any chunk and in any
class batch.
"""

from __future__ import annotations

import numpy as np

from .geodesy import geodesic_distances, mean_ratios, tortuosity
from .graph import _finite, _smallest

DEFAULT_KPRIME = 6
DEFAULT_MAX_PATCH = 10
# padded n x n values (count x the largest n^2) of the classes partitioned
# together, a count of values, not of matrices; results do not depend on it
CLASS_BATCH_VALUES = 2**20


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


def _gather(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (B, S, S) blocks of the flat buffer M at row offsets ``rows`` and
    columns ``cols``, both (B, S), in one take."""
    return M.take(rows[:, :, None] + cols[:, None, :])


def _padded(members: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Member lists as rows of one array, padded by repeating each row's first member."""
    sizes = np.array([m.size for m in members])
    col = np.arange(sizes.max())
    pos = np.where(col < sizes[:, None], col, 0)
    return np.concatenate(members)[(np.cumsum(sizes) - sizes)[:, None] + pos], sizes


def _seeds(G: np.ndarray, rows: np.ndarray, idx: np.ndarray, budget: int) -> np.ndarray:
    """Each patch's two seed positions, in ascending order: its first pair, in
    row-major order, at maximal geodesic distance, or (0, 1) when every
    geodesic is 0.

    The argmax runs over the padded block; a padded entry repeats an entry
    earlier in its row, so the first maximum is a real one.  Every patch
    lies in one component of its class's k'-NN graph, so its maximum is
    finite.
    """
    P, S = idx.shape
    seeds = np.empty((P, 2), dtype=np.int64)
    for lo, hi in _chunks([S] * P, lambda s: 2 * s * s, budget):
        block = _gather(G, rows[lo:hi], idx[lo:hi]).reshape(hi - lo, S * S)
        seeds[lo:hi] = np.stack(np.divmod(block.argmax(axis=1), S), axis=1)
    coincident = seeds[:, 0] == seeds[:, 1]  # all-zero geodesics
    seeds.sort(axis=1)
    seeds[coincident] = (0, 1)
    return seeds


def _grow(
    G: np.ndarray, E: np.ndarray, base: np.ndarray, n: np.ndarray,
    idx: np.ndarray, sizes: np.ndarray, kprime: int, budget: int,
) -> list[np.ndarray]:
    """Split every patch of one chunk, growing both sides of all of them
    together, one round at a time.

    Returns the sorted halves, left then right, of each patch.  Every patch
    lies in one component of its class's k'-NN graph, so its geodesics are
    finite.  Each side starts from one seed with ratio sum 1.  In each
    round both sides pick their k' nearest pool members (``_smallest``: by
    distance, then index), pool members before all others even at +inf.
    Each side absorbs its sole picks; the joint picks then go to the side
    with the smaller sum/count, to the left side on a tie.  Patch p's class
    matrices sit row-major at offset ``base[p]`` of the flat buffers G and
    E, with ``n[p]`` rows.  Only the picked rows are read, one take per
    buffer per round for every patch, and each round's geodesic rows
    become ratios by ``tortuosity`` in one call; a distance matrix is
    bitwise symmetric, so a row serves as the column of a nearest distance.

    One summation order, which padding, chunking and the BLAS thread count
    cannot change, makes the sums: an absorption adds to its side's sum one
    term, the sum over the absorbed points in ascending patch position of
    each point's row sum, and a row sum runs in ascending patch position
    over the side's earlier members, weighted 2, and the absorbed points,
    weighted 1.  Every sum is added left to right from 0: ``np.cumsum``
    adds strictly in order, and the unweighted and padded entries add
    exact zeros (an unweighted +inf ratio adds nothing).
    """
    P, S = idx.shape
    Q = 2 * P  # one row per side: row 2p + s is side s of patch p
    kk = min(kprime, S - 1)  # picks per side (the pool never exceeds S - 2)
    rows = idx * n[:, None] + base[:, None]  # each member's row offset in the buffers
    seeds = _seeds(G, rows, idx, budget)
    side = np.zeros((P, 2, S), dtype=bool)
    side[np.arange(P)[:, None], [0, 1], seeds] = True
    pool = (np.arange(S) < sizes[:, None]) & ~side.any(axis=1)

    # near[q]: each member's distance to the nearest point on side q
    own = np.repeat(idx, 2, axis=0)  # side q's patch members (class-local)
    near = E.take(np.repeat(rows, 2, axis=0).take(seeds.ravel() + np.arange(Q) * S)[:, None] + own)
    sums = np.ones(Q)  # each side starts as one point with ratio 1
    counts = np.ones(Q, dtype=np.int64)

    row_at = np.arange(Q)[:, None] * S  # offset of row q in a (Q, S) array
    patch_at = row_at // 2 // S * S  # offset of row q's patch in a (P, S) array
    flat = np.empty((Q, kk, S), dtype=np.int64)
    ratios = np.empty((Q, kk, S))  # the picked rows of each side
    dists = np.empty((Q, kk, S))
    while pool.any():
        key = np.where(pool[:, None], near.reshape(P, 2, S), np.nan).reshape(Q, S)
        cand = _smallest(key, kk)  # picks in ascending patch position
        picked = ~np.isnan(key.take(cand + row_at))  # fewer than k' left: the whole pool
        mark = np.zeros((P, 2, S), dtype=bool)
        np.put(mark, cand + row_at, picked)
        joint = mark[:, 0] & mark[:, 1]
        only = mark & ~joint[:, None]
        at = cand + patch_at
        joint_row = picked & joint.take(at)
        only_row = picked & ~joint_row

        np.add(rows.take(at)[:, :, None], own[:, None, :], out=flat)
        G.take(flat, out=ratios, mode="clip")
        E.take(flat, out=dists, mode="clip")
        tortuosity(ratios, dists)
        # a sole pick's row weighs the side 2 and the sole picks 1; a joint
        # pick's row, if awarded, the side and its sole picks 2 and the
        # joint picks 1
        now = side | only
        jq, jc = np.nonzero(joint_row)
        with np.errstate(invalid="ignore"):  # +inf * 0 is NaN, which fmax makes 0
            joint_rows = ratios[jq, jc] * (2.0 * now + joint[:, None]).reshape(Q, S)[jq]
            ratios *= (side + 1.0 * now).reshape(Q, 1, S)
        ratios[jq, jc] = joint_rows
        np.fmax(ratios, 0.0, out=ratios)  # an unweighted +inf ratio adds nothing
        row_sums = np.cumsum(ratios, axis=2, out=ratios)[:, :, -1:]
        added = np.cumsum(np.where(np.stack((only_row, joint_row), axis=2), row_sums, 0.0), axis=1)[:, -1]
        sums += added[:, 0]
        counts += only.sum(axis=2).ravel()

        n_joint = joint.sum(axis=1)
        score = (sums / counts).reshape(P, 2)
        right = score[:, 0] > score[:, 1]
        win = (n_joint > 0)[:, None] & np.stack((~right, right), axis=1)
        sums += np.where(win.ravel(), added[:, 1], 0.0)
        counts += (win * n_joint[:, None]).ravel()
        side = now | (joint[:, None] & win[:, :, None])

        dists[~(only_row | (joint_row & win.reshape(Q, 1)))] = np.inf
        np.minimum(near, dists.min(axis=1), out=near)
        pool &= ~mark.any(axis=1)
    p, s, c = np.nonzero(side)
    return np.split(idx[p, c], np.cumsum(side.sum(axis=2).ravel())[:-1])


def _partition_batch(
    blocks: list[np.ndarray], kprime: int, max_patch: int
) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """``partition_classes`` on one class batch, held as one buffer pair.

    Class b's geodesics and distances sit row-major at offset ``base[b]`` of
    the flat buffers G and E.  Its roots are the components of its k'-NN
    graph: two points share one iff their geodesic is finite, and each is
    found by its lowest member.  Every oversize leaf of every class is
    split at each tree level, ``_grow`` taking a level's patches together
    in chunks, and then G becomes its ratios in place for one
    ``mean_ratios`` call per leaf size and chunk.
    """
    n = np.array([Xc.shape[0] for Xc in blocks])
    base = np.cumsum(n * n) - n * n
    G, E = np.empty(int(n @ n)), np.empty(int(n @ n))
    leaves = []  # each class's leaves: sorted class-local member indices
    for b, Xc in enumerate(blocks):
        g, e = (M[base[b] : base[b] + n[b] ** 2].reshape(n[b], n[b]) for M in (G, E))
        # a one-point class: one zero-length path
        g[...], e[...] = geodesic_distances(Xc, min(kprime, n[b] - 1)) if n[b] > 1 else (0.0, 0.0)
        lowest = np.isfinite(g).argmax(axis=1)
        leaves.append([np.flatnonzero(lowest == c) for c in np.unique(lowest)])
    # values any step may hold at once: three times the largest class's n^2
    budget = 3 * int(n.max()) ** 2
    while jobs := [(b, k) for b, ms in enumerate(leaves) for k, m in enumerate(ms) if len(m) > max_patch]:
        # a round holds, per padded patch of size S, three (2, k', S) row
        # buffers and about sixteen size-S rows of values
        sizes = [len(leaves[b][k]) for b, k in jobs]
        for lo, hi in _chunks(sizes, lambda s: (6 * min(kprime, s) + 16) * s, budget):
            cls = np.array([b for b, _ in jobs[lo:hi]])
            idx, counts = _padded([leaves[b][k] for b, k in jobs[lo:hi]])
            halves = _grow(G, E, base[cls], n[cls], idx, counts, kprime, budget)
            for (b, k), left, right in zip(jobs[lo:hi], halves[::2], halves[1::2]):
                leaves[b][k] = left
                leaves[b].append(right)

    R = tortuosity(G, E)
    leaves = [sorted(ms, key=lambda m: m[0]) for ms in leaves]
    cls = np.repeat(np.arange(len(blocks)), [len(ms) for ms in leaves])
    flat = [m for ms in leaves for m in ms]
    sizes = np.array([len(m) for m in flat])
    linearity = np.empty(len(flat))
    for N in np.unique(sizes):
        group = np.flatnonzero(sizes == N)
        sub = np.stack([flat[k] for k in group])
        rows = sub * n[cls[group], None] + base[cls[group], None]
        for lo, hi in _chunks([N] * len(group), lambda s: 2 * s * s, budget):
            linearity[group[lo:hi]] = mean_ratios(_gather(R, rows[lo:hi], sub[lo:hi]))
    return list(zip(leaves, np.split(linearity, np.cumsum([len(ms) for ms in leaves])[:-1])))


def partition_classes(
    blocks: list[np.ndarray],
    kprime: int = DEFAULT_KPRIME,
    max_patch: int = DEFAULT_MAX_PATCH,
) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """Partition each class's points into patches of at most ``max_patch`` members.

    ``blocks`` holds one feature matrix per class; the result holds one pair
    per block, each equal to partitioning that class alone.  Consecutive
    classes are split together while their count times the largest class's
    n x n values is at most ``CLASS_BATCH_VALUES``.

    A class's pair is ``(patches, linearity)``: the sorted member indices of
    each patch, numbered in ascending order of their smallest member, and a
    float64 array of each patch's mean geodesic/Euclidean ratio of its pairs.

    Disconnected components of the k'-NN graph are separated up front, since
    tortuosity is meaningless across components.  Every block must be finite
    and hold at least one point.
    """
    if kprime < 1:
        raise ValueError("kprime must be at least 1")
    if max_patch < 1:
        raise ValueError("max_patch must be at least 1")
    blocks = [np.atleast_2d(_finite(Xc)) for Xc in blocks]
    for c, Xc in enumerate(blocks):
        if Xc.shape[0] == 0:
            raise ValueError(f"class block {c} has no points")
    parts = []
    for a, b in _chunks([Xc.shape[0] for Xc in blocks], lambda n: n * n, CLASS_BATCH_VALUES):
        parts += _partition_batch(blocks[a:b], kprime, max_patch)
    return parts
