"""Reference constructions of the within-class form, kept as test oracles.

``dense_within`` is the former production assembly: it accumulates the
whole form for one gamma into a dense total x total array, batching the
pairwise term per patch and the gamma term per ordered patch pair.
``edge_within`` builds the form literally from the definition in the
``mpda.model`` docstring, one edge at a time:

    S = sum_ij W_ij [ a_ij a_ij' + gamma * B_ij' B_ij ].

``loop_within`` is the former sparse assembly with one loop turn per
patch, kept to pin the bytes of the stacked one: its t-block adds the
patches' M_q in ascending patch order, and its triplets come in the
order the sparse conversion sums duplicates in.

Each reads the bases as ``patch_bases`` returns them, (T, dims), and
none of them touches the sparse assembly in ``mpda.model``.
"""

import numpy as np
import scipy.sparse as sp


def basis(bases, p):
    """Patch p's (d, dims[p]) basis of the stack, in the column-major layout
    of the per-patch SVD's transposed ``Vt``, which products with it keep."""
    T, dims = bases
    return np.asfortranarray(T[p, :, : dims[p]])


def dense_within(X, W, patch_of, bases, gamma, layout):
    """The within-class form S for one gamma as a dense total x total array."""
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    S = np.zeros((layout.total, layout.total))
    Wc = sp.coo_matrix(W)
    keep = (Wc.data != 0.0) & (Wc.row != Wc.col)
    rows, cols, w = Wc.row[keep], Wc.col[keep], Wc.data[keep]
    p_i, p_j = patch_of[rows], patch_of[cols]

    for q in np.unique(p_j):
        sel = p_j == q
        D = X[rows[sel]] - X[cols[sel]]
        M = D.T @ (w[sel][:, None] * D)
        S[:d, :d] += M
        Tq = basis(bases, q)
        if Tq.shape[1]:
            sq = layout.v_slice(q)
            MT = M @ Tq
            S[:d, sq] -= MT
            S[sq, :d] -= MT.T
            S[sq, sq] += Tq.T @ MT

    if gamma:
        dims = bases[1]
        pair_w: dict[tuple[int, int], float] = {}
        for p, q, wv in zip(p_i, p_j, w):
            if p != q and dims[p]:
                key = (int(p), int(q))
                pair_w[key] = pair_w.get(key, 0.0) + float(wv)
        for (p, q), wsum in sorted(pair_w.items()):
            gw = gamma * wsum
            spp, sq = layout.v_slice(p), layout.v_slice(q)
            S[spp, spp] += gw * np.eye(dims[p])
            if dims[q]:
                C = basis(bases, p).T @ basis(bases, q)
                S[spp, sq] -= gw * C
                S[sq, spp] -= gw * C.T
                S[sq, sq] += gw * (C.T @ C)
    return S


def edge_within(X, W, patch_of, bases, gamma, layout):
    """S from the docstring definition: one a_ij and one B_ij per graph edge.

    a_ij' f = t' d_ij - v_{p(j)}' T_{p(j)}' d_ij and
    B_ij f = v_{p(i)} - T_{p(i)}' T_{p(j)} v_{p(j)}, with d_ij = x_i - x_j.
    A self-loop or a same-patch pair is not special-cased: its terms vanish
    (up to rounding, for the orthonormal basis of one patch) by themselves.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    S = np.zeros((layout.total, layout.total))
    Wc = sp.coo_matrix(W)
    for i, j, w in zip(Wc.row, Wc.col, Wc.data):
        pi, pj = int(patch_of[i]), int(patch_of[j])
        dij = X[i] - X[j]
        a = np.zeros(layout.total)
        a[:d] = dij
        Ti, Tj = basis(bases, pi), basis(bases, pj)
        a[layout.v_slice(pj)] -= Tj.T @ dij
        B = np.zeros((Ti.shape[1], layout.total))
        B[:, layout.v_slice(pi)] += np.eye(Ti.shape[1])
        B[:, layout.v_slice(pj)] -= Ti.T @ Tj
        S += w * (np.outer(a, a) + gamma * B.T @ B)
    return S


def _triplets(row0, col0, blocks, mask):
    e, a, b = np.nonzero(mask)
    return row0[e] + a, col0[e] + b, blocks[e, a, b]


def _outer(a, b):
    return a[:, :, None] & b[:, None, :]


def _sparse_form(total, parts):
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return sp.csc_matrix((vals, (rows, cols)), shape=(total, total))


def loop_within(X, W, patch_of, bases, layout):
    """(S_diff, S_tan) as sparse CSC matrices, one loop turn per patch."""
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    Wc = sp.coo_matrix(W)
    keep = (Wc.data != 0.0) & (Wc.row != Wc.col)
    rows, cols, w = Wc.row[keep], Wc.col[keep], Wc.data[keep]
    p_i, p_j = patch_of[rows], patch_of[cols]
    T, dims = bases
    (P, _, r), total = T.shape, layout.total
    off = np.array(layout.offsets, dtype=np.int64)
    valid = np.arange(r) < dims[:, None]

    band = np.zeros((d, total))
    VV = np.zeros((P, r, r))
    for q in np.unique(p_j):
        sel = p_j == q
        D = X[rows[sel]] - X[cols[sel]]
        M = D.T @ (w[sel][:, None] * D)
        band[:, :d] += M
        Tq = basis(bases, q)
        MT = M @ Tq
        band[:, layout.v_slice(q)] = -MT
        VV[q, : dims[q], : dims[q]] = Tq.T @ MT
    vband = band[None, :, d:].transpose(0, 2, 1)
    S_diff = _sparse_form(total, [
        _triplets(np.array([0]), np.array([0]), band[None], np.ones((1, d, total), dtype=bool)),
        _triplets(np.array([d]), np.array([0]), vband, np.ones(vband.shape, dtype=bool)),
        _triplets(off, off, VV, _outer(valid, valid)),
    ])

    cross = (p_i != p_j) & (dims[p_i] > 0)
    keys, inv = np.unique(p_i[cross] * P + p_j[cross], return_inverse=True)
    ws = np.bincount(inv, weights=w[cross], minlength=keys.size)[:, None, None]
    p, q = np.divmod(keys, P)
    C = T[p].transpose(0, 2, 1) @ T[q]
    Ct = C.transpose(0, 2, 1)
    vp, vq = valid[p], valid[q]
    S_tan = _sparse_form(total, [
        _triplets(off[p], off[p], ws * np.eye(r), _outer(vp, vp) & np.eye(r, dtype=bool)),
        _triplets(off[p], off[q], -ws * C, _outer(vp, vq)),
        _triplets(off[q], off[p], -ws * Ct, _outer(vq, vp)),
        _triplets(off[q], off[q], ws * (Ct @ C), _outer(vq, vq)),
    ])
    return S_diff, S_tan
