"""Core embedding machinery: quadratic forms, eigen-pencil, fit/transform.

The within-class objective couples a linear projection t with one tangent
vector v_p per patch.  Stacking f = (t, v_1, ..., v_P) turns it into a
quadratic form f' S f, accumulated edge by edge:

    S = sum_ij W_ij [ a_ij a_ij' + gamma * B_ij' B_ij ]

where, with d_ij = x_i - x_j and T_p the patch bases,

    a_ij' f = t' d_ij - v_{p(j)}' T_{p(j)}' d_ij
    B_ij f  = v_{p(i)} - T_{p(i)}' T_{p(j)} v_{p(j)}.

S = S_diff + gamma * S_tan splits the a_ij and B_ij terms, so one sparse
assembly serves every gamma; the v-block only couples patches joined by an edge.

The between-class objective only sees t, so S' carries A = 2 X' L' X in
its top-left block and nothing elsewhere.  The projection is read off the
t-parts of the top eigenvectors of S' f = lambda (S + alpha I) f.

A fit runs one exact k-NN search, which feeds both the sparse within-class
graph and X' L' X.  X' L' X comes from class sums plus the O(nk) neighbor
edges (``graph.between_class_form``): O(nk + d^2) memory, no n x n array.

Because S' vanishes outside the t-block, the v-rows of the pencil give
v = -B_vv^-1 B_vt t with B = S + alpha I, which reduces it exactly to

    A t = lambda (B_tt - B_tv B_vv^-1 B_vt) t.

``solve_gep`` factors the sparse SPD block B_vv once, solves this d x d
pencil in O(d^3) instead of O(total^3), and back-substitutes v.

The pairwise variant uses the exact same assembly with one "patch" per
point, whose basis comes from the point's within-class neighborhood.
``assemble_within``, ``assemble_between`` and ``solve_gep`` are internal to
the fit; the package exports the fits, ``transform`` and the model files.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .dataset import LabeledDataset
from .errors import (
    DataError,
    DimensionMismatchError,
    LayoutMismatchError,
    ParseError,
    ResourceLimitError,
    SolverFailureError,
)
from .graph import NeighborLists, between_class_form, knn_neighbors, within_class_graph
from .partition import DEFAULT_KPRIME, DEFAULT_MAX_PATCH, partition_classes
from .tangent import DEFAULT_ENERGY, _signed, patch_bases, per_point_bases

DEFAULT_K = 5
DEFAULT_GAMMA = 1.0
DEFAULT_ALPHA = 1e-3
# PMPDA's bound on d + the sum of tangent ranks: 16,000 training rows x 50 columns
# (total 80,050, k = 5) fit in 21 s with an 830 MB peak RSS on one core
DEFAULT_TOTAL_CAP = 80_000


@dataclass(frozen=True)
class BlockLayout:
    """Index layout of the stacked vector f = (t, v_1, ..., v_P)."""

    d: int
    block_dims: tuple[int, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(np.cumsum((self.d, *self.block_dims))[:-1].tolist())

    @property
    def total(self) -> int:
        return self.d + sum(self.block_dims)

    def v_slice(self, p: int) -> slice:
        start = self.offsets[p]
        return slice(start, start + self.block_dims[p])


def layout_for(d: int, dims: np.ndarray) -> BlockLayout:
    """The layout of f = (t, v_1, ..., v_P) for ``patch_bases``' ranks ``dims``."""
    return BlockLayout(d=d, block_dims=tuple(np.asarray(dims).tolist()))


def _pairs_per_chunk(nnz: int, d: int, r: int) -> int:
    """Pairs per chunk of ``_tangent_part``: a chunk's two (pairs, d, r)
    gathers hold at most as many values as the form's three triplet arrays."""
    return max(3 * nnz // (2 * d * max(r, 1)), 1)


def _tangent_part(p, q, ws, T, dims, off, total) -> sp.csc_matrix:
    """``assemble_within``'s S_tan from its ordered patch pairs (p[e], q[e]), in
    ascending key order, of weight sums ws[e], and the stacked bases T
    (P, d, r) with ranks ``dims`` at v-offsets ``off``.

    A pair adds four blocks: ws I at (p, p), -ws C at (p, q), -ws C' at
    (q, p) and ws C'C at (q, q), with C = T_p' T_q.  Their triplets go
    straight into three arrays allocated once, the rows and columns int32
    as in the CSC result (``total`` is far below 2^31): part by part, then
    pair by pair, then row-major within a block, the order in which the one
    COO to CSC conversion sums duplicates.  The pairs go in chunks, and a chunk's
    C and C'C are one stacked product each, so no value depends on them.
    """
    _, d, r = T.shape
    dp, dq = dims[p], dims[q]
    # triplets per part and pair, and where each block starts in the arrays
    counts = np.stack([dp, dp * dq, dq * dp, dq * dq])
    start = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    nnz = int(counts.sum())
    rows, cols, vals = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32), np.empty(nnz)
    step = _pairs_per_chunk(nnz, d, r)
    for lo in range(0, p.size, step):
        e = slice(lo, lo + step)
        C = T[p[e]].transpose(0, 2, 1) @ T[q[e]]
        Ct = C.transpose(0, 2, 1)
        w, op, oq = ws[e], off[p[e]], off[q[e]]
        # per part: row and column offsets, block width, scale and blocks
        # (None for the diagonal, whose values are the scale itself)
        for k, (r0, c0, width, scale, blocks) in enumerate([
            (op, op, None, w, None),
            (op, oq, dq[e], -w, C),
            (oq, op, dp[e], -w, Ct),
            (oq, oq, dq[e], w, Ct @ C),
        ]):
            cnt = counts[k, e]
            j = np.repeat(np.arange(cnt.size), cnt)  # each triplet's pair in the chunk
            t = np.arange(j.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            at = slice(start[k, lo], start[k, lo] + j.size)
            if blocks is None:
                rows[at] = cols[at] = r0[j] + t
                vals[at] = scale[j]
            else:
                a, b = np.divmod(t, width[j])
                rows[at], cols[at] = r0[j] + a, c0[j] + b
                vals[at] = scale[j] * blocks[j, a, b]
    return sp.csc_matrix((vals, (rows, cols)), shape=(total, total))


def _pairwise_part(X, rows, cols, w, p_j, T, dims, off, total) -> sp.csc_matrix:
    """``assemble_within``'s S_diff from its edges (rows[e], cols[e]) of weight
    w[e] into patch p_j[e], and the stacked bases T (P, d, r) with ranks
    ``dims`` at v-offsets ``off`` in f of size ``total``.

    Batched over the reference point's patch: every edge into patch q shares
    the same (t, v_q) coupling pattern.  The edges are sorted by q and never
    padded, so each stacked slice is the product one patch alone makes, bit
    for bit.
    """
    P, d, r = T.shape
    order = np.argsort(p_j, kind="stable")
    q_in, first, count = np.unique(p_j[order], return_index=True, return_counts=True)
    band = np.zeros((d, total))  # the t-rows of S_diff: [A, S_tv]
    VV = np.zeros((P, r, r))  # its diagonal v-blocks T_q' M_q T_q
    A = np.zeros((d, d))  # the sum of the M_q so far, in ascending q
    step = total // d
    for start in range(0, q_in.size, step):
        q, f, K = (a[start : start + step] for a in (q_in, first, count))
        M = np.empty((q.size, d, d))
        for k in np.unique(K):
            sel = K == k
            e = order[f[sel, None] + np.arange(k)]
            D = X[rows[e]] - X[cols[e]]
            M[sel] = D.transpose(0, 2, 1) @ (w[e][..., None] * D)
        rank = dims[q]
        for g in np.unique(rank[rank > 0]):  # a rank-0 basis writes empty blocks
            sel = rank == g
            # T_q' stacked row-major: each T_q keeps its own column-major layout
            Tt = np.ascontiguousarray(T[q[sel], :, :g].transpose(0, 2, 1))
            MT = M[sel] @ Tt.transpose(0, 2, 1)
            band[:, off[q[sel], None] + np.arange(g)] = -MT.transpose(1, 0, 2)
            VV[q[sel], :g, :g] = Tt @ MT
        # A added to the first M_q, then one reduce down the stack: the same
        # left-to-right order as a running sum over every patch
        M[0] += A
        A = np.add.reduce(M, axis=0)
    band[:, :d] = A
    # S_diff straight in CSC form: t-column j holds band[:, j] and then
    # band[j, d:]; a v-column of patch q holds band's column and then its
    # column of T_q' M_q T_q, kept to the first dims[q] rows; int32 indices,
    # as scipy keeps them
    v_patch = np.repeat(np.arange(P), dims)
    indptr = np.cumsum(np.concatenate([[0], np.full(d, total), d + dims[v_patch]]))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    t_data, t_rows = data[: d * total].reshape(d, total), indices[: d * total].reshape(d, total)
    t_data[:, :d], t_data[:, d:], t_rows[:] = band[:, :d].T, band[:, d:], np.arange(total)
    v_data, v_rows = np.empty((total - d, d + r)), np.empty((total - d, d + r), dtype=np.int32)
    v_data[:, :d], v_data[:, d:] = band[:, d:].T, VV[v_patch, :, np.arange(d, total) - off[v_patch]]
    v_rows[:, :d], v_rows[:, d:] = np.arange(d), off[v_patch, None] + np.arange(r)
    v_kept = np.arange(d + r) < d + dims[v_patch, None]
    data[d * total :], indices[d * total :] = v_data[v_kept], v_rows[v_kept]
    return sp.csc_matrix((data, indices, indptr), shape=(total, total))


def assemble_within(
    X: np.ndarray,
    W,
    patch_of: np.ndarray,
    bases: tuple[np.ndarray, np.ndarray],
) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """The within-class form's two parts (S_diff, S_tan), S = S_diff + gamma * S_tan.

    ``bases`` is ``patch_bases``' stack (T, dims).  S_diff sums W_ij a_ij
    a_ij' and S_tan sums W_ij B_ij' B_ij over both orderings of every edge,
    matching the symmetric double sum.  Same-patch pairs add nothing to
    S_tan because the patch basis is orthonormal.  Both are sparse total x
    total matrices over ``layout_for(d, dims)``.

    S_diff needs M_q = sum of w d_ij d_ij' over the edges into each patch q,
    but no product is made per patch: the patches go in chunks of ascending
    q, each holding at most d x total values (as many as S_diff's t-rows),
    and a chunk's M_q are one stacked matrix product per in-edge count, its
    M_q T_q and T_q' M_q T_q one per rank.  The t-block adds the M_q in
    ascending q, so every value is bit-identical to building each patch's
    blocks on its own, for bases laid out as ``patch_bases`` returns them.

    S_tan collapses the edges to ordered patch pairs and walks them in
    chunks, each with one stacked C_pq = T_p' T_q and C_pq' C_pq.  A chunk
    gathers its pairs' (pairs, d, r) bases twice, and holds at most as many
    values there as the three triplet arrays of the whole form, into which
    every chunk writes its triplets in place.  They keep one order, so the
    one COO to CSC sum gives the same bytes for any chunking.  C_pq' C_pq
    sums all r rows of C_pq, so T must be (P, d, r >= dims.max()) and +0.0
    past each rank, or ``LayoutMismatchError`` is raised.  It is raised too
    unless W is n x n and every patch id lies in 0..P-1.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    patch_of = np.asarray(patch_of, dtype=np.int64)
    if patch_of.shape[0] != n:
        raise LayoutMismatchError("patch assignment length does not match X")
    T, dims = np.asarray(bases[0], dtype=np.float64), np.asarray(bases[1], dtype=np.int64)
    P, total, off = dims.size, d + int(dims.sum()), d + np.cumsum(dims) - dims
    if patch_of.size and not 0 <= patch_of.min() <= patch_of.max() < P:
        raise LayoutMismatchError("patch assignment references a missing basis")
    if np.shape(W) != (n, n):
        raise LayoutMismatchError(f"graph of shape {np.shape(W)} does not match {n} rows")
    if T.ndim != 3 or T.shape[:2] != (P, d) or T.shape[2] < dims.max(initial=0):
        raise LayoutMismatchError(f"bases of shape {T.shape} do not match {P} ranks in {d} columns")
    if np.any((T != 0.0).any(axis=1) & (np.arange(T.shape[2]) >= dims[:, None])):
        raise LayoutMismatchError("a tangent basis holds a nonzero value beyond its rank")

    Wc = sp.coo_matrix(W)
    keep = (Wc.data != 0.0) & (Wc.row != Wc.col)
    rows, cols, w = Wc.row[keep], Wc.col[keep], Wc.data[keep]
    p_i, p_j = patch_of[rows], patch_of[cols]

    S_diff = _pairwise_part(X, rows, cols, w, p_j, T, dims, off, total)

    # tangent-consistency term: it depends on an edge only through its
    # ordered patch pair, so edges collapse to per-pair weight sums
    cross = (p_i != p_j) & (dims[p_i] > 0)
    keys, inv = np.unique(p_i[cross] * P + p_j[cross], return_inverse=True)
    ws = np.bincount(inv, weights=w[cross], minlength=keys.size)
    p, q = np.divmod(keys, P)
    S_tan = _tangent_part(p, q, ws, T, dims, off, total)
    return S_diff, S_tan


def assemble_between(XtLX: np.ndarray, layout: BlockLayout) -> sp.csc_matrix:
    """Between-class form, sparse total x total: 2 X' L' X (``XtLX`` from
    ``graph.between_class_form``) in the projection block, nothing elsewhere."""
    if np.shape(XtLX) != (layout.d, layout.d):
        raise LayoutMismatchError("between-class form does not match the layout dimension")
    A = sp.coo_matrix(2.0 * XtLX)
    return sp.csc_matrix((A.data, (A.row, A.col)), shape=(layout.total, layout.total))


def solve_gep(
    S_between,
    S_within,
    alpha: float,
    m: int,
    t_dim: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-m eigenpairs of S' f = lambda (S + alpha I) f, lambda descending.

    ``S_between`` and ``S_within`` may be dense arrays or scipy sparse
    matrices.  Solved through the d x d reduction in the module docstring,
    with d = ``t_dim`` (all of f when None).  Returns f = (t, -B_vv^-1 B_vt t)
    scaled to a unit-norm t-part signed by ``tangent._signed``.

    Degenerate cases: an empty v-block (e.g. every basis of dimension 0) is
    a plain d x d solve.  With fewer than m positive reduced eigenvalues
    (n < d, or A indefinite) the top-m reduced pairs are still returned,
    lambda <= 0 included; each has t != 0 and is a genuine eigenpair of the
    full pencil, unlike its other lambda = 0 vectors, whose t-part is 0.
    Raises ``ValueError`` unless 0 < m <= t_dim and 0 < alpha < inf, or
    when ``S_between`` is nonzero outside its leading t_dim block, and
    ``SolverFailureError`` when either form holds a non-finite value (as
    when the scatters of finite data overflow), before the alpha check.
    """
    S_within = sp.csc_matrix(S_within)
    total = S_within.shape[0]
    d = total if t_dim is None else t_dim
    if not 0 < m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    Sb = sp.coo_matrix(S_between)
    if not (np.isfinite(Sb.data).all() and np.isfinite(S_within.data).all()):
        raise SolverFailureError("S_between or S_within holds a non-finite value")
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive")
    inside = (Sb.row < d) & (Sb.col < d)
    if np.any(Sb.data[~inside]):
        raise ValueError("S_between must vanish outside its leading t_dim block")
    A = sp.coo_matrix((Sb.data[inside], (Sb.row[inside], Sb.col[inside])), shape=(d, d)).toarray()
    B_vv = S_within[d:, d:] + alpha * sp.identity(total - d, format="csc")
    try:
        Z = splu(B_vv).solve(S_within[d:, :d].toarray())
        schur = S_within[:d, :d].toarray() + alpha * np.eye(d) - S_within[:d, d:] @ Z
        schur = 0.5 * (schur + schur.T)
        vals, T = scipy.linalg.eigh(A, schur, subset_by_index=(d - m, d - 1))
    except (RuntimeError, scipy.linalg.LinAlgError) as exc:
        raise SolverFailureError(f"generalized eigensolver failed: {exc}") from exc
    if vals.size < m:  # LAPACK's subset driver can stop short on a near-singular pencil
        raise SolverFailureError(f"generalized eigensolver found {vals.size} of {m} eigenpairs")
    vals, T = vals[::-1], T[:, ::-1]
    T = _signed(T / np.linalg.norm(T, axis=0))
    return vals, np.vstack([T, -(Z @ T)])


@dataclass(frozen=True)
class EmbeddingModel:
    """Fitted linear embedding: projection, eigenvalues and hyperparameters.

    ``projection`` is d x m.  An MPDA/PMPDA fit also holds its block
    ``layout`` and the stacked ``eigenvectors``, so per-patch tangent vectors
    stay inspectable; a PCA model holds the training ``mean``.
    """

    kind: str  # "mpda" | "pmpda" | "lda" | "pca"
    projection: np.ndarray
    eigenvalues: np.ndarray
    hyperparams: dict = field(default_factory=dict)
    layout: BlockLayout | None = None
    eigenvectors: np.ndarray | None = None
    mean: np.ndarray | None = None  # used by the pca baseline only

    @property
    def d(self) -> int:
        return self.projection.shape[0]

    @property
    def m(self) -> int:
        return self.projection.shape[1]

    def tangent_vectors(self, patch: int) -> np.ndarray:
        """Per-eigenvector tangent vector of one patch (m_p x m)."""
        if self.layout is None or self.eigenvectors is None:
            raise ValueError("model carries no tangent diagnostics")
        return self.eigenvectors[self.layout.v_slice(patch), :]


def transform(model: EmbeddingModel, X: np.ndarray) -> np.ndarray:
    """Embed rows of X: B = X T (PCA models center first)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.d:
        raise DimensionMismatchError(
            f"X has {X.shape[1]} columns but the model expects {model.d}"
        )
    if model.mean is not None:
        X = X - model.mean
    return X @ model.projection


def merge_class_partitions(
    ds: LabeledDataset, kprime: int, max_patch: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Partition every class independently and merge into global patch ids.

    Returns the per-point patch assignment and the global member lists
    (classes in ascending label order, each list ascending).
    """
    class_rows = [ds.class_indices(int(c)) for c in np.unique(ds.labels)]
    parts = partition_classes([ds.features[rows] for rows in class_rows], kprime, max_patch)
    members = [rows[p] for rows, (patches, _) in zip(class_rows, parts) for p in patches]
    sizes = [len(m) for m in members]
    patch_of = np.empty(ds.n, dtype=np.int64)
    patch_of[np.concatenate(members)] = np.repeat(np.arange(len(members)), sizes)
    return patch_of, members


# --- fit stages ---------------------------------------------------------------
#
# A fit runs four stages, each reading only the hyperparameters it takes: a
# bases stage (``_patch_bases`` or ``_point_bases``, reading the names its
# signature gives after ``train``), the graphs (k, from the head of one k-NN
# search per training set) with the between form over the bases' layout,
# ``assemble_within`` (no hyperparameter: gamma only weighs its second part)
# and ``solve_gep`` (alpha, m).  ``staged_fits`` runs each once per distinct
# input, so a stage must depend on nothing else.


def _patch_bases(
    train: LabeledDataset, kprime: int, max_patch: int, energy: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """MPDA bases stage: per-class partition, then one tangent basis per patch."""
    patch_of, members = merge_class_partitions(train, kprime, max_patch)
    return patch_of, patch_bases(train.features, members, energy)


def _point_bases(
    train: LabeledDataset, k: int, energy: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """PMPDA bases stage: one tangent basis per point, under ``DEFAULT_TOTAL_CAP``."""
    bases = per_point_bases(train.features, train.labels, k, energy)
    total = train.d + int(bases[1].sum())
    if total > DEFAULT_TOTAL_CAP:
        raise ResourceLimitError(f"stacked dimension {total} exceeds the cap {DEFAULT_TOTAL_CAP}")
    return np.arange(train.n, dtype=np.int64), bases


def staged_fits(kind: str, train: LabeledDataset, m: int, params_list: list[dict]):
    """Fit ``kind`` ("mpda" or "pmpda") at width m once per dict of ``params_list``.

    Yields ``(index, EmbeddingModel)`` per entry, in stage order rather than
    list order.  Each entry holds keyword hyperparameters of the kind's fit
    function, whose defaults fill the rest; an unknown name raises
    ``TypeError`` as that call would.  Entries share every stage whose input
    they share: the bases stage runs once per distinct bases key, the k-NN
    search once at the largest k, whose first k neighbors per row (a search
    at k gives the same) build the graphs, the between form and both parts
    of the within form once per (bases key, k), their sum S_diff + gamma *
    S_tan once per gamma within that and the eigen-solve once per alpha.
    Each stage computes what a single fit computes, so every model is
    bit-identical to fitting its entry alone.  A width m outside 1..d, a k
    below 1, a negative or non-finite gamma, an alpha that is not positive
    and finite, or an energy outside (0, 1], raises ``ValueError`` before
    any stage runs, and a training set of fewer than two rows raises
    ``DataError``.
    """
    if train.n < 2:
        raise DataError(f"{kind} needs at least two training rows, got {train.n}")
    if not 0 < m <= train.d:
        raise ValueError(f"m must lie in 1..{train.d}")
    fit, bases_stage = {"mpda": (fit_mpda, _patch_bases), "pmpda": (fit_pmpda, _point_bases)}[kind]
    fit_sig = inspect.signature(fit)
    bases_names = list(inspect.signature(bases_stage).parameters)[1:]
    hp = []
    for params in params_list:
        bound = fit_sig.bind(None, m, **params)
        bound.apply_defaults()
        if bound.arguments["k"] < 1:
            raise ValueError("k must be at least 1")
        if not 0 <= bound.arguments["gamma"] < np.inf:
            raise ValueError("gamma must be nonnegative")
        if not 0 < bound.arguments["alpha"] < np.inf:
            raise ValueError("alpha must be positive")
        if not 0 < bound.arguments["energy"] <= 1:
            raise ValueError("energy must lie in (0, 1]")
        hp.append({n: v for n, v in bound.arguments.items() if n != "train"})

    tree: dict = {}  # bases key -> k -> gamma -> alpha -> entry indices
    for i, h in enumerate(hp):
        node = tree
        for key in (tuple(h[n] for n in bases_names), h["k"], h["gamma"]):
            node = node.setdefault(key, {})
        node.setdefault(h["alpha"], []).append(i)

    X, y, nb = train.features, train.labels, None
    for key, by_k in tree.items():
        patch_of, B = bases_stage(train, *key)
        layout = layout_for(train.d, B[1])
        for k, by_gamma in by_k.items():
            with np.errstate(over="ignore", invalid="ignore"):
                if nb is None:  # one search, at the largest k: a list at k is its head
                    nb = knn_neighbors(X, min(max(h["k"] for h in hp), train.n - 1))
                head = NeighborLists(nb.indices[:, :k], nb.distances[:, :k], min(k, nb.k))
                Sp = assemble_between(between_class_form(X, y, head), layout)
                S_diff, S_tan = assemble_within(X, within_class_graph(head, y), patch_of, B)
            for gamma, by_alpha in by_gamma.items():
                S = S_diff + gamma * S_tan
                for alpha, idx in by_alpha.items():
                    vals, vecs = solve_gep(Sp, S, alpha, m, t_dim=train.d)
                    model = EmbeddingModel(
                        kind=kind,
                        projection=np.ascontiguousarray(vecs[: train.d, :]),
                        eigenvalues=vals,
                        hyperparams=hp[idx[0]],
                        layout=layout,
                        eigenvectors=vecs,
                    )
                    for i in idx:
                        yield i, model


def fit_mpda(
    train: LabeledDataset,
    m: int,
    k: int = DEFAULT_K,
    kprime: int = DEFAULT_KPRIME,
    max_patch: int = DEFAULT_MAX_PATCH,
    gamma: float = DEFAULT_GAMMA,
    alpha: float = DEFAULT_ALPHA,
    energy: float = DEFAULT_ENERGY,
) -> EmbeddingModel:
    """Fit the patch-based embedding on a training set.

    Pipeline: per-class partition -> per-patch bases -> neighbor graphs ->
    quadratic forms -> eigen-pencil -> projection from the t-parts.
    """
    (_, model), = staged_fits("mpda", train, m, [{
        "k": k, "kprime": kprime, "max_patch": max_patch, "gamma": gamma, "alpha": alpha,
        "energy": energy,
    }])
    return model


def fit_pmpda(
    train: LabeledDataset,
    m: int,
    k: int = DEFAULT_K,
    gamma: float = DEFAULT_GAMMA,
    alpha: float = DEFAULT_ALPHA,
    energy: float = DEFAULT_ENERGY,
) -> EmbeddingModel:
    """Pairwise variant: one tangent space per point, no partitioning.

    The stacked problem has d + sum_i m_i unknowns; a sum above
    ``DEFAULT_TOTAL_CAP`` raises ``ResourceLimitError``.  The forms are
    sparse, but the reduced solve still holds a dense d x (total - d) block
    and its B_vv factor grows with the total.
    """
    params = {"k": k, "gamma": gamma, "alpha": alpha, "energy": energy}
    (_, model), = staged_fits("pmpda", train, m, [params])
    return model


# --- model files ------------------------------------------------------------
#
# Single self-describing binary: one JSON header line, then raw little-endian
# float64 arrays in header order (projection row-major, eigenvalues, mean).

_FORMAT_NAME = "mpda-model"
_FORMAT_VERSION = 1


def _numpy_scalar(value):
    """A numpy scalar hyperparameter as its Python value, for the JSON header."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_model(model: EmbeddingModel, path: str) -> None:
    """Write ``model`` to ``path``; a header that cannot be written leaves the file as it was."""
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "kind": model.kind,
        "d": model.d,
        "m": model.m,
        "n_eigenvalues": int(model.eigenvalues.shape[0]),
        "has_mean": model.mean is not None,
        "hyperparams": model.hyperparams,
    }
    line = json.dumps(header, sort_keys=True, default=_numpy_scalar).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(line)
        fh.write(np.ascontiguousarray(model.projection, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.eigenvalues, dtype="<f8").tobytes())
        if model.mean is not None:
            fh.write(np.ascontiguousarray(model.mean, dtype="<f8").tobytes())


def load_model(path: str) -> EmbeddingModel:
    """Read a model written by ``save_model``.

    The file holds the projection, eigenvalues, mean and hyperparameters
    only.  A reloaded model carries no ``layout`` or ``eigenvectors``, so it
    transforms exactly as the saved one but ``tangent_vectors()`` raises
    ``ValueError``.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: not a model file") from exc
        if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
            raise ParseError(f"{path}: not a model file")
        if header.get("version") != _FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported model version {header.get('version')}")
        blob = fh.read()
    try:
        d, m, n_eig = int(header["d"]), int(header["m"]), int(header["n_eigenvalues"])
        has_mean, kind = bool(header["has_mean"]), header["kind"]
        if d < 1 or m < 1 or n_eig < 0:
            raise ValueError
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}: malformed model header") from None
    if len(blob) != 8 * (d * m + n_eig + (d if has_mean else 0)):
        raise ParseError(f"{path}: truncated model payload")
    arr = np.frombuffer(blob, dtype="<f8")
    proj = arr[: d * m].reshape(d, m).copy()
    eig = arr[d * m : d * m + n_eig].copy()
    mean = arr[d * m + n_eig :].copy() if has_mean else None
    return EmbeddingModel(
        kind=kind,
        projection=proj,
        eigenvalues=eig,
        hyperparams=header.get("hyperparams", {}),
        mean=mean,
    )
