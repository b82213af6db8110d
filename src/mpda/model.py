"""Core embedding machinery: quadratic forms, eigen-pencil, fit/transform.

The within-class objective couples a linear projection t with one tangent
vector v_p per patch.  Stacking f = (t, v_1, ..., v_P) turns it into a
quadratic form f' S f, accumulated edge by edge:

    S = sum_ij W_ij [ a_ij a_ij' + gamma * B_ij' B_ij ]

where, with d_ij = x_i - x_j and T_p the patch bases,

    a_ij' f = t' d_ij - v_{p(j)}' T_{p(j)}' d_ij
    B_ij f  = v_{p(i)} - T_{p(i)}' T_{p(j)} v_{p(j)}.

The between-class objective only sees t, so S' carries A = 2 X' L' X in
its top-left block and zeros elsewhere.  The projection is read off the
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
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .dataset import LabeledDataset
from .errors import (
    DimensionMismatchError,
    LayoutMismatchError,
    ParseError,
    ResourceLimitError,
    SolverFailureError,
)
from .graph import between_class_form, knn_neighbors, within_class_graph
from .partition import DEFAULT_KPRIME, DEFAULT_MAX_PATCH, partition_class
from .tangent import DEFAULT_ENERGY, TangentBasis, fit_tangent_basis, per_point_bases

DEFAULT_K = 5
DEFAULT_GAMMA = 1.0
DEFAULT_ALPHA = 1e-3
DEFAULT_TOTAL_CAP = 4000


@dataclass(frozen=True)
class BlockLayout:
    """Index layout of the stacked vector f = (t, v_1, ..., v_P)."""

    d: int
    block_dims: tuple[int, ...]
    offsets: tuple[int, ...] = ()

    def __post_init__(self):
        out, pos = [], self.d
        for m in self.block_dims:
            out.append(pos)
            pos += m
        object.__setattr__(self, "offsets", tuple(out))

    @property
    def total(self) -> int:
        return self.d + sum(self.block_dims)

    def v_slice(self, p: int) -> slice:
        start = self.offsets[p]
        return slice(start, start + self.block_dims[p])


def layout_for(d: int, bases: list[TangentBasis]) -> BlockLayout:
    return BlockLayout(d=d, block_dims=tuple(b.dim for b in bases))


def assemble_within(
    X: np.ndarray,
    W,
    patch_of: np.ndarray,
    bases: list[TangentBasis],
    gamma: float,
    layout: BlockLayout | None = None,
) -> np.ndarray:
    """Accumulate the within-class quadratic form over all graph edges.

    Both orderings of every edge contribute, matching the symmetric double
    sum.  Same-patch pairs add nothing to the gamma term because the patch
    basis is orthonormal.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    patch_of = np.asarray(patch_of, dtype=np.int64)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if patch_of.shape[0] != n:
        raise LayoutMismatchError("patch assignment length does not match X")
    if patch_of.size and patch_of.max() >= len(bases):
        raise LayoutMismatchError("patch assignment references a missing basis")
    if layout is None:
        layout = layout_for(d, bases)
    if layout.d != d or len(layout.block_dims) != len(bases):
        raise LayoutMismatchError("layout does not match X and bases")

    S = np.zeros((layout.total, layout.total))
    Wc = sp.coo_matrix(W)
    keep = (Wc.data != 0.0) & (Wc.row != Wc.col)
    rows, cols, w = Wc.row[keep], Wc.col[keep], Wc.data[keep]
    p_i, p_j = patch_of[rows], patch_of[cols]

    # pairwise-difference term, batched over the reference point's patch:
    # every edge into patch q shares the same (t, v_q) coupling pattern
    for q in np.unique(p_j):
        sel = p_j == q
        D = X[rows[sel]] - X[cols[sel]]
        M = D.T @ (w[sel][:, None] * D)
        S[:d, :d] += M
        Tq = bases[q].basis
        if Tq.shape[1]:
            sq = layout.v_slice(q)
            MT = M @ Tq
            S[:d, sq] -= MT
            S[sq, :d] -= MT.T
            S[sq, sq] += Tq.T @ MT

    if gamma:
        # tangent-consistency term depends on the edge only through its
        # ordered patch pair, so edges collapse to per-pair weight sums
        pair_w: dict[tuple[int, int], float] = {}
        for p, q, wv in zip(p_i, p_j, w):
            if p != q and bases[p].dim:
                key = (int(p), int(q))
                pair_w[key] = pair_w.get(key, 0.0) + float(wv)
        for (p, q), wsum in sorted(pair_w.items()):
            gw = gamma * wsum
            spp, sq = layout.v_slice(p), layout.v_slice(q)
            S[spp, spp] += gw * np.eye(bases[p].dim)
            if bases[q].dim:
                C = bases[p].basis.T @ bases[q].basis
                S[spp, sq] -= gw * C
                S[sq, spp] -= gw * C.T
                S[sq, sq] += gw * (C.T @ C)
    return S


def assemble_between(XtLX: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Between-class form: 2 X' L' X in the projection block, zeros elsewhere.

    ``XtLX`` is the d x d ``graph.between_class_form``.
    """
    if np.shape(XtLX) != (layout.d, layout.d):
        raise LayoutMismatchError("between-class form does not match the layout dimension")
    S = np.zeros((layout.total, layout.total))
    S[: layout.d, : layout.d] = 2.0 * XtLX
    return S


def solve_gep(
    S_between: np.ndarray,
    S_within: np.ndarray,
    alpha: float,
    m: int,
    t_dim: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-m eigenpairs of S' f = lambda (S + alpha I) f, lambda descending.

    Solved through the d x d reduction in the module docstring, with
    d = ``t_dim`` (all of f when None).  Returns f = (t, -B_vv^-1 B_vt t)
    scaled to a unit-norm t-part whose largest component is positive.

    Degenerate cases: an empty v-block (e.g. every basis of dimension 0) is
    a plain d x d solve.  With fewer than m positive reduced eigenvalues
    (n < d, or A indefinite) the top-m reduced pairs are still returned,
    lambda <= 0 included; each has t != 0 and is a genuine eigenpair of the
    full pencil, unlike its other lambda = 0 vectors, whose t-part is 0.
    Raises ``ValueError`` unless 0 < m <= t_dim and alpha > 0, or when
    ``S_between`` is nonzero outside its leading t_dim block.
    """
    total = S_between.shape[0]
    d = total if t_dim is None else t_dim
    if not 0 < m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if np.any(S_between[d:]) or np.any(S_between[:d, d:]):
        raise ValueError("S_between must vanish outside its leading t_dim block")
    nv, S_vv = total - d, S_within[d:, d:]
    # scanning a boolean mask is several times cheaper than sp.csc_matrix(S_vv)
    r, c = np.divmod(np.flatnonzero(S_vv != 0), nv)
    I_v = sp.identity(nv, format="csc")
    B_vv = sp.csc_matrix((S_vv[r, c], (r, c)), shape=(nv, nv)) + alpha * I_v
    try:
        Z = splu(B_vv).solve(S_within[d:, :d])
        schur = S_within[:d, :d] + alpha * np.eye(d) - S_within[:d, d:] @ Z
        schur = 0.5 * (schur + schur.T)
        vals, T = scipy.linalg.eigh(S_between[:d, :d], schur, subset_by_index=(d - m, d - 1))
    except (RuntimeError, scipy.linalg.LinAlgError) as exc:
        raise SolverFailureError(f"generalized eigensolver failed: {exc}") from exc
    vals, T = vals[::-1], T[:, ::-1]
    T = T / np.linalg.norm(T, axis=0)
    lead = T[np.argmax(np.abs(T), axis=0), np.arange(m)]
    T = T * np.where(lead < 0, -1.0, 1.0)
    return vals, np.vstack([T, -(Z @ T)])


@dataclass(frozen=True)
class EmbeddingModel:
    """Fitted linear embedding with its diagnostics.

    ``projection`` is d x m; ``eigenvectors`` keeps the full stacked
    solutions so per-patch tangent vectors stay inspectable.
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

    def truncated(self, m: int) -> "EmbeddingModel":
        """Same model restricted to its leading m directions."""
        if not 0 < m <= self.m:
            raise ValueError(f"m must lie in 1..{self.m}")
        return EmbeddingModel(
            kind=self.kind,
            projection=self.projection[:, :m],
            eigenvalues=self.eigenvalues[:m],
            hyperparams={**self.hyperparams, "m": m},
            layout=self.layout,
            eigenvectors=None if self.eigenvectors is None else self.eigenvectors[:, :m],
            mean=self.mean,
        )


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
    ds: LabeledDataset, kprime: int, max_patch: int, approximate: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Partition every class independently and merge into global patch ids.

    Returns the per-point patch assignment and the global member lists
    (classes in ascending label order).
    """
    patch_of = np.full(ds.n, -1, dtype=np.int64)
    members: list[np.ndarray] = []
    for c in np.unique(ds.labels):
        rows = ds.class_indices(int(c))
        part = partition_class(ds.features[rows], kprime, max_patch, approximate)
        for local_members in part.patches:
            pid = len(members)
            global_members = rows[local_members]
            members.append(global_members)
            patch_of[global_members] = pid
    return patch_of, members


# --- fit stages ---------------------------------------------------------------
#
# A fit runs four stages, each reading only the hyperparameters it takes: a
# bases stage (``_patch_bases`` or ``_point_bases``, reading the names its
# signature gives after ``train``), ``_graphs`` (k) with the between form
# over the bases' layout, ``assemble_within`` (gamma) and ``solve_gep``
# (alpha, m).  ``staged_fits`` runs each once per distinct input, so a stage
# must depend on nothing else.


def _patch_bases(
    train: LabeledDataset, kprime: int, max_patch: int, energy: float, approximate_partition: bool
) -> tuple[np.ndarray, list[TangentBasis]]:
    """MPDA bases stage: per-class partition, then one tangent basis per patch."""
    patch_of, members = merge_class_partitions(train, kprime, max_patch, approximate_partition)
    return patch_of, [fit_tangent_basis(train.features[mem], energy) for mem in members]


def _point_bases(
    train: LabeledDataset, k: int, energy: float, total_cap: int
) -> tuple[np.ndarray, list[TangentBasis]]:
    """PMPDA bases stage: one tangent basis per point, under the stacked-size cap."""
    bases = per_point_bases(train.features, train.labels, k, energy)
    total = layout_for(train.d, bases).total
    if total > total_cap:
        raise ResourceLimitError(f"stacked dimension {total} exceeds the cap {total_cap}")
    return np.arange(train.n, dtype=np.int64), bases


def _graphs(train: LabeledDataset, k: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Graphs stage: the within-class graph and the d x d between-class form
    X' L' X, both from one k-NN search."""
    nb = knn_neighbors(train.features, min(k, train.n - 1))
    return (
        within_class_graph(nb, train.labels),
        between_class_form(train.features, train.labels, nb),
    )


# bases-stage inputs that a model does not record in its hyperparameters
_UNRECORDED = ("approximate_partition", "total_cap")


def staged_fits(kind: str, train: LabeledDataset, m: int, params_list: list[dict]):
    """Fit ``kind`` ("mpda" or "pmpda") at width m once per dict of ``params_list``.

    Yields ``(index, EmbeddingModel)`` per entry, in stage order rather than
    list order.  Each entry holds keyword hyperparameters of the kind's fit
    function, whose defaults fill the rest; an unknown name raises
    ``TypeError`` as that call would.  Entries share every stage whose input
    they share: the bases stage runs once per distinct bases key, the graphs
    once per k, the between form once per (k, bases key), the within form
    once per (k, bases key, gamma) and the eigen-solve once per alpha within
    that.  Each stage computes what a single fit computes, so every model is
    bit-identical to fitting its entry alone.
    """
    fit, bases_stage = {"mpda": (fit_mpda, _patch_bases), "pmpda": (fit_pmpda, _point_bases)}[kind]
    fit_sig = inspect.signature(fit)
    bases_names = list(inspect.signature(bases_stage).parameters)[1:]
    hp = []
    for params in params_list:
        bound = fit_sig.bind(None, m, **params)
        bound.apply_defaults()
        hp.append({n: v for n, v in bound.arguments.items() if n != "train"})

    tree: dict = {}  # bases key -> k -> gamma -> alpha -> entry indices
    for i, h in enumerate(hp):
        node = tree
        for key in (tuple(h[n] for n in bases_names), h["k"], h["gamma"]):
            node = node.setdefault(key, {})
        node.setdefault(h["alpha"], []).append(i)

    graphs: dict = {}  # k -> (W, X' L' X), small beside a set of bases
    for key, by_k in tree.items():
        patch_of, B = bases_stage(train, *key)
        layout = layout_for(train.d, B)
        for k, by_gamma in by_k.items():
            if k not in graphs:
                graphs[k] = _graphs(train, k)
            W, XtLX = graphs[k]
            Sp = assemble_between(XtLX, layout)
            for gamma, by_alpha in by_gamma.items():
                S = assemble_within(train.features, W, patch_of, B, gamma, layout)
                for alpha, idx in by_alpha.items():
                    vals, vecs = solve_gep(Sp, S, alpha, m, t_dim=train.d)
                    model = EmbeddingModel(
                        kind=kind,
                        projection=np.ascontiguousarray(vecs[: train.d, :]),
                        eigenvalues=vals,
                        hyperparams={n: v for n, v in hp[idx[0]].items() if n not in _UNRECORDED},
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
    approximate_partition: bool = False,
) -> EmbeddingModel:
    """Fit the patch-based embedding on a training set.

    Pipeline: per-class partition -> per-patch bases -> neighbor graphs ->
    quadratic forms -> eigen-pencil -> projection from the t-parts.
    """
    if not 0 < m <= train.d:
        raise ValueError(f"m must lie in 1..{train.d}")
    (_, model), = staged_fits("mpda", train, m, [{
        "k": k, "kprime": kprime, "max_patch": max_patch, "gamma": gamma, "alpha": alpha,
        "energy": energy, "approximate_partition": approximate_partition,
    }])
    return model


def fit_pmpda(
    train: LabeledDataset,
    m: int,
    k: int = DEFAULT_K,
    gamma: float = DEFAULT_GAMMA,
    alpha: float = DEFAULT_ALPHA,
    energy: float = DEFAULT_ENERGY,
    total_cap: int = DEFAULT_TOTAL_CAP,
) -> EmbeddingModel:
    """Pairwise variant: one tangent space per point, no partitioning.

    The stacked problem has d + sum_i m_i unknowns, and both quadratic forms
    are assembled as dense total x total arrays; ``total_cap`` guards
    against accidentally huge ones.
    """
    if not 0 < m <= train.d:
        raise ValueError(f"m must lie in 1..{train.d}")
    (_, model), = staged_fits("pmpda", train, m, [{
        "k": k, "gamma": gamma, "alpha": alpha, "energy": energy, "total_cap": total_cap,
    }])
    return model


def edge_residuals(
    X: np.ndarray,
    W,
    patch_of: np.ndarray,
    bases: list[TangentBasis],
    layout: BlockLayout,
    f: np.ndarray,
) -> sp.coo_matrix:
    """Per-edge first-order mismatch of one stacked solution f (diagnostic).

    Entry (i, j) holds (t'(x_i - x_j) - v_{p(j)}' T_{p(j)}'(x_i - x_j))^2
    for every within-graph edge; large values flag pairs the tangent
    representation explains poorly.
    """
    X = np.asarray(X, dtype=np.float64)
    Wc = sp.coo_matrix(W)
    t = f[: layout.d]
    # U[p] = T_p v_p, so v_p' T_p'(x_i - x_j) = (x_i - x_j)' U[p]
    U = np.stack([b.basis @ f[layout.v_slice(p)] for p, b in enumerate(bases)])
    D = X[Wc.row] - X[Wc.col]  # a self-loop's row is 0, and so is its value
    vals = (D @ t - np.einsum("ed,ed->e", D, U[patch_of[Wc.col]])) ** 2
    return sp.coo_matrix((vals, (Wc.row, Wc.col)), shape=Wc.shape)


# --- model files ------------------------------------------------------------
#
# Single self-describing binary: one JSON header line, then raw little-endian
# float64 arrays in header order (projection row-major, eigenvalues, mean).

_FORMAT_NAME = "mpda-model"
_FORMAT_VERSION = 1


def save_model(model: EmbeddingModel, path: str) -> None:
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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
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
        if header.get("format") != _FORMAT_NAME:
            raise ParseError(f"{path}: not a model file")
        if header.get("version") != _FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported model version {header.get('version')}")
        d, m = int(header["d"]), int(header["m"])
        blob = fh.read()
    need = d * m + int(header["n_eigenvalues"]) + (d if header["has_mean"] else 0)
    arr = np.frombuffer(blob, dtype="<f8")
    if arr.size != need:
        raise ParseError(f"{path}: truncated model payload")
    proj = arr[: d * m].reshape(d, m).copy()
    eig = arr[d * m : d * m + int(header["n_eigenvalues"])].copy()
    mean = arr[d * m + eig.size :].copy() if header["has_mean"] else None
    return EmbeddingModel(
        kind=header["kind"],
        projection=proj,
        eigenvalues=eig,
        hyperparams=header.get("hyperparams", {}),
        mean=mean,
    )
