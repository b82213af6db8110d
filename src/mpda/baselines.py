"""PCA and LDA baselines.

LDA's scatter pair comes from class sums (``mpda.graph.class_scatters``):
S_w = sum_c S_c and S_b = S_t - S_w, the scatter of the class means.  The
pair equals X' L^b X and X' L^w X for the global graphs that weigh a
same-class pair 1/n - 1/n_c (between) or 1/n_c (within) and a cross-class
pair 1/n (between) or 0 (within), with no n x n array.  The projection
maximizes the between/within Rayleigh quotient by keeping the largest
eigenvalues of

    S_b t = lambda (S_w + eps I) t.

The within matrix gets a small trace-scaled Tikhonov shift so singular
scatter never breaks the solve.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .dataset import LabeledDataset
from .errors import SolverFailureError
from .graph import class_scatters
from .model import EmbeddingModel
from .tangent import _RANK_RTOL

LDA_SHRINKAGE = 1e-6  # eps = LDA_SHRINKAGE * trace(S_w) / d


def fit_pca(
    X: np.ndarray, m: int | None = None, energy: float | None = None
) -> EmbeddingModel:
    """Principal component model with a fixed rank or an energy target.

    Exactly one of ``m`` and ``energy`` must be given.  The energy rule
    mirrors the tangent module: smallest rank reaching the requested
    eigenvalue mass, capped at the numerical rank.

    The SVD is thin (no n x n ``U``) unless there are fewer rows than
    columns; then the full ``Vt`` supplies the null-space directions an
    ``m`` above n reads.
    """
    if (m is None) == (energy is None):
        raise ValueError("specify exactly one of m and energy")
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("PCA needs at least two rows")
    mean = X.mean(axis=0)
    centered = X - mean
    _, svals, Vt = np.linalg.svd(centered, full_matrices=n < d)
    lam = np.zeros(d)
    lam[: svals.size] = svals**2
    if energy is not None:
        total = lam.sum()
        if total <= 0:
            rank = 0
        else:
            rank = int(np.sum(lam > _RANK_RTOL * lam[0]))
        if rank == 0:
            m = 1  # degenerate data still yields a (meaningless) direction
        else:
            cumulative = np.cumsum(lam)
            m = int(np.searchsorted(cumulative, energy * total - 1e-15) + 1)
            m = min(m, rank)
    if not 0 < m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    proj = Vt[:m].T
    # deterministic column signs
    lead = np.argmax(np.abs(proj), axis=0)
    signs = np.sign(proj[lead, np.arange(m)])
    signs[signs == 0] = 1.0
    proj = proj * signs
    return EmbeddingModel(
        kind="pca",
        projection=np.ascontiguousarray(proj),
        eigenvalues=lam[:m] / (n - 1),
        hyperparams={"m": int(m)} if energy is None else {"m": int(m), "energy": energy},
        mean=mean,
    )


def lda_scatter(train: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Between/within scatter matrices (S_b, S_w) from class sums."""
    Sb, _, S_c = class_scatters(train.features, train.labels)
    return Sb, S_c.sum(axis=0)


def fit_lda(train: LabeledDataset, m: int) -> EmbeddingModel:
    """Discriminant projection onto the top-m generalized eigenvectors."""
    d = train.d
    if not 0 < m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    Sb, Sw = lda_scatter(train)
    eps = LDA_SHRINKAGE * max(np.trace(Sw), 1e-300) / d
    B = Sw + eps * np.eye(d)
    try:
        vals, vecs = scipy.linalg.eigh(Sb, B, subset_by_index=(d - m, d - 1))
    except scipy.linalg.LinAlgError as exc:
        raise SolverFailureError(f"LDA eigensolver failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1].copy()
    for col in range(m):
        t = vecs[:, col]
        t /= np.linalg.norm(t)
        lead = int(np.argmax(np.abs(t)))
        if t[lead] < 0:
            t = -t
        vecs[:, col] = t
    return EmbeddingModel(
        kind="lda",
        projection=np.ascontiguousarray(vecs),
        eigenvalues=vals,
        hyperparams={"m": int(m)},
    )
