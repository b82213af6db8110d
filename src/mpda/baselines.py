"""PCA and LDA baselines.

LDA's scatter pair comes from class sums (``mpda.graph.class_scatters``):
S_w = sum_c S_c and S_b = S_t - S_w, the scatter of the class means.  The
pair equals X' L^b X and X' L^w X for the global graphs that weigh a
same-class pair 1/n - 1/n_c (between) or 1/n_c (within) and a cross-class
pair 1/n (between) or 0 (within), with no n x n array.  The projection
maximizes the between/within Rayleigh quotient by keeping the largest
eigenvalues of

    S_b t = lambda (S_w + eps I) t,

solved by ``mpda.model.solve_gep``: LDA's pencil is its case with no
tangent block.  The within matrix gets a small trace-scaled Tikhonov
shift so singular scatter never breaks the solve.

PCA takes the tangent bases' energy rule and sign rule (``tangent._signed``).
"""

from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import DataError, SolverFailureError
from .graph import _finite, class_scatters
from .model import EmbeddingModel, solve_gep
from .tangent import _energy_rank, _signed

LDA_SHRINKAGE = 1e-6  # eps = LDA_SHRINKAGE * trace(S_w) / d


def fit_pca(X: np.ndarray, m: int | None = None, energy: float | None = None) -> EmbeddingModel:
    """Principal component model with a fixed rank or an energy target.

    Exactly one of ``m`` and ``energy`` must be given.  The energy rule is
    the tangent bases' own (``tangent._energy_rank``): smallest rank
    reaching the requested eigenvalue mass, capped at the numerical rank.

    With at least as many rows as columns, the SVD is that of the d x d
    triangular factor R of the centred rows (``np.linalg.qr``, mode "r"), so
    no n x d ``U`` is formed.  LAPACK's SVD driver takes the same QR step
    itself once n >= floor(11d/6), so there the directions and variances
    equal those of the centred rows' own thin SVD bit for bit; for smaller
    n >= d they differ from it in the last bits.  With fewer rows than
    columns the full ``Vt`` of the centred rows supplies the null-space
    directions an ``m`` above n reads.  X must be finite, with two rows or
    more (else ``DataError``).  Raises ``SolverFailureError`` when the
    centred rows (checked before the SVD) or their squared singular values
    are not finite, as when finite rows overflow.
    """
    if (m is None) == (energy is None):
        raise ValueError("specify exactly one of m and energy")
    X = _finite(X)
    n, d = X.shape
    if n < 2:
        raise DataError(f"pca needs at least two training rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        mean = X.mean(axis=0)
        centered = X - mean
        if not np.isfinite(centered).all():
            raise SolverFailureError("centred rows hold a non-finite value")
        # R of centered = QR has centered's singular values and right vectors
        factor = np.linalg.qr(centered, mode="r") if n >= d else centered
        _, svals, Vt = np.linalg.svd(factor, full_matrices=n < d)
        lam = np.zeros(d)
        lam[: svals.size] = svals**2
    if not np.isfinite(lam).all():
        raise SolverFailureError("PCA variances hold a non-finite value")
    if energy is not None:
        # degenerate data still yields a (meaningless) direction
        m = max(int(_energy_rank(lam[None], energy)[0]), 1)
    if not 0 < m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    return EmbeddingModel(
        kind="pca",
        projection=np.ascontiguousarray(_signed(Vt[:m].T)),
        eigenvalues=lam[:m] / (n - 1),
        hyperparams={"m": int(m)} if energy is None else {"m": int(m), "energy": energy},
        mean=mean,
    )


def fit_lda(train: LabeledDataset, m: int) -> EmbeddingModel:
    """Discriminant projection onto the top-m generalized eigenvectors."""
    with np.errstate(over="ignore", invalid="ignore"):  # solve_gep reports an overflow
        Sb, _, S_c = class_scatters(train.features, train.labels)
        Sw = S_c.sum(axis=0)
        eps = LDA_SHRINKAGE * max(np.trace(Sw), 1e-300) / train.d
    vals, vecs = solve_gep(Sb, Sw, eps, m)
    return EmbeddingModel(kind="lda", projection=vecs, eigenvalues=vals, hyperparams={"m": int(m)})
