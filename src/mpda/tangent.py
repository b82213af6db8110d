"""Orthonormal tangent bases for patches, with energy-adaptive rank.

A patch's basis consists of the leading principal directions of its
mean-centered points.  The retained rank is the smallest one whose
eigenvalue mass reaches the requested energy fraction, further capped at
the numerical rank so that zero-variance directions are never included.
Projections downstream use the basis without mean subtraction; centering
only fixes the origin of the local chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import knn_neighbors

_RANK_RTOL = 1e-12  # relative eigenvalue cutoff for numerical rank
DEFAULT_ENERGY = 0.95


@dataclass(frozen=True)
class TangentBasis:
    """Column-orthonormal basis of one patch's tangent space."""

    basis: np.ndarray  # (d, m_p), orthonormal columns
    eigenvalues: np.ndarray  # variance per retained direction, descending

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (determinism)."""
    if V.size == 0:
        return V
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def fit_tangent_basis(points: np.ndarray, energy: float = DEFAULT_ENERGY) -> TangentBasis:
    """Principal directions of a patch covering the requested energy fraction.

    A single point (or any zero-variance patch) yields an empty basis.
    The rank never exceeds min(d, N_p - 1).
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = P.shape
    if n == 1:
        return TangentBasis(basis=np.zeros((d, 0)), eigenvalues=np.zeros(0))
    centered = P - P.mean(axis=0)
    _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    lam = svals**2  # covariance eigenvalues up to the common 1/(n-1) factor
    total = lam.sum()
    if total <= 0.0:
        return TangentBasis(basis=np.zeros((d, 0)), eigenvalues=np.zeros(0))
    rank = int(np.sum(lam > _RANK_RTOL * lam[0]))
    cumulative = np.cumsum(lam)
    m = int(np.searchsorted(cumulative, energy * total - 1e-15) + 1)
    m = min(m, rank, d, n - 1)
    basis = _fix_signs(Vt[:m].T)
    return TangentBasis(basis=basis, eigenvalues=lam[:m] / (n - 1))


def per_point_bases(
    X: np.ndarray, labels: np.ndarray, k: int, energy: float = DEFAULT_ENERGY
) -> list[TangentBasis]:
    """One tangent basis per point from its k nearest within-class neighbors.

    The point itself joins its neighborhood, so each basis sees k+1 points
    and its rank is implicitly capped at k.  Classes smaller than k+1 use
    all their members.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    n = X.shape[0]
    bases: list[TangentBasis | None] = [None] * n
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        Xc = X[idx]
        if len(idx) == 1:
            bases[idx[0]] = fit_tangent_basis(Xc, energy)
            continue
        k_eff = min(k, len(idx) - 1)
        nb = knn_neighbors(Xc, k_eff)
        for local, global_i in enumerate(idx):
            hood = np.concatenate([[local], nb.indices[local]])
            bases[global_i] = fit_tangent_basis(Xc[hood], energy)
    return bases  # type: ignore[return-value]
