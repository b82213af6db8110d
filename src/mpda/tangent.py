"""Orthonormal tangent bases for patches, with energy-adaptive rank.

A patch's basis consists of the leading principal directions of its
mean-centered points.  The retained rank is the smallest one whose
eigenvalue mass reaches the requested energy fraction, further capped at
the numerical rank so that zero-variance directions are never included
(``_energy_rank``, which the PCA baseline applies too).  Projections
downstream use the basis without mean subtraction; centering only fixes
the origin of the local chart.  ``_signed`` owns the one sign rule of these
bases, the PCA baseline's directions and the eigen-solve's vectors.
``patch_bases`` is the one entry point and the one stacked-SVD driver
(one point set is a one-patch list): ``per_point_bases`` hands it one
neighborhood per point.  Both return the padded stack (T, dims) that the
assembly reads.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError, SolverFailureError
from .graph import _finite, knn_neighbors

_RANK_RTOL = 1e-12  # relative eigenvalue cutoff for numerical rank
DEFAULT_ENERGY = 0.95
HOOD_BLOCK_ROWS = 256  # equal-sized point sets decomposed at once; bases do not depend on it


def _energy_rank(lam: np.ndarray, energy: float) -> np.ndarray:
    """Per row of descending eigenvalues (N, r): the smallest rank reaching ``energy``
    of the row's mass, capped at the numerical rank (0 for an all-zero row).
    Raises ``ValueError`` unless 0 < energy <= 1."""
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    # count of cumulative masses below the target = searchsorted(..., side="left")
    below = np.cumsum(lam, axis=1) < (energy * lam.sum(axis=1) - 1e-15)[:, None]
    return np.minimum(below.sum(axis=1) + 1, np.sum(lam > _RANK_RTOL * lam[:, :1], axis=1))


def _signed(V: np.ndarray) -> np.ndarray:
    """V (..., d, m) with each column negated where its first largest-magnitude
    entry is negative; the result keeps V's memory layout."""
    lead = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
    return V * np.where(lead < 0, -1.0, 1.0)


def _stacked_bases(H: np.ndarray, energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Tangent bases of a stack of equal-sized point sets, one per row of H.

    H has shape (N, n, d).  All N sets go through one centring and one
    batched SVD; the rank, energy and ``n - 1`` caps and ``_signed`` apply
    per set.  Returns (V, m): set i's basis ``V[i, :, :m[i]]`` is bit-identical
    to decomposing the set on its own, and +0.0 fills V past it.  Raises
    ``SolverFailureError`` when the centred rows (checked before the SVD,
    which can spin on a NaN) or their squared singular values are not
    finite, as when finite rows overflow.
    """
    _, n, d = H.shape
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        centered = H - H.mean(axis=1, keepdims=True)
        if not np.isfinite(centered).all():
            raise SolverFailureError("centred patch rows hold a non-finite value")
        _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
        lam = svals**2  # covariance eigenvalues up to the common 1/(n-1) factor
    if not np.isfinite(lam).all():
        raise SolverFailureError("patch variances hold a non-finite value")
    m = np.minimum(_energy_rank(lam, energy), min(d, n - 1))
    V = _signed(Vt[:, : m.max()].transpose(0, 2, 1))
    return np.where(np.arange(V.shape[2]) < m[:, None, None], V, 0.0), m


def patch_bases(
    X: np.ndarray, patches: list[np.ndarray], energy: float = DEFAULT_ENERGY
) -> tuple[np.ndarray, np.ndarray]:
    """One tangent basis per patch, given as row indices of X, in a stack
    (T, dims): T is (P, d, dims.max()), +0.0 past patch p's ``T[p, :, :dims[p]]``.

    Patches of equal size share one stacked SVD per block of
    ``HOOD_BLOCK_ROWS`` patches; each basis is bit-identical to
    decomposing its patch's rows on their own, as a one-patch call does.
    A one-point or zero-variance patch has rank 0, and no rank exceeds
    min(d, size - 1).  X must be finite, and a member outside 0..n-1
    raises ``ValueError``.
    """
    X = _finite(X)
    sizes = np.array([len(m) for m in patches])
    dims = np.zeros(len(patches), dtype=np.int64)
    blocks = []
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        for start in range(0, which.size, HOOD_BLOCK_ROWS):
            block = which[start : start + HOOD_BLOCK_ROWS]
            rows = np.stack([patches[p] for p in block])
            if rows.min(initial=0) < 0 or rows.max(initial=0) >= X.shape[0]:
                raise ValueError("a patch member is not a row of X")
            V, dims[block] = _stacked_bases(X[rows], energy)
            blocks.append((block, V))
    T = np.zeros((len(patches), X.shape[1], int(dims.max(initial=0))))
    for block, V in blocks:
        T[block, :, : V.shape[2]] = V
    return T, dims


def per_point_bases(
    X: np.ndarray, labels: np.ndarray, k: int, energy: float = DEFAULT_ENERGY
) -> tuple[np.ndarray, np.ndarray]:
    """One tangent basis per point from its k nearest within-class neighbors.

    The point itself joins its neighborhood, so each basis sees k+1 points
    and its rank is implicitly capped at k.  Classes smaller than k+1 use
    all their members.  The neighborhoods are ``patch_bases``' patches, so
    this returns its (T, dims), point i's basis ``T[i, :, :dims[i]]`` equal
    to a one-patch call on its neighborhood bit for bit.  Raises
    ``LengthMismatchError`` unless there is one label per row of X.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape[0] != X.shape[0]:
        raise LengthMismatchError("need one label per row of X")
    hoods: list[np.ndarray | None] = [None] * labels.shape[0]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        local = np.zeros((1, 1), dtype=np.intp)
        if len(idx) > 1:
            nb = knn_neighbors(X[idx], min(k, len(idx) - 1))
            local = np.column_stack([np.arange(len(idx)), nb.indices])
        for i, hood in zip(idx, idx[local]):
            hoods[i] = hood
    return patch_bases(X, hoods, energy)  # type: ignore[arg-type]
