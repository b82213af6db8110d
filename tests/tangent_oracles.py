"""Per-patch reference constructions the stacked tangent kernel is checked against.

These are the former one-SVD-per-call implementations of ``mpda.tangent``:
the one-patch fit with its own rank, energy and sign rules, and the
per-point loop that fit one neighborhood at a time.  The library now runs
every basis through one batched SVD per stack of equal-sized point sets,
and returns the bases as one zero-padded stack; ``stack`` pads the
oracles' bases the same way, from a fresh array of +0.0.
"""

import numpy as np

from mpda.graph import knn_neighbors
from mpda.tangent import _RANK_RTOL


def fix_signs(V):
    """Make each column's largest-magnitude entry positive (determinism)."""
    if V.size == 0:
        return V
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def stack(bases, d):
    """(T, dims) of a list of (d, m_p) bases: T (P, d, max m_p), +0.0 past each rank."""
    dims = np.array([b.shape[1] for b in bases], dtype=np.int64)
    T = np.zeros((len(bases), d, int(dims.max(initial=0))))
    for p, b in enumerate(bases):
        T[p, :, : dims[p]] = b
    return T, dims


def fit_tangent_basis_loop(points, energy):
    """Principal directions of one patch from its own SVD, as a (d, m) array."""
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = P.shape
    if n == 1:
        return np.zeros((d, 0))
    centered = P - P.mean(axis=0)
    _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    lam = svals**2
    total = lam.sum()
    if total <= 0.0:
        return np.zeros((d, 0))
    rank = int(np.sum(lam > _RANK_RTOL * lam[0]))
    cumulative = np.cumsum(lam)
    m = int(np.searchsorted(cumulative, energy * total - 1e-15) + 1)
    m = min(m, rank, d, n - 1)
    return fix_signs(Vt[:m].T)


def per_point_bases_loop(X, labels, k, energy):
    """One basis per point, fitting each within-class neighborhood in turn,
    stacked as (T, dims)."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    bases = [None] * X.shape[0]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        Xc = X[idx]
        if len(idx) == 1:
            bases[idx[0]] = fit_tangent_basis_loop(Xc, energy)
            continue
        nb = knn_neighbors(Xc, min(k, len(idx) - 1))
        for local, global_i in enumerate(idx):
            hood = np.concatenate([[local], nb.indices[local]])
            bases[global_i] = fit_tangent_basis_loop(Xc[hood], energy)
    return stack(bases, X.shape[1])
