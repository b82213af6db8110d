"""The reduced (Schur-complement) eigen-solve against the full stacked pencil."""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mpda.model
from mpda.baselines import fit_lda
from mpda.dataset import LabeledDataset
from mpda.errors import SolverFailureError
from mpda.evaluation import fit_algorithm
from mpda.graph import between_class_form, knn_neighbors, within_class_graph
from mpda.model import (
    assemble_between,
    assemble_within,
    fit_mpda,
    fit_pmpda,
    layout_for,
    solve_gep,
)
from mpda.tangent import patch_bases


def dense_gep(S_between, S_within, alpha, m, t_dim=None):
    """Oracle: dense eigh over the whole stacked pencil (the former solver).

    Eigenvectors are rescaled as ``solve_gep`` does, falling back to the
    whole vector when the t-part vanishes.
    """
    total = S_between.shape[0]
    t_dim = total if t_dim is None else t_dim
    B = S_within + alpha * np.eye(total)
    vals, vecs = scipy.linalg.eigh(S_between, B, subset_by_index=(total - m, total - 1))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    for col in range(m):
        f = vecs[:, col]
        norm = np.linalg.norm(f[:t_dim])
        if norm > 1e-12 * np.linalg.norm(f):
            f = f / norm
            part = f[:t_dim]
        else:
            f = f / np.linalg.norm(f)
            part = f
        if part[np.argmax(np.abs(part))] < 0:
            f = -f
        vecs[:, col] = f
    return vals, vecs


def backward_errors(S_between, S_within, alpha, vals, vecs):
    """Per-eigenpair |S'f - l B f| / ((|S'| + |l| |B|) |f|), B = S + alpha I.

    The normwise backward error of each pair on the full pencil; unlike a
    residual relative to |l|, it stays meaningful at l = 0.
    """
    B = S_within + alpha * np.eye(len(S_within))
    R = S_between @ vecs - (B @ vecs) * vals
    scale = np.linalg.norm(S_between, 2) + np.abs(vals) * np.linalg.norm(B, 2)
    return np.linalg.norm(R, axis=0) / (scale * np.linalg.norm(vecs, axis=0))


def random_spd(rng, n):
    G = rng.normal(size=(n, n))
    return G @ G.T


# --- degenerate cases named in the solve_gep docstring ----------------------


def test_empty_vblock_is_plain_dxd_solve(rng):
    # every patch a singleton: all bases have dimension 0, so total == d
    X = rng.normal(size=(12, 4))
    y = np.array([1] * 6 + [2] * 6)
    bases = patch_bases(X, [np.array([i]) for i in range(len(X))])
    layout = layout_for(4, bases[1])
    assert layout.total == 4
    nb = knn_neighbors(X, 3)
    W = within_class_graph(nb, y)
    S_diff, S_tan = assemble_within(X, W, np.arange(len(X)), bases)
    assert S_tan.nnz == 0
    Sp = assemble_between(between_class_form(X, y, nb), layout)
    vals, vecs = solve_gep(Sp, S_diff, 1e-3, 3, t_dim=4)
    vals_all, vecs_all = solve_gep(Sp, S_diff, 1e-3, 3)
    assert np.array_equal(vals, vals_all) and np.array_equal(vecs, vecs_all)
    ref_vals, ref_vecs = dense_gep(Sp.toarray(), S_diff.toarray(), 1e-3, 3)
    assert np.allclose(vals, ref_vals, rtol=1e-10)
    assert np.allclose(vecs, ref_vecs, atol=1e-8)


def test_fewer_positive_eigenvalues_than_m(rng):
    # n < d: A = 2 X'LX has rank <= n - 1, so some returned lambda are 0;
    # each returned vector still has a unit t-part and solves the pencil
    X = rng.normal(size=(5, 8))
    y = np.array([1, 1, 2, 2, 2])
    ds = LabeledDataset(X, y)
    with mock.patch.object(mpda.model, "solve_gep", wraps=solve_gep) as spy:
        model = fit_mpda(ds, m=8, k=2, kprime=2)
    Sp, S, alpha, m = spy.call_args.args[:4]
    Sp, S = Sp.toarray(), S.toarray()
    assert m == 8 and np.sum(model.eigenvalues > 1e-9 * model.eigenvalues[0]) <= 4
    assert np.allclose(np.linalg.norm(model.projection, axis=0), 1.0)
    assert np.all(backward_errors(Sp, S, alpha, model.eigenvalues, model.eigenvectors) <= 1e-12)
    ref_vals, _ = dense_gep(Sp, S, alpha, m, t_dim=ds.d)
    assert np.allclose(model.eigenvalues, ref_vals, rtol=0, atol=1e-9 * ref_vals[0])


def test_indefinite_between_block_returns_reduced_spectrum(rng):
    # an indefinite A has negative reduced eigenvalues; the solver returns
    # them (t != 0) rather than the full pencil's t = 0 null vectors
    d, nv, alpha = 3, 5, 0.1
    S = random_spd(rng, d + nv)
    Sp = np.zeros((d + nv, d + nv))
    Sp[:d, :d] = np.diag([1.0, -1.0, -2.0])
    vals, vecs = solve_gep(Sp, S, alpha, 3, t_dim=d)
    B = S + alpha * np.eye(d + nv)
    schur = B[:d, :d] - B[:d, d:] @ np.linalg.solve(B[d:, d:], B[d:, :d])
    ref = scipy.linalg.eigh(Sp[:d, :d], schur, eigvals_only=True)[::-1]
    assert np.allclose(vals, ref, rtol=1e-12)
    assert vals[1] < 0 and vals[2] < 0
    assert np.allclose(np.linalg.norm(vecs[:d], axis=0), 1.0)
    assert np.all(backward_errors(Sp, S, alpha, vals, vecs) <= 1e-12)


def test_rejects_between_form_outside_t_block(rng):
    S = random_spd(rng, 6)
    Sp = np.zeros((6, 6))
    Sp[:2, :2] = np.eye(2)
    Sp[1, 4] = Sp[4, 1] = 0.5
    with pytest.raises(ValueError):
        solve_gep(Sp, S, 1e-3, 1, t_dim=2)


def test_rejects_m_above_t_dim(rng):
    S = random_spd(rng, 6)
    Sp = np.zeros((6, 6))
    Sp[:2, :2] = np.eye(2)
    with pytest.raises(ValueError):
        solve_gep(Sp, S, 1e-3, 3, t_dim=2)
    with pytest.raises(ValueError):
        solve_gep(Sp, S, 1e-3, 0, t_dim=2)


@pytest.mark.parametrize("fit", [fit_mpda, fit_pmpda, fit_lda])
def test_overflowing_scatters_are_a_solver_failure(rng, fit):
    # finite rows scaled by 1e200: their scatters overflow, so the forms hold
    # inf and NaN; LDA's trace-scaled shift is +inf too, yet the forms are
    # reported, not the shift.  The overflow itself is silent: the typed
    # error is the one report, so any warning fails the fit here
    X = np.vstack([rng.normal(0, 1, (12, 3)), rng.normal(5, 1, (12, 3))]) * 1e200
    ds = LabeledDataset(X, np.repeat([1, 2], 12))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailureError, match="non-finite"):
            fit(ds, m=1)
    assert np.geterr() == before  # no silenced state leaks out of the fit


@pytest.mark.parametrize("algorithm,scale", [
    ("pca", 1e200), ("mpda", 1e307), ("pmpda", 1e307), ("lda", 1e307), ("pca", 1e307),
])
def test_overflowing_centring_is_a_solver_failure(rng, algorithm, scale):
    # at 1e307 column means overflow, and centring makes NaN, which must
    # never reach an SVD, while the scatters overflow too; at 1e200 the
    # centred rows are finite but PCA's squared singular values overflow.
    # Each is one typed error, with no warning
    X = np.vstack([rng.normal(0, 1, (12, 3)), rng.normal(5, 1, (12, 3))]) * scale
    ds = LabeledDataset(X, np.repeat([1, 2], 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailureError, match="non-finite"):
            fit_algorithm(algorithm, ds, 1, {})


def test_rejects_non_finite_forms_before_alpha(rng):
    S = random_spd(rng, 4)
    for bad in (np.inf, np.nan):
        Sp = np.eye(4)
        Sp[0, 1] = bad
        with pytest.raises(SolverFailureError):
            solve_gep(Sp, S, 1e-3, 1)
        S_bad = S.copy()
        S_bad[2, 3] = bad
        with pytest.raises(SolverFailureError):
            solve_gep(np.eye(4), S_bad, np.inf, 1)


# --- property tests over random fitted MPDA / PMPDA instances ---------------


@st.composite
def degenerate_datasets(draw):
    """Small labelled sets with the degeneracies the fit must survive.

    Optional features: duplicated rows, a singleton class, and a class of
    coincident points (a zero-variance patch).  ``k`` may reach or exceed
    the class sizes.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(2, 9), min_size=2, max_size=3))
    if draw(st.booleans()):
        sizes.append(1)  # singleton class
    X = rng.normal(size=(sum(sizes), d))
    y = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    if draw(st.booleans()):
        X[y == 1] = rng.normal(size=d)  # zero-variance class
    n_dup = draw(st.integers(0, 3))
    if n_dup:
        src = rng.integers(0, len(X), size=n_dup)
        X, y = np.vstack([X, X[src]]), np.concatenate([y, y[src]])
    k = draw(st.integers(1, min(max(sizes) + 2, len(X) - 1)))
    return LabeledDataset(X, y), k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=degenerate_datasets(),
    kind=st.sampled_from(["mpda", "pmpda"]),
    gamma=st.sampled_from([0.0, 0.3, 5.0]),
    alpha=st.sampled_from([1e-3, 1e-1, 1.0]),
    m_frac=st.floats(0.0, 1.0),
)
def test_reduced_solve_matches_dense_oracle(data, kind, gamma, alpha, m_frac):
    ds, k = data
    m = 1 + int(m_frac * (ds.d - 1))
    params = {"k": k, "gamma": gamma, "alpha": alpha}
    if kind == "mpda":
        params.update(kprime=min(3, k), max_patch=4)

    def fit():
        fit_fn = fit_mpda if kind == "mpda" else fit_pmpda
        return fit_fn(ds, m=m, **params)

    with mock.patch.object(mpda.model, "solve_gep", wraps=solve_gep) as spy:
        model = fit()
    again = fit()
    for name in ("projection", "eigenvalues", "eigenvectors"):
        assert np.array_equal(getattr(model, name), getattr(again, name))

    Sp, S = (form.toarray() for form in spy.call_args.args[:2])
    ref_vals, _ = dense_gep(Sp, S, alpha, m, t_dim=ds.d)
    scale = max(abs(ref_vals[0]), np.finfo(float).tiny)
    assert np.all(np.abs(model.eigenvalues - ref_vals) <= 1e-9 * scale)
    assert np.all(backward_errors(Sp, S, alpha, model.eigenvalues, model.eigenvectors) <= 1e-8)

    layout = model.layout
    assert model.eigenvectors.shape == (layout.total, m)
    for p, dim in enumerate(layout.block_dims):
        assert model.tangent_vectors(p).shape == (dim, m)
