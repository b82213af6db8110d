import numpy as np
import pytest
import scipy.linalg

from conftest import lda_scatters, random_labeled
from graph_oracles import laplacian, lda_graphs
from mpda.baselines import LDA_SHRINKAGE, fit_lda, fit_pca
from mpda.dataset import LabeledDataset
from mpda.errors import DataError, SolverFailureError
from mpda.model import transform
from mpda.tangent import _signed


def classical_scatter(X, y):
    """Oracle: mean-based scatter matrices."""
    d = X.shape[1]
    mu = X.mean(axis=0)
    Sb = np.zeros((d, d))
    Sw = np.zeros((d, d))
    for c in np.unique(y):
        Xc = X[y == c]
        mc = Xc.mean(axis=0)
        Sb += len(Xc) * np.outer(mc - mu, mc - mu)
        Sw += (Xc - mc).T @ (Xc - mc)
    return Sb, Sw


def test_pca_rank_one_energy():
    X = np.zeros((6, 3))
    X[:, 1] = np.arange(6.0)
    model = fit_pca(X, energy=0.95)
    assert model.m == 1
    assert np.allclose(np.abs(model.projection[:, 0]), [0, 1, 0])


def test_pca_matches_eigendecomposition_oracle(rng):
    X = rng.normal(size=(20, 5))
    model = fit_pca(X, m=3)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (len(X) - 1)
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    assert np.allclose(model.eigenvalues, vals[:3], rtol=1e-10)
    # reconstruction error equals the oracle's
    P = model.projection
    resid = np.linalg.norm(centered - centered @ P @ P.T)
    oracle_resid = np.linalg.norm(centered - centered @ vecs[:, :3] @ vecs[:, :3].T)
    assert np.isclose(resid, oracle_resid, rtol=1e-10)


def test_pca_full_energy_gives_numerical_rank(rng):
    X = rng.normal(size=(15, 4))
    X[:, 3] = X[:, 0] + 2 * X[:, 1]  # rank-deficient by construction
    model = fit_pca(X, energy=1.0)
    centered = X - X.mean(axis=0)
    assert model.m == np.linalg.matrix_rank(centered)


def fit_pca_full_svd(monkeypatch, X, **kw):
    """Oracle: fit_pca with every SVD forced to full_matrices=True."""
    svd = np.linalg.svd
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda a, full_matrices=True: svd(a, full_matrices=True))
        return fit_pca(X, **kw)


@pytest.mark.parametrize("shape", [(40, 6), (7, 6), (6, 6)])
def test_pca_thin_svd_bit_identical_to_full_svd(rng, monkeypatch, shape):
    X = rng.normal(size=shape) * np.arange(1.0, shape[1] + 1)
    X[:, -1] = X[:, 0] - X[:, 1]  # one null direction
    for kw in ({"m": 1}, {"m": shape[1]}, {"energy": 0.9}, {"energy": 1.0}):
        model, ref = fit_pca(X, **kw), fit_pca_full_svd(monkeypatch, X, **kw)
        assert model.hyperparams == ref.hyperparams
        assert model.projection.tobytes() == ref.projection.tobytes()
        assert model.eigenvalues.tobytes() == ref.eigenvalues.tobytes()


def test_pca_wide_data_keeps_null_space_directions(rng, monkeypatch):
    X = rng.normal(size=(4, 7))
    model, ref = fit_pca(X, m=6), fit_pca_full_svd(monkeypatch, X, m=6)
    assert model.projection.shape == (7, 6)
    assert model.projection.tobytes() == ref.projection.tobytes()
    assert model.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert np.linalg.norm(model.projection.T @ model.projection - np.eye(6)) < 1e-12


def svd_pca_oracle(X, m):
    """Top-m PCA directions and variances from the SVD of the centred rows
    themselves (all of Vt), each direction's first largest-magnitude entry
    positive."""
    centered = X - X.mean(axis=0)
    _, svals, Vt = np.linalg.svd(centered, full_matrices=True)
    lam = np.zeros(X.shape[1])
    lam[: svals.size] = svals**2
    V = Vt[:m].T
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(m)]
    return V * np.where(lead < 0, -1.0, 1.0), lam[:m] / (len(X) - 1)


@pytest.mark.parametrize("shape", [(50, 8), (16, 8), (12, 8), (8, 8), (5, 8)])
def test_pca_matches_direct_svd_oracle(rng, shape):
    # tall (n >= 2d), near-square (d <= n < 2d) and wide rows; fit_pca factors
    # the centred rows by QR first once n >= d
    n, d = shape
    X = rng.normal(size=shape) * np.geomspace(8.0, 1.0, d) + 3.0
    rank = min(n - 1, d)
    model = fit_pca(X, m=rank)
    V, lam = svd_pca_oracle(X, rank)
    assert np.max(np.abs(model.projection - V)) <= 1e-12
    assert np.max(np.abs(model.eigenvalues - lam)) <= 1e-12 * lam[0]
    P = model.projection
    lead = P[np.argmax(np.abs(P), axis=0), np.arange(rank)]
    assert np.all(lead > 0)  # the sign rule


@pytest.mark.parametrize("shape", [(14, 8), (50, 8), (90, 48)])
def test_pca_on_tall_rows_equals_the_thin_svd_bit_for_bit(rng, shape):
    # from n = floor(11d/6) rows LAPACK's SVD factors by QR first itself, so
    # taking the SVD of R changes no bit of the directions or variances
    X = rng.normal(size=shape) * np.geomspace(8.0, 1.0, shape[1])
    model = fit_pca(X, m=shape[1])
    _, svals, Vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    assert model.projection.tobytes() == _signed(Vt.T).tobytes()
    assert model.eigenvalues.tobytes() == (svals**2 / (shape[0] - 1)).tobytes()


@pytest.mark.parametrize("shape", [(30, 6), (9, 6), (4, 6)])
def test_pca_serves_widths_above_the_numerical_rank(rng, shape):
    # a repeated column, and for (4, 6) fewer rows than columns: m = d asks
    # for directions of zero variance, which must still be orthonormal
    n, d = shape
    X = rng.normal(size=shape)
    X[:, -1] = X[:, 0]
    rank = np.linalg.matrix_rank(X - X.mean(axis=0))
    model = fit_pca(X, m=d)
    V, lam = svd_pca_oracle(X, rank)
    P = model.projection
    assert P.shape == (d, d) and rank < d
    assert np.max(np.abs(P[:, :rank] - V)) <= 1e-12
    assert np.max(np.abs(model.eigenvalues[:rank] - lam)) <= 1e-12 * lam[0]
    assert np.max(np.abs(model.eigenvalues[rank:])) <= 1e-12 * lam[0]
    assert np.linalg.norm(P.T @ P - np.eye(d)) < 1e-12
    assert np.linalg.norm((X - X.mean(axis=0)) @ P[:, rank:]) <= 1e-12 * np.linalg.norm(X)


def test_pca_transform_centers(rng):
    X = rng.normal(5.0, 1.0, size=(10, 3))
    model = fit_pca(X, m=2)
    emb = transform(model, X)
    assert np.allclose(emb.mean(axis=0), 0.0, atol=1e-12)


def test_lda_scatter_matches_classical(rng):
    X = rng.normal(size=(12, 3))
    y = np.array([1] * 5 + [2] * 7)
    ds = LabeledDataset(X, y)
    Sb, Sw = lda_scatters(ds)
    Sb_ref, Sw_ref = classical_scatter(X, y)
    assert np.max(np.abs(Sb - Sb_ref)) / np.max(np.abs(Sb_ref)) < 1e-10
    assert np.max(np.abs(Sw - Sw_ref)) / np.max(np.abs(Sw_ref)) < 1e-10


def test_scatter_trace_identity(rng):
    # sum_ij W_ij ||x_i - x_j||^2 == 2 trace(X' L X) for both weight kinds
    X = rng.normal(size=(10, 3))
    y = rng.integers(1, 3, size=10)
    y[:2] = [1, 2]
    Wb, Ww = lda_graphs(y)
    D2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    for W in (Wb, Ww):
        direct = float(np.sum(W * D2))
        lap = 2.0 * float(np.trace(X.T @ laplacian(W) @ X))
        assert np.isclose(direct, lap, rtol=1e-10)


def test_lda_separates_shifted_gaussians(rng):
    X = np.vstack([rng.normal(0, 1, size=(20, 4)), rng.normal(6, 1, size=(20, 4))])
    y = np.array([1] * 20 + [2] * 20)
    ds = LabeledDataset(X, y)
    model = fit_lda(ds, m=1)
    emb = transform(model, X)
    assert emb[y == 1].max() < emb[y == 2].min() or emb[y == 2].max() < emb[y == 1].min()


def test_lda_residual_bound(rng):
    ds = random_labeled(rng)
    m = min(ds.d, 2)
    model = fit_lda(ds, m=m)
    Sb, Sw = lda_scatters(ds)
    eps = 1e-6 * np.trace(Sw) / ds.d
    B = Sw + eps * np.eye(ds.d)
    for i in range(m):
        t = model.projection[:, i]
        r = Sb @ t - model.eigenvalues[i] * (B @ t)
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(B @ t)


def lda_oracle(Sb, Sw, m):
    """Top-m pairs of the dense pencil (Sb, Sw + eps I), each vector scaled to
    unit norm with its largest-magnitude entry positive."""
    d = Sb.shape[0]
    eps = LDA_SHRINKAGE * max(np.trace(Sw), 1e-300) / d
    vals, vecs = scipy.linalg.eigh(Sb, Sw + eps * np.eye(d), subset_by_index=(d - m, d - 1))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vecs = np.column_stack([t / np.linalg.norm(t) for t in vecs.T])
    return vals, vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(m)])


def test_lda_matches_dense_pencil_oracle(rng):
    # well-posed, singular within scatter (a repeated column) and n < d
    for case in range(30):
        n, d = int(rng.integers(4, 40)), int(rng.integers(1, 9))
        y = np.concatenate([[1, 2], rng.integers(1, 4, size=n - 2)])
        X = rng.normal(size=(n, d)) + y[:, None] * rng.normal(size=d)
        if case % 3 == 0 and d > 1:
            X[:, -1] = X[:, 0]
        m = int(rng.integers(1, d + 1))
        model = fit_lda(LabeledDataset(X, y), m)
        vals, vecs = lda_oracle(*lda_scatters(LabeledDataset(X, y)), m)
        assert model.eigenvalues.tobytes() == vals.tobytes()
        assert np.max(np.abs(model.projection - vecs)) <= 4 * np.finfo(float).eps


def test_lda_raises_when_the_solver_finds_too_few_pairs(rng):
    # singleton classes leave S_w = 0 and eps ~ 1e-307: the eigenvalues
    # overflow and LAPACK returns no pair; a typed error, not an IndexError
    X = rng.normal(size=(4, 3)) * 100.0
    with pytest.raises(SolverFailureError):
        fit_lda(LabeledDataset(X, np.array([1, 2, 3, 4])), 2)


def test_lda_identical_classes_near_zero_eigenvalue(rng):
    # same mean and covariance in both classes: nothing to separate
    base = rng.normal(size=(40, 3))
    X = np.vstack([base, base])
    y = np.array([1] * 40 + [2] * 40)
    ds = LabeledDataset(X, y)
    model = fit_lda(ds, m=1)
    Sb, Sw = lda_scatters(ds)
    scale = np.trace(Sw) / ds.d
    assert abs(model.eigenvalues[0]) < 1e-8 * max(scale, 1.0)


@pytest.mark.parametrize("energy", [0.0, -0.1, 1.5, np.nan])
def test_pca_rejects_energy_outside_unit_interval(rng, energy):
    # the rule PCA shares with the tangent bases, range check included
    X = rng.normal(size=(8, 3))
    with pytest.raises(ValueError, match=r"energy must lie in \(0, 1\]"):
        fit_pca(X, energy=energy)


@pytest.mark.parametrize("n", [0, 1])
def test_pca_on_fewer_than_two_rows_is_a_data_error(rng, n):
    # a property of the data, as for the tangent-space fits, not a usage error
    with pytest.raises(DataError, match=f"^pca needs at least two training rows, got {n}$"):
        fit_pca(rng.normal(size=(n, 3)), m=1)


def test_pca_rejects_bad_args(rng):
    X = rng.normal(size=(5, 3))
    with pytest.raises(ValueError):
        fit_pca(X)
    with pytest.raises(ValueError):
        fit_pca(X, m=2, energy=0.9)
    with pytest.raises(ValueError):
        fit_pca(X, m=4)
