import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import random_labeled
from graph_oracles import between_class_graph, laplacian
from mpda.dataset import LabeledDataset
from mpda.errors import (
    DimensionMismatchError,
    LayoutMismatchError,
    ParseError,
    ResourceLimitError,
)
from mpda.graph import between_class_form, knn_neighbors, within_class_graph
from mpda.model import (
    _graphs,
    assemble_between,
    assemble_within,
    fit_mpda,
    fit_pmpda,
    layout_for,
    load_model,
    merge_class_partitions,
    save_model,
    solve_gep,
    transform,
)
from mpda.tangent import fit_tangent_basis, per_point_bases


# --- independent objective oracles (never touch the assembly code) ----------

def within_objective(X, W_dense, patch_of, bases, gamma, t, v):
    """Direct double sum of the within-class objective for one stacked f."""
    total = 0.0
    n = len(X)
    for i in range(n):
        for j in range(n):
            w = W_dense[i, j]
            if w == 0.0:
                continue
            dij = X[i] - X[j]
            pi, pj = patch_of[i], patch_of[j]
            pair = (t @ dij - v[pj] @ (bases[pj].basis.T @ dij)) ** 2
            diff = v[pi] - bases[pi].basis.T @ (bases[pj].basis @ v[pj])
            total += w * (pair + gamma * float(diff @ diff))
    return total


def between_objective(X, Wp, t):
    total = 0.0
    n = len(X)
    for i in range(n):
        for j in range(n):
            if Wp[i, j] != 0.0:
                total += Wp[i, j] * (t @ X[i] - t @ X[j]) ** 2
    return total


def build_instance(ds, k=3, kprime=3, max_patch=5, energy=0.95):
    X, y = ds.features, ds.labels
    patch_of, members = merge_class_partitions(ds, kprime, max_patch)
    bases = [fit_tangent_basis(X[m], energy) for m in members]
    layout = layout_for(ds.d, bases)
    nb = knn_neighbors(X, min(k, ds.n - 1))
    W = within_class_graph(nb, y)
    Sp = assemble_between(between_class_form(X, y, nb), layout)
    Wp = between_class_graph(X, y, min(k, ds.n - 1))  # dense oracle of Sp's graph
    return X, y, patch_of, bases, layout, W, Sp, Wp


def split_f(f, layout, n_blocks):
    t = f[: layout.d]
    v = [f[layout.v_slice(p)] for p in range(n_blocks)]
    return t, v


def test_quadratic_forms_match_direct_sums(rng):
    worst_w = worst_b = 0.0
    for _ in range(8):
        ds = random_labeled(rng)
        gamma = float(rng.uniform(0.05, 5.0))
        X, y, patch_of, bases, layout, W, Sp, Wp = build_instance(ds)
        S = assemble_within(X, W, patch_of, bases, gamma, layout)
        Wd = W.toarray()
        for _ in range(30):
            f = rng.normal(size=layout.total)
            t, v = split_f(f, layout, len(bases))
            direct = within_objective(X, Wd, patch_of, bases, gamma, t, v)
            worst_w = max(worst_w, abs(f @ S @ f - direct) / max(abs(direct), 1e-30))
            direct_b = between_objective(X, Wp, t)
            worst_b = max(worst_b, abs(f @ Sp @ f - direct_b) / max(abs(direct_b), 1e-30))
    assert worst_w < 1e-8
    assert worst_b < 1e-8


def test_same_patch_pairs_skip_tangent_term(rng):
    # orthonormality makes the consistency term vanish inside one patch,
    # so gamma cannot matter when the whole class is a single patch
    X = rng.normal(size=(8, 3))
    y = np.ones(8, dtype=int)
    ds = LabeledDataset(X, y)
    X_, y_, patch_of, bases, layout, W, _, _ = build_instance(ds, max_patch=100)
    assert len(bases) == 1
    S0 = assemble_within(X_, W, patch_of, bases, 0.0, layout)
    S9 = assemble_within(X_, W, patch_of, bases, 9.0, layout)
    assert np.allclose(S0, S9)


def test_zero_order_reduction(rng):
    # with v = 0 the quadratic collapses to the graph-Laplacian scatter
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds, k=4)
    S = assemble_within(X, W, patch_of, bases, 1.3, layout)
    ref = 2.0 * X.T @ (laplacian(W) @ X)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(S[: ds.d, : ds.d] - ref)) / scale < 1e-10
    for _ in range(20):
        t = rng.normal(size=ds.d)
        f = np.zeros(layout.total)
        f[: ds.d] = t
        assert np.isclose(f @ S @ f, 2.0 * t @ ref @ t / 2.0, rtol=1e-10)


def test_assemble_within_symmetric_psd(rng):
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds)
    S = assemble_within(X, W, patch_of, bases, 2.0, layout)
    assert np.allclose(S, S.T)
    assert np.linalg.eigvalsh(S).min() > -1e-8
    np.linalg.cholesky(S + 1e-3 * np.eye(layout.total))  # must not raise


def test_assemble_within_layout_mismatch(rng):
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds)
    with pytest.raises(LayoutMismatchError):
        assemble_within(X, W, patch_of[:-1], bases, 1.0, layout)
    with pytest.raises(LayoutMismatchError):
        assemble_within(X, W, patch_of, bases[:-1], 1.0)


def test_assemble_between_block_structure(rng):
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, Sp, Wp = build_instance(ds)
    d = ds.d
    assert np.all(Sp[d:, :] == 0.0) and np.all(Sp[:, d:] == 0.0)
    zero = assemble_between(np.zeros((d, d)), layout)
    assert np.all(zero == 0.0)
    with pytest.raises(LayoutMismatchError):
        assemble_between(np.zeros((d + 1, d + 1)), layout)


def test_graphs_stage_holds_no_n_by_n_array():
    # the k-NN search works on row blocks and the between-class form on class
    # sums and neighbor edges, so the stage peaks below one n x n float64 array
    n = 6000
    rng = np.random.default_rng(7)
    ds = LabeledDataset(rng.normal(size=(n, 3)), rng.integers(1, 4, size=n))
    tracemalloc.start()
    try:
        W, XtLX = _graphs(ds, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.shape == (n, n) and XtLX.shape == (3, 3)
    assert peak < 8 * n * n


def test_solve_gep_identity_pencil():
    vals, vecs = solve_gep(np.eye(5), np.zeros((5, 5)), alpha=1.0, m=5)
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-10)


def test_solve_gep_diagonal_closed_form():
    vals, vecs = solve_gep(np.diag([4.0, 1.0]), np.diag([1.0, 0.0]), alpha=1.0, m=2)
    assert np.allclose(vals, [2.0, 1.0])
    assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)


def test_solve_gep_matches_dense_oracle(rng):
    # oracle: full eigendecomposition of inv(B) A via scipy.linalg.eig
    A = rng.normal(size=(12, 12))
    A = A @ A.T
    Bc = rng.normal(size=(12, 12))
    Bc = Bc @ Bc.T
    alpha = 0.5
    vals, vecs = solve_gep(A, Bc, alpha=alpha, m=4)
    B = Bc + alpha * np.eye(12)
    ref = np.sort(np.real(scipy.linalg.eigvals(np.linalg.solve(B, A))))[::-1][:4]
    assert np.allclose(vals, ref, rtol=1e-8)
    for i in range(4):
        r = A @ vecs[:, i] - vals[i] * (B @ vecs[:, i])
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(B @ vecs[:, i])


def test_gep_residuals_on_fitted_models(rng):
    for _ in range(5):
        ds = random_labeled(rng)
        X, y, patch_of, bases, layout, W, Sp, _ = build_instance(ds)
        gamma, alpha = 1.0, 1e-3
        S = assemble_within(X, W, patch_of, bases, gamma, layout)
        m = min(ds.d, 3)
        vals, vecs = solve_gep(Sp, S, alpha, m, t_dim=ds.d)
        B = S + alpha * np.eye(layout.total)
        for i in range(m):
            r = Sp @ vecs[:, i] - vals[i] * (B @ vecs[:, i])
            assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(B @ vecs[:, i])
        assert np.all(np.diff(vals) <= 1e-12)


def test_fit_separates_two_gaussians(rng):
    X = np.vstack([rng.normal(0, 1, size=(30, 2)), rng.normal(8, 1, size=(30, 2))])
    y = np.array([1] * 30 + [2] * 30)
    ds = LabeledDataset(X, y)
    model = fit_mpda(ds, m=1)
    emb = transform(model, X)
    # training 1-NN error is zero
    from mpda.evaluation import error_rate, nn_classify

    pred = nn_classify(emb, y, emb)
    assert error_rate(pred, y) == 0.0


def test_fit_deterministic(rng):
    ds = random_labeled(rng)
    a = fit_mpda(ds, m=2)
    b = fit_mpda(ds, m=2)
    assert np.array_equal(a.projection, b.projection)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_fit_rejects_bad_m(rng):
    ds = random_labeled(rng)
    with pytest.raises(ValueError):
        fit_mpda(ds, m=ds.d + 1)


def test_label_permutation_leaves_span(rng):
    ds = random_labeled(rng, c_max=3)
    C = int(ds.labels.max())
    perm = {c: C + 1 - c for c in range(1, C + 1)}  # reverse the labels
    swapped = LabeledDataset(ds.features, np.array([perm[int(c)] for c in ds.labels]))
    m = min(ds.d, 2)
    a = fit_mpda(ds, m=m)
    b = fit_mpda(swapped, m=m)
    angles = scipy.linalg.subspace_angles(a.projection, b.projection)
    assert angles.max() < 1e-8


def test_pmpda_vblock_size(rng):
    X = rng.normal(size=(10, 4))
    y = np.array([1] * 5 + [2] * 5)
    ds = LabeledDataset(X, y)
    model = fit_pmpda(ds, m=2, k=3)
    expected = sum(b.dim for b in per_point_bases(X, y, k=3))
    assert model.layout.total == 4 + expected


def test_pmpda_matches_mpda_on_tiny_class(rng):
    # one 3-point class: every per-point neighborhood is the whole class,
    # so per-point bases coincide with the single patch basis and the two
    # objectives agree for tied tangent vectors
    X = rng.normal(size=(3, 4))
    y = np.ones(3, dtype=int)
    ds = LabeledDataset(X, y)
    patch_of, members = merge_class_partitions(ds, 2, 10)
    patch_bases = [fit_tangent_basis(X[m], 0.95) for m in members]
    point_bases = per_point_bases(X, y, k=2)
    for b in point_bases:
        assert np.allclose(b.basis, patch_bases[0].basis)
    nb = knn_neighbors(X, 2)
    W = within_class_graph(nb, y)
    gamma = 0.7
    S_m = assemble_within(X, W, patch_of, patch_bases, gamma)
    S_p = assemble_within(X, W, np.arange(3), point_bases, gamma)
    for _ in range(10):
        t = rng.normal(size=4)
        v = rng.normal(size=patch_bases[0].dim)
        f_m = np.concatenate([t, v])
        f_p = np.concatenate([t] + [v] * 3)
        assert np.isclose(f_m @ S_m @ f_m, f_p @ S_p @ f_p, rtol=1e-10)


def test_pmpda_resource_cap(rng):
    ds = random_labeled(rng)
    with pytest.raises(ResourceLimitError):
        fit_pmpda(ds, m=1, k=3, total_cap=ds.d)


def test_transform_identity_columns():
    from mpda.model import EmbeddingModel

    proj = np.eye(4)[:, :2]
    model = EmbeddingModel(kind="pca", projection=proj, eigenvalues=np.ones(2))
    X = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(transform(model, X), X[:, :2])


def test_transform_linearity(rng):
    ds = random_labeled(rng)
    model = fit_mpda(ds, m=2)
    a, b = rng.normal(size=(2, ds.d))
    lhs = transform(model, (a + b)[None, :])
    rhs = transform(model, a[None, :]) + transform(model, b[None, :])
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    assert np.all(transform(model, np.zeros((2, ds.d))) == 0.0)


def test_transform_dimension_mismatch(rng):
    ds = random_labeled(rng)
    model = fit_mpda(ds, m=1)
    with pytest.raises(DimensionMismatchError):
        transform(model, np.zeros((2, ds.d + 1)))


def test_model_roundtrip_bytes(tmp_path, rng):
    ds = random_labeled(rng)
    model = fit_mpda(ds, m=2)
    p1, p2 = str(tmp_path / "m1.bin"), str(tmp_path / "m2.bin")
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    X = rng.normal(size=(5, ds.d))
    assert np.array_equal(transform(model, X), transform(loaded, X))
    assert loaded.hyperparams == model.hyperparams


def test_reloaded_model_drops_tangent_diagnostics(tmp_path, rng):
    ds = random_labeled(rng)
    model = fit_mpda(ds, m=2)
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    loaded = load_model(path)
    assert model.tangent_vectors(0).shape[1] == 2
    assert loaded.layout is None and loaded.eigenvectors is None
    with pytest.raises(ValueError):
        loaded.tangent_vectors(0)
    X = rng.normal(size=(5, ds.d))
    assert np.array_equal(transform(loaded, X), transform(model, X))


def test_model_file_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"\x00\x01\x02 not a model\n\xff")
    with pytest.raises(ParseError):
        load_model(str(p))


def test_truncated_model_prefix(rng):
    ds = random_labeled(rng)
    m = min(ds.d, 3)
    model = fit_mpda(ds, m=m)
    small = model.truncated(1)
    assert np.array_equal(small.projection, model.projection[:, :1])
    assert small.m == 1


def test_edge_residuals_diagnostic(rng):
    from mpda.model import edge_residuals

    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds)
    gamma = 1.0
    S = assemble_within(X, W, patch_of, bases, gamma, layout)
    f = rng.normal(size=layout.total)
    res = edge_residuals(X, W, patch_of, bases, layout, f)
    assert res.shape == W.shape
    assert np.all(res.data >= 0.0)
    # summing the per-edge pairwise terms recovers the gamma=0 quadratic
    S0 = assemble_within(X, W, patch_of, bases, 0.0, layout)
    assert np.isclose(res.data.sum(), f @ S0 @ f, rtol=1e-10)


def edge_residuals_loop(X, W, patch_of, bases, layout, f):
    """Per-edge oracle of ``edge_residuals``: one Python pass per edge."""
    Wc = sp.coo_matrix(W)
    t = f[: layout.d]
    vals = np.zeros(Wc.nnz)
    for e, (i, j) in enumerate(zip(Wc.row, Wc.col)):
        if i == j:
            continue
        dij = X[i] - X[j]
        pj = int(patch_of[j])
        vj = f[layout.v_slice(pj)]
        vals[e] = (t @ dij - vj @ (bases[pj].basis.T @ dij)) ** 2
    return sp.coo_matrix((vals, (Wc.row, Wc.col)), shape=Wc.shape)


def test_edge_residuals_match_per_edge_loop(rng):
    from mpda.model import edge_residuals

    for _ in range(5):
        ds = random_labeled(rng)
        X, y, patch_of, bases, layout, W, _, _ = build_instance(ds)
        # one self-loop on top of the graph's edges: its residual stays 0
        W = sp.coo_matrix(W)
        W = sp.coo_matrix((np.append(W.data, 1.0), (np.append(W.row, 0), np.append(W.col, 0))),
                          shape=W.shape)
        f = rng.normal(size=layout.total)
        got = edge_residuals(X, W, patch_of, bases, layout, f)
        ref = edge_residuals_loop(X, W, patch_of, bases, layout, f)
        assert np.array_equal(got.row, ref.row) and np.array_equal(got.col, ref.col)
        assert got.data[-1] == 0.0
        # (T_p v_p)'d replaces v_p'(T_p'd): the two orders of the products
        # agree to rounding, 1e-12 of the largest residual
        assert np.allclose(got.data, ref.data, rtol=0.0, atol=1e-12 * ref.data.max())


def multimodal_xor(seed, n_per_cluster=30, d=6):
    """Two classes of two clusters each with coinciding class means."""
    rng = np.random.default_rng(seed)
    c1 = np.vstack([
        rng.normal([-6] + [0] * (d - 1), 1.0, size=(n_per_cluster, d)),
        rng.normal([+6] + [0] * (d - 1), 1.0, size=(n_per_cluster, d)),
    ])
    c2 = np.vstack([
        rng.normal([0, -6] + [0] * (d - 2), 1.0, size=(n_per_cluster, d)),
        rng.normal([0, +6] + [0] * (d - 2), 1.0, size=(n_per_cluster, d)),
    ])
    X = np.vstack([c1, c2])
    y = np.array([1] * 2 * n_per_cluster + [2] * 2 * n_per_cluster)
    return LabeledDataset(X, y)


def test_multimodal_classes_beat_global_lda():
    # coinciding class means starve LDA's between-scatter while the local
    # graphs still see the cluster structure
    from mpda.baselines import fit_lda
    from mpda.dataset import train_test_split
    from mpda.evaluation import error_rate, nn_classify

    def err(model, tr, te):
        pred = nn_classify(
            transform(model, tr.features), tr.labels, transform(model, te.features)
        )
        return error_rate(pred, te.labels)

    mpda_err1, lda_err1 = [], []
    for seed in range(5):
        ds = multimodal_xor(seed)
        tr, te = train_test_split(ds, 0.5, seed)
        mpda_err1.append(err(fit_mpda(tr, m=1, k=5), tr, te))
        lda_err1.append(err(fit_lda(tr, m=1), tr, te))
        assert err(fit_mpda(tr, m=2, k=5), tr, te) == 0.0
        assert err(fit_pmpda(tr, m=2, k=5), tr, te) == 0.0
    assert np.mean(mpda_err1) + 0.15 < np.mean(lda_err1)


def test_tangent_vector_diagnostics(rng):
    ds = random_labeled(rng)
    m = min(ds.d, 2)
    model = fit_mpda(ds, m=m)
    n_patches = len(model.layout.block_dims)
    v_rows = sum(
        model.tangent_vectors(p).shape[0] for p in range(n_patches)
    )
    assert v_rows == model.layout.total - ds.d
    for p in range(n_patches):
        assert model.tangent_vectors(p).shape == (model.layout.block_dims[p], m)


def test_zero_variance_patch_in_fit(rng):
    # a class of coincident points has an empty tangent basis; edges into
    # that patch must fall back to the plain pairwise term
    X = np.vstack([np.tile([3.0, 3.0, 3.0], (5, 1)), rng.normal(0, 1, size=(6, 3))])
    y = np.array([1] * 5 + [2] * 6)
    ds = LabeledDataset(X, y)
    model = fit_mpda(ds, m=1, k=2)
    assert np.isfinite(model.projection).all()
    X_, y_, patch_of, bases, layout, W, _, _ = build_instance(ds, k=2)
    assert any(b.dim == 0 for b in bases)
    S = assemble_within(X_, W, patch_of, bases, 1.5, layout)
    Wd = W.toarray()
    for _ in range(10):
        f = rng.normal(size=layout.total)
        t, v = split_f(f, layout, len(bases))
        direct = within_objective(X_, Wd, patch_of, bases, 1.5, t, v)
        assert np.isclose(f @ S @ f, direct, rtol=1e-9, atol=1e-12)
