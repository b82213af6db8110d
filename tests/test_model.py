import dataclasses
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mpda.model
from conftest import curved_classes, random_labeled
from graph_oracles import between_class_graph, laplacian
from model_oracles import basis, dense_within, edge_within, loop_within
from mpda.dataset import LabeledDataset
from mpda.errors import (
    DataError,
    DimensionMismatchError,
    LayoutMismatchError,
    ParseError,
    ResourceLimitError,
)
from mpda.graph import between_class_form, knn_neighbors, within_class_graph
from mpda.model import (
    BlockLayout,
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
from mpda.partition import partition_classes
from mpda.tangent import patch_bases, per_point_bases
from partition_oracles import partition_class_loop
from test_solve import degenerate_datasets


# --- independent objective oracles (never touch the assembly code) ----------

def within_objective(X, W_dense, patch_of, bases, gamma, t, v):
    """Direct double sum of the within-class objective for one stacked f."""
    T = [basis(bases, p) for p in range(len(bases[1]))]
    total = 0.0
    n = len(X)
    for i in range(n):
        for j in range(n):
            w = W_dense[i, j]
            if w == 0.0:
                continue
            dij = X[i] - X[j]
            pi, pj = patch_of[i], patch_of[j]
            pair = (t @ dij - v[pj] @ (T[pj].T @ dij)) ** 2
            diff = v[pi] - T[pi].T @ (T[pj] @ v[pj])
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
    patch_of, members, _ = merge_class_partitions(ds, kprime, max_patch)
    bases = patch_bases(X, members, energy)
    layout = layout_for(ds.d, bases[1])
    nb = knn_neighbors(X, min(k, ds.n - 1))
    W = within_class_graph(nb, y)
    Sp = assemble_between(between_class_form(X, y, nb), layout).toarray()
    Wp = between_class_graph(X, y, min(k, ds.n - 1))  # dense oracle of Sp's graph
    return X, y, patch_of, bases, layout, W, Sp, Wp


def within_form(X, W, patch_of, bases, gamma):
    """The within-class form S = S_diff + gamma * S_tan as a dense array."""
    S_diff, S_tan = assemble_within(X, W, patch_of, bases)
    return (S_diff + gamma * S_tan).toarray()


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
        S = within_form(X, W, patch_of, bases, gamma)
        Wd = W.toarray()
        for _ in range(30):
            f = rng.normal(size=layout.total)
            t, v = split_f(f, layout, len(bases[1]))
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
    assert len(bases[1]) == 1
    _, S_tan = assemble_within(X_, W, patch_of, bases)
    assert S_tan.nnz == 0


def test_zero_order_reduction(rng):
    # with v = 0 the quadratic collapses to the graph-Laplacian scatter
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds, k=4)
    S = within_form(X, W, patch_of, bases, 1.3)
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
    S = within_form(X, W, patch_of, bases, 2.0)
    assert np.allclose(S, S.T)
    assert np.linalg.eigvalsh(S).min() > -1e-8
    np.linalg.cholesky(S + 1e-3 * np.eye(layout.total))  # must not raise


def test_assemble_within_layout_mismatch(rng):
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds)
    with pytest.raises(LayoutMismatchError):
        assemble_within(X, W, patch_of[:-1], bases)
    with pytest.raises(LayoutMismatchError):
        assemble_within(X, W, patch_of, (bases[0][:-1], bases[1][:-1]))


def test_assemble_within_rejects_a_negative_patch_id_and_a_graph_of_the_wrong_size(rng):
    # a patch id of -1 would read the last patch's basis, and a graph
    # smaller than n x n would drop the last rows' edges, both silently
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, _, _ = build_instance(ds)
    bad = patch_of.copy()
    bad[0] = -1
    with pytest.raises(LayoutMismatchError, match="missing basis"):
        assemble_within(X, W, bad, bases)
    n, dense = len(X), sp.csr_matrix(W).toarray()
    for graph in (dense[:-4, :-4], np.pad(dense, (0, 2)), dense[:, :-1]):
        for form in (graph, sp.csr_matrix(graph)):
            with pytest.raises(LayoutMismatchError, match=f"does not match {n} rows"):
                assemble_within(X, form, patch_of, bases)
    # an n x n array is still accepted, and gives the sparse graph's form
    ref = assemble_within(X, W, patch_of, bases)
    for S, want in zip(assemble_within(X, dense, patch_of, bases), ref):
        assert (S != want).nnz == 0


def test_assemble_within_rejects_a_stack_of_the_wrong_shape(rng):
    ds = random_labeled(rng)
    X, y, patch_of, (T, dims), layout, W, _, _ = build_instance(ds, energy=1.0)
    r = T.shape[2]
    assert dims.max() == r > 0
    for bad in (
        (T[:, :-1], dims),  # bases one row short of X's width
        (np.concatenate([T, T[:, :1]], axis=1), dims),  # one row too many
        (T[:, :, :-1], dims),  # narrower than the largest rank
        (T[:-1], dims),  # one basis fewer than ranks
        (T[0], dims),  # not a stack
    ):
        with pytest.raises(LayoutMismatchError):
            assemble_within(X, W, patch_of, bad)
    # wider than the largest rank, +0.0 past it: accepted, the same form
    wide = np.concatenate([T, np.zeros(T.shape[:2] + (2,))], axis=2)
    for S, ref in zip(assemble_within(X, W, patch_of, (wide, dims)),
                      assemble_within(X, W, patch_of, (T, dims))):
        S, ref = S.toarray(), ref.toarray()
        assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_assemble_within_rejects_a_nonzero_value_past_a_rank(rng):
    # C'C sums over every row of C, so nonzero padding would change S_tan
    ds = random_labeled(rng)
    X, y, patch_of, (T, dims), layout, W, _, _ = build_instance(ds)
    p = int(np.argmin(dims))
    assert dims[p] < T.shape[2]
    for value in (1e-300, -1.0, np.nan):
        bad = T.copy()
        bad[p, -1, dims[p]] = value
        with pytest.raises(LayoutMismatchError, match="beyond its rank"):
            assemble_within(X, W, patch_of, (bad, dims))
    neg_zero = T.copy()
    neg_zero[p, :, dims[p]:] = -0.0  # a zero is a zero
    assemble_within(X, W, patch_of, (neg_zero, dims))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=degenerate_datasets(),
    kind=st.sampled_from(["mpda", "pmpda"]),
    max_patch=st.sampled_from([1, 2, 4]),
    flat=st.booleans(),
)
def test_within_parts_match_dense_and_edge_oracles(data, kind, max_patch, flat):
    # duplicates, singleton and zero-variance classes and k past the class
    # sizes come from the strategy; max_patch = 1 makes every MPDA basis
    # 0-dimensional, and ``flat`` does so for either kind: an empty v-block
    ds, k = data
    X, y = ds.features, ds.labels
    if kind == "mpda":
        patch_of, members, _ = merge_class_partitions(ds, min(3, k), max_patch)
        bases = patch_bases(X, members)
    else:
        patch_of, bases = np.arange(ds.n), per_point_bases(X, y, k)
    if flat:
        bases = patch_bases(X, [np.arange(1)] * len(bases[1]))
    layout = layout_for(ds.d, bases[1])
    W = within_class_graph(knn_neighbors(X, k), y)
    S_diff, S_tan = assemble_within(X, W, patch_of, bases)
    assert sp.issparse(S_diff) and sp.issparse(S_tan)
    assert np.array_equal(S_diff.toarray(), dense_within(X, W, patch_of, bases, 0.0, layout))
    for gamma in (0.3, 1.0, 7.0):
        S = (S_diff + gamma * S_tan).toarray()
        for oracle in (dense_within, edge_within):
            ref = oracle(X, W, patch_of, bases, gamma, layout)
            assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))


def patch_loop_case(rng):
    """24 patches of 1..4 points in 16 dimensions, bases of rank 0..3, and
    random weighted edges; patch 5 gets no in-edge, and rows 7 and 30
    repeat rows 0 and 12, joined to them by an edge."""
    d = 16
    sizes = np.tile([1, 2, 3, 4], 6)
    X = rng.normal(size=(sizes.sum(), d))
    X[[7, 30]] = X[[0, 12]]
    patch_of = np.repeat(np.arange(sizes.size), sizes)
    members = [np.flatnonzero(patch_of == p) for p in range(sizes.size)]
    bases = patch_bases(X, members, energy=1.0)
    i, j = rng.integers(0, len(X), size=(2, 150))
    i, j = np.r_[i[patch_of[j] != 5], 0, 12], np.r_[j[patch_of[j] != 5], 7, 30]
    W = sp.csr_matrix((rng.uniform(0.1, 2.0, size=i.size), (i, j)), shape=(len(X),) * 2)
    return X, W, patch_of, bases, layout_for(d, bases[1])


def csc_bytes(S):
    return [(a.dtype, a.tobytes()) for a in (S.data, S.indices, S.indptr)]


def test_stacked_within_matches_the_patch_loop_over_chunks(rng):
    # total = 16 + 36, so a chunk holds total // d = 3 patches: the patches
    # with in-edges take more than 3 chunks.  Random weighted edges give
    # mixed in-edge counts, and the repeated rows give differences of exactly 0.
    # From d = 16 on, the operands' memory layout can change BLAS's rounding.
    X, W, patch_of, bases, layout = patch_loop_case(rng)
    d = layout.d
    in_edges = np.bincount(patch_of[sp.coo_matrix(W).col], minlength=len(bases[1]))
    assert in_edges[5] == 0 and np.count_nonzero(in_edges) > 3 * (layout.total // d)
    assert np.unique(in_edges).size >= 4
    assert np.unique(bases[1]).tolist() == [0, 1, 2, 3]

    S_diff, S_tan = assemble_within(X, W, patch_of, bases)
    assert np.array_equal(S_diff.toarray(), dense_within(X, W, patch_of, bases, 0.0, layout))
    for S, ref in zip((S_diff, S_tan), loop_within(X, W, patch_of, bases, layout)):
        assert csc_bytes(S) == csc_bytes(ref)


@pytest.mark.parametrize("case", ["patches", "pmpda"])
def test_tangent_part_does_not_depend_on_its_chunks(rng, monkeypatch, case):
    # S_tan's bytes with chunks of 1, 2 and 3 patch pairs, and with one
    # chunk for all, equal the former one-shot construction's, which
    # gathered every pair's bases at once (loop_within's second part)
    if case == "patches":
        X, W, patch_of, bases, layout = patch_loop_case(rng)
    else:
        ds = curved_classes(rng, sizes=(30, 25, 28))
        X, patch_of = ds.features, np.arange(ds.n)
        bases = per_point_bases(X, ds.labels, 4)
        layout = layout_for(ds.d, bases[1])
        W = within_class_graph(knn_neighbors(X, 4), ds.labels)
    Wc = sp.coo_matrix(W)
    cross = {(p, q) for p, q in zip(patch_of[Wc.row], patch_of[Wc.col]) if p != q}
    assert len(cross) > 30
    want = csc_bytes(loop_within(X, W, patch_of, bases, layout)[1])
    for pairs in (1, 2, 3, len(cross)):
        monkeypatch.setattr(mpda.model, "_pairs_per_chunk", lambda nnz, d, r: pairs)
        assert csc_bytes(assemble_within(X, W, patch_of, bases)[1]) == want


def sheet_and_blob():
    """PMPDA's inputs on 1500 rows in 120 dimensions: a sheet of rank-2 bases
    and a small blob whose bases reach rank 4, some 14,000 ordered point
    pairs.  Returns (X, W, bases)."""
    rng = np.random.default_rng(7)
    n, d, k = 1500, 120, 8
    s = rng.uniform(-1.0, 1.0, size=(n, 4))
    s[: n - 100, 2:] = 0.0
    X = s @ np.linalg.qr(rng.normal(size=(d, 4)))[0].T + 1e-4 * rng.normal(size=(n, d))
    y = np.r_[np.ones(n - 100, dtype=int), np.full(100, 2)]
    return X, within_class_graph(knn_neighbors(X, k), y), per_point_bases(X, y, k)


def test_tangent_part_holds_no_gather_of_every_pair():
    # gathering every pair's padded bases at once takes two (pairs, d, r)
    # arrays; the chunked form peaks below one
    X, W, bases = sheet_and_blob()
    (n, d), Wc = X.shape, sp.coo_matrix(W)
    pairs = np.unique(Wc.row * n + Wc.col).size
    r = int(bases[1].max())
    assert pairs > 10_000 and r == 4
    tracemalloc.start()
    try:
        assemble_within(X, W, np.arange(n), bases)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pairs * d * r * 8


def test_within_parts_stage_their_indices_at_csc_width():
    # each part stages its row and column indices as int32, the width of
    # its CSC result's indices, not as int64 that scipy then copies: per
    # stored value of S_diff, and per triplet of S_tan, the peak above the
    # part's inputs is 31.5 and 46.8 bytes, against 39.5 and 54.8 with int64
    X, W, bases = sheet_and_blob()
    per_item = {}

    def measured(part, items):
        def run(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            S = part(*args)
            per_item[part.__name__] = (tracemalloc.get_traced_memory()[1] - start) / items(S, *args)
            assert S.indices.dtype == np.int32
            return S
        return run

    def triplets(S, p, q, ws, T, dims, *rest):
        dp, dq = dims[p], dims[q]
        return int((dp + 2 * dp * dq + dq * dq).sum())

    tracemalloc.start()
    try:
        with mock.patch.object(mpda.model, "_pairwise_part",
                               measured(mpda.model._pairwise_part, lambda S, *_: S.nnz)), \
                mock.patch.object(mpda.model, "_tangent_part",
                                  measured(mpda.model._tangent_part, triplets)):
            assemble_within(X, W, np.arange(len(X)), bases)
    finally:
        tracemalloc.stop()
    assert per_item["_pairwise_part"] < 35.0
    assert per_item["_tangent_part"] < 51.0


def test_negative_gamma_fails_before_any_stage(rng, monkeypatch):
    import mpda.model
    from mpda.evaluation import cross_validate

    def stage(*args, **kwargs):
        raise AssertionError("a fit stage ran")

    for name in ("_patch_bases", "_point_bases", "_graphs"):
        monkeypatch.setattr(mpda.model, name, stage)
    ds = random_labeled(rng, min_per_class=4)
    for gamma in (-1, np.nan, np.inf):  # NaN compares false, so it needs the same check
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            fit_mpda(ds, m=1, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            fit_pmpda(ds, m=1, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            cross_validate(ds, "mpda", grid={"gamma": [1.0, gamma]}, m_grid=[1])


def test_nonpositive_alpha_fails_before_any_stage(rng, monkeypatch):
    import mpda.model
    from mpda.evaluation import cross_validate

    def stage(*args, **kwargs):
        raise AssertionError("a fit stage ran")

    for name in ("_patch_bases", "_point_bases", "_graphs"):
        monkeypatch.setattr(mpda.model, name, stage)
    ds = random_labeled(rng, min_per_class=4)
    for alpha in (0, -1, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive"):
            fit_mpda(ds, m=1, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be positive"):
            fit_pmpda(ds, m=1, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be positive"):
            cross_validate(ds, "mpda", grid={"alpha": [1e-3, alpha]}, m_grid=[1])


def test_k_below_one_fails_before_any_stage(rng):
    from mpda.evaluation import cross_validate

    ds = random_labeled(rng, min_per_class=4)
    with mock.patch.object(mpda.model, "partition_classes", wraps=partition_classes) as parts, \
            mock.patch.object(mpda.model, "per_point_bases", wraps=per_point_bases) as hoods:
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                fit_mpda(ds, m=1, k=k)
            with pytest.raises(ValueError, match="k must be at least 1"):
                fit_pmpda(ds, m=1, k=k)
            with pytest.raises(ValueError, match="k must be at least 1"):
                cross_validate(ds, "mpda", grid={"k": [3, k]}, m_grid=[1])
    assert parts.call_count == 0 and hoods.call_count == 0


def stage_spies():
    """Spies on the partitioner and on the class k-NN searches of the point bases."""
    return (
        mock.patch.object(mpda.model, "partition_classes", wraps=partition_classes),
        mock.patch.object(mpda.tangent, "knn_neighbors", wraps=knn_neighbors),
    )


def test_energy_outside_its_range_fails_before_any_stage(rng):
    ds = random_labeled(rng, min_per_class=4)
    parts_spy, knn_spy = stage_spies()
    with parts_spy as parts, knn_spy as searches:
        for energy in (0.0, -0.5, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"energy must lie in \(0, 1\]"):
                fit_mpda(ds, m=1, energy=energy)
            with pytest.raises(ValueError, match=r"energy must lie in \(0, 1\]"):
                fit_pmpda(ds, m=1, energy=energy)
    assert parts.call_count == 0 and searches.call_count == 0


def test_one_row_training_set_is_a_data_error_before_any_stage():
    ds = LabeledDataset(np.array([[0.5, 2.0]]), np.array([1]))
    parts_spy, knn_spy = stage_spies()
    with parts_spy as parts, knn_spy as searches:
        for kind, fit in (("mpda", fit_mpda), ("pmpda", fit_pmpda)):
            with pytest.raises(DataError, match=f"^{kind} needs at least two training rows, got 1$"):
                fit(ds, m=1)
    assert parts.call_count == 0 and searches.call_count == 0


def test_block_layout_derives_its_offsets():
    layout = layout_for(3, np.array([2, 0, 1]))
    assert layout == BlockLayout(d=3, block_dims=(2, 0, 1))
    assert layout.offsets == (3, 5, 5) and layout.total == 6
    assert [layout.v_slice(p) for p in range(3)] == [slice(3, 5), slice(5, 5), slice(5, 6)]
    with pytest.raises(TypeError):
        BlockLayout(d=3, block_dims=(2, 0, 1), offsets=(0, 0, 0))


def test_assemble_between_block_structure(rng):
    ds = random_labeled(rng)
    X, y, patch_of, bases, layout, W, Sp, Wp = build_instance(ds)
    d = ds.d
    S = assemble_between(between_class_form(X, y, knn_neighbors(X, 3)), layout)
    assert sp.issparse(S) and S.shape == (layout.total, layout.total)
    assert np.array_equal(S.toarray(), Sp)
    assert np.all(Sp[d:, :] == 0.0) and np.all(Sp[:, d:] == 0.0)
    assert assemble_between(np.zeros((d, d)), layout).nnz == 0
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
        S = within_form(X, W, patch_of, bases, gamma)
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
    with pytest.raises(ValueError, match=f"m must lie in 1..{ds.d}"):
        fit_pmpda(ds, m=0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_solve_gep_rejects_alpha_outside_positive_reals(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        solve_gep(np.eye(3), np.eye(3), alpha, 1)


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
    expected = per_point_bases(X, y, k=3)[1].sum()
    assert model.layout.total == 4 + expected


def test_merge_numbers_every_class_patch_globally(rng):
    # interleaved classes with labels that are not 1..C: global ids run over
    # the classes in ascending label order, each class's patches in its
    # oracle order, and every point's id names the patch that holds it
    labels = rng.permutation(np.repeat([7, 2, 5, 9], [30, 25, 12, 1]))
    ds = LabeledDataset(rng.normal(size=(labels.size, 3)) + labels[:, None], labels)
    patch_of, members, linearity = merge_class_partitions(ds, 3, 4)
    want_members, want_linearity = [], []
    for c in (2, 5, 7, 9):
        rows = ds.class_indices(c)
        patches, lin = partition_class_loop(ds.features[rows], 3, 4)
        want_members += [rows[m] for m in patches]
        want_linearity.append(lin)
    assert [m.tolist() for m in members] == [m.tolist() for m in want_members]
    assert linearity.tobytes() == np.concatenate(want_linearity).tobytes()
    want_patch_of = np.full(ds.n, -1, dtype=np.int64)
    for pid, m in enumerate(want_members):
        want_patch_of[m] = pid
    assert patch_of.dtype == np.int64 and patch_of.tobytes() == want_patch_of.tobytes()


def test_pmpda_matches_mpda_on_tiny_class(rng):
    # one 3-point class: every per-point neighborhood is the whole class,
    # so per-point bases coincide with the single patch basis and the two
    # objectives agree for tied tangent vectors
    X = rng.normal(size=(3, 4))
    y = np.ones(3, dtype=int)
    ds = LabeledDataset(X, y)
    patch_of, members, _ = merge_class_partitions(ds, 2, 10)
    whole = patch_bases(X, members, 0.95)
    point_bases = per_point_bases(X, y, k=2)
    assert (point_bases[1] == whole[1][0]).all()
    for b in point_bases[0]:
        assert np.allclose(b, whole[0][0])
    nb = knn_neighbors(X, 2)
    W = within_class_graph(nb, y)
    gamma = 0.7
    S_m = within_form(X, W, patch_of, whole, gamma)
    S_p = within_form(X, W, np.arange(3), point_bases, gamma)
    for _ in range(10):
        t = rng.normal(size=4)
        v = rng.normal(size=whole[1][0])
        f_m = np.concatenate([t, v])
        f_p = np.concatenate([t] + [v] * 3)
        assert np.isclose(f_m @ S_m @ f_m, f_p @ S_p @ f_p, rtol=1e-10)


def test_pmpda_resource_cap(rng, monkeypatch):
    import mpda.model

    ds = random_labeled(rng)
    monkeypatch.setattr(mpda.model, "DEFAULT_TOTAL_CAP", ds.d)
    with pytest.raises(ResourceLimitError):
        fit_pmpda(ds, m=1, k=3)


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
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    X = rng.normal(size=(5, ds.d))
    assert np.array_equal(transform(model, X), transform(loaded, X))
    assert loaded.hyperparams == model.hyperparams


def test_numpy_scalar_hyperparameters_round_trip(tmp_path, rng):
    ds = random_labeled(rng)
    model = fit_mpda(ds, m=1, k=np.int64(3), gamma=np.float64(0.5))
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hyperparams == model.hyperparams
    assert type(loaded.hyperparams["k"]) is int and type(loaded.hyperparams["gamma"]) is float
    assert np.array_equal(loaded.projection, model.projection)


def test_unwritable_header_leaves_an_existing_file_unchanged(tmp_path, rng):
    ds = random_labeled(rng)
    model = fit_mpda(ds, m=1)
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    before = Path(path).read_bytes()
    bad = dataclasses.replace(model, hyperparams={**model.hyperparams, "k": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_model(bad, path)
    assert Path(path).read_bytes() == before


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
    # a 1x1 model with no eigenvalues loads; each broken header below is a
    # ParseError, not a KeyError, AttributeError or reshape ValueError
    good = {"format": "mpda-model", "version": 1, "kind": "pca", "d": 1, "m": 1,
            "n_eigenvalues": 0, "has_mean": False}
    p.write_bytes(json.dumps(good).encode() + b"\n" + np.ones(1).tobytes())
    assert load_model(str(p)).projection.shape == (1, 1)
    for header, floats in [
        ({key: v for key, v in good.items() if key != "d"}, 1),
        ([good], 1),
        ({**good, "d": -1, "m": -1}, 1),
        ({**good, "n_eigenvalues": -1}, 0),
        ({**good, "d": "x"}, 1),
        ({**good, "d": float("inf")}, 1),
        ({"format": "mpda-model", "version": 1}, 0),
    ]:
        p.write_bytes(json.dumps(header).encode() + b"\n" + np.ones(floats).tobytes())
        with pytest.raises(ParseError, match="not a model file|malformed model header"):
            load_model(str(p))


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
    assert (bases[1] == 0).any()
    S = within_form(X_, W, patch_of, bases, 1.5)
    Wd = W.toarray()
    for _ in range(10):
        f = rng.normal(size=layout.total)
        t, v = split_f(f, layout, len(bases[1]))
        direct = within_objective(X_, Wd, patch_of, bases, 1.5, t, v)
        assert np.isclose(f @ S @ f, direct, rtol=1e-9, atol=1e-12)
