import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpda.tangent
from conftest import one_basis
from mpda.baselines import fit_pca
from mpda.errors import LengthMismatchError
from mpda.model import solve_gep
from mpda.tangent import _signed, patch_bases, per_point_bases
from tangent_oracles import fit_tangent_basis_loop, per_point_bases_loop, stack


def principal_angles(A, B):
    """Largest principal angle between the column spaces of A and B."""
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    s = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return np.arccos(np.clip(s, -1, 1)).max() if s.size else 0.0


def test_rank_one_data_on_axis():
    X = np.zeros((5, 3))
    X[:, 0] = [0.0, 1.0, 2.0, 3.0, 4.0]
    tb = one_basis(X, 0.95)
    assert tb.shape[1] == 1
    assert np.allclose(np.abs(tb[:, 0]), [1.0, 0.0, 0.0])
    assert tb[0, 0] > 0  # sign convention


def test_singleton_patch_empty_basis():
    tb = one_basis(np.array([[1.0, 2.0, 3.0]]), 0.95)
    assert tb.shape == (3, 0)


def test_zero_variance_patch_empty_basis():
    tb = one_basis(np.ones((4, 2)), 0.95)
    assert tb.shape[1] == 0


def test_orthonormal_columns(rng):
    for _ in range(10):
        X = rng.normal(size=(int(rng.integers(2, 15)), int(rng.integers(2, 6))))
        tb = one_basis(X, 0.95)
        G = tb.T @ tb
        assert np.linalg.norm(G - np.eye(tb.shape[1])) < 1e-10
        assert tb.shape[1] <= min(X.shape[1], X.shape[0] - 1)


def test_matches_covariance_eigendecomposition(rng):
    # oracle: dense eigendecomposition of the covariance matrix
    X = rng.normal(size=(12, 4))
    tb = one_basis(X, 0.95)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (len(X) - 1)
    _, vecs = np.linalg.eigh(cov)
    top = vecs[:, ::-1][:, : tb.shape[1]]
    assert principal_angles(tb, top) < 1e-8


def test_energy_rule_monotone(rng):
    X = rng.normal(size=(20, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    dims = [one_basis(X, e).shape[1] for e in (0.5, 0.8, 0.95, 1.0)]
    assert dims == sorted(dims)
    assert one_basis(X, 1.0).shape[1] == np.linalg.matrix_rank(X - X.mean(axis=0))


def test_reconstruction_beats_random_basis(rng):
    X = rng.normal(size=(15, 5)) * np.array([4.0, 2.0, 1.0, 0.3, 0.1])
    tb = one_basis(X, 0.8)
    centered = X - X.mean(axis=0)
    resid = np.linalg.norm(centered - centered @ tb @ tb.T)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.normal(size=(5, tb.shape[1])))
        rand_resid = np.linalg.norm(centered - centered @ Q @ Q.T)
        assert resid <= rand_resid + 1e-12


def test_deterministic_signs(rng):
    X = rng.normal(size=(10, 4))
    a = one_basis(X, 0.95)
    b = one_basis(X.copy(), 0.95)
    assert np.array_equal(a, b)
    lead = np.argmax(np.abs(a), axis=0)
    assert np.all(a[lead, np.arange(a.shape[1])] > 0)


def test_per_point_bases_use_within_class_neighborhoods(rng):
    X = rng.normal(size=(12, 3))
    y = np.array([1] * 6 + [2] * 6)
    T, dims = per_point_bases(X, y, k=3)
    assert T.shape[:2] == (12, 3) and dims.shape == (12,)
    for b, m in zip(T, dims):
        assert m <= 3  # k+1 points cap the rank at k
        assert np.linalg.norm(b[:, :m].T @ b[:, :m] - np.eye(m)) < 1e-10


def test_per_point_bases_small_class():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    y = np.array([1, 1, 2])
    _, dims = per_point_bases(X, y, k=5)
    assert dims[2] == 0  # singleton class
    assert dims[0] == 1  # two collinear classmates


def same_bytes(a, b):
    """Two arrays with the same shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_stack(a, b):
    """Two (T, dims) stacks with the same bytes in both parts."""
    return same_bytes(a[0], b[0]) and same_bytes(a[1], b[1])


def padding_is_positive_zero(T, dims):
    """T is exactly +0.0 from each rank on."""
    pad = T.transpose(0, 2, 1)[np.arange(T.shape[2]) >= dims[:, None]]
    return pad.tobytes() == np.zeros_like(pad).tobytes()


@st.composite
def labeled_points(draw):
    """Points with duplicate rows, singleton and small classes, and optionally
    one class whose rows all coincide; d from 1 to past the neighborhood size."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 12))
    n_classes = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.0, 3.0, size=d)
    y = rng.integers(1, n_classes + 1, size=n)
    if draw(st.booleans()):
        X[rng.integers(0, n, size=n // 2)] = X[0]
    if draw(st.booleans()):
        X[y == y[0]] = X[0]  # a zero-variance class
    if draw(st.booleans()):
        y[-1] = n_classes + 1  # a singleton class
    k = draw(st.one_of(st.integers(1, 4), st.integers(n, n + 3)))  # k >= class size too
    return X, y, k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(labeled_points(), st.sampled_from([0.5, 0.95, 1.0]))
def test_stacked_bases_bit_identical_to_per_patch_oracle(case, energy):
    X, y, k = case
    bases = per_point_bases(X, y, k, energy)
    assert same_stack(bases, per_point_bases_loop(X, y, k, energy))
    assert bases[0].dtype == np.float64 and bases[0].flags["C_CONTIGUOUS"]
    assert padding_is_positive_zero(*bases)
    assert same_bytes(one_basis(X, energy), fit_tangent_basis_loop(X, energy))


@st.composite
def patched_points(draw):
    """Points cut into patches of mixed sizes (1-point patches among them),
    with duplicate rows and optionally zero-variance patches."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * rng.uniform(0.0, 3.0, size=d)
    if draw(st.booleans()):
        X[rng.integers(0, n, size=n // 2)] = X[0]
    order = rng.permutation(n)
    cuts = np.flatnonzero(rng.random(n - 1) < draw(st.sampled_from([0.2, 0.5, 0.9]))) + 1
    patches = [np.sort(p) for p in np.split(order, cuts)]
    if draw(st.booleans()):
        for p in patches[:: 2]:
            X[p] = X[p[0]]  # zero-variance patches
    return X, patches


@settings(max_examples=80, deadline=None, derandomize=True)
@given(patched_points(), st.sampled_from([0.5, 0.95, 1.0]))
def test_patch_bases_bit_identical_to_one_fit_per_patch(case, energy):
    X, patches = case
    T, dims = patch_bases(X, patches, energy)
    assert T.shape == (len(patches), X.shape[1], dims.max(initial=0))
    assert padding_is_positive_zero(T, dims)
    for tb, m, p in zip(T, dims, patches):
        assert same_bytes(tb[:, :m], one_basis(X[p], energy))
        assert same_bytes(tb[:, :m], fit_tangent_basis_loop(X[p], energy))
    ref = stack([fit_tangent_basis_loop(X[p], energy) for p in patches], X.shape[1])
    assert same_stack((T, dims), ref)


def test_hood_block_size_does_not_change_bases(rng, monkeypatch):
    X = rng.normal(size=(23, 5))
    X[4] = X[9]
    y = np.array([1] * 11 + [2] * 9 + [3] * 3)
    for k in (2, 4, 11):
        whole = per_point_bases(X, y, k)
        monkeypatch.setattr(mpda.tangent, "HOOD_BLOCK_ROWS", 2)
        blocked = per_point_bases(X, y, k)
        monkeypatch.undo()
        assert same_stack(blocked, whole)
        assert same_stack(blocked, per_point_bases_loop(X, y, k, 0.95))


def test_patch_bases_in_blocks_bit_identical_to_one_fit_per_patch(rng, monkeypatch):
    # blocks of 3 over size groups of 1 to 8 patches: full, partial and
    # single-patch blocks, 1-point and zero-variance patches among them
    X = rng.normal(size=(80, 4))
    X[40:44] = X[40]
    sizes = [1] * 5 + [2] * 7 + [4] * 8 + [5] * 3 + [6]
    members = rng.permutation(80)[: sum(sizes)]
    patches = [np.sort(p) for p in np.split(members, np.cumsum(sizes)[:-1])]
    patches.append(np.arange(40, 44))
    monkeypatch.setattr(mpda.tangent, "HOOD_BLOCK_ROWS", 3)
    T, dims = patch_bases(X, patches, 0.9)
    assert len(T) == len(dims) == len(patches)
    assert padding_is_positive_zero(T, dims)
    for tb, m, p in zip(T, dims, patches):
        assert same_bytes(tb[:, :m], one_basis(X[p], 0.9))
    assert dims[-1] == 0


def test_patch_bases_rejects_a_member_outside_the_rows(rng):
    # a member of -1 would read the last row, silently
    X = rng.normal(size=(10, 3))
    for bad in (-1, 10):
        with pytest.raises(ValueError, match="not a row of X"):
            patch_bases(X, [np.arange(4), np.array([2, 5, bad])])


def test_per_point_bases_needs_one_label_per_row(rng):
    # 8 labels for 10 rows gave a stack of 8 bases
    X = rng.normal(size=(10, 3))
    for n_labels in (8, 12):
        with pytest.raises(LengthMismatchError, match="one label per row"):
            per_point_bases(X, np.repeat([1, 2], n_labels // 2), 2)


@pytest.mark.parametrize("energy", [0.0, -0.1, 1.5])
def test_per_point_bases_rejects_energy_outside_unit_interval(rng, energy):
    X = rng.normal(size=(6, 3))
    with pytest.raises(ValueError):
        per_point_bases(X, np.array([1, 1, 1, 2, 2, 3]), 2, energy)


@pytest.mark.parametrize("energy", [0.0, 1.5, np.nan])
def test_single_point_sets_check_the_energy_too(rng, energy):
    # a one-point set has an empty basis, but its energy is still checked
    assert one_basis(rng.normal(size=(1, 3))).shape == (3, 0)
    with pytest.raises(ValueError):
        one_basis(rng.normal(size=(1, 3)), energy)
    with pytest.raises(ValueError):
        patch_bases(rng.normal(size=(4, 3)), [np.array([i]) for i in range(4)], energy)


# --- the sign rule: one owner for bases, PCA directions and eigenvectors ------


def first_largest(V):
    """Each column's first largest-magnitude entry."""
    return V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]


def test_signed_makes_the_first_of_tied_largest_entries_positive():
    # every column's largest magnitude is tied: the first of the tied entries
    # decides, and a sign change is exact (a flipped 0 is -0)
    V = np.array([[-0.5, 0.5, 0.0], [0.5, -0.5, -1.0], [0.5, 0.5, 1.0]])
    want = np.array([[0.5, 0.5, -0.0], [-0.5, -0.5, 1.0], [-0.5, 0.5, -1.0]])
    got = _signed(np.stack([V, -V]))
    assert got.tobytes() == np.stack([want, want]).tobytes()
    # a transposed view keeps its memory layout
    assert _signed(V.T).flags["F_CONTIGUOUS"] and np.array_equal(_signed(V.T), _signed(V.T.copy()))


def test_bases_pca_directions_and_eigenvectors_follow_the_sign_rule(rng):
    for _ in range(5):
        X = rng.normal(size=(30, 6)) @ rng.normal(size=(6, 6))
        assert (first_largest(fit_pca(X, m=6).projection) > 0).all()
        assert (first_largest(one_basis(X, 1.0)) > 0).all()
        G = rng.normal(size=(12, 12))
        Sp = np.zeros((12, 12))
        Sp[:4, :4] = np.cov(rng.normal(size=(4, 9)))
        _, vecs = solve_gep(Sp, G @ G.T, 1e-3, 4, t_dim=4)
        assert (first_largest(vecs[:4]) > 0).all()


def test_stack_is_positive_zero_past_each_rank_and_one_patch_calls_match_its_slices(rng):
    # equal-sized patches of ranks 1, 2 and 3 share one stacked SVD, so the
    # lower-rank sets carry SVD directions past their ranks until zeroed;
    # a lone point and a zero-variance patch have rank 0
    line = np.outer(rng.normal(size=4), rng.normal(size=5))
    plane = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 5))
    X = np.vstack([line, plane, rng.normal(size=(4, 5)), -np.ones((3, 5)), rng.normal(size=(1, 5))])
    patches = [np.arange(0, 4), np.arange(4, 8), np.arange(8, 12), np.arange(12, 15), np.array([15])]
    T, dims = patch_bases(X, patches, 1.0)
    assert dims.tolist() == [1, 2, 3, 0, 0] and T.shape == (5, 5, 3)
    assert padding_is_positive_zero(T, dims)
    for p, members in enumerate(patches):
        one_T, one_dims = patch_bases(X, [members], 1.0)
        assert one_dims.tolist() == [dims[p]] and one_T.shape == (1, 5, dims[p])
        assert one_T[0].tobytes() == T[p, :, : dims[p]].tobytes()
