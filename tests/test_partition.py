import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import mpda.geodesy
import mpda.partition
from conftest import one_partition, split_one_patch
from mpda.geodesy import geodesic_distances, mean_ratios
from mpda.partition import partition_classes
from partition_oracles import partition_class_loop, split_patch_loop


def assert_same_partition(part, ref):
    (patches, linearity), (ref_patches, ref_linearity) = part, ref
    assert len(patches) == len(ref_patches)
    for got, want in zip(patches, ref_patches):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert linearity.tobytes() == ref_linearity.tobytes()


def check_invariants(part, n, max_patch):
    patches, linearity = part
    all_members = np.sort(np.concatenate(patches))
    assert np.array_equal(all_members, np.arange(n))  # disjoint cover
    assert max(len(members) for members in patches) <= max_patch
    assert linearity.dtype == np.float64 and linearity.shape == (len(patches),)
    for members in patches:
        assert np.all(np.diff(members) > 0)  # sorted member lists


def test_small_class_single_patch(rng):
    X = rng.normal(size=(7, 3))
    patches, _ = one_partition(X, kprime=2, max_patch=10)
    assert len(patches) == 1
    assert np.array_equal(patches[0], np.arange(7))


def test_singleton_class():
    patches, linearity = one_partition(np.array([[1.0, 2.0]]), kprime=3, max_patch=5)
    assert len(patches) == 1 and linearity[0] == 1.0


def test_partition_computes_one_distance_matrix(rng):
    X = rng.normal(size=(30, 3))
    with mock.patch.object(mpda.geodesy, "cdist", wraps=cdist) as spy:
        part = one_partition(X, kprime=4, max_patch=5)
    check_invariants(part, 30, 5)
    assert spy.call_count == 1


def test_two_point_split():
    X = np.array([[0.0], [1.0]])
    gm = geodesic_distances(X, k=1)
    left, right = split_one_patch(np.arange(2), gm, kprime=1)
    assert list(left) == [0] and list(right) == [1]


def test_four_collinear_split_hand_trace():
    # seeds are the endpoints; each side absorbs its nearest middle point
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    gm = geodesic_distances(X, k=1)
    left, right = split_one_patch(np.arange(4), gm, kprime=1)
    assert list(left) == [0, 1] and list(right) == [2, 3]


def test_collinear_even_split_at_middle():
    for M in (3, 5):
        X = np.arange(2 * M, dtype=float)[:, None]
        patches, _ = one_partition(X, kprime=2, max_patch=M)
        assert len(patches) == 2
        got = sorted(tuple(p) for p in patches)
        assert got == [tuple(range(M)), tuple(range(M, 2 * M))]


def test_split_outputs_partition_the_patch(rng):
    for _ in range(10):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, 3))
        gm = geodesic_distances(X, k=min(4, n - 1))
        if not np.isfinite(gm[0]).all():
            continue
        members = np.arange(n)
        left, right = split_one_patch(members, gm, kprime=3)
        assert np.array_equal(np.sort(np.concatenate([left, right])), members)
        assert len(np.intersect1d(left, right)) == 0
        assert len(left) >= 1 and len(right) >= 1


def test_partition_invariants_random(rng):
    for _ in range(20):
        n = int(rng.integers(2, 60))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        part = one_partition(X, kprime=6, max_patch=10)
        check_invariants(part, n, 10)
        assert np.all(np.diff([p[0] for p in part[0]]) > 0)  # ids follow the smallest member


def test_partition_deterministic(rng):
    X = rng.normal(size=(37, 4))
    a, _ = one_partition(X, kprime=4, max_patch=6)
    b, _ = one_partition(X, kprime=4, max_patch=6)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_disconnected_components_become_separate_patches():
    # two clusters out of mutual k-NN reach must never share a patch
    X = np.vstack([np.random.default_rng(0).normal(0, 0.1, size=(8, 2)),
                   np.random.default_rng(1).normal(100, 0.1, size=(8, 2))])
    patches, _ = one_partition(X, kprime=2, max_patch=20)
    for members in patches:
        assert set(members) <= set(range(8)) or set(members) <= set(range(8, 16))


def test_duplicate_points_partition(rng):
    X = np.zeros((23, 2))  # all coincident
    part = one_partition(X, kprime=6, max_patch=10)
    check_invariants(part, 23, 10)


SHAPES = ("gaussian", "grid", "collinear", "coincident", "duplicates", "groups")


@st.composite
def class_points(draw):
    """One class's points in a shape that stresses the partitioner's ties.

    ``grid`` puts points on a coarse integer grid (tied distances),
    ``duplicates`` repeats a few rows, ``coincident`` makes every point
    the same, and ``groups`` places far-apart clusters so the k'-NN graph
    falls into several components.  k' ranges past the class size.
    """
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "gaussian":
        X = rng.normal(size=(n, d))
    elif shape == "grid":
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    elif shape == "collinear":
        X = np.outer(rng.integers(-5, 6, size=n), rng.normal(size=d))
    elif shape == "coincident":
        X = np.tile(rng.normal(size=d), (n, 1))
    elif shape == "duplicates":
        X = rng.normal(size=(max(1, n // 3), d))[rng.integers(0, max(1, n // 3), size=n)]
    else:
        groups = rng.integers(0, 3, size=n)
        X = rng.normal(size=(n, d)) + 1e3 * groups[:, None]
    kprime = draw(st.one_of(st.integers(1, 8), st.integers(n, n + 5)))
    max_patch = draw(st.integers(1, 15))
    return X, kprime, max_patch


@settings(max_examples=120, deadline=None, derandomize=True)
@given(class_points())
def test_partition_bit_identical_to_rescanning_oracle(case):
    X, kprime, max_patch = case
    part = one_partition(X, kprime, max_patch)
    assert_same_partition(part, partition_class_loop(X, kprime, max_patch))
    check_invariants(part, X.shape[0], max_patch)


def test_partition_joint_award_at_a_rounding_tie():
    # a point set and its mirror image: the two sides of a split grow as
    # mirror images, so their mean ratios agree up to rounding and the
    # joint award turns on the order in which the ratio sums are added
    P = np.array([[-1.0, 0.2], [0.3, -0.5], [-0.6, 0.5], [-1.7, -1.3], [0.2, 0.8], [0.6, -0.2]])
    X = np.vstack([P, -P])
    (patches, linearity), (ref_patches, ref_linearity) = (
        one_partition(X, kprime=2, max_patch=4), partition_class_loop(X, kprime=2, max_patch=4)
    )
    assert [p.tolist() for p in patches] == [p.tolist() for p in ref_patches]
    assert linearity.tobytes() == ref_linearity.tobytes()


def test_linearity_computed_once_per_patch(rng):
    # two far-apart clusters: two components, each split many times
    X = np.vstack([rng.normal(size=(100, 3)), rng.normal(size=(100, 3)) + 1e3])
    kprime, max_patch = 6, 10
    G, _ = geodesic_distances(X, kprime)
    components = np.unique(np.isfinite(G).argmax(axis=1)).size
    with mock.patch.object(mpda.partition, "mean_ratios", wraps=mean_ratios) as lin:
        part = one_partition(X, kprime, max_patch)
    check_invariants(part, 200, max_patch)
    splits = len(part[0]) - components
    assert components == 2 and splits > 0
    # one linearity per final patch, none for the patches that were split
    assert sum(call.args[0].shape[0] for call in lin.call_args_list) == len(part[0])


@st.composite
def class_sets(draw):
    """1-4 classes from ``class_points`` sharing the first one's k' and M,
    sometimes with a singleton class added."""
    cases = draw(st.lists(class_points(), min_size=1, max_size=4))
    blocks = [X for X, *_ in cases]
    if draw(st.booleans()):
        blocks.insert(draw(st.integers(0, len(blocks))), np.ones((1, blocks[0].shape[1])))
    return blocks, *cases[0][1:]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(class_sets())
def test_partition_classes_equals_per_class_oracle(case):
    blocks, kprime, max_patch = case
    parts = partition_classes(blocks, kprime, max_patch)
    assert len(parts) == len(blocks)
    for X, part in zip(blocks, parts):
        assert_same_partition(part, partition_class_loop(X, kprime, max_patch))
        check_invariants(part, X.shape[0], max_patch)


@st.composite
def component_cases(draw):
    """1-3 classes whose k'-NN graphs fall apart or tie: clusters 1e6 apart,
    duplicate rows, rows x 1e200 (most distances overflow to +inf) and
    integer grids, with one k' and M."""
    d = draw(st.integers(1, 3))
    blocks = []
    for shape in draw(st.lists(st.sampled_from(("clusters", "duplicates", "huge", "grid")),
                               min_size=1, max_size=3)):
        n = draw(st.integers(1, 50))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if shape == "clusters":
            X = rng.normal(size=(n, d)) + 1e6 * rng.integers(0, 4, size=(n, 1))
        elif shape == "duplicates":
            X = rng.normal(size=(max(1, n // 3), d))[rng.integers(0, max(1, n // 3), size=n)]
        elif shape == "huge":
            X = rng.normal(size=(n, d)) * 1e200
        else:
            X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        blocks.append(X)
    return blocks, draw(st.integers(1, 6)), draw(st.integers(1, 11))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(component_cases())
def test_every_patch_lies_in_one_component(case):
    # the roots are the k'-NN graph's components and a split only divides
    # a patch, so no patch holds an infinite geodesic
    blocks, kprime, max_patch = case
    with np.errstate(over="ignore"):
        parts = partition_classes(blocks, kprime, max_patch)
        for X, part in zip(blocks, parts):
            check_invariants(part, len(X), max_patch)
            if len(X) > 1:
                G, _ = geodesic_distances(X, min(kprime, len(X) - 1))
                for members in part[0]:
                    assert np.isfinite(G[np.ix_(members, members)]).all()


# with its mirror image, a class whose split sides grow as mirror images
MIRRORED = np.array([[-1.0, 0.2], [0.3, -0.5], [-0.6, 0.5], [-1.7, -1.3], [0.2, 0.8], [0.6, -0.2]])


def test_rounding_tie_takes_the_exact_split():
    # the mirrored input's sides grow as mirror images, so their scores
    # agree up to the order of the ratio sums, which is fixed: the result
    # is the oracle's bit for bit
    X = np.vstack([MIRRORED, -MIRRORED])
    assert_same_partition(one_partition(X, kprime=2, max_patch=4), partition_class_loop(X, 2, 4))


def test_batching_cannot_change_a_split(rng, monkeypatch):
    # the mirrored tie class, a chain with steps near 5e153 and a 120-point
    # curve give the same partitions alone, batched together (padded to
    # the curve's patches), in small class batches, and split by split
    # through the one-patch growth, every split of the batched call being rechecked
    chain = np.column_stack([np.arange(40) + rng.normal(0, 0.2, 40), rng.normal(0, 0.3, 40)])
    t = rng.uniform(0, 3 * np.pi, 120)
    curve = np.column_stack([np.cos(t), np.sin(t), 0.3 * t]) + rng.normal(0, 0.05, (120, 3))
    blocks = [np.vstack([MIRRORED, -MIRRORED]), chain[rng.permutation(40)] * 5e153, curve]
    args = (2, 4)  # kprime, max_patch
    splits = []
    geodesics = {}  # copies: the partitioner turns its geodesics into ratios once grown
    grow = mpda.partition._grow

    def record(G, E, base, n, idx, sizes, *rest):
        halves = grow(G, E, base, n, idx, sizes, *rest)
        for p, (at, m) in enumerate(zip(base, n)):
            dist = geodesics.setdefault(at, tuple(M[at : at + m * m].reshape(m, m).copy() for M in (G, E)))
            splits.append((idx[p, : sizes[p]], dist, halves[2 * p : 2 * p + 2]))
        return halves

    with np.errstate(over="ignore", invalid="ignore"):
        alone = [one_partition(X, *args) for X in blocks]
        for X, part in zip(blocks, alone):
            assert_same_partition(part, partition_class_loop(X, *args))
        with mock.patch.object(mpda.partition, "_grow", record):
            together = partition_classes(blocks, *args)
        monkeypatch.setattr(mpda.partition, "CLASS_BATCH_VALUES", 2 * 40**2)  # (tie, chain), (curve)
        small = partition_classes(blocks, *args)
        assert len(geodesics) == 3  # every class was split
        for members, dist, halves in splits:
            for got, want in zip(split_one_patch(members, dist, kprime=2), halves):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for want, *got in zip(alone, together, small):
        for part in got:
            assert_same_partition(part, want)


def test_split_patch_adds_in_the_one_summation_order():
    # every ratio lies within a few ulps of 1, so two sides of equal size
    # score alike up to rounding and each joint award turns on the last
    # bits of the sums: another summation order would split otherwise
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(12, 40))
        Y = rng.normal(size=(n, 2))
        DE = cdist(Y, Y)
        DG = DE * (1.0 + rng.integers(0, 8, size=(n, n)) * np.finfo(float).eps)
        gm = DG, DE
        for kprime in (2, 4, 6):
            got = split_one_patch(np.arange(n), gm, kprime)
            want = split_patch_loop(np.arange(n), gm, kprime)
            assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_unweighted_infinite_ratios_add_nothing():
    # a geodesic over a distance near the underflow limit gives an
    # infinite ratio; a row sum that does not weigh it must stay finite
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(8, 30))
        Y = rng.normal(size=(n, 2))
        DE = cdist(Y, Y)
        DG = DE * (1.0 + rng.integers(0, 8, size=(n, n)) * np.finfo(float).eps)
        i, j = rng.integers(0, n, size=(2, 3))
        DE[i, j] = DE[j, i] = np.where(i == j, 0.0, 1e-310)
        with np.errstate(over="ignore"):
            gm = DG, DE
            for kprime in (2, 4):
                got = split_one_patch(np.arange(n), gm, kprime)
                want = split_patch_loop(np.arange(n), gm, kprime)
                assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_overflowing_distances_give_the_oracle_patches(rng):
    # a noisy chain with steps near 5e153: neighbours are finite apart but
    # most pairs overflow to +inf in cdist, so the growth compares pool
    # members at +inf; such a class splits without a warning, since its
    # ratios divide only finite geodesics
    for _ in range(6):
        n = int(rng.integers(15, 50))
        chain = np.column_stack([np.arange(n) + rng.normal(0, 0.2, n), rng.normal(0, 0.3, n)])
        X = chain[rng.permutation(n)] * 5e153
        assert np.isinf(cdist(X, X)).any()
        with np.errstate(all="raise"):
            exact = one_partition(X, kprime=3, max_patch=5)
        assert_same_partition(exact, partition_class_loop(X, kprime=3, max_patch=5))


def test_rows_whose_distances_all_overflow_split_without_a_warning(rng):
    # every pair of distinct rows is +inf apart in cdist, so every geodesic
    # is +inf and every point is its own component
    X = rng.normal(size=(20, 2)) * 1e200
    with np.errstate(all="raise"):
        exact = one_partition(X, kprime=3, max_patch=5)
    assert [p.tolist() for p in exact[0]] == [[i] for i in range(20)]
    assert_same_partition(exact, partition_class_loop(X, kprime=3, max_patch=5))


def test_empty_class_block_is_rejected():
    with pytest.raises(ValueError, match="class block 0 has no points"):
        partition_classes([np.zeros((0, 3))])
    with pytest.raises(ValueError, match="class block 1 has no points"):
        partition_classes([np.ones((2, 3)), np.zeros((0, 3))])


@pytest.mark.parametrize("batch_values", [None, 40_000])
def test_three_curved_classes_match_the_oracle(rng, monkeypatch, batch_values):
    # several tree levels with many patches each, across classes of
    # different sizes; 40,000 padded matrix values split the classes into
    # the batches (120), (150) and (135)
    if batch_values is not None:
        monkeypatch.setattr(mpda.partition, "CLASS_BATCH_VALUES", batch_values)
    blocks = []
    for n in (120, 150, 135):
        t = rng.uniform(0, 3 * np.pi, n)
        curve = np.column_stack([np.cos(t), np.sin(t), 0.3 * t])
        blocks.append(curve + rng.normal(0, 0.05, (n, 3)))
    parts = partition_classes(blocks, kprime=5, max_patch=8)
    for X, part in zip(blocks, parts):
        assert len(part[0]) >= 15
        assert_same_partition(part, partition_class_loop(X, 5, 8))


def curved_blocks(seed, sizes, columns):
    """One class per size: a curved 2-D manifold in ``columns`` columns."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        latent = rng.uniform(0.0, 3.0, size=(n, 2))
        A = rng.normal(size=(2, columns))
        phase = rng.uniform(0, 2 * np.pi, columns)
        blocks.append(np.sin(latent @ A + phase) + 0.01 * rng.normal(size=(n, columns)))
    return blocks


def partition_peak(blocks, max_patch):
    """``partition_classes(blocks, 6, max_patch)`` and its tracemalloc peak
    over 8 bytes times the classes' Σn^2."""
    tracemalloc.start()
    try:
        parts = partition_classes(blocks, 6, max_patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return parts, peak / (8 * sum(len(X) ** 2 for X in blocks))


def test_partition_peak_memory_is_two_matrices_per_class():
    # ten 200-row classes of a curved 2-D manifold in 50 columns, batched
    # together: each class holds its geodesics and its distances, and the
    # growth's and seed search's buffers stay within a fraction of one more
    parts, ratio = partition_peak(curved_blocks(3, [200] * 10, 50), 10)
    assert all(len(patches) >= 20 for patches, _ in parts)
    assert ratio < 2.75


def test_unsplit_classes_take_their_linearity_blocks_under_the_budget():
    # with M above every class size each class is one leaf; its linearity
    # block and index are taken under the batch's budget, not all ten at
    # once, which would lift the peak from 2.26 to 4.02 times
    parts, ratio = partition_peak(curved_blocks(3, [200] * 10, 50), 1000)
    assert all(len(patches) == 1 for patches, _ in parts)
    assert ratio < 2.75


def test_partition_peak_memory_of_a_mixed_size_batch():
    # classes of 300, 120, 40 and 1 rows batched together hold exactly their
    # own n^2 values per matrix: the peak is 4.60 times the Σn^2 float64
    # values (4.59 when each class held its own two matrices), while the
    # same buffers padded to a (B, N, N) stack of the largest class peak
    # at 9.39 times; the bound leaves a 9% margin
    parts, ratio = partition_peak(curved_blocks(4, [300, 120, 40, 1], 5), 10)
    assert [sum(map(len, patches)) for patches, _ in parts] == [300, 120, 40, 1]
    assert ratio < 5.0
