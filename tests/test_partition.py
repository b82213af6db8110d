from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import mpda.graph
import mpda.partition
from mpda.geodesy import geodesic_distances, graph_components, neighbor_graph_matrix
from mpda.graph import knn_neighbors
from mpda.partition import partition_class, split_patch
from partition_oracles import partition_class_loop


def check_invariants(part, n, max_patch):
    all_members = np.sort(np.concatenate(part.patches))
    assert np.array_equal(all_members, np.arange(n))  # disjoint cover
    assert part.sizes.max() <= max_patch
    for pid, members in enumerate(part.patches):
        assert np.all(part.patch_of[members] == pid)


def test_small_class_single_patch(rng):
    X = rng.normal(size=(7, 3))
    part = partition_class(X, kprime=2, max_patch=10)
    assert part.n_patches == 1
    assert np.array_equal(part.patches[0], np.arange(7))


def test_singleton_class():
    part = partition_class(np.array([[1.0, 2.0]]), kprime=3, max_patch=5)
    assert part.n_patches == 1 and part.linearity[0] == 1.0


def test_partition_computes_one_distance_matrix(rng):
    X = rng.normal(size=(30, 3))
    for approximate in (False, True):
        with mock.patch.object(mpda.graph, "cdist", wraps=cdist) as spy:
            part = partition_class(X, kprime=4, max_patch=5, approximate=approximate)
        check_invariants(part, 30, 5)
        assert spy.call_count == 1


def test_two_point_split():
    X = np.array([[0.0], [1.0]])
    gm = geodesic_distances(X, k=1)
    left, right = split_patch(np.arange(2), gm, kprime=1)
    assert list(left) == [0] and list(right) == [1]


def test_four_collinear_split_hand_trace():
    # seeds are the endpoints; each side absorbs its nearest middle point
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    gm = geodesic_distances(X, k=1)
    left, right = split_patch(np.arange(4), gm, kprime=1)
    assert list(left) == [0, 1] and list(right) == [2, 3]


def test_collinear_even_split_at_middle():
    for M in (3, 5):
        X = np.arange(2 * M, dtype=float)[:, None]
        part = partition_class(X, kprime=2, max_patch=M)
        assert part.n_patches == 2
        got = sorted(tuple(p) for p in part.patches)
        assert got == [tuple(range(M)), tuple(range(M, 2 * M))]


def test_split_outputs_partition_the_patch(rng):
    for _ in range(10):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, 3))
        gm = geodesic_distances(X, k=min(4, n - 1))
        if not np.isfinite(gm.geodesic).all():
            continue
        members = np.arange(n)
        left, right = split_patch(members, gm, kprime=3)
        assert np.array_equal(np.sort(np.concatenate([left, right])), members)
        assert len(np.intersect1d(left, right)) == 0
        assert len(left) >= 1 and len(right) >= 1


def test_partition_invariants_random(rng):
    for _ in range(20):
        n = int(rng.integers(2, 60))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        part = partition_class(X, kprime=6, max_patch=10)
        check_invariants(part, n, 10)


def test_partition_deterministic(rng):
    X = rng.normal(size=(37, 4))
    a = partition_class(X, kprime=4, max_patch=6)
    b = partition_class(X, kprime=4, max_patch=6)
    assert len(a.patches) == len(b.patches)
    for pa, pb in zip(a.patches, b.patches):
        assert np.array_equal(pa, pb)


def test_disconnected_components_become_separate_patches():
    # two clusters out of mutual k-NN reach must never share a patch
    X = np.vstack([np.random.default_rng(0).normal(0, 0.1, size=(8, 2)),
                   np.random.default_rng(1).normal(100, 0.1, size=(8, 2))])
    part = partition_class(X, kprime=2, max_patch=20)
    for members in part.patches:
        assert set(members) <= set(range(8)) or set(members) <= set(range(8, 16))


def test_approximate_mode_keeps_invariants(rng):
    for _ in range(5):
        n = int(rng.integers(15, 50))
        X = rng.normal(size=(n, 3))
        part = partition_class(X, kprime=6, max_patch=10, approximate=True)
        check_invariants(part, n, 10)
        assert np.all(part.linearity == 1.0)


def test_duplicate_points_partition(rng):
    X = np.zeros((23, 2))  # all coincident
    part = partition_class(X, kprime=6, max_patch=10)
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
    return X, kprime, max_patch, draw(st.booleans())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(class_points())
def test_partition_bit_identical_to_rescanning_oracle(case):
    X, kprime, max_patch, approximate = case
    part = partition_class(X, kprime, max_patch, approximate)
    ref = partition_class_loop(X, kprime, max_patch, approximate)
    assert len(part.patches) == len(ref.patches)
    for got, want in zip(part.patches, ref.patches):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(part.patch_of, ref.patch_of)
    assert part.linearity.tobytes() == ref.linearity.tobytes()
    check_invariants(part, X.shape[0], max_patch)


def test_partition_joint_award_at_a_rounding_tie():
    # a point set and its mirror image: the two sides of a split grow as
    # mirror images, so their mean ratios agree up to rounding and the
    # joint award turns on the order in which the ratio sums are added
    P = np.array([[-1.0, 0.2], [0.3, -0.5], [-0.6, 0.5], [-1.7, -1.3], [0.2, 0.8], [0.6, -0.2]])
    X = np.vstack([P, -P])
    part = partition_class(X, kprime=2, max_patch=4)
    ref = partition_class_loop(X, kprime=2, max_patch=4)
    assert [p.tolist() for p in part.patches] == [p.tolist() for p in ref.patches]
    assert part.linearity.tobytes() == ref.linearity.tobytes()


def test_linearity_computed_once_per_patch(rng):
    # two far-apart clusters: two components, each split many times
    X = np.vstack([rng.normal(size=(100, 3)), rng.normal(size=(100, 3)) + 1e3])
    kprime, max_patch = 6, 10
    components = graph_components(neighbor_graph_matrix(knn_neighbors(X, kprime))).max() + 1
    lin_spy = mock.patch.object(
        mpda.partition, "patch_linearity", wraps=mpda.partition.patch_linearity
    )
    split_spy = mock.patch.object(mpda.partition, "split_patch", wraps=split_patch)
    with lin_spy as lin, split_spy as split:
        part = partition_class(X, kprime, max_patch)
    check_invariants(part, 200, max_patch)
    assert components == 2 and split.call_count == part.n_patches - components
    assert lin.call_count == components + 2 * split.call_count
