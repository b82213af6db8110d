import numpy as np
import pytest

from mpda.dataset import LabeledDataset
from mpda.graph import class_scatters
from mpda.partition import _grow, partition_classes
from mpda.tangent import DEFAULT_ENERGY, patch_bases


def random_labeled(rng, n_max=40, d_max=8, c_max=3, min_per_class=3):
    """Random dataset where every class has at least ``min_per_class`` rows."""
    n = int(rng.integers(c_max * min_per_class, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    C = int(rng.integers(2, c_max + 1))
    X = rng.normal(size=(n, d))
    while True:
        y = rng.integers(1, C + 1, size=n)
        if all(np.sum(y == c) >= min_per_class for c in range(1, C + 1)):
            break
    return LabeledDataset(X, y)


def curved_classes(rng, sizes=(14, 12, 13), d=4, n_dup=0):
    """Nearby noisy arcs, one per class, so every stage sees nontrivial input,
    followed by ``n_dup`` copies of randomly chosen rows."""
    parts, labels = [], []
    for c, size in enumerate(sizes, start=1):
        s = rng.uniform(-1.0, 1.0, size=size)
        arc = np.stack([np.cos(2 * s + c), np.sin(2 * s + c), 0.3 * c * s, s**2], axis=1)[:, :d]
        parts.append(arc + 0.1 * rng.normal(size=(size, d)))
        labels.append(np.full(size, c))
    X, y = np.vstack(parts), np.concatenate(labels)
    if n_dup:
        src = rng.integers(0, len(X), size=n_dup)
        X, y = np.vstack([X, X[src]]), np.concatenate([y, y[src]])
    return LabeledDataset(X, y)


def one_partition(Xc, kprime, max_patch):
    """``partition_classes`` on one class."""
    return partition_classes([Xc], kprime, max_patch)[0]


def split_one_patch(members, dists, kprime):
    """The two halves of one patch (sorted member indices of the class whose
    ``(geodesic, euclidean)`` pair is ``dists``): the one-patch call of
    ``partition._grow``, which makes every split of ``partition_classes``,
    with the class's budget of 3 n^2 values."""
    members = np.asarray(members, dtype=np.int64)
    G, E = dists
    n = E.shape[0]
    # the class alone in a buffer pair: offset 0, size n
    return _grow(
        G.ravel(), E.ravel(), np.array([0]), np.array([n]),
        members[None], np.array([members.size]), kprime, 3 * n * n,
    )


def one_basis(P, energy=DEFAULT_ENERGY):
    """The (d, rank) basis of ``patch_bases`` with all of P's rows as its one patch."""
    T, dims = patch_bases(P, [np.arange(len(P))], energy)
    return T[0, :, : dims[0]]


def lda_scatters(ds):
    """LDA's pair (S_b, S_w) as ``fit_lda`` builds it from ``class_scatters``."""
    Sb, _, S_c = class_scatters(ds.features, ds.labels)
    return Sb, S_c.sum(axis=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
