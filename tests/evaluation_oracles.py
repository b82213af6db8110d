"""Reference scorers and sweeps, kept as test oracles.

``full_matrix_nn_classify`` and ``one_pass_nn_errors_over_dims`` are the
former 1-NN scorers: each builds the whole n_test x n_train distance
matrix at once.  The library scores the test rows in blocks of
``KNN_BLOCK_ROWS``.

``per_fit_dimension_sweep`` and ``per_fit_parameter_sweep`` are the
former ``dimension_sweep`` and ``parameter_sweep`` bodies.  Each walks
its own splits and fits every (value, split) pair from scratch through
``fit_algorithm``; the parameter sweep scores a split with
``nn_classify``.  The library shares one split walk between both sweeps
and ``benchmark``, fits all values of a split through one
``staged_fits`` call and scores through the cross-validation scorer.
"""

import numpy as np
from scipy.spatial.distance import cdist

from mpda.dataset import train_test_split
from mpda.evaluation import (
    PCA_PREPROCESS_DIM,
    _nn_errors_over_dims,
    error_rate,
    fit_algorithm,
    nn_classify,
    pca_preprocess,
)
from mpda.model import transform


def full_matrix_nn_classify(train_emb, train_labels, test_emb):
    train_emb = np.atleast_2d(np.asarray(train_emb, dtype=np.float64))
    test_emb = np.atleast_2d(np.asarray(test_emb, dtype=np.float64))
    D = cdist(test_emb, train_emb, "sqeuclidean")
    return np.asarray(train_labels)[np.argmin(D, axis=1)]


def one_pass_nn_errors_over_dims(train_emb, train_labels, test_emb, test_labels, m_values):
    m_values = sorted(set(m_values))
    want = set(m_values)
    D2 = np.zeros((test_emb.shape[0], train_emb.shape[0]))
    out = {}
    for m in range(1, m_values[-1] + 1):
        D2 += (test_emb[:, m - 1][:, None] - train_emb[None, :, m - 1]) ** 2
        if m in want:
            pred = train_labels[np.argmin(D2, axis=1)]
            out[m] = np.count_nonzero(pred != test_labels) / pred.size
    return out


def _should_preprocess(pca_mode, d):
    return pca_mode == "on" or (pca_mode == "auto" and d > PCA_PREPROCESS_DIM)


def per_fit_dimension_sweep(
    ds, algorithm, m_values, splits=5, train_fraction=0.5, params=None, seed=0, pca_mode="auto"
):
    params = params or {}
    m_values = sorted(set(int(m) for m in m_values))
    acc = {m: [] for m in m_values}
    for s in range(splits):
        tr, te = train_test_split(ds, train_fraction, seed * 1000 + s)
        if _should_preprocess(pca_mode, ds.d):
            tr, te, _ = pca_preprocess(tr, te)
        usable = [m for m in m_values if m <= tr.d]
        model = fit_algorithm(algorithm, tr, max(usable), params)
        errs = _nn_errors_over_dims(
            transform(model, tr.features), tr.labels,
            transform(model, te.features), te.labels, usable,
        )
        for m in usable:
            acc[m].append(1.0 - errs[m])
    return [(m, float(np.mean(acc[m]))) for m in m_values if acc[m]]


def per_fit_parameter_sweep(
    ds, algorithm, param, values, m, splits=5, train_fraction=0.5, base_params=None, seed=0,
    pca_mode="auto",
):
    base = dict(base_params or {})
    rows = []
    for value in values:
        errs = []
        for s in range(splits):
            tr, te = train_test_split(ds, train_fraction, seed * 1000 + s)
            if _should_preprocess(pca_mode, ds.d):
                tr, te, _ = pca_preprocess(tr, te)
            model = fit_algorithm(algorithm, tr, min(m, tr.d), {**base, param: value})
            pred = nn_classify(
                transform(model, tr.features), tr.labels, transform(model, te.features)
            )
            errs.append(error_rate(pred, te.labels))
        rows.append((value, float(1.0 - np.mean(errs))))
    return rows
