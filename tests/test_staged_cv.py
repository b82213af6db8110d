"""Staged cross-validation against the loop that refits every grid combination."""

from unittest import mock

import numpy as np
import pytest
from conftest import curved_classes
from hypothesis import given, settings
from hypothesis import strategies as st

from mpda.dataset import LabeledDataset
from mpda.evaluation import (
    CVResult,
    _grid_combos,
    _nn_errors_over_dims,
    cross_validate,
    fit_algorithm,
    stratified_folds,
)
from mpda.model import transform


def per_combo_cross_validate(train, algorithm, grid, m_grid, folds=4, seed=0):
    """Oracle: every combination fitted from scratch on every fold (the former loop)."""
    m_grid = sorted(set(int(m) for m in m_grid))
    fold_of = stratified_folds(train.labels, folds, seed)
    m_max = m_grid[-1]

    def eval_combo(params):
        acc = {m: [] for m in m_grid}
        for f in range(folds):
            tr = train.subset(np.flatnonzero(fold_of != f))
            va = train.subset(np.flatnonzero(fold_of == f))
            model = fit_algorithm(algorithm, tr, m_max, params)
            tr_emb = transform(model, tr.features)
            va_emb = transform(model, va.features)
            errs = _nn_errors_over_dims(tr_emb, tr.labels, va_emb, va.labels, m_grid)
            for m in m_grid:
                acc[m].append(1.0 - errs[m])
        return [
            {"params": params, "m": m, "mean_accuracy": float(np.mean(acc[m]))}
            for m in m_grid
        ]

    table = [row for combo in _grid_combos(grid) for row in eval_combo(combo)]
    best = max(table, key=lambda r: r["mean_accuracy"])
    return CVResult(
        best_params={**best["params"], "m": best["m"]},
        best_accuracy=best["mean_accuracy"],
        table=table,
    )


CORE_GRID = {"k": [2, 5], "gamma": [0.0, 0.5, 10.0], "alpha": [1e-3, 1e-1]}
GRIDS = {
    "mpda": [
        CORE_GRID,
        {
            "k": [3, 6], "kprime": [2, 4], "max_patch": [3, 8], "energy": [0.8, 1.0],
            "gamma": [1.0], "alpha": [1e-2],
        },
    ],
    "pmpda": [
        CORE_GRID,
        {"k": [3, 6], "energy": [0.8, 1.0], "gamma": [0.1, 2.0], "alpha": [1e-2]},
    ],
}
CASES = [(algo, i) for algo, grids in GRIDS.items() for i in range(len(grids))]


@pytest.mark.parametrize("folds", [3, 4])
@pytest.mark.parametrize("algorithm,grid_index", CASES)
def test_staged_cv_equals_per_combo_refits(rng, algorithm, grid_index, folds):
    ds = curved_classes(rng)
    grid = GRIDS[algorithm][grid_index]
    staged = cross_validate(ds, algorithm, grid=grid, m_grid=[1, 2, 4], folds=folds, seed=7)
    oracle = per_combo_cross_validate(ds, algorithm, grid, [1, 2, 4], folds=folds, seed=7)
    assert staged.table == oracle.table
    assert staged.best_params == oracle.best_params
    assert staged.best_accuracy == oracle.best_accuracy


@st.composite
def tiny_cv_problems(draw):
    """Small sets whose smallest class has one member per fold, k at or past class sizes.

    Optional duplicated rows make coincident points inside a fold.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    folds = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(folds, folds + 3), min_size=2, max_size=3))
    sizes[0] = folds  # every fold holds exactly one member of class 1
    d = draw(st.integers(2, 4))
    X = rng.normal(size=(sum(sizes), d))
    y = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    n_dup = draw(st.integers(0, 2))
    if n_dup:
        src = rng.integers(0, len(X), size=n_dup)
        X, y = np.vstack([X, X[src]]), np.concatenate([y, y[src]])
    k_low = draw(st.integers(1, max(sizes)))
    ks = sorted({k_low, draw(st.integers(min(sizes), len(X)))})  # one k >= a class size
    return LabeledDataset(X, y), folds, ks, d


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    problem=tiny_cv_problems(),
    algorithm=st.sampled_from(["mpda", "pmpda"]),
)
def test_staged_cv_equals_per_combo_on_tiny_folds(problem, algorithm):
    ds, folds, ks, d = problem
    grid = {"k": ks, "gamma": [0.0, 1.0], "alpha": [1e-3, 1.0]}
    if algorithm == "mpda":
        grid.update(kprime=[1, 3], max_patch=[2])
    m_grid = list(range(1, d + 1))
    staged = cross_validate(ds, algorithm, grid=grid, m_grid=m_grid, folds=folds, seed=3)
    oracle = per_combo_cross_validate(ds, algorithm, grid, m_grid, folds=folds, seed=3)
    assert staged.table == oracle.table
    assert staged.best_params == oracle.best_params


def test_staged_cv_partitions_once_per_fold_and_class(rng, monkeypatch):
    import mpda.model
    from mpda.partition import partition_classes

    calls = []

    def counting(blocks, *args, **kwargs):
        calls.append(len(blocks))
        return partition_classes(blocks, *args, **kwargs)

    monkeypatch.setattr(mpda.model, "partition_classes", counting)
    ds = curved_classes(rng)
    cross_validate(ds, "mpda", grid=CORE_GRID, m_grid=[1], folds=4, seed=0)
    # one call per fold covering its 3 classes, not one per 12 grid combinations
    assert calls == [3] * 4


@pytest.mark.parametrize("algorithm,grid_index", CASES)
def test_staged_cv_assembles_within_once_per_k_and_bases(rng, algorithm, grid_index):
    import mpda.model

    ds = curved_classes(rng)
    grid = {**GRIDS[algorithm][grid_index], "alpha": [1e-3, 1e-1]}
    folds = 4
    within = mock.patch.object(mpda.model, "assemble_within", wraps=mpda.model.assemble_within)
    solve = mock.patch.object(mpda.model, "solve_gep", wraps=mpda.model.solve_gep)
    with within as within_spy, solve as solve_spy:
        cross_validate(ds, algorithm, grid=grid, m_grid=[1, 2], folds=folds, seed=0)
    combos = _grid_combos(grid)
    # the grid's names other than k, gamma and alpha key the bases stage;
    # gamma only weighs the second part of the within form
    within_inputs = {
        (c["k"], tuple(v for n, v in c.items() if n not in ("k", "gamma", "alpha"))) for c in combos
    }
    assert within_spy.call_count == folds * len(within_inputs)  # folds x k x bases
    assert solve_spy.call_count == folds * len(combos)
