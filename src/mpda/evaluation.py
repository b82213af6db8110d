"""Benchmark harness: 1-NN scoring, cross-validation, repeated splits, sweeps.

Reproducibility contract
------------------------
* Fold assignment: classes are visited in ascending label order; each
  class's ascending row indices are shuffled by one
  ``numpy.random.default_rng(seed).permutation`` call and dealt round-robin
  over the folds (member j of the shuffled list goes to fold j mod folds).
* ``benchmark`` expands its master seed into per-split seeds as
  ``split_seed = master_seed * 1000 + split_index`` (0-based); the same
  value seeds that split's CV folds.  Parallel execution over splits
  never changes any reported number.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .baselines import fit_lda, fit_pca
from .dataset import LabeledDataset, train_test_split
from .errors import (
    DegenerateFoldsError,
    DimensionMismatchError,
    EmptyTrainSetError,
    LengthMismatchError,
)
from .model import EmbeddingModel, fit_mpda, fit_pmpda, staged_fits, transform

ALGORITHMS = ("mpda", "pmpda", "lda", "pca")

# default hyperparameter grids for cross-validation
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "mpda": {"k": [3, 5, 7, 10], "gamma": [1e-2, 1e-1, 1.0, 1e1, 1e2], "alpha": [1e-4, 1e-3, 1e-2]},
    "pmpda": {"k": [3, 5, 7, 10], "gamma": [1e-2, 1e-1, 1.0, 1e1, 1e2], "alpha": [1e-4, 1e-3, 1e-2]},
    "lda": {},
    "pca": {},
}

PCA_PREPROCESS_DIM = 100  # datasets wider than this get a 95%-energy PCA pass
PCA_PREPROCESS_ENERGY = 0.95


def nn_classify(
    train_emb: np.ndarray, train_labels: np.ndarray, test_emb: np.ndarray
) -> np.ndarray:
    """Label of the single nearest training row per test row.

    Euclidean metric; exact distance ties resolve to the lowest training
    index.
    """
    train_emb = np.atleast_2d(np.asarray(train_emb, dtype=np.float64))
    test_emb = np.atleast_2d(np.asarray(test_emb, dtype=np.float64))
    train_labels = np.asarray(train_labels)
    if train_emb.shape[0] == 0:
        raise EmptyTrainSetError("no training rows to classify against")
    if train_emb.shape[1] != test_emb.shape[1]:
        raise DimensionMismatchError("train and test embeddings differ in width")
    D = cdist(test_emb, train_emb, "sqeuclidean")
    return train_labels[np.argmin(D, axis=1)]


def error_rate(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise LengthMismatchError("prediction and truth lengths differ")
    return float(np.mean(pred != truth))


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold id per row by the round-robin procedure in the module docstring."""
    labels = np.asarray(labels)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < folds:
            raise DegenerateFoldsError(
                f"class {int(c)} has {len(idx)} members, fewer than {folds} folds"
            )
        perm = rng.permutation(len(idx))
        fold_of[idx[perm]] = np.arange(len(idx)) % folds
    return fold_of


def fit_algorithm(algorithm: str, train: LabeledDataset, m: int, params: dict) -> EmbeddingModel:
    """Dispatch a fit by algorithm id with keyword hyperparameters."""
    if algorithm == "mpda":
        return fit_mpda(train, m=m, **params)
    if algorithm == "pmpda":
        return fit_pmpda(train, m=m, **params)
    if algorithm == "lda":
        return fit_lda(train, m=m)
    if algorithm == "pca":
        return fit_pca(train.features, m=m)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _nn_errors_over_dims(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
    test_labels: np.ndarray,
    m_values: list[int],
) -> dict[int, float]:
    """1-NN error for every prefix width in ``m_values`` (one distance pass).

    Squared distances accumulate column by column, so evaluating a whole
    m-grid costs the same as one full-width scan.
    """
    m_values = sorted(set(m_values))
    want = set(m_values)
    D2 = np.zeros((test_emb.shape[0], train_emb.shape[0]))
    out: dict[int, float] = {}
    for m in range(1, m_values[-1] + 1):
        D2 += (test_emb[:, m - 1][:, None] - train_emb[None, :, m - 1]) ** 2
        if m in want:
            pred = train_labels[np.argmin(D2, axis=1)]
            out[m] = error_rate(pred, test_labels)
    return out


def _grid_combos(grid: dict[str, list]) -> list[dict]:
    """Expand a grid dict into combos, preserving key and value order."""
    if not grid:
        return [{}]
    keys = list(grid.keys())
    return [dict(zip(keys, vals)) for vals in itertools.product(*(grid[k] for k in keys))]


@dataclass
class CVResult:
    best_params: dict  # includes "m"
    best_accuracy: float
    table: list[dict] = field(default_factory=list)  # rows: params, m, mean_accuracy


def _fold_errors(
    algorithm: str,
    tr: LabeledDataset,
    va: LabeledDataset,
    combos: list[dict],
    m_grid: list[int],
) -> list[dict[int, float]]:
    """Validation error at every m in ``m_grid`` of each combo fitted on one fold."""
    m_max = m_grid[-1]
    if algorithm in ("mpda", "pmpda"):
        fits = staged_fits(algorithm, tr, m_max, combos)
    else:
        fits = ((i, fit_algorithm(algorithm, tr, m_max, p)) for i, p in enumerate(combos))
    out: list = [None] * len(combos)
    for i, model in fits:
        out[i] = _nn_errors_over_dims(
            transform(model, tr.features), tr.labels, transform(model, va.features), va.labels, m_grid
        )
    return out


def cross_validate(
    train: LabeledDataset,
    algorithm: str,
    grid: dict[str, list] | None = None,
    m_grid: list[int] | None = None,
    folds: int = 4,
    seed: int = 0,
) -> CVResult:
    """Pick hyperparameters (and the embedding width m) by stratified CV.

    Every grid combination is fitted once per fold at the largest m and
    evaluated at every m by truncation; mean validation accuracy decides.
    Ties keep the earliest grid combination, then the smallest m.

    For ``mpda`` and ``pmpda`` each fold fits the whole grid through
    ``model.staged_fits``, which runs every fit stage once per distinct
    input it reads: the partition and its tangent bases once per
    (kprime, max_patch, energy, approximate_partition), PMPDA's per-point
    bases once per (k, energy), the k-NN graphs once per k, the
    between-class form once per (k, bases), the within-class form once per
    (k, bases, gamma), and only the eigen-solve once per combination.  Each
    stage computes exactly what a separate fit of that combination
    computes, so the table is the same as fitting every combination from
    scratch.
    """
    if grid is None:
        grid = DEFAULT_GRIDS[algorithm]
    if m_grid is None:
        m_grid = default_m_grid(algorithm, train)
    m_grid = sorted(set(int(m) for m in m_grid))
    if m_grid[0] < 1 or m_grid[-1] > train.d:
        raise ValueError("m grid must lie within 1..d")
    fold_of = stratified_folds(train.labels, folds, seed)
    combos = _grid_combos(grid)
    acc = [{m: [] for m in m_grid} for _ in combos]
    for f in range(folds):
        tr = train.subset(np.flatnonzero(fold_of != f))
        va = train.subset(np.flatnonzero(fold_of == f))
        for a, errs in zip(acc, _fold_errors(algorithm, tr, va, combos, m_grid)):
            for m in m_grid:
                a[m].append(1.0 - errs[m])
    table = [
        {"params": params, "m": m, "mean_accuracy": float(np.mean(a[m]))}
        for params, a in zip(combos, acc)
        for m in m_grid
    ]

    best = max(table, key=lambda r: r["mean_accuracy"])
    # ties keep first in grid order (max returns the first maximal row)
    return CVResult(
        best_params={**best["params"], "m": best["m"]},
        best_accuracy=best["mean_accuracy"],
        table=table,
    )


def default_m_grid(algorithm: str, train: LabeledDataset) -> list[int]:
    """Sweep 1..min(d, 60); LDA caps at the class count minus one."""
    top = min(train.d, 60)
    if algorithm == "lda":
        top = min(top, max(int(len(np.unique(train.labels))) - 1, 1))
    return list(range(1, top + 1))


def pca_preprocess(
    train: LabeledDataset, test: LabeledDataset, energy: float = PCA_PREPROCESS_ENERGY
) -> tuple[LabeledDataset, LabeledDataset, EmbeddingModel]:
    """Project both sets onto the training PCA directions holding ``energy``."""
    pca = fit_pca(train.features, energy=energy)
    tr = LabeledDataset(transform(pca, train.features), train.labels, dict(train.label_names))
    te = LabeledDataset(transform(pca, test.features), test.labels, dict(test.label_names))
    return tr, te, pca


@dataclass
class BenchmarkReport:
    algorithm: str
    splits: int
    train_fraction: float
    folds: int
    master_seed: int
    per_split_errors: list[float]
    per_split_m: list[int]
    per_split_params: list[dict]
    stage_seconds: dict[str, float]  # per stage, summed over splits (thread time)
    preprocessed_dim: list[int]
    wall_seconds: float  # elapsed time of the whole run

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.per_split_errors))

    @property
    def std_error(self) -> float:
        return float(np.std(self.per_split_errors))

    @property
    def mean_m(self) -> float:
        """Fractional mean of the per-split chosen dimensionalities."""
        return float(np.mean(self.per_split_m))

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "splits": self.splits,
            "train_fraction": self.train_fraction,
            "folds": self.folds,
            "master_seed": self.master_seed,
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "mean_dimensionality": self.mean_m,
            "per_split_errors": self.per_split_errors,
            "per_split_m": self.per_split_m,
            "per_split_params": self.per_split_params,
            "stage_seconds": self.stage_seconds,
            "wall_seconds": self.wall_seconds,
            "preprocessed_dim": self.preprocessed_dim,
        }

    def csv_rows(self) -> list[tuple]:
        rows = [("split", "error", "m")]
        rows += [
            (s, self.per_split_errors[s], self.per_split_m[s])
            for s in range(len(self.per_split_errors))
        ]
        return rows


def _should_preprocess(mode: str, d: int) -> bool:
    if mode == "on":
        return True
    if mode == "off":
        return False
    return d > PCA_PREPROCESS_DIM


def benchmark(
    ds: LabeledDataset,
    algorithm: str,
    splits: int = 20,
    train_fraction: float = 0.5,
    folds: int = 4,
    grid: dict[str, list] | None = None,
    m_grid: list[int] | None = None,
    fixed_params: dict | None = None,
    fixed_m: int | None = None,
    seed: int = 0,
    pca_mode: str = "auto",
    jobs: int = 1,
) -> BenchmarkReport:
    """Repeated-split evaluation of one algorithm under the standard protocol.

    Each split: stratified train/test split, optional 95%-energy PCA pass
    for wide data, hyperparameter selection by stratified CV (skipped when
    ``fixed_params``/``fixed_m`` pin everything), a final fit on the full
    training set, then 1-NN error on the test embedding.

    ``stage_seconds`` sums each stage's time over the splits, so with
    ``jobs > 1`` it counts thread time and can exceed ``wall_seconds``.
    """
    start = time.perf_counter()
    timings = {"split": 0.0, "preprocess": 0.0, "cv": 0.0, "fit": 0.0, "score": 0.0}

    def run_split(s: int) -> dict:
        local = {}
        split_seed = seed * 1000 + s
        t0 = time.perf_counter()
        tr, te = train_test_split(ds, train_fraction, split_seed)
        t1 = time.perf_counter()
        if _should_preprocess(pca_mode, ds.d):
            tr, te, _ = pca_preprocess(tr, te)
        t2 = time.perf_counter()
        if fixed_params is not None and fixed_m is not None:
            params, m = dict(fixed_params), min(int(fixed_m), tr.d)
            best_table = []
        else:
            cv = cross_validate(
                tr,
                algorithm,
                grid=grid if fixed_params is None else {k: [v] for k, v in fixed_params.items()},
                m_grid=[min(fixed_m, tr.d)] if fixed_m is not None else (
                    [mm for mm in (m_grid or default_m_grid(algorithm, tr)) if mm <= tr.d]
                ),
                folds=folds,
                seed=split_seed,
            )
            params = {kk: vv for kk, vv in cv.best_params.items() if kk != "m"}
            m = int(cv.best_params["m"])
            best_table = cv.table
        t3 = time.perf_counter()
        model = fit_algorithm(algorithm, tr, m, params)
        t4 = time.perf_counter()
        pred = nn_classify(transform(model, tr.features), tr.labels, transform(model, te.features))
        err = error_rate(pred, te.labels)
        t5 = time.perf_counter()
        local.update(
            error=err, m=m, params=params, dim=tr.d,
            times=(t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4), table=best_table,
        )
        return local

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_split, range(splits)))
    else:
        results = [run_split(s) for s in range(splits)]

    for r in results:
        for key, dt in zip(("split", "preprocess", "cv", "fit", "score"), r["times"]):
            timings[key] += dt
    return BenchmarkReport(
        algorithm=algorithm,
        splits=splits,
        train_fraction=train_fraction,
        folds=folds,
        master_seed=seed,
        per_split_errors=[r["error"] for r in results],
        per_split_m=[r["m"] for r in results],
        per_split_params=[r["params"] for r in results],
        stage_seconds={k: round(v, 6) for k, v in timings.items()},
        preprocessed_dim=[r["dim"] for r in results],
        wall_seconds=round(time.perf_counter() - start, 6),
    )


def dimension_sweep(
    ds: LabeledDataset,
    algorithm: str,
    m_values: list[int],
    splits: int = 5,
    train_fraction: float = 0.5,
    params: dict | None = None,
    seed: int = 0,
    pca_mode: str = "auto",
) -> list[tuple[int, float]]:
    """Mean 1-NN accuracy per embedding width, averaged over repeated splits."""
    params = params or {}
    m_values = sorted(set(int(m) for m in m_values))
    acc: dict[int, list[float]] = {m: [] for m in m_values}
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


def parameter_sweep(
    ds: LabeledDataset,
    algorithm: str,
    param: str,
    values: list,
    m: int,
    splits: int = 5,
    train_fraction: float = 0.5,
    base_params: dict | None = None,
    seed: int = 0,
    pca_mode: str = "auto",
) -> list[tuple[float, float]]:
    """Mean 1-NN accuracy as one hyperparameter varies, all else fixed."""
    base = dict(base_params or {})
    rows = []
    for value in values:
        errs = []
        for s in range(splits):
            tr, te = train_test_split(ds, train_fraction, seed * 1000 + s)
            if _should_preprocess(pca_mode, ds.d):
                tr, te, _ = pca_preprocess(tr, te)
            params = {**base, param: value}
            model = fit_algorithm(algorithm, tr, min(m, tr.d), params)
            pred = nn_classify(
                transform(model, tr.features), tr.labels, transform(model, te.features)
            )
            errs.append(error_rate(pred, te.labels))
        rows.append((value, float(1.0 - np.mean(errs))))
    return rows
