"""Benchmark harness: 1-NN scoring, cross-validation, repeated splits, sweeps.

Reproducibility contract
------------------------
* Fold assignment: ``dataset.class_permutations(labels, seed)``, the
  shuffle that train/test splits use, gives each class's rows in shuffled
  order; they are dealt round-robin over the folds (member j of the
  shuffled list goes to fold j mod folds).
* ``benchmark``, ``dimension_sweep`` and ``parameter_sweep`` share one
  split walk: split ``s`` (0-based) is the stratified split seeded
  ``split_seed = master_seed * 1000 + s``, followed by the optional PCA
  pass; ``benchmark`` seeds that split's CV folds with the same value.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .baselines import fit_lda, fit_pca
from .dataset import LabeledDataset, class_permutations, train_test_split
from .errors import (
    DegenerateFoldsError,
    DimensionMismatchError,
    EmptyTrainSetError,
    LengthMismatchError,
)
from .graph import KNN_BLOCK_ROWS, _finite
from .model import EmbeddingModel, fit_mpda, fit_pmpda, staged_fits, transform

# algorithm id -> fit(train, m, **params); the CLI reads its keywords after (train, m)
_FITS = {
    "mpda": fit_mpda, "pmpda": fit_pmpda, "lda": fit_lda,
    "pca": lambda train, m: fit_pca(train.features, m=m),
}
ALGORITHMS = tuple(_FITS)

# default hyperparameter grids for cross-validation; mpda and pmpda share one
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    **dict.fromkeys(("mpda", "pmpda"), {
        "k": [3, 5, 7, 10], "gamma": [1e-2, 1e-1, 1.0, 1e1, 1e2], "alpha": [1e-4, 1e-3, 1e-2],
    }),
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
    index.  This is ``_nn_labels`` at the full width: one ``cdist`` per
    block of ``KNN_BLOCK_ROWS`` test rows.  Raises ``ValueError`` on a
    non-finite embedding and ``LengthMismatchError`` unless there is one
    label per training row.
    """
    train_emb = np.atleast_2d(_finite(train_emb))
    test_emb = np.atleast_2d(_finite(test_emb))
    train_labels = np.asarray(train_labels)
    if train_emb.shape[0] == 0:
        raise EmptyTrainSetError("no training rows to classify against")
    if train_emb.shape[1] != test_emb.shape[1]:
        raise DimensionMismatchError("train and test embeddings differ in width")
    if train_labels.shape[:1] != train_emb.shape[:1]:
        raise LengthMismatchError("need one label per training row")
    return _nn_labels(train_emb, train_labels, test_emb, [train_emb.shape[1]])[0]


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
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for c, rows in class_permutations(labels, seed):
        if len(rows) < folds:
            raise DegenerateFoldsError(
                f"class {int(c)} has {len(rows)} members, fewer than {folds} folds"
            )
        fold_of[rows] = np.arange(len(rows)) % folds
    return fold_of


def fit_algorithm(algorithm: str, train: LabeledDataset, m: int, params: dict) -> EmbeddingModel:
    """Dispatch a fit by algorithm id; a name its fit does not take raises TypeError."""
    if algorithm not in _FITS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return _FITS[algorithm](train, m=m, **params)


def _nn_labels(
    train_emb: np.ndarray, train_labels: np.ndarray, test_emb: np.ndarray, widths: list[int]
) -> np.ndarray:
    """1-NN labels of the test rows on their first w columns, one row per w
    of the ascending ``widths``, in blocks of ``KNN_BLOCK_ROWS`` test rows
    (memory O(``KNN_BLOCK_ROWS`` n_train)).  A block's squared distances are
    one ``cdist`` at the first width, then each later column's squares added
    in column order, ``cdist``'s own sum: every width's distances, and its
    ties to the lowest training index, are those of its full ``cdist``."""
    nearest = np.empty((len(widths), test_emb.shape[0]), dtype=np.intp)
    for start in range(0, test_emb.shape[0], KNN_BLOCK_ROWS):
        block = test_emb[start : start + KNN_BLOCK_ROWS]
        D2 = cdist(block[:, : widths[0]], train_emb[:, : widths[0]], "sqeuclidean")
        sq = np.empty_like(D2) if len(widths) > 1 else None
        for i, w in enumerate(widths):
            for c in range(widths[max(i - 1, 0)], w):
                np.subtract(block[:, c, None], train_emb[None, :, c], out=sq)
                np.multiply(sq, sq, out=sq)
                D2 += sq
            nearest[i, start : start + KNN_BLOCK_ROWS] = np.argmin(D2, axis=1)
        del D2, sq  # free this block's rows before the next block's cdist
    return train_labels[nearest]


def _nn_errors_over_dims(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
    test_labels: np.ndarray,
    m_values: list[int],
) -> dict[int, float]:
    """1-NN error at every width in ``m_values``: ``_nn_labels``' mismatches
    per width over the row count, as ``error_rate`` divides them."""
    m_values = sorted(set(m_values))
    labels = _nn_labels(train_emb, train_labels, test_emb, m_values)
    wrong = np.count_nonzero(labels != test_labels, axis=1).tolist()
    return {m: w / test_emb.shape[0] for m, w in zip(m_values, wrong)}


def _grid_combos(grid: dict[str, list]) -> list[dict]:
    """Expand a grid dict into combos, preserving key and value order.

    Raises ``ValueError`` naming an axis that has no values.
    """
    empty = [k for k, v in grid.items() if len(v) == 0]
    if empty:
        raise ValueError(f"grid axis {empty[0]!r} has no values")
    keys = list(grid.keys())
    return [dict(zip(keys, vals)) for vals in itertools.product(*(grid[k] for k in keys))]


@dataclass
class CVResult:
    best_params: dict  # includes "m"
    best_accuracy: float
    table: list[dict] = field(default_factory=list)  # rows: params, m, mean_accuracy


def _held_out_errors(
    algorithm: str,
    tr: LabeledDataset,
    va: LabeledDataset,
    combos: list[dict],
    m_grid: list[int],
) -> list[dict[int, float]]:
    """1-NN error on ``va`` at every m in ``m_grid`` of each combo fitted on ``tr``.

    ``va`` is a CV fold's validation part or a split's test set.
    """
    m_max = max(m_grid)
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
    (kprime, max_patch, energy), PMPDA's per-point bases once per
    (k, energy), the k-NN graphs once per k, the between form and the
    within form's parts S_diff, S_tan once per (k, bases),
    each gamma one sparse sum S_diff + gamma * S_tan, and only the
    eigen-solve once per combination.  Each stage computes exactly what a
    separate fit of that combination computes, so the table is the same as
    fitting every combination from scratch.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if grid is None:
        grid = DEFAULT_GRIDS[algorithm]
    if m_grid is None:
        m_grid = default_m_grid(algorithm, train)
    m_grid = sorted(set(int(m) for m in m_grid))
    if not m_grid or m_grid[0] < 1 or m_grid[-1] > train.d:
        raise ValueError(f"m grid must be non-empty and lie within 1..{train.d}")
    fold_of = stratified_folds(train.labels, folds, seed)
    combos = _grid_combos(grid)
    acc = [{m: [] for m in m_grid} for _ in combos]
    for f in range(folds):
        tr = train.subset(np.flatnonzero(fold_of != f))
        va = train.subset(np.flatnonzero(fold_of == f))
        for a, errs in zip(acc, _held_out_errors(algorithm, tr, va, combos, m_grid)):
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
    train: LabeledDataset, test: LabeledDataset
) -> tuple[LabeledDataset, LabeledDataset, EmbeddingModel]:
    """Project both sets onto the training PCA directions holding ``PCA_PREPROCESS_ENERGY``."""
    pca = fit_pca(train.features, energy=PCA_PREPROCESS_ENERGY)
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
    stage_seconds: dict[str, float]  # per stage, summed over splits; parts of wall_seconds
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
            **asdict(self),
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "mean_dimensionality": self.mean_m,
        }

    def csv_rows(self) -> list[tuple]:
        rows = [("split", "error", "m")]
        rows += [
            (s, self.per_split_errors[s], self.per_split_m[s])
            for s in range(len(self.per_split_errors))
        ]
        return rows


def _split_walk(ds: LabeledDataset, splits: int, train_fraction: float, seed: int, pca_mode: str):
    """Yield ``(split_seed, train, test, (split_s, preprocess_s))`` per split.

    Split s is the stratified split seeded ``seed * 1000 + s``, then the
    optional PCA pass (``pca_mode`` "on", "off", or "auto": only wider than
    ``PCA_PREPROCESS_DIM``); the pair times those two steps.  Raises
    ``ValueError`` on the first step unless splits >= 1 and the mode is
    one of the three.
    """
    if splits < 1:
        raise ValueError(f"splits must be at least 1, got {splits}")
    if pca_mode not in ("auto", "on", "off"):
        raise ValueError(f"unknown pca_mode {pca_mode!r}")
    for s in range(splits):
        split_seed = seed * 1000 + s
        t0 = time.perf_counter()
        tr, te = train_test_split(ds, train_fraction, split_seed)
        t1 = time.perf_counter()
        if pca_mode == "on" or (pca_mode == "auto" and ds.d > PCA_PREPROCESS_DIM):
            tr, te, _ = pca_preprocess(tr, te)
        yield split_seed, tr, te, (t1 - t0, time.perf_counter() - t1)


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
) -> BenchmarkReport:
    """Repeated-split evaluation of one algorithm under the standard protocol.

    Each split: stratified train/test split, optional 95%-energy PCA pass
    for wide data, hyperparameter selection by stratified CV (skipped when
    ``fixed_params``/``fixed_m`` pin everything), a final fit on the full
    training set, then 1-NN error on the test embedding.

    Splits run one after another, so the per-stage ``stage_seconds`` sum
    to at most ``wall_seconds``.
    """
    start = time.perf_counter()
    stages = ("split", "preprocess", "cv", "fit", "score")
    timings = dict.fromkeys(stages, 0.0)
    errors, ms, chosen, dims = [], [], [], []
    for split_seed, tr, te, walk_seconds in _split_walk(ds, splits, train_fraction, seed, pca_mode):
        t2 = time.perf_counter()
        if fixed_params is not None and fixed_m is not None:
            params, m = dict(fixed_params), min(int(fixed_m), tr.d)
        else:
            cv = cross_validate(
                tr,
                algorithm,
                grid=grid if fixed_params is None else {k: [v] for k, v in fixed_params.items()},
                m_grid=[min(fixed_m, tr.d)] if fixed_m is not None else (
                    None if m_grid is None else [mm for mm in m_grid if mm <= tr.d]
                ),
                folds=folds,
                seed=split_seed,
            )
            params = {kk: vv for kk, vv in cv.best_params.items() if kk != "m"}
            m = int(cv.best_params["m"])
        t3 = time.perf_counter()
        model = fit_algorithm(algorithm, tr, m, params)
        t4 = time.perf_counter()
        pred = nn_classify(transform(model, tr.features), tr.labels, transform(model, te.features))
        errors.append(error_rate(pred, te.labels))
        t5 = time.perf_counter()
        ms.append(m)
        chosen.append(params)
        dims.append(tr.d)
        for key, dt in zip(stages, (*walk_seconds, t3 - t2, t4 - t3, t5 - t4)):
            timings[key] += dt
    return BenchmarkReport(
        algorithm=algorithm,
        splits=splits,
        train_fraction=train_fraction,
        folds=folds,
        master_seed=seed,
        per_split_errors=errors,
        per_split_m=ms,
        per_split_params=chosen,
        stage_seconds={k: round(v, 6) for k, v in timings.items()},
        preprocessed_dim=dims,
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
    """Mean 1-NN accuracy per embedding width, averaged over repeated splits.

    Each split fits once at the largest width it can hold and scores every
    smaller width by truncation.  Widths above a split's width (its column
    count after the optional PCA pass) are dropped for that split, and a
    width no split holds is left out of the result; a split that holds none
    of the widths raises ``ValueError``.
    """
    m_values = sorted(set(int(m) for m in m_values))
    if not m_values:
        raise ValueError("no widths requested")
    if m_values[0] < 1:
        raise ValueError(f"widths must be at least 1, got {m_values}")
    acc: dict[int, list[float]] = {m: [] for m in m_values}
    for _, tr, te, _ in _split_walk(ds, splits, train_fraction, seed, pca_mode):
        usable = [m for m in m_values if m <= tr.d]
        if not usable:
            raise ValueError(f"no requested width {m_values} fits the split's width {tr.d}")
        (errs,) = _held_out_errors(algorithm, tr, te, [params or {}], usable)
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
    """Mean 1-NN accuracy as one hyperparameter varies, all else fixed.

    Each split fits every value in one pass, so for ``mpda`` and ``pmpda``
    the stages a value does not read (the partition, bases and graphs for
    a gamma or alpha sweep) run once per split, as in cross-validation.
    """
    combos = [{**(base_params or {}), **combo} for combo in _grid_combos({param: values})]
    errs: list[list[float]] = [[] for _ in values]
    for _, tr, te, _ in _split_walk(ds, splits, train_fraction, seed, pca_mode):
        width = min(m, tr.d)
        for e, by_m in zip(errs, _held_out_errors(algorithm, tr, te, combos, [width])):
            e.append(by_m[width])
    return [(value, float(1.0 - np.mean(e))) for value, e in zip(values, errs)]
