"""Seeded synthetic workloads, the calls the benchmark times, and their checks.

The UCI Vehicle and Semeion files behind the paper's experiments are not
in the repository, so every workload is generated.  Each class is a noisy,
curved, two-dimensional manifold (sine features of a uniform latent); all
classes are warped copies of one base manifold, a short distance apart,
so they overlap and the 1-NN test error lies strictly between 0 and
chance.  The program only ever sees the label-first CSV written from
these arrays and read back through ``mpda.load_dataset``.

Inputs depend on ``seed % N_DATA_SEEDS`` only: those are the seeds whose
outputs are recorded as the reference in ``refs/<workload>.json``.

Every call goes through mpda's public API, looked up on the module at call
time, so the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

N_DATA_SEEDS = 32
CSV_FORMAT = "%.8g"
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# eigenvalues may differ from the reference by this share of the largest
# reference eigenvalue: an exact reformulation of the solve (for example a
# Schur reduction) changes the last bits, not more
EIG_RTOL = 1e-9
# the generator keeps PMPDA's stacked dimension this far under the cap
STACKED_MARGIN = 0.9

TRAIN_FRACTION = 0.5
SPLIT_SEED = 0  # mpda.benchmark(seed=0) uses split seed 0 * 1000 + 0


@dataclass(frozen=True)
class Spec:
    """Shape of one generated dataset."""

    class_sizes: tuple[int, ...]
    d: int
    features: int  # dimension of the subspace the class manifolds share
    freq: float  # latent frequency of every feature: higher bends the manifold more
    warp: float  # per-class frequency perturbation: how unlike the classes are
    spread: float  # distance of each class centre from the origin
    noise: float  # isotropic noise std in every ambient dimension

    @property
    def n(self) -> int:
        return sum(self.class_sizes)

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)


SPECS = {
    # Vehicle-shaped (846x18, 4 classes, UCI class counts).  One benchmark
    # split with cross-validation over k, gamma and alpha: CV, and the
    # partitioner it re-runs for every grid combination, dominate the call;
    # the dense between-class graph costs little at 423 training rows.
    "vehicle-split": Spec(
        class_sizes=(212, 217, 218, 199), d=18, features=6,
        freq=2.0, warp=0.1, spread=0.4, noise=0.1,
    ),
    # 4000x50, 10 classes, split in half, fixed hyperparameters: one fit
    # dominated by kNN (run several times per fit) and the dense n x n
    # between-class graph, with no CV repetition for a cache to reuse.
    "large-fit": Spec(
        class_sizes=(400,) * 10, d=50, features=12,
        freq=2.0, warp=0.1, spread=0.5, noise=0.1,
    ),
    # Semeion-shaped (1593x256, 10 classes, UCI class counts).  The only
    # workload that parses a wide file and runs the 95%-energy PCA pass,
    # which keeps tens of columns; PMPDA's dense eigen-solve over ~800
    # per-point tangent spaces dominates and the partitioner never runs.
    # Noise is small next to the manifold, so the kept width and the
    # per-point tangent ranks (and with them the stacked dimension) stay
    # put from seed to seed and well under the solver's cap.
    "semeion-pmpda": Spec(
        class_sizes=(161, 162, 159, 159, 161, 159, 161, 158, 155, 158), d=256,
        features=40, freq=8.0, warp=0.1, spread=1.8, noise=0.03,
    ),
}


def data_seed(seed: int) -> int:
    return seed % N_DATA_SEEDS


def generate(name: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features and 1-based labels of workload ``name`` for ``seed``.

    Every class is a warped copy of one base manifold, shifted by ``spread``
    along its own direction, so the classes are nearby, nearly parallel
    sheets that the noise makes overlap.  Rows are shuffled so classes are
    interleaved as in a real file.
    """
    spec = SPECS[name]
    rng = np.random.default_rng([data_seed(seed), spec.n, spec.d])
    basis, _ = np.linalg.qr(rng.normal(size=(spec.d, spec.features)))
    centres, _ = np.linalg.qr(rng.normal(size=(spec.features, spec.n_classes)))
    # fixed frequencies, evenly spread in angle: the PCA spectrum of the
    # manifold, and with it the kept width and tangent ranks, does not
    # depend on the seed
    angle = np.pi * np.arange(spec.features) / spec.features
    freqs = spec.freq * np.stack([np.cos(angle), np.sin(angle)])
    phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.features)
    parts, labels = [], []
    for c, size in enumerate(spec.class_sizes, start=1):
        warp = rng.normal(scale=spec.warp, size=freqs.shape)
        latent = rng.uniform(-1.0, 1.0, size=(size, 2))
        curve = spec.spread * centres[:, c - 1] + np.sin(latent @ (freqs + warp) + phase)
        noise = rng.normal(scale=spec.noise, size=(size, spec.d))
        parts.append(curve @ basis.T + noise)
        labels.append(np.full(size, c, dtype=np.int64))
    X = np.concatenate(parts)
    y = np.concatenate(labels)
    order = rng.permutation(spec.n)
    X, y = X[order], y[order]
    if X.shape != (spec.n, spec.d) or np.unique(y).size != spec.n_classes:
        raise AssertionError(f"{name}: generated shape {X.shape} with {np.unique(y).size} classes")
    return X, y


def write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """Label-first CSV with a fixed number format (byte-identical per seed)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for label, row in zip(y, X):
            fh.write(str(int(label)) + "," + ",".join(CSV_FORMAT % v for v in row) + "\n")


def load_inputs(mpda, name: str, seed: int, work_dir: str):
    """Generate the workload's CSV under ``work_dir`` and load it through mpda."""
    X, y = generate(name, seed)
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"{name}-{data_seed(seed)}-{os.getpid()}.csv")
    write_csv(path, X, y)
    try:
        ds = mpda.load_dataset(path)
    finally:
        os.remove(path)
    spec = SPECS[name]
    if (ds.n, ds.d, ds.n_classes) != (spec.n, spec.d, spec.n_classes):
        raise AssertionError(f"{name}: loaded {ds.n}x{ds.d} with {ds.n_classes} classes")
    return ds


# --- the timed calls ----------------------------------------------------------


def _score(mpda, model, train, test) -> float:
    emb_train = mpda.transform(model, train.features)
    emb_test = mpda.transform(model, test.features)
    return mpda.error_rate(mpda.nn_classify(emb_train, train.labels, emb_test), test.labels)


def _split(mpda, ds):
    return mpda.train_test_split(ds, TRAIN_FRACTION, SPLIT_SEED)


def _benchmark_outputs(report) -> dict:
    return {
        "test_error": report.per_split_errors[0],
        "best_params": {**report.per_split_params[0], "m": report.per_split_m[0]},
    }


VEHICLE_GRID = {"k": [3, 7], "gamma": [0.1, 10.0], "alpha": [1e-3, 1e-2]}
VEHICLE_M = list(range(1, 19))
VEHICLE_FOLDS = 4


def vehicle_call(mpda, ds) -> dict:
    """One ``mpda.benchmark`` split, spelled out so the CV table is visible."""
    train, test = _split(mpda, ds)
    cv = mpda.cross_validate(
        train, "mpda", grid=VEHICLE_GRID, m_grid=VEHICLE_M, folds=VEHICLE_FOLDS, seed=SPLIT_SEED
    )
    params = {k: v for k, v in cv.best_params.items() if k != "m"}
    model = mpda.evaluation.fit_algorithm("mpda", train, int(cv.best_params["m"]), params)
    return {
        "test_error": _score(mpda, model, train, test),
        "best_params": cv.best_params,
        "cv_table": [[row["params"], row["m"], row["mean_accuracy"]] for row in cv.table],
        "eigenvalues": model.eigenvalues.tolist(),
    }


def vehicle_warmup(mpda, ds) -> dict:
    report = mpda.benchmark(
        ds, "mpda", splits=1, train_fraction=TRAIN_FRACTION, folds=VEHICLE_FOLDS,
        grid=VEHICLE_GRID, m_grid=VEHICLE_M, seed=0,
    )
    return _benchmark_outputs(report)


LARGE_PARAMS = {"k": 5, "kprime": 6, "max_patch": 10, "gamma": 1.0, "alpha": 1e-3}
LARGE_M = 10


def large_call(mpda, ds) -> dict:
    train, test = ds  # split once during set-up
    model = mpda.fit_mpda(train, m=LARGE_M, **LARGE_PARAMS)
    return {"test_error": _score(mpda, model, train, test), "eigenvalues": model.eigenvalues.tolist()}


SEMEION_PARAMS = {"k": 5, "gamma": 1.0, "alpha": 1e-3}
SEMEION_M = 10


def semeion_call(mpda, ds) -> dict:
    """One ``mpda.benchmark`` split with fixed parameters, spelled out."""
    train, test = _split(mpda, ds)
    train, test, _ = mpda.evaluation.pca_preprocess(train, test)
    m = min(SEMEION_M, train.d)
    model = mpda.evaluation.fit_algorithm("pmpda", train, m, SEMEION_PARAMS)
    out = {
        "test_error": _score(mpda, model, train, test),
        "best_params": {**SEMEION_PARAMS, "m": m},
        "eigenvalues": model.eigenvalues.tolist(),
        "pca_width": train.d,
    }
    if model.layout is not None:
        out["stacked_dim"] = model.layout.total
    return out


def semeion_warmup(mpda, ds) -> dict:
    report = mpda.benchmark(
        ds, "pmpda", splits=1, train_fraction=TRAIN_FRACTION,
        fixed_params=SEMEION_PARAMS, fixed_m=SEMEION_M, seed=0,
    )
    return _benchmark_outputs(report)


@dataclass(frozen=True)
class Workload:
    """How to set up, warm up and call one workload.

    ``prepare`` runs once after loading (untimed); ``warmup`` is the set-up
    call; ``call`` is what each timed call runs.
    """

    name: str
    prepare: Callable
    warmup: Callable
    call: Callable

    @property
    def n_train(self) -> int:
        """Training rows one call processes (the split rounds half up per class)."""
        return sum(int(np.floor(n * TRAIN_FRACTION + 0.5)) for n in SPECS[self.name].class_sizes)


WORKLOADS = {
    "vehicle-split": Workload("vehicle-split", lambda mpda, ds: ds, vehicle_warmup, vehicle_call),
    "large-fit": Workload("large-fit", _split, large_call, large_call),
    "semeion-pmpda": Workload("semeion-pmpda", lambda mpda, ds: ds, semeion_warmup, semeion_call),
}


# --- output checks ------------------------------------------------------------


def load_reference(name: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def as_recorded(value):
    """The value as it reads back from a reference file."""
    return json.loads(json.dumps(value))


def compare(outputs: dict, ref: dict) -> list[str]:
    """Mismatches between one call's outputs and its reference entry.

    Test error, best parameters, the CV table, the PCA width and the
    stacked dimension must match exactly; eigenvalues within ``EIG_RTOL``
    of the largest reference eigenvalue.  Only keys present in ``outputs``
    are compared.
    """
    problems = []
    for key in ("test_error", "best_params", "cv_table", "pca_width", "stacked_dim"):
        if key in outputs and as_recorded(outputs[key]) != ref[key]:
            problems.append(f"{key} differs from the reference")
    if "eigenvalues" in outputs:
        got = np.asarray(outputs["eigenvalues"], dtype=np.float64)
        want = np.asarray(ref["eigenvalues"], dtype=np.float64)
        if got.shape != want.shape:
            problems.append(f"{got.size} eigenvalues, reference has {want.size}")
        else:
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            if not err <= EIG_RTOL:
                problems.append(f"eigenvalues differ by {err:.3g} of the largest (tolerance {EIG_RTOL})")
    return problems


def invariants(mpda, name: str, outputs: dict) -> list[str]:
    """Invariants the generator promises for one workload call's outputs."""
    spec = SPECS[name]
    problems = []
    error = outputs["test_error"]
    chance = 1.0 - max(spec.class_sizes) / spec.n
    if not 0.0 < error < chance:
        problems.append(f"test error {error} not strictly between 0 and chance {chance:.3f}")
    if "pca_width" in outputs and not 10 <= outputs["pca_width"] < 100:
        problems.append(f"PCA kept {outputs['pca_width']} columns, not tens")
    cap = mpda.model.DEFAULT_TOTAL_CAP
    if outputs.get("stacked_dim", 0) >= STACKED_MARGIN * cap:
        problems.append(f"stacked dimension {outputs['stacked_dim']} not under {STACKED_MARGIN} x cap {cap}")
    return problems
