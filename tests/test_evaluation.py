import tracemalloc

import numpy as np
import pytest
from conftest import curved_classes
from evaluation_oracles import (
    full_matrix_nn_classify,
    one_pass_nn_errors_over_dims,
    per_fit_dimension_sweep,
    per_fit_parameter_sweep,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import mpda.evaluation
from mpda.dataset import LabeledDataset
from mpda.errors import (
    DegenerateFoldsError,
    DimensionMismatchError,
    EmptyTrainSetError,
    LengthMismatchError,
)
from mpda.baselines import fit_lda, fit_pca
from mpda.evaluation import (
    _nn_errors_over_dims,
    _nn_labels,
    benchmark,
    cross_validate,
    dimension_sweep,
    error_rate,
    fit_algorithm,
    nn_classify,
    parameter_sweep,
    stratified_folds,
)
from mpda.model import fit_mpda, fit_pmpda


def two_gaussians(rng, n_per=30, d=4, gap=8.0):
    X = np.vstack([rng.normal(0, 1, size=(n_per, d)), rng.normal(gap, 1, size=(n_per, d))])
    y = np.array([1] * n_per + [2] * n_per)
    return LabeledDataset(X, y)


def test_nn_exact_match_wins():
    train = np.array([[0.0, 0.0], [5.0, 5.0]])
    labels = np.array([1, 2])
    pred = nn_classify(train, labels, np.array([[5.0, 5.0]]))
    assert pred[0] == 2


def test_nn_tie_prefers_lower_index():
    train = np.array([[0.0], [2.0]])
    labels = np.array([7, 9])
    pred = nn_classify(train, labels, np.array([[1.0]]))
    assert pred[0] == 7


def test_nn_matches_brute_force_scan(rng):
    train = rng.normal(size=(40, 3))
    labels = rng.integers(1, 4, size=40)
    test = rng.normal(size=(20, 3))
    pred = nn_classify(train, labels, test)
    for i in range(20):
        dists = [np.linalg.norm(test[i] - train[j]) for j in range(40)]
        assert pred[i] == labels[int(np.argmin(dists))]


def test_nn_errors():
    with pytest.raises(EmptyTrainSetError):
        nn_classify(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)))
    with pytest.raises(DimensionMismatchError):
        nn_classify(np.zeros((2, 2)), np.array([1, 2]), np.zeros((1, 3)))


@pytest.mark.parametrize("n_labels", [4, 10])
def test_nn_needs_one_label_per_training_row(rng, n_labels):
    with pytest.raises(LengthMismatchError):
        nn_classify(rng.normal(size=(6, 2)), np.arange(n_labels), rng.normal(size=(3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["train", "test"])
def test_nn_rejects_non_finite_embeddings(rng, bad, side):
    train, test = rng.normal(size=(6, 2)), rng.normal(size=(3, 2))
    (train if side == "train" else test)[1, 0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        nn_classify(train, np.arange(6), test)


@st.composite
def scorer_inputs(draw, max_test=10):
    """Train and test rows of width 1-12: a small integer grid (exact ties)
    or Gaussian, rows drawn with repeats (duplicates), offset by 0 or ~1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n_tr, n_te = draw(st.integers(1, 12)), draw(st.integers(1, 15)), draw(st.integers(1, max_test))
    if draw(st.booleans()):
        rows = rng.integers(-2, 3, size=(n_tr + n_te, d)).astype(np.float64)
    else:
        rows = rng.normal(size=(n_tr + n_te, d))
    if draw(st.booleans()):
        rows = rows[rng.integers(0, n_tr + n_te, size=n_tr + n_te)]
    rows += draw(st.sampled_from([0.0, 1e8, -1e8 + 0.25]))
    return rows[:n_tr], rng.integers(1, 4, size=n_tr), rows[n_tr:], rng.integers(1, 4, size=n_te)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scorer_inputs())
def test_prefix_scorer_agrees_with_nn_classify(case):
    # cross-validation scores widths with the prefix scorer; benchmark and
    # the final score use nn_classify: both must give the same errors
    tr, ytr, te, yte = case
    widths = list(range(1, tr.shape[1] + 1))
    errs = _nn_errors_over_dims(tr, ytr, te, yte, widths)
    for m in widths:
        assert errs[m] == error_rate(nn_classify(tr[:, :m], ytr, te[:, :m]), yte)
    # one label per training row: a zero error means both pick the same row,
    # ties included
    ids = np.arange(tr.shape[0])
    pick = nn_classify(tr, ids, te)
    assert _nn_errors_over_dims(tr, ids, te, pick, widths)[widths[-1]] == 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scorer_inputs(max_test=40))
def test_blocked_scorers_equal_the_full_matrix_oracles(case):
    # three-row blocks: the test sets span up to 14 blocks, and the exact
    # ties of duplicate rows and the integer grid fall on every block edge
    tr, ytr, te, yte = case
    widths = list(range(1, tr.shape[1] + 1))
    ids = np.arange(tr.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpda.evaluation, "KNN_BLOCK_ROWS", 3)
        errs = _nn_errors_over_dims(tr, ytr, te, yte, widths)
        picks = [nn_classify(tr[:, :m], ids, te[:, :m]) for m in widths]
    assert errs == one_pass_nn_errors_over_dims(tr, ytr, te, yte, widths)
    for m, pick in zip(widths, picks):
        assert np.array_equal(pick, full_matrix_nn_classify(tr[:, :m], ids, te[:, :m]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scorer_inputs(max_test=40), st.data())
def test_any_width_grid_equals_the_full_matrix_oracles(case, data):
    # grids that start above 1, skip widths or hold one width: the first
    # width's cdist plus the later columns' sums must give every width the
    # picks of its own full matrix, ties included, over three-row blocks
    tr, ytr, te, yte = case
    widths = sorted(data.draw(st.sets(st.integers(1, tr.shape[1]), min_size=1)))
    ids = np.arange(tr.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpda.evaluation, "KNN_BLOCK_ROWS", 3)
        errs = _nn_errors_over_dims(tr, ytr, te, yte, widths)
        picks = _nn_labels(tr, ids, te, widths)
        single = {m: _nn_errors_over_dims(tr, ytr, te, yte, [m]) for m in widths}
        classified = {m: error_rate(nn_classify(tr[:, :m], ytr, te[:, :m]), yte) for m in widths}
    assert errs == one_pass_nn_errors_over_dims(tr, ytr, te, yte, widths)
    for m, pick in zip(widths, picks):
        assert np.array_equal(pick, full_matrix_nn_classify(tr[:, :m], ids, te[:, :m]))
        assert single[m] == {m: errs[m]} and classified[m] == errs[m]


@pytest.mark.parametrize("widths", [[3, 5, 9], [2, 4, 7, 8], [9], [1], [1, 9]])
@pytest.mark.parametrize("grid", ["integer", "duplicate rows"])
def test_gapped_and_single_width_grids_score_as_their_full_matrices(widths, grid):
    # 23 test rows in three-row blocks against 17 training rows of width 9:
    # the integer grid ties many distances exactly, and duplicate rows tie
    # whole rows, so every width's first-minimum rule is exercised
    rng = np.random.default_rng(11)
    rows = rng.integers(-2, 3, size=(40, 9)).astype(np.float64)
    if grid == "duplicate rows":
        rows = rows[rng.integers(0, 12, size=40)] + 1e8
    tr, te = rows[:17], rows[17:]
    ytr, yte = rng.integers(1, 4, size=17), rng.integers(1, 4, size=23)
    ids = np.arange(17)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpda.evaluation, "KNN_BLOCK_ROWS", 3)
        errs = _nn_errors_over_dims(tr, ytr, te, yte, widths)
        picks = _nn_labels(tr, ids, te, widths)
    assert errs == one_pass_nn_errors_over_dims(tr, ytr, te, yte, widths)
    for m, pick in zip(widths, picks):
        assert np.array_equal(pick, full_matrix_nn_classify(tr[:, :m], ids, te[:, :m]))
        assert errs[m] == error_rate(full_matrix_nn_classify(tr[:, :m], ytr, te[:, :m]), yte)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_scorers_hold_row_blocks_not_the_distance_matrix():
    # each scorer holds one 128 x n_train block of distances, plus the squares
    # of one column when it scores more than one width, never the whole
    # n_test x n_train matrix (48 MB and 72 MB for the one-pass scorers here)
    rng = np.random.default_rng(5)
    tr, te = rng.normal(size=(2000, 10)), rng.normal(size=(3000, 10))
    ytr = rng.integers(1, 4, size=2000)
    assert _traced_peak(nn_classify, tr, ytr, te) < 2 * 128 * 2000 * 8
    tr, te = rng.normal(size=(3000, 18)), rng.normal(size=(1500, 18))
    ytr, yte = rng.integers(1, 4, size=3000), rng.integers(1, 4, size=1500)
    widths = list(range(1, 19))
    assert _traced_peak(_nn_errors_over_dims, tr, ytr, te, yte, widths) < 3 * 128 * 3000 * 8
    assert _traced_peak(_nn_errors_over_dims, tr, ytr, te, yte, [9]) < 2 * 128 * 3000 * 8


def test_error_rate_values():
    assert error_rate(np.array([1, 2, 3]), np.array([1, 2, 3])) == 0.0
    assert error_rate(np.array([1, 1]), np.array([2, 2])) == 1.0
    assert error_rate(np.array([1, 2, 3, 4]), np.array([1, 2, 3, 5])) == 0.25
    with pytest.raises(LengthMismatchError):
        error_rate(np.array([1]), np.array([1, 2]))


def test_stratified_folds_balanced(rng):
    y = np.repeat([1, 2, 3], [12, 9, 8])
    fold_of = stratified_folds(y, folds=4, seed=3)
    for c in (1, 2, 3):
        counts = np.bincount(fold_of[y == c], minlength=4)
        assert counts.max() - counts.min() <= 1
    with pytest.raises(DegenerateFoldsError):
        stratified_folds(np.array([1, 1, 1, 2]), folds=4, seed=0)


def test_cv_single_point_grid(rng):
    ds = two_gaussians(rng)
    res = cross_validate(ds, "pca", grid={}, m_grid=[2], folds=4, seed=0)
    assert res.best_params == {"m": 2}
    assert len(res.table) == 1


@pytest.mark.parametrize("algorithm,fit,foreign", [
    ("mpda", fit_mpda, "nonsense"), ("pmpda", fit_pmpda, "kprime"), ("lda", fit_lda, "energy"),
    ("pca", lambda train, m: fit_pca(train.features, m=m), "energy"),
])
def test_fit_algorithm_is_each_algorithms_own_fit(rng, algorithm, fit, foreign):
    ds = two_gaussians(rng)
    model, ref = fit_algorithm(algorithm, ds, 2, {}), fit(ds, 2)
    assert model.kind == ref.kind and model.hyperparams == ref.hyperparams
    assert np.array_equal(model.projection, ref.projection)
    # a name the fit does not take is a TypeError for every algorithm, PCA's
    # energy included: the protocol fits PCA at a width, not an energy target
    with pytest.raises(TypeError):
        fit_algorithm(algorithm, ds, 2, {foreign: 0.9})
    with pytest.raises(ValueError, match="unknown algorithm 'svm'"):
        fit_algorithm("svm", ds, 2, {})


def test_cv_baselines_reject_names_their_fit_does_not_take(rng):
    ds = two_gaussians(rng)
    with pytest.raises(TypeError):
        cross_validate(ds, "lda", grid={"k": [3, 5, 7], "nonsense": [1]}, m_grid=[1], seed=0)
    with pytest.raises(TypeError):
        cross_validate(ds, "pca", grid={"gamma": [1.0]}, m_grid=[1], seed=0)
    for algorithm in ("lda", "pca"):  # the default grid is {}
        res = cross_validate(ds, algorithm, m_grid=[1], seed=0)
        assert res.best_params == {"m": 1} and len(res.table) == 1


@pytest.mark.parametrize("algorithm", ["mpda", "pca"])
def test_cv_empty_grid_axis_names_it(rng, algorithm):
    ds = two_gaussians(rng)
    grid = {"k": [3], "gamma": []} if algorithm == "mpda" else {"nonsense": []}
    with pytest.raises(ValueError, match="'gamma'" if algorithm == "mpda" else "'nonsense'"):
        cross_validate(ds, algorithm, grid=grid, m_grid=[1], seed=0)


@pytest.mark.parametrize("splits", [0, -1])
def test_split_walks_need_at_least_one_split(rng, splits):
    ds = two_gaussians(rng, n_per=12)
    with pytest.raises(ValueError, match="splits must be at least 1"):
        benchmark(ds, "lda", splits=splits, fixed_params={}, fixed_m=1)
    with pytest.raises(ValueError, match="splits must be at least 1"):
        dimension_sweep(ds, "pca", [1, 2], splits=splits)
    with pytest.raises(ValueError, match="splits must be at least 1"):
        parameter_sweep(ds, "mpda", "gamma", [0.1, 1.0], m=1, splits=splits)


def test_protocol_entry_points_reject_unknown_modes(rng):
    ds = two_gaussians(rng, n_per=12)
    with pytest.raises(ValueError, match="unknown pca_mode 'bogus'"):
        benchmark(ds, "lda", splits=1, fixed_params={}, fixed_m=1, pca_mode="bogus")
    with pytest.raises(ValueError, match="unknown pca_mode 'bogus'"):
        dimension_sweep(ds, "pca", [1], splits=1, pca_mode="bogus")
    with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
        cross_validate(ds, "bogus")


def test_dimension_sweep_rejects_width_below_one(rng):
    ds = two_gaussians(rng, n_per=12)
    with pytest.raises(ValueError, match="at least 1"):
        dimension_sweep(ds, "pca", [0, 1, 2], splits=1)


def test_dimension_sweep_without_widths_raises_before_any_split(rng, monkeypatch):
    ds = two_gaussians(rng, n_per=12)

    def no_split(*args, **kwargs):
        raise AssertionError("a split ran")

    monkeypatch.setattr(mpda.evaluation, "_split_walk", no_split)
    with pytest.raises(ValueError, match="^no widths requested$"):
        dimension_sweep(ds, "pca", [], splits=2)


def test_empty_width_grid_raises(rng):
    ds = two_gaussians(rng, n_per=12, d=3)
    with pytest.raises(ValueError, match="m grid must be non-empty"):
        cross_validate(ds, "pca", grid={}, m_grid=[], seed=0)
    # every requested width exceeds the split's 3 columns
    with pytest.raises(ValueError, match="m grid must be non-empty"):
        benchmark(ds, "pca", splits=1, m_grid=[9])


def test_parameter_sweep_without_values_raises_before_any_split(rng, monkeypatch):
    ds = two_gaussians(rng, n_per=12)

    def no_split(*args, **kwargs):
        raise AssertionError("a split ran")

    monkeypatch.setattr(mpda.evaluation, "_split_walk", no_split)
    with pytest.raises(ValueError, match="'gamma'"):
        parameter_sweep(ds, "mpda", "gamma", [], m=1, splits=2)


def test_cv_deterministic(rng):
    ds = two_gaussians(rng)
    a = cross_validate(ds, "mpda", grid={"gamma": [0.1, 1.0]}, m_grid=[1, 2], folds=4, seed=5)
    b = cross_validate(ds, "mpda", grid={"gamma": [0.1, 1.0]}, m_grid=[1, 2], folds=4, seed=5)
    assert a.best_params == b.best_params
    assert a.table == b.table


def test_cv_never_picks_failing_width(rng):
    # classes separate only along a low-variance axis: a 1-component PCA
    # keeps the useless high-variance direction and collapses the classes,
    # so validation accuracy must select m=2
    n = 40
    noise_axis = rng.normal(0, 10.0, size=(2 * n, 1))
    sep_axis = np.concatenate([rng.normal(0, 0.3, n), rng.normal(4, 0.3, n)])[:, None]
    X = np.hstack([noise_axis, sep_axis])
    y = np.array([1] * n + [2] * n)
    ds = LabeledDataset(X, y)
    res = cross_validate(ds, "pca", grid={}, m_grid=[1, 2], folds=4, seed=1)
    assert res.best_params["m"] == 2
    accs = {r["m"]: r["mean_accuracy"] for r in res.table}
    assert accs[2] > accs[1] + 0.2


def test_cv_selects_argmax_over_gamma(rng):
    ds = two_gaussians(rng)
    res = cross_validate(
        ds, "mpda", grid={"gamma": [1e-2, 1.0, 1e2]}, m_grid=[1], folds=4, seed=2
    )
    best = max(r["mean_accuracy"] for r in res.table)
    chosen = [r for r in res.table if r["params"]["gamma"] == res.best_params["gamma"]]
    assert max(r["mean_accuracy"] for r in chosen) == best


def test_benchmark_deterministic_and_stage_times_within_wall(rng):
    ds = two_gaussians(rng, n_per=24)
    kwargs = dict(
        splits=3, train_fraction=0.5, folds=3,
        grid={"gamma": [1.0]}, m_grid=[1, 2], seed=9, pca_mode="off",
    )
    a = benchmark(ds, "mpda", **kwargs)
    b = benchmark(ds, "mpda", **kwargs)
    timing = ("stage_seconds", "wall_seconds")
    assert {k: v for k, v in a.to_dict().items() if k not in timing} == {
        k: v for k, v in b.to_dict().items() if k not in timing
    }
    for rep in (a, b):
        assert rep.to_dict()["wall_seconds"] == rep.wall_seconds > 0.0
        assert set(rep.stage_seconds) == {"split", "preprocess", "cv", "fit", "score"}
        # splits run in turn: the per-stage times are parts of the elapsed time
        assert sum(rep.stage_seconds.values()) <= rep.wall_seconds + 1e-5


def test_benchmark_fixed_params_skip_cv(rng):
    ds = two_gaussians(rng, n_per=20)
    rep = benchmark(
        ds, "mpda", splits=2, train_fraction=0.5,
        fixed_params={"gamma": 1.0, "k": 3}, fixed_m=1, seed=0, pca_mode="off",
    )
    assert rep.per_split_m == [1, 1]
    assert all(err <= 0.1 for err in rep.per_split_errors)
    assert rep.mean_m == 1.0


def test_benchmark_report_statistics(rng):
    ds = two_gaussians(rng, n_per=20)
    rep = benchmark(
        ds, "lda", splits=4, train_fraction=0.5, m_grid=[1], seed=1, pca_mode="off",
    )
    assert np.isclose(rep.mean_error, np.mean(rep.per_split_errors))
    assert np.isclose(rep.std_error, np.std(rep.per_split_errors))
    assert rep.splits == 4 and len(rep.per_split_errors) == 4
    d = rep.to_dict()
    assert d["mean_error"] == rep.mean_error
    rows = rep.csv_rows()
    assert rows[0] == ("split", "error", "m") and len(rows) == 5


def test_benchmark_wide_data_gets_pca_pass(rng):
    # 120 raw dimensions with 3 informative ones: auto mode must shrink
    n = 30
    signal = np.vstack([rng.normal(0, 1, size=(n, 3)), rng.normal(5, 1, size=(n, 3))])
    lift = rng.normal(size=(3, 120))
    X = signal @ lift + 0.01 * rng.normal(size=(2 * n, 120))
    y = np.array([1] * n + [2] * n)
    ds = LabeledDataset(X, y)
    rep = benchmark(
        ds, "lda", splits=2, train_fraction=0.5, m_grid=[1], seed=0, pca_mode="auto",
    )
    assert all(dim < 120 for dim in rep.preprocessed_dim)
    narrow = benchmark(
        two_gaussians(rng), "lda", splits=1, train_fraction=0.5, m_grid=[1], seed=0,
    )
    assert narrow.preprocessed_dim == [4]  # d <= 100 stays untouched


def test_pca_preprocess_keeps_the_module_energy(rng, monkeypatch):
    # the pass reads PCA_PREPROCESS_ENERGY at call time and takes no energy
    # of its own: both sets go through the training set's fit_pca model
    tr, te = two_gaussians(rng, d=6), two_gaussians(rng, d=6)
    for energy in (0.95, 0.5):
        monkeypatch.setattr(mpda.evaluation, "PCA_PREPROCESS_ENERGY", energy)
        got_tr, got_te, pca = mpda.evaluation.pca_preprocess(tr, te)
        want = fit_pca(tr.features, energy=energy)
        assert pca.hyperparams == want.hyperparams and pca.projection.tobytes() == want.projection.tobytes()
        assert got_tr.features.tobytes() == mpda.transform(want, tr.features).tobytes()
        assert got_te.features.tobytes() == mpda.transform(want, te.features).tobytes()
    with pytest.raises(TypeError):
        mpda.evaluation.pca_preprocess(tr, te, energy=0.9)


def test_dimension_sweep_rows_and_isometry(rng):
    ds = two_gaussians(rng, n_per=25, d=5)
    rows = dimension_sweep(ds, "pca", list(range(1, 6)), splits=2, train_fraction=0.6, seed=4)
    assert [m for m, _ in rows] == [1, 2, 3, 4, 5]
    # full-width PCA is a rotation: 1-NN accuracy equals the no-reduction baseline
    from mpda.dataset import train_test_split

    accs = []
    for s in range(2):
        tr, te = train_test_split(ds, 0.6, 4 * 1000 + s)
        pred = nn_classify(tr.features, tr.labels, te.features)
        accs.append(1.0 - error_rate(pred, te.labels))
    assert rows[-1][1] == pytest.approx(np.mean(accs), abs=1e-12)


def test_parameter_sweep_shape(rng):
    ds = two_gaussians(rng, n_per=20)
    rows = parameter_sweep(
        ds, "mpda", "gamma", [0.1, 1.0, 10.0], m=1, splits=2, train_fraction=0.5, seed=0,
    )
    assert [v for v, _ in rows] == [0.1, 1.0, 10.0]
    assert all(0.0 <= acc <= 1.0 for _, acc in rows)


def arcs_with_duplicates(rng, sizes=(9, 7, 4), d=4, n_dup=3):
    """Curved classes with duplicated rows; the last class is smaller than
    the largest k the sweeps below use."""
    return curved_classes(rng, sizes, d, n_dup)


PARAMETER_SWEEPS = [
    ("mpda", "gamma", [0.0, 0.5, 10.0], {"k": 3}),
    ("mpda", "alpha", [1e-3, 1e-1, 1.0], {"kprime": 3, "max_patch": 4}),
    ("mpda", "k", [2, 5, 12], {"gamma": 2.0}),
    ("pmpda", "gamma", [0.0, 1.0, 7.0], {"k": 6}),
]


@pytest.mark.parametrize("pca_mode", ["off", "on"])
@pytest.mark.parametrize("algorithm,param,values,base", PARAMETER_SWEEPS)
def test_parameter_sweep_equals_per_fit_loop(rng, algorithm, param, values, base, pca_mode):
    ds = arcs_with_duplicates(rng)
    kwargs = dict(splits=3, train_fraction=0.6, base_params=base, seed=2, pca_mode=pca_mode)
    for m in (2, 9):  # 9 exceeds the width: every split fits at its full width
        got = parameter_sweep(ds, algorithm, param, values, m, **kwargs)
        assert got == per_fit_parameter_sweep(ds, algorithm, param, values, m, **kwargs)


@pytest.mark.parametrize("pca_mode", ["off", "on"])
@pytest.mark.parametrize("algorithm", ["mpda", "pmpda", "lda", "pca"])
def test_dimension_sweep_equals_per_fit_loop(rng, algorithm, pca_mode):
    ds = arcs_with_duplicates(rng)
    params = {"k": 8, "gamma": 0.5} if algorithm in ("mpda", "pmpda") else {}
    kwargs = dict(splits=3, train_fraction=0.5, params=params, seed=5, pca_mode=pca_mode)
    m_values = [3, 1, 2, 6] if algorithm != "lda" else [1, 2]  # 6 exceeds the width
    got = dimension_sweep(ds, algorithm, m_values, **kwargs)
    assert got == per_fit_dimension_sweep(ds, algorithm, m_values, **kwargs)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    algorithm=st.sampled_from(["mpda", "pmpda"]),
    param=st.sampled_from(["k", "gamma", "alpha"]),
)
def test_parameter_sweep_equals_per_fit_loop_on_tiny_sets(seed, algorithm, param):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(v) for v in rng.integers(2, 6, size=int(rng.integers(2, 4))))
    d, n_dup = (int(v) for v in rng.integers((2, 0), (5, 4)))
    ds = arcs_with_duplicates(rng, sizes=sizes, d=d, n_dup=n_dup)
    values = {"k": [1, 3, ds.n], "gamma": [0.0, 1.0, 1.0], "alpha": [1e-3, 1.0]}[param]
    kwargs = dict(splits=2, train_fraction=0.5, seed=seed % 97, pca_mode="off")
    assert parameter_sweep(ds, algorithm, param, values, 2, **kwargs) == per_fit_parameter_sweep(
        ds, algorithm, param, values, 2, **kwargs
    )


def test_parameter_sweep_walks_each_split_once(rng):
    """A gamma sweep splits the data and builds the bases once per split, not per value."""
    import mpda.evaluation
    import mpda.model

    calls = {"split": 0, "bases": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    split, bases = mpda.evaluation.train_test_split, mpda.model.merge_class_partitions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpda.evaluation, "train_test_split", counted("split", split))
        mp.setattr(mpda.model, "merge_class_partitions", counted("bases", bases))
        ds = arcs_with_duplicates(rng)
        parameter_sweep(ds, "mpda", "gamma", [0.1, 1.0, 10.0, 100.0], m=2, splits=3)
    assert calls == {"split": 3, "bases": 3}


def test_nn_invariant_under_rotation(rng):
    train = rng.normal(size=(30, 4))
    labels = rng.integers(1, 4, size=30)
    test = rng.normal(size=(15, 4))
    base = nn_classify(train, labels, test)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert np.array_equal(nn_classify(train @ Q, labels, test @ Q), base)


@pytest.mark.parametrize("algorithm,grid,d,widths", [
    ("mpda", {"k": [3]}, 5, [1, 2, 3, 4, 5]),  # 1..d below 60
    ("pca", {}, 70, list(range(1, 61))),  # capped at 60
    ("lda", {}, 5, [1, 2]),  # 1..C - 1 for three classes
])
def test_cv_without_a_width_grid_sweeps_the_default_widths(rng, algorithm, grid, d, widths):
    X = rng.normal(size=(36, d)) + np.repeat([0.0, 4.0, 8.0], 12)[:, None]
    ds = LabeledDataset(X, np.repeat([1, 2, 3], 12))
    res = cross_validate(ds, algorithm, grid=grid, folds=3, seed=0)
    assert [row["m"] for row in res.table] == widths


@pytest.mark.parametrize("folds", [1, 0, -2])
def test_stratified_folds_need_at_least_two_folds(folds):
    with pytest.raises(ValueError, match="need at least 2 folds"):
        stratified_folds(np.array([1, 1, 2, 2]), folds=folds, seed=0)
