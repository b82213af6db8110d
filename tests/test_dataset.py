import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataset_oracles import list_load_csv
from mpda.dataset import (
    LabeledDataset,
    class_permutations,
    load_dataset,
    split_indices,
    train_test_split,
)
from mpda.evaluation import stratified_folds
from mpda.errors import DegenerateSplitError, EmptyDatasetError, ParseError


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "1,0,0,0\n1,1,0,0\n2,0,1,0\n")
    ds = load_dataset(path)
    assert ds.n == 3 and ds.d == 3 and ds.n_classes == 2
    assert ds.class_counts == {1: 2, 2: 1}


def test_load_csv_label_remap_first_appearance(tmp_path):
    path = write(tmp_path, "7,1.5\n3,2.5\n7,3.5\n")
    ds = load_dataset(path)
    assert list(ds.labels) == [1, 2, 1]
    assert ds.label_names == {1: 7, 2: 3}


def test_load_csv_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "1,0,0,0\n1,2\n2,0,1,0\n")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_load_csv_non_numeric_rejected(tmp_path):
    path = write(tmp_path, "1,0,zero\n")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_load_csv_empty_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path)


def test_load_csv_header_flag(tmp_path):
    path = write(tmp_path, "label,f1\n1,0.5\n2,1.5\n")
    ds = load_dataset(path, header=True)
    assert ds.n == 2 and ds.d == 1


def test_load_libsvm(tmp_path):
    path = write(tmp_path, "1 1:0.5 3:2.0\n2 2:1.0\n", name="data.svm")
    ds = load_dataset(path, format="libsvm")
    assert ds.n == 2 and ds.d == 3
    assert np.allclose(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize("name,text,fmt", [
    ("data.csv", "1,0.5,1\n2,1.5,0\n", "csv"),
    ("data.svm", "1 1:0.5 2:1\n2 1:1.5\n", "libsvm"),
])
def test_load_accepts_a_byte_order_mark(tmp_path, name, text, fmt):
    plain = load_dataset(write(tmp_path, text, name="plain-" + name), format=fmt)
    (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.encode())
    ds = load_dataset(str(tmp_path / name), format=fmt)
    assert ds.features.tobytes() == plain.features.tobytes()
    assert np.array_equal(ds.labels, plain.labels) and ds.label_names == plain.label_names
    # line numbers still count from the marked first line
    (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.encode() + b"x\n")
    with pytest.raises(ParseError, match="^line 3: "):
        load_dataset(str(tmp_path / name), format=fmt)


def test_load_rejects_nan(tmp_path):
    path = write(tmp_path, "1,nan\n2,1.0\n")
    with pytest.raises(ParseError):
        load_dataset(path)


# label and feature tokens that parse: integers, integral floats,
# exponents, signed zeros, surrounding spaces and underscores; and tokens
# that fail, as a label, as a feature or in the dataset's finite check
GOOD_LABELS = ["1", "2", "3", "-4", " 2 ", "2.0", "1e1", "1_0", "-0"]
BAD_LABELS = ["1.5", "nan", "inf", "x", ""]
GOOD_FEATURES = ["0", "-0", "-0.0", "1e5", "2.5E-3", " 7 ", "1_0", ".5", "5.", "1e-320"]
BAD_FEATURES = ["inf", "-inf", "nan", "1e999", "abc", "", "0x10", "1e", "1__0"]


@st.composite
def csv_texts(draw):
    """CSV text with a label column, and whether its first line is a header.
    Half the texts hold only tokens that parse, in rows of one width; the
    others may hold bad tokens and ragged rows.  Blank lines come anywhere."""
    width = draw(st.integers(1, 5))
    faulty = draw(st.booleans())
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    ints = st.integers(-3, 12).map(str)
    feature = st.one_of(floats, floats, st.sampled_from(GOOD_FEATURES))
    label = st.one_of(ints, ints, st.sampled_from(GOOD_LABELS))
    if faulty:
        feature = st.one_of(feature, feature, feature, st.sampled_from(BAD_FEATURES))
        label = st.one_of(label, label, label, st.sampled_from(BAD_LABELS))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank"] + ["ragged"] * faulty))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        n = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        lines.append(",".join([draw(label)] + [draw(feature) for _ in range(n)]))
    header = draw(st.booleans())
    if header:
        lines.insert(0, draw(st.sampled_from(["label,f1", "", "1,2,3", "x"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), header


def parse_outcome(load, path, header):
    try:
        ds = load(path, header=header)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)
    return ds.features.dtype, ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.label_names


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=csv_texts())
def test_flat_csv_parse_equals_the_list_parse(tmp_path_factory, case):
    text, header = case
    path = str(tmp_path_factory.getbasetemp() / "parse.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert parse_outcome(load_dataset, path, header) == parse_outcome(list_load_csv, path, header)


def test_csv_parse_holds_under_20_bytes_per_value(tmp_path):
    # one flat float64 buffer: about 9 bytes per value, against 41 when
    # every value was a Python float in a list
    n, d = 4000, 200
    rng = np.random.default_rng(0)
    path = tmp_path / "wide.csv"
    np.savetxt(path, np.column_stack([rng.integers(1, 11, size=n), rng.normal(size=(n, d))]),
               delimiter=",", fmt="%.17g")
    tracemalloc.start()
    try:
        ds = load_dataset(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (n, d)
    assert peak < 20 * n * d


def test_split_matches_documented_permutation_oracle():
    # oracle: one PCG64 permutation per class, classes ascending, first
    # floor(n_c * fraction + 0.5) shuffled members go to train
    y = np.array([1, 1, 1, 1])
    X = np.arange(8.0).reshape(4, 2)
    ds = LabeledDataset(X, y)
    seed = 7
    perm = np.random.default_rng(seed).permutation(4)
    expected_train = np.sort(perm[:2])
    train_idx, test_idx = split_indices(ds.labels, 0.5, seed)
    assert np.array_equal(train_idx, expected_train)
    assert np.array_equal(np.sort(np.concatenate([train_idx, test_idx])), np.arange(4))


def test_splits_and_folds_deal_the_one_class_shuffle(rng):
    # oracle: classes ascending, one rng.permutation per class, one stream
    y = rng.permutation(np.repeat([3, 1, 2], [9, 7, 12]))
    for seed in (0, 11):
        stream = np.random.default_rng(seed)
        shuffled = list(class_permutations(y, seed))
        assert [int(c) for c, _ in shuffled] == [1, 2, 3]
        train, _ = split_indices(y, 0.4, seed)
        fold_of = stratified_folds(y, 3, seed)
        for c, rows in shuffled:
            idx = np.flatnonzero(y == c)
            assert np.array_equal(rows, idx[stream.permutation(len(idx))])
            n_train = int(np.floor(len(rows) * 0.4 + 0.5))
            assert np.array_equal(np.sort(rows[:n_train]), train[y[train] == c])
            assert np.array_equal(fold_of[rows], np.arange(len(rows)) % 3)


def test_split_deterministic(rng):
    X = rng.normal(size=(30, 3))
    y = np.array([1] * 10 + [2] * 10 + [3] * 10)
    ds = LabeledDataset(X, y)
    a = split_indices(ds.labels, 0.4, seed=123)
    b = split_indices(ds.labels, 0.4, seed=123)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = split_indices(ds.labels, 0.4, seed=124)
    assert not np.array_equal(a[0], c[0])


def test_split_is_stratified(rng):
    for trial in range(10):
        counts = rng.integers(4, 30, size=3)
        y = np.concatenate([np.full(k, c + 1) for c, k in enumerate(counts)])
        X = rng.normal(size=(len(y), 2))
        ds = LabeledDataset(X, y)
        frac = float(rng.uniform(0.2, 0.8))
        tr, te = train_test_split(ds, frac, seed=int(rng.integers(1e6)))
        for c, n_c in enumerate(counts, start=1):
            got = int(np.sum(tr.labels == c))
            assert abs(got - n_c * frac) < 1.0
            assert got + int(np.sum(te.labels == c)) == n_c


def test_split_counts_quarter_fraction():
    # 1440 rows in 20 equal classes at fraction 0.25 -> 360/1080
    y = np.repeat(np.arange(1, 21), 72)
    X = np.zeros((1440, 2))
    X[:, 0] = np.arange(1440)
    ds = LabeledDataset(X, y)
    tr, te = train_test_split(ds, 0.25, seed=0)
    assert tr.n == 360 and te.n == 1080


def test_split_degenerate_class_raises():
    ds = LabeledDataset(np.zeros((5, 2)), np.array([1, 1, 1, 1, 2]))
    with pytest.raises(DegenerateSplitError):
        train_test_split(ds, 0.1, seed=0)  # class 2 would round to zero


def test_subset_keeps_label_space():
    ds = LabeledDataset(np.arange(12.0).reshape(6, 2), np.array([1, 1, 2, 2, 3, 3]))
    sub = ds.subset(np.array([0, 4, 5]))
    assert list(sub.labels) == [1, 3, 3]
