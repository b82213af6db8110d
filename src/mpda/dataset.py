"""Labeled datasets: loading, reproducible splitting, basic statistics.

Split reproducibility contract
------------------------------
``train_test_split`` is pinned to the following procedure so that splits
can be regenerated by any implementation:

1. ``class_permutations(labels, seed)`` visits classes in ascending order
   of their internal label ``1..C`` and shuffles each class's ascending row
   indices by one ``rng.permutation`` call on one
   ``numpy.random.default_rng(seed)`` stream (PCG64 bit generator).
2. The first ``floor(n_c * train_fraction + 0.5)`` shuffled indices go to
   the training set, the rest to the test set (rounding half up).
3. Both output datasets keep rows in ascending original-row order.

``class_permutations`` owns the shuffle: cross-validation folds deal the
same shuffled rows round-robin (see ``mpda.evaluation``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSplitError, EmptyDatasetError, ParseError


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with one integer class label per row.

    ``labels`` are contiguous in ``1..C``; ``label_names`` maps each
    internal label back to the value found in the source file.  Left
    empty, it maps each label present to itself.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        # the int64 cast would truncate 1.9 to 1 and make garbage of NaN, inf or 1e30
        if y.dtype.kind == "f" and not np.all((y == np.trunc(y)) & (np.abs(y) < 2.0**63)):
            raise ParseError("labels must be integers")
        y = y.astype(np.int64, copy=False)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise EmptyDatasetError("dataset must have at least one row and one column")
        if y.shape != (X.shape[0],):
            raise ParseError("labels must align with feature rows")
        if not np.all(np.isfinite(X)):
            raise ParseError("features contain NaN or Inf")
        # subsets of a valid dataset may lack intermediate classes, so only
        # the 1..C range is enforced here; load_dataset guarantees contiguity
        if y.min() < 1:
            raise ParseError("labels must be positive integers")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if not self.label_names:
            object.__setattr__(self, "label_names", {int(c): int(c) for c in np.unique(y)})

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        """Classes of the label space: a subset counts its parent's classes."""
        return len(self.label_names)

    @property
    def class_counts(self) -> dict[int, int]:
        labels, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(k) for c, k in zip(labels, counts)}

    def class_indices(self, c: int) -> np.ndarray:
        """Row indices of class ``c``, ascending."""
        return np.flatnonzero(self.labels == c)

    def subset(self, rows: np.ndarray) -> "LabeledDataset":
        """Rows picked by numpy's rule: indices, or a boolean mask of length n.
        Labels keep the parent's numbering; no rows is ``EmptyDatasetError``."""
        rows = np.asarray(rows) if np.size(rows) else np.empty(0, dtype=np.intp)
        return LabeledDataset(self.features[rows], self.labels[rows], dict(self.label_names))


def _remap_labels(raw_labels: list[int]) -> tuple[np.ndarray, dict[int, int]]:
    """Map raw integer labels to contiguous 1..C by first appearance."""
    mapping: dict[int, int] = {}
    out = np.empty(len(raw_labels), dtype=np.int64)
    for i, v in enumerate(raw_labels):
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        out[i] = mapping[v]
    return out, {new: old for old, new in mapping.items()}


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        # tolerate "1.0"-style labels as long as the value is integral
        try:
            v = float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: label {token!r} is not an integer") from None
        if not v.is_integer():  # false for nan and inf too
            raise ParseError(f"line {lineno}: label {token!r} is not an integer")
        return int(v)


def _load_csv(path: str, header: bool) -> tuple[array, list[int]]:
    """The features of every row, flat in one buffer, and the raw labels."""
    values = array("d")
    labels: list[int] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ParseError(f"line {lineno}: need a label and at least one feature")
            elif len(parts) != width:
                raise ParseError(
                    f"line {lineno}: expected {width} fields, found {len(parts)}"
                )
            labels.append(_parse_int(parts[0].strip(), lineno))
            try:
                values.extend(map(float, parts[1:]))
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric feature value") from None
    return values, labels


def _load_libsvm(path: str) -> tuple[list[dict[int, float]], list[int]]:
    rows: list[dict[int, float]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            labels.append(_parse_int(parts[0], lineno))
            entries: dict[int, float] = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad sparse entry {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"line {lineno}: indices are 1-based, got {idx}")
                entries[idx] = val
            rows.append(entries)
    return rows, labels


def load_dataset(path: str, format: str = "csv", header: bool = False) -> LabeledDataset:
    """Load a labeled dataset from the UTF-8 file ``path``; a byte-order mark is skipped.

    ``csv``: first column is the integer class label, remaining columns
    are features, no header unless ``header=True``.  Each row's values go
    through ``float`` into one flat float64 buffer, which becomes the
    feature matrix without a copy: about 9 bytes per value at the peak.
    ``libsvm``: standard ``label idx:val`` sparse lines, densified with zeros.
    """
    if format == "csv":
        values, raw_labels = _load_csv(path, header)
        if not raw_labels:
            raise EmptyDatasetError(f"{path}: no data rows")
        X = np.frombuffer(values).reshape(len(raw_labels), -1)
    elif format == "libsvm":
        entries, raw_labels = _load_libsvm(path)
        if not entries:
            raise EmptyDatasetError(f"{path}: no data rows")
        d = max((max(e) for e in entries if e), default=0)
        if d == 0:
            raise ParseError(f"{path}: no feature entries found")
        X = np.zeros((len(entries), d), dtype=np.float64)
        for i, e in enumerate(entries):
            for idx, val in e.items():
                X[i, idx - 1] = val
    else:
        raise ValueError(f"unknown format {format!r}")
    labels, names = _remap_labels(raw_labels)
    return LabeledDataset(X, labels, names)


def class_permutations(labels: np.ndarray, seed: int):
    """Yield ``(label, rows)`` per class, shuffled as step 1 above pins."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        yield c, idx[rng.permutation(len(idx))]


def split_indices(
    labels: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test row indices per the pinned procedure above."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    train_parts, test_parts = [], []
    for c, rows in class_permutations(labels, seed):
        n_train = int(np.floor(len(rows) * train_fraction + 0.5))
        if n_train == 0:
            raise DegenerateSplitError(
                f"class {int(c)} would have no training points at fraction {train_fraction}"
            )
        train_parts.append(rows[:n_train])
        test_parts.append(rows[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def train_test_split(
    ds: LabeledDataset, train_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified split; see the module docstring for the PRNG contract."""
    train_idx, test_idx = split_indices(ds.labels, train_fraction, seed)
    if test_idx.size == 0:
        raise DegenerateSplitError("split leaves an empty test set")
    return ds.subset(train_idx), ds.subset(test_idx)
