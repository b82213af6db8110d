"""The former list-based CSV parse, kept as a test oracle for ``load_dataset``.

``list_load_csv`` holds every feature of a row as a Python float in a
list, keeps one list per row and builds the feature matrix with one
``np.asarray`` at the end: the parse ``load_dataset`` made before it read
the rows into one flat buffer.  It checks the rows, parses the labels and
raises in the same order, with the same messages.
"""

import numpy as np

from mpda.dataset import LabeledDataset, _parse_int, _remap_labels
from mpda.errors import EmptyDatasetError, ParseError


def list_load_csv(path, header=False):
    rows, labels, width = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
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
                raise ParseError(f"line {lineno}: expected {width} fields, found {len(parts)}")
            labels.append(_parse_int(parts[0].strip(), lineno))
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric feature value") from None
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    y, names = _remap_labels(labels)
    return LabeledDataset(np.asarray(rows, dtype=np.float64), y, names)
