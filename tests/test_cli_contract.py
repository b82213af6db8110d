"""The command line's error contract as a property.

Subcommands run on tiny data files (clean, duplicated rows, a singleton
class, ragged rows, non-UTF-8 bytes, a missing path) with hyperparameter
flags in and out of range: 0, negative, nan and inf included.  Every run
must exit 0, 2, 3 or 4 with no exception escaping ``cli.run``; a failure
prints exactly one JSON line on stderr, and a success that prints JSON
prints no NaN or infinity.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpda.cli import run

INT_FLAGS = ("--m", "--k", "--kprime", "--max-patch")
FLOAT_FLAGS = ("--gamma", "--alpha", "--energy")
INT_VALUES = ("0", "-1", "1", "2", "3", "1000")
FLOAT_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-3", "0.5", "1", "2")
DATA = ("clean", "duplicates", "singleton", "ragged", "binary", "missing")


def _csv(path, y, X):
    path.write_text("".join(
        ",".join([str(c)] + [repr(float(v)) for v in row]) + "\n" for c, row in zip(y, X)
    ))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(5)
    y = np.repeat([1, 2], 8)
    X = rng.normal(size=(16, 3)) + 4.0 * (y[:, None] - 1)
    paths = {
        "clean": _csv(root / "clean.csv", y, X),
        "duplicates": _csv(root / "duplicates.csv", np.repeat(y, 2), np.repeat(X, 2, axis=0)),
        "singleton": _csv(root / "singleton.csv", np.append(y, 3), np.vstack([X, X[:1] + 9.0])),
        "ragged": str(root / "ragged.csv"),
        "binary": str(root / "binary.csv"),
        "missing": str(root / "missing.csv"),
        "model": str(root / "pca.model"),
        "garbage_model": str(root / "garbage.model"),
        "config": str(root / "run.cfg"),
        "out": str(root / "out"),
    }
    (root / "ragged.csv").write_text("1,0.5,1.5\n2,0.5\n")
    (root / "binary.csv").write_bytes(b"\xff\xfe1,2,3\n")
    (root / "garbage.model").write_bytes(b"\x00\x01 not a model\n")
    assert run(["fit", "--algo", "pca", "--data", paths["clean"], "--m", "2",
                "--out", paths["model"]]) == 0
    return paths


def _flags(draw):
    """One to three hyperparameter flags, each typed as argparse parses it."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            out.append(f"{draw(st.sampled_from(INT_FLAGS))}={draw(st.sampled_from(INT_VALUES))}")
        else:
            out.append(f"{draw(st.sampled_from(FLOAT_FLAGS))}={draw(st.sampled_from(FLOAT_VALUES))}")
    return out


@st.composite
def commands(draw, paths):
    # the clean file about half the time, so flag values get past loading
    data = ["--data", paths[draw(st.one_of(st.just("clean"), st.sampled_from(DATA)))]]
    kind = draw(st.sampled_from(("fit", "config", "sweep", "param", "benchmark", "inspect",
                                 "transform")))
    algo = ["--algo", draw(st.sampled_from(("mpda", "pmpda", "lda", "pca")))]
    out = ["--out", paths["out"]]
    if kind == "fit":
        return ["fit", *algo, *data, "--m", "1", *_flags(draw), *out]
    if kind == "config":
        key = draw(st.sampled_from(("gamma", "alpha", "energy", "k", "max_patch", "m")))
        value = draw(st.sampled_from(FLOAT_VALUES + INT_VALUES))
        with open(paths["config"], "w", encoding="utf-8") as fh:
            fh.write(f"algo = mpda\n{key} = {value}\n")
        return ["--config", paths["config"], "fit", *data, "--m", "1", *out]
    if kind == "sweep":
        m_min, m_max = draw(st.sampled_from(INT_VALUES)), draw(st.sampled_from(INT_VALUES))
        return ["sweep", *algo, *data, "--splits", "1", f"--m-min={m_min}", f"--m-max={m_max}",
                *_flags(draw), *out]
    if kind == "param":
        name = draw(st.sampled_from(("k", "gamma", "alpha", "energy", "kprime", "nonsense")))
        value = draw(st.sampled_from(FLOAT_VALUES + INT_VALUES))
        return ["sweep", "--algo", "mpda", *data, "--splits", "1", "--param", name,
                f"--values={value}", "--m", "1", *out]
    if kind == "benchmark":
        grids = [f"--grid-k={draw(st.sampled_from(INT_VALUES))}",
                 f"--grid-gamma={draw(st.sampled_from(FLOAT_VALUES))}",
                 f"--grid-alpha={draw(st.sampled_from(FLOAT_VALUES))}"]
        return ["benchmark", *algo, *data, "--splits", "1", "--folds", "2",
                f"--m-max={draw(st.sampled_from(INT_VALUES))}", *grids]
    if kind == "inspect":
        return ["partition-inspect", *data, f"--kprime={draw(st.sampled_from(INT_VALUES))}",
                f"--max-patch={draw(st.sampled_from(INT_VALUES))}"]
    model = paths[draw(st.sampled_from(("model", "garbage_model", "missing")))]
    return ["transform", "--model", model, *data, *out]


def _no_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_run_keeps_the_exit_code_contract(files, data):
    argv = data.draw(commands(files))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = run(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in out + err
    if rc:
        lines = err.splitlines()
        assert len(lines) == 1 and out == ""
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}
    elif argv[0] in ("benchmark", "partition-inspect"):
        json.loads(out, parse_constant=_no_constant)
