import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mpda
from mpda.cli import run
from mpda.dataset import LabeledDataset
from mpda.evaluation import nn_classify  # noqa: F401  (import sanity)
from mpda.model import fit_mpda, load_model, transform


@pytest.fixture
def data_csv(tmp_path, rng):
    X = np.vstack([rng.normal(0, 1, size=(20, 3)), rng.normal(6, 1, size=(20, 3))])
    y = np.array([1] * 20 + [2] * 20)
    path = tmp_path / "train.csv"
    rows = [",".join([str(int(c))] + [repr(float(v)) for v in row]) for c, row in zip(y, X)]
    path.write_text("\n".join(rows) + "\n")
    return str(path), LabeledDataset(X, y)


def test_fit_then_transform_roundtrip(tmp_path, data_csv, capsys):
    path, ds = data_csv
    model_path = str(tmp_path / "model.bin")
    emb_path = str(tmp_path / "emb.csv")
    assert run(["fit", "--algo", "mpda", "--data", path, "--m", "2", "--out", model_path]) == 0
    assert run(["transform", "--model", model_path, "--data", path, "--out", emb_path]) == 0
    emb = np.loadtxt(emb_path, delimiter=",")
    # in-process fit/transform must agree byte for byte through the CSV
    model = fit_mpda(ds, m=2)
    direct = transform(model, ds.features)
    assert emb.shape == direct.shape
    assert np.array_equal(emb, direct)  # %.17g round-trips float64 exactly


def usage_error(capsys, argv):
    """Run argv, require exit 2 with one JSON line on stderr, return its message."""
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError"
    return payload["message"]


def test_unknown_algo_is_usage_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    message = usage_error(capsys, ["fit", "--algo", "unknown", "--data", path, "--m", "2",
                                   "--out", "x.bin"])
    assert message.startswith("argument --algo: invalid choice: 'unknown'")


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["--config"], "--config needs a path"),
])
def test_parser_rejections_without_a_subcommand_are_usage_errors(capsys, argv, message):
    assert usage_error(capsys, argv).startswith(message)


def test_missing_data_file_is_data_error(tmp_path, capsys):
    rc = run(["fit", "--algo", "mpda", "--data", str(tmp_path / "nope.csv"),
              "--m", "1", "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert "error" in payload and "message" in payload


def test_malformed_data_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n1,x,3\n")
    rc = run(["fit", "--algo", "mpda", "--data", str(bad), "--m", "1",
              "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    # non-finite labels are not integers either
    for label in ("nan", "inf", "1e400"):
        capsys.readouterr()
        bad.write_text(f"{label},2,3\n1,4,3\n")
        rc = run(["fit", "--algo", "mpda", "--data", str(bad), "--m", "1",
                  "--out", str(tmp_path / "m.bin")])
        assert rc == 3
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message == f"line 1: label {label!r} is not an integer"


@pytest.mark.parametrize("algo", ["mpda", "pmpda", "pca"])
def test_one_row_training_set_is_data_error(tmp_path, capsys, algo):
    one = tmp_path / "one.csv"
    one.write_text("1,0.5,2.0\n")
    out = tmp_path / "m.bin"
    rc = run(["fit", "--algo", algo, "--data", str(one), "--m", "1", "--out", str(out)])
    assert rc == 3 and not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {
        "error": "DataError", "message": f"{algo} needs at least two training rows, got 1",
    }


def test_partition_inspect_json(tmp_path, data_csv):
    path, ds = data_csv
    out = tmp_path / "patches.json"
    rc = run(["partition-inspect", "--data", path, "--max-patch", "8", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2  # one entry per class
    for entry in payload:
        sizes = [p["size"] for p in entry["patches"]]
        assert all(s <= 8 for s in sizes)
        assert sum(sizes) == 20
        members = sorted(i for p in entry["patches"] for i in p["members"])
        expect = [i for i in range(40) if ds.labels[i] == entry["class"]]
        assert members == expect
        assert all(p["linearity"] >= 1.0 - 1e-9 for p in entry["patches"])


def test_partition_inspect_makes_one_call_with_the_per_class_output(tmp_path, rng, monkeypatch):
    # three interleaved classes with labels that are not 1..C; the JSON must
    # be what partitioning each class alone gives, through one partitioner
    # call over the class blocks
    import mpda.cli
    from mpda.dataset import load_dataset
    from mpda.partition import partition_classes
    from partition_oracles import partition_class_loop

    labels = rng.permutation(np.repeat([7, 2, 5], [30, 25, 12]))
    X = rng.normal(size=(labels.size, 3)) + labels[:, None]
    path = tmp_path / "three.csv"
    path.write_text("".join(
        ",".join([str(c)] + [repr(float(v)) for v in row]) + "\n" for c, row in zip(labels, X)
    ))
    calls = []

    def spy(blocks, *args):
        calls.append(len(blocks))
        return partition_classes(blocks, *args)

    monkeypatch.setattr(mpda.cli, "partition_classes", spy)
    out = tmp_path / "patches.json"
    assert run(["partition-inspect", "--data", str(path), "--kprime", "3", "--max-patch", "4",
                "--out", str(out)]) == 0
    assert calls == [3]
    ds = load_dataset(str(path))
    expected = []
    for c in sorted(ds.class_counts):
        rows = ds.class_indices(c)
        patches, linearity = partition_class_loop(ds.features[rows], 3, 4)
        expected.append({
            "class": ds.label_names.get(c, c),
            "patches": [
                {"size": int(len(m)), "linearity": float(lin), "members": [int(rows[i]) for i in m]}
                for m, lin in zip(patches, linearity)
            ],
        })
    assert out.read_text() == json.dumps(expected, indent=2) + "\n"


def test_benchmark_json_csv(tmp_path, data_csv, capsys):
    path, _ = data_csv
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    rc = run([
        "benchmark", "--algo", "lda", "--data", path, "--splits", "2",
        "--train-fraction", "0.5", "--m", "1", "--seed", "3",
        "--out-json", str(out_json), "--out-csv", str(out_csv),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["algorithm"] == "lda"
    report = json.loads(out_json.read_text())
    assert len(report["per_split_errors"]) == 2
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "split,error,m" and len(lines) == 3


def test_sweep_dimension_csv(tmp_path, data_csv):
    path, _ = data_csv
    out = tmp_path / "sweep.csv"
    rc = run([
        "sweep", "--algo", "pca", "--data", path, "--splits", "2",
        "--m-min", "1", "--m-max", "3", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,mean_accuracy"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2, 3]


def test_sweep_with_no_width_that_fits_is_usage_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    rc = run(["sweep", "--algo", "pca", "--data", path, "--m-min", "5", "--m-max", "6",
              "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "[5, 6]" in payload["message"] and "width 3" in payload["message"]


def test_sweep_with_no_width_is_usage_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    rc = run(["sweep", "--algo", "pca", "--data", path, "--m-min", "3", "--m-max", "2",
              "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValueError", "message": "no widths requested"}


def test_sweep_width_below_one_is_usage_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    rc = run(["sweep", "--algo", "pca", "--data", path, "--m-min", "0", "--m-max", "2",
              "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError" and "at least 1" in payload["message"]


@pytest.mark.parametrize("command", [
    ["benchmark", "--algo", "lda", "--splits", "1"],
    ["sweep", "--algo", "pca", "--splits", "1"],
])
def test_zero_width_grid_is_usage_error(tmp_path, data_csv, capsys, command):
    # --m-max 0 asks for no width at all; it must not fall back to the default grid
    path, _ = data_csv
    out = ["--out", str(tmp_path / "out.csv")] if command[0] == "sweep" else []
    rc = run(command + ["--data", path, "--m-max", "0", *out])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ValueError"


@pytest.mark.parametrize("command", [
    ["benchmark", "--algo", "lda", "--m", "1"],
    ["sweep", "--algo", "pca", "--m-min", "1", "--m-max", "2"],
    ["sweep", "--algo", "mpda", "--param", "gamma", "--values", "1.0", "--m", "1"],
])
def test_zero_splits_is_usage_error(tmp_path, data_csv, capsys, command):
    path, _ = data_csv
    rc = run(command + ["--data", path, "--splits", "0", "--out", str(tmp_path / "out.csv")]
             if command[0] == "sweep" else command + ["--data", path, "--splits", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError" and "splits must be at least 1" in payload["message"]


@pytest.mark.parametrize("flags,message", [
    (["--param", "gamma", "--m", "1"], "--param needs --values and a fixed --m"),
    (["--param", "gamma", "--values", "--m", "1"], "--param needs --values and a fixed --m"),
    (["--param", "gamma", "--values", "1.0"], "--param needs --values and a fixed --m"),
    (["--param", "nonsense", "--values", "1", "--m", "1"], "unknown sweep parameter 'nonsense'"),
])
def test_sweep_flag_mistakes_are_usage_errors(tmp_path, data_csv, capsys, flags, message):
    path, _ = data_csv
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--algo", "mpda", "--data", path, *flags, "--out", str(out)])
    assert rc == 2 and not out.exists()
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError" and message in payload["message"]


def test_benchmark_empty_grid_flag_is_usage_error(data_csv, capsys):
    path, _ = data_csv
    rc = run(["benchmark", "--algo", "mpda", "--data", path, "--splits", "1", "--m-max", "2",
              "--grid-k"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError" and "'k'" in payload["message"]


@pytest.mark.parametrize("algo,flag", [("lda", "--grid-k"), ("pca", "--grid-gamma"),
                                       ("pca", "--grid-alpha")])
def test_benchmark_grid_flag_outside_the_algos_grid_is_usage_error(data_csv, capsys, algo, flag):
    path, _ = data_csv
    message = usage_error(capsys, ["benchmark", "--algo", algo, "--data", path, "--splits", "1",
                                   "--m-max", "1", flag, "3"])
    assert message.startswith(f"{flag} does not apply to {algo}")


def test_sweep_parameter_csv(tmp_path, data_csv):
    path, _ = data_csv
    out = tmp_path / "gamma.csv"
    rc = run([
        "sweep", "--algo", "mpda", "--data", path, "--splits", "1",
        "--param", "gamma", "--values", "0.1", "1.0", "--m", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,mean_accuracy" and len(lines) == 3


@pytest.mark.parametrize("param,values", [("k", ["3", "5"]), ("kprime", ["2", "4"])])
def test_sweep_values_take_the_flag_type(tmp_path, data_csv, param, values):
    path, _ = data_csv
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--algo", "mpda", "--data", path, "--splits", "1",
              "--param", param, "--values", *values, "--m", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == f"{param},mean_accuracy"
    assert [l.split(",")[0] for l in lines[1:]] == values


def test_config_file_flags_win(tmp_path, data_csv):
    path, ds = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo = mpda\nm = 2\ngamma = 0.5\n")
    from mpda.model import load_model

    # --config PATH, --config=PATH, and --config=PATH after the subcommand
    for i, (before, after) in enumerate([(["--config", str(cfg)], []),
                                         ([f"--config={cfg}"], []),
                                         ([], [f"--config={cfg}"])]):
        model_path = str(tmp_path / f"model{i}.bin")
        # --m on the command line overrides the config's m = 2
        rc = run([*before, "fit", *after, "--data", path, "--m", "1", "--out", model_path])
        assert rc == 0
        model = load_model(model_path)
        assert model.m == 1
        assert model.hyperparams["gamma"] == 0.5


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
def test_config_negative_value_reaches_the_range_check(tmp_path, data_csv, capsys, value):
    path, _ = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gamma = {value}\n")
    rc = run(["--config", str(cfg), "fit", "--algo", "mpda", "--data", path, "--m", "1",
              "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "ValueError", "message": "gamma must be nonnegative"}


@pytest.mark.parametrize("before,after", [
    (["--config", "{a}", "--config", "{b}"], []),
    (["--config={a}"], ["--config", "{b}"]),
    ([], ["--config", "{a}", "--config={b}"]),
])
def test_repeated_config_is_one_usage_error(tmp_path, data_csv, capsys, before, after):
    # neither file exists: the repeat is reported before any file is read
    path, _ = data_csv
    files = {"a": tmp_path / "a.cfg", "b": tmp_path / "b.cfg"}
    before, after = ([tok.format(**files) for tok in toks] for toks in (before, after))
    argv = [*before, "fit", *after, "--algo", "mpda", "--data", path, "--m", "1",
            "--out", str(tmp_path / "m.bin")]
    assert usage_error(capsys, argv) == "--config given twice"


def test_config_and_data_with_a_byte_order_mark(tmp_path, data_csv):
    from mpda.model import load_model

    path, _ = data_csv
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfgamma = 5\n")
    model_path = str(tmp_path / "m.bin")
    rc = run(["--config", str(cfg), "fit", "--algo", "mpda", "--data", str(data), "--m", "1",
              "--out", model_path])
    assert rc == 0
    assert load_model(model_path).hyperparams["gamma"] == 5.0


def test_config_unknown_key_rejected(tmp_path, data_csv):
    path, _ = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    rc = run(["--config", str(cfg), "fit", "--data", path, "--m", "1",
              "--out", str(tmp_path / "m.bin")])
    assert rc == 3


def scaled_csv(tmp_path, ds, factor):
    """``ds`` with its features times ``factor``, written as a CSV; returns its path."""
    rows = [",".join([str(int(c))] + [repr(float(v)) for v in row])
            for c, row in zip(ds.labels, ds.features * factor)]
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n")
    return big


@pytest.mark.parametrize("algo", ["mpda", "pmpda", "lda", "pca"])
def test_overflowing_scatters_are_compute_errors(tmp_path, data_csv, capsys, algo):
    # finite rows scaled by 1e200 parse, but their scatters (PCA's variances)
    # overflow: exit 4 with one JSON line on stderr, and no numpy warning
    # before it (a warning raises here, so it could not pass unseen)
    path, ds = data_csv
    big = scaled_csv(tmp_path, ds, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["fit", "--algo", algo, "--data", str(big), "--m", "1",
                  "--out", str(tmp_path / "m.bin")])
    assert rc == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "SolverFailureError"


def test_overflowing_pca_benchmark_exits_within_a_minute(tmp_path, data_csv):
    # features x 1e307: the column means overflow and centring makes NaN, on
    # which LAPACK's SVD can run for minutes; the CV's PCA fits must report
    # it instead.  A child process, so that a hang fails the test
    path, ds = data_csv
    big = scaled_csv(tmp_path, ds, 1e307)
    src = os.path.dirname(os.path.dirname(mpda.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "mpda.cli", "benchmark", "--algo", "pca", "--data", str(big),
         "--splits", "1", "--folds", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "SolverFailureError"


def test_fit_libsvm_input(tmp_path, rng):
    lines = []
    for i in range(12):
        c = 1 if i < 6 else 2
        base = 0.0 if c == 1 else 5.0
        v = [float(x) for x in base + rng.normal(0, 0.3, size=3)]
        lines.append(f"{c} 1:{v[0]!r} 2:{v[1]!r} 3:{v[2]!r}")
    path = tmp_path / "train.svm"
    path.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "model.bin")
    rc = run(["fit", "--algo", "lda", "--data", str(path), "--format", "libsvm",
              "--m", "1", "--out", out])
    assert rc == 0


def test_sweep_honours_partition_flags(tmp_path, data_csv, monkeypatch):
    import mpda.model
    from mpda.partition import partition_classes

    seen = []

    def spy(blocks, kprime, max_patch):
        seen.append(max_patch)
        return partition_classes(blocks, kprime, max_patch)

    monkeypatch.setattr(mpda.model, "partition_classes", spy)
    path, _ = data_csv
    rc = run(["sweep", "--algo", "mpda", "--data", path, "--splits", "1", "--m-max", "2",
              "--max-patch", "4", "--out", str(tmp_path / "dims.csv")])
    assert rc == 0
    assert seen and all(m == 4 for m in seen)


@pytest.mark.parametrize("command", [
    ["fit", "--algo", "mpda", "--m", "1", "--out", "m.bin"],
    ["sweep", "--algo", "mpda", "--out", "s.csv"],
    ["partition-inspect"],
])
def test_approximate_partition_flag_is_gone(data_csv, capsys, command):
    path, _ = data_csv
    message = usage_error(capsys, command + ["--data", path, "--approximate-partition"])
    assert message == "unrecognized arguments: --approximate-partition"


def test_approximate_partition_config_key_is_unknown(tmp_path, data_csv, capsys):
    path, _ = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("approximate_partition = true\n")
    rc = run(["--config", str(cfg), "fit", "--algo", "mpda", "--data", path, "--m", "1",
              "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "unknown key 'approximate_partition'" in json.loads(lines[0])["message"]


def test_fit_has_no_seed_flag(tmp_path, data_csv, capsys):
    path, _ = data_csv
    message = usage_error(capsys, ["fit", "--algo", "mpda", "--data", path, "--m", "1",
                                   "--seed", "3", "--out", str(tmp_path / "m.bin")])
    assert message == "unrecognized arguments: --seed 3"


def test_benchmark_has_no_jobs_flag(tmp_path, data_csv, capsys):
    path, _ = data_csv
    message = usage_error(capsys, ["benchmark", "--algo", "lda", "--data", path, "--splits",
                                   "1", "--m", "1", "--jobs", "2"])
    assert message == "unrecognized arguments: --jobs 2"


@pytest.mark.parametrize("flag,value", [
    ("--m", "0"), ("--k", "0"), ("--gamma", "-1"), ("--energy", "2"),
    ("--gamma", "nan"), ("--gamma", "inf"), ("--alpha", "nan"), ("--alpha", "inf"),
    ("--energy", "nan"),
    # argparse's own rejections: an untyped value, a value read as a flag
    ("--k", "nan"), ("--gamma", "-1e-3"),
])
def test_out_of_range_flag_value_is_usage_error(tmp_path, data_csv, capsys, flag, value):
    path, _ = data_csv
    argv = ["fit", "--algo", "mpda", "--data", path, "--m", "1", "--out", str(tmp_path / "m.bin")]
    assert usage_error(capsys, argv + [flag, value])  # argparse keeps the last --m


def test_undecodable_data_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe1,2\n")
    rc = run(["fit", "--algo", "mpda", "--data", str(bad), "--m", "1",
              "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize("algo,names", [
    ("mpda", ["k", "kprime", "max_patch", "gamma", "alpha", "energy"]),
    ("pmpda", ["k", "gamma", "alpha", "energy"]),
    ("lda", []),
    ("pca", []),
])
def test_fit_passes_each_algorithm_its_own_keywords(tmp_path, data_csv, algo, names):
    # the CLI reads the keywords from the protocol's fit table; PCA fits at
    # --m and takes no --energy, even though the flag is always parsed
    from mpda.cli import _hyperparams, build_parser

    path, _ = data_csv
    argv = ["fit", "--algo", algo, "--data", path, "--m", "1", "--out", str(tmp_path / "m.bin")]
    args = build_parser().parse_args(argv + ["--energy", "0.5"])
    assert list(_hyperparams(args)) == names
    assert run(argv + ["--energy", "0.5"]) == 0
    assert load_model(str(tmp_path / "m.bin")).hyperparams == {"m": 1, **_hyperparams(args)}


def test_hyper_flag_defaults_are_the_fit_defaults():
    import inspect

    from mpda.cli import build_parser

    fit_defaults = {n: p.default for n, p in inspect.signature(fit_mpda).parameters.items()}
    names = ("k", "kprime", "max_patch", "gamma", "alpha", "energy")
    for argv in (
        ["fit", "--algo", "mpda", "--data", "x.csv", "--m", "1", "--out", "m.bin"],
        ["sweep", "--algo", "mpda", "--data", "x.csv", "--out", "s.csv"],
    ):
        args = build_parser().parse_args(argv)
        assert {n: getattr(args, n) for n in names} == {n: fit_defaults[n] for n in names}


def data_error(capsys, argv):
    """Run argv, require exit 3 with one JSON line on stderr, return its payload."""
    rc = run(argv)
    lines = capsys.readouterr().err.splitlines()
    assert rc == 3 and len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("command", [[], ["nosuchcmd"]])
def test_config_without_a_known_subcommand_is_usage_error(tmp_path, capsys, command):
    argv = ["--config", str(tmp_path / "c.cfg"), *command]
    assert usage_error(capsys, argv) == "--config requires a known subcommand on the command line"


@pytest.mark.parametrize("value,rc", [("yes", 0), ("no", 3)])
def test_config_boolean_values(tmp_path, data_csv, capsys, value, rc):
    # "yes" skips the title line; with "no" it is a row whose label is not an integer
    path, _ = data_csv
    titled = tmp_path / "titled.csv"
    titled.write_text("label,a,b,c\n" + Path(path).read_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"header = {value}\n")
    assert run(["--config", str(cfg), "fit", "--algo", "pca", "--data", str(titled), "--m", "1",
                "--out", str(tmp_path / "m.bin")]) == rc


def test_config_boolean_of_another_word_is_data_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nheader = maybe\n")
    payload = data_error(capsys, ["--config", str(cfg), "fit", "--algo", "pca", "--data", path,
                                  "--m", "1", "--out", str(tmp_path / "m.bin")])
    assert payload["message"] == "config line 2: 'header' must be a boolean"


def test_config_list_key_reaches_the_cv_grid(tmp_path, data_csv, monkeypatch):
    path, _ = data_csv
    grids = []
    real = mpda.cli.benchmark
    monkeypatch.setattr(mpda.cli, "benchmark",
                        lambda ds, algo, **kw: grids.append(kw["grid"]) or real(ds, algo, **kw))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid-k = 3 5\ngrid_gamma = 1\ngrid-alpha = 1e-3\n")
    out = tmp_path / "report.json"
    rc = run(["--config", str(cfg), "benchmark", "--algo", "mpda", "--data", path,
              "--splits", "1", "--m", "1", "--out-json", str(out)])
    assert rc == 0 and grids == [{"k": [3, 5], "gamma": [1.0], "alpha": [1e-3]}]
    assert json.loads(out.read_text())["per_split_params"][0]["k"] in (3, 5)


def test_config_skips_blank_and_comment_lines(tmp_path, data_csv):
    path, _ = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# only a comment\n   \ngamma = 5  # trailing comment\n\n")
    model_path = tmp_path / "m.bin"
    rc = run(["--config", str(cfg), "fit", "--algo", "mpda", "--data", path, "--m", "1",
              "--out", str(model_path)])
    assert rc == 0 and load_model(str(model_path)).hyperparams["gamma"] == 5.0


def test_config_line_without_a_value_is_data_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 5\ngamma 6\n")
    payload = data_error(capsys, ["--config", str(cfg), "fit", "--algo", "mpda", "--data", path,
                                  "--m", "1", "--out", str(tmp_path / "m.bin")])
    assert payload["message"] == "config line 2: expected key=value"


def test_unreadable_config_is_data_error(tmp_path, data_csv, capsys):
    path, _ = data_csv
    missing = tmp_path / "missing.cfg"
    payload = data_error(capsys, ["--config", str(missing), "fit", "--algo", "mpda", "--data", path,
                                  "--m", "1", "--out", str(tmp_path / "m.bin")])
    assert payload["error"] == "DataError"
    assert payload["message"].startswith(f"cannot read config {missing}: ")


@pytest.mark.parametrize("short", [3, 8])
def test_transform_with_a_model_cut_short_is_data_error(tmp_path, data_csv, capsys, short):
    path, _ = data_csv
    model_path = tmp_path / "m.bin"
    assert run(["fit", "--algo", "pca", "--data", path, "--m", "2", "--out", str(model_path)]) == 0
    model_path.write_bytes(model_path.read_bytes()[:-short])
    capsys.readouterr()
    payload = data_error(capsys, ["transform", "--model", str(model_path), "--data", path,
                                  "--out", str(tmp_path / "emb.csv")])
    assert payload == {"error": "ParseError", "message": f"{model_path}: truncated model payload"}
