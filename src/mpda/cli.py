"""Command-line surface: fit, transform, benchmark, sweep, partition-inspect.

Exit codes: 0 success, 2 usage error (a bad flag or a value out of its
range), 3 data error, 4 compute error.
Failures print one JSON line on stderr: {"error": <class>, "message": ...}.

A ``--config PATH`` (or ``--config=PATH``) key=value file, named before
or after the subcommand, can mirror any long flag (keys use the flag name
without the leading dashes, hyphens or underscores both accepted);
explicit command-line flags win on conflict.  A second ``--config`` is a
usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from .dataset import load_dataset
from .errors import DataError, MpdaError
from .evaluation import (
    ALGORITHMS,
    DEFAULT_GRIDS,
    _FITS,
    benchmark,
    default_m_grid,
    dimension_sweep,
    fit_algorithm,
    parameter_sweep,
)
from .model import DEFAULT_ALPHA, DEFAULT_GAMMA, DEFAULT_K, load_model, save_model, transform
from .partition import DEFAULT_KPRIME, DEFAULT_MAX_PATCH, partition_classes
from .tangent import DEFAULT_ENERGY

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="path to the dataset file")
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--header", action="store_true", help="skip one CSV header line")


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kprime", type=int, default=DEFAULT_KPRIME, help="partition neighbor count")
    p.add_argument("--max-patch", type=int, default=DEFAULT_MAX_PATCH, help="patch size cap M")


def _add_protocol_flags(p: argparse.ArgumentParser, splits: int) -> None:
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--splits", type=int, default=splits)
    p.add_argument("--train-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pca-preprocess", choices=("auto", "on", "off"), default="auto")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=DEFAULT_K, help="neighbor count for the graphs")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA, help="tangent-consistency weight")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="Tikhonov regularizer")
    p.add_argument("--energy", type=float, default=DEFAULT_ENERGY, help="PCA energy for tangent bases")
    _add_partition_flags(p)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # ``run`` prints it as one JSON line, exit 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpda", description="Supervised dimensionality reduction toolkit"
    )
    parser.add_argument("--config", help="key=value file mirroring the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model and save it")
    _add_data_flags(p_fit)
    p_fit.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_fit.add_argument("--m", type=int, required=True, help="embedding dimensionality")
    _add_hyper_flags(p_fit)
    p_fit.add_argument("--out", required=True, help="model file to write")

    p_tr = sub.add_parser("transform", help="embed data with a saved model")
    _add_data_flags(p_tr)
    p_tr.add_argument("--model", required=True)
    p_tr.add_argument("--out", required=True, help="embeddings CSV to write")

    p_bm = sub.add_parser("benchmark", help="repeated-split protocol with CV")
    _add_data_flags(p_bm)
    _add_protocol_flags(p_bm, splits=20)
    p_bm.add_argument("--folds", type=int, default=4)
    p_bm.add_argument("--m", type=int, help="fix the dimensionality instead of CV")
    p_bm.add_argument("--grid-k", type=int, nargs="*", help="CV grid for k (mpda, pmpda)")
    p_bm.add_argument("--grid-gamma", type=float, nargs="*", help="CV grid for gamma (mpda, pmpda)")
    p_bm.add_argument("--grid-alpha", type=float, nargs="*", help="CV grid for alpha (mpda, pmpda)")
    p_bm.add_argument("--m-max", type=int, help="upper end of the m grid")
    p_bm.add_argument("--out-json", help="full report JSON path")
    p_bm.add_argument("--out-csv", help="per-split error table path")

    p_sw = sub.add_parser("sweep", help="dimension or parameter sweep")
    _add_data_flags(p_sw)
    _add_protocol_flags(p_sw, splits=5)
    p_sw.add_argument("--param", help="hyperparameter name for a parameter sweep")
    p_sw.add_argument("--values", nargs="*", help="values for --param, typed as its flag")
    p_sw.add_argument("--m", type=int, help="fixed m for a parameter sweep")
    p_sw.add_argument("--m-min", type=int, default=1, help="dimension sweep start")
    p_sw.add_argument("--m-max", type=int, help="dimension sweep end")
    _add_hyper_flags(p_sw)
    p_sw.add_argument("--out", required=True, help="CSV to write")
    p_sw.set_defaults(value_type={a.dest: a.type for a in p_sw._actions})

    p_pi = sub.add_parser("partition-inspect", help="dump per-patch diagnostics as JSON")
    _add_data_flags(p_pi)
    _add_partition_flags(p_pi)
    p_pi.add_argument("--out", help="output path (default: stdout)")
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config file entries into argv; explicit flags win on conflict."""
    given = [i for i, tok in enumerate(argv) if tok.split("=", 1)[0] == "--config"]
    if not given:
        return argv
    if len(given) > 1:
        parser.error("--config given twice")
    at = given[0]
    _, inline, path = argv[at].partition("=")  # --config=PATH or --config PATH
    if not inline:
        if at + 1 >= len(argv):
            parser.error("--config needs a path")
        path = argv[at + 1]
    rest = argv[:at] + argv[at + (1 if inline else 2) :]
    command = next((tok for tok in rest if not tok.startswith("-")), None)
    choices = parser._subparsers._group_actions[0].choices  # type: ignore[union-attr]
    if command not in choices:
        parser.error("--config requires a known subcommand on the command line")
    option_map = {
        opt: action for action in choices[command]._actions for opt in action.option_strings
    }
    present = {tok.split("=", 1)[0] for tok in rest if tok.startswith("--")}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    inject: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag not in option_map:
            raise DataError(f"config line {lineno}: unknown key {key!r} for {command}")
        if flag in present:
            continue
        action = option_map[flag]
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() in ("1", "true", "yes", "on"):
                inject.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise DataError(f"config line {lineno}: {key!r} must be a boolean")
        elif action.nargs in ("*", "+"):
            inject.append(flag)
            inject.extend(value.split())
        else:  # one token, so a value such as -1e-3 is not read as a flag
            inject.append(f"{flag}={value}")
    ci = rest.index(command)
    return rest[: ci + 1] + inject + rest[ci + 1 :]


def _hyperparams(args) -> dict:
    """The fit keywords of ``args.algo``: its fit's parameters after ``(train, m)``."""
    names = list(inspect.signature(_FITS[args.algo]).parameters)[2:]
    return {name: getattr(args, name) for name in names}


def cmd_fit(args) -> int:
    ds = load_dataset(args.data, args.format, args.header)
    model = fit_algorithm(args.algo, ds, args.m, _hyperparams(args))
    save_model(model, args.out)
    print(f"saved {args.algo} model ({model.d} -> {model.m}) to {args.out}")
    return EXIT_OK


def cmd_transform(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data, args.format, args.header)
    B = transform(model, ds.features)
    np.savetxt(args.out, B, delimiter=",", fmt="%.17g")
    print(f"wrote {B.shape[0]}x{B.shape[1]} embeddings to {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    grid = dict(DEFAULT_GRIDS[args.algo])
    for axis in ("k", "gamma", "alpha"):
        values = getattr(args, f"grid_{axis}")
        if values is None:
            continue
        if axis not in grid:
            raise ValueError(f"--grid-{axis} does not apply to {args.algo}")
        grid[axis] = values
    ds = load_dataset(args.data, args.format, args.header)
    m_grid = None if args.m_max is None else list(range(1, args.m_max + 1))
    report = benchmark(
        ds,
        args.algo,
        splits=args.splits,
        train_fraction=args.train_fraction,
        folds=args.folds,
        grid=grid,
        m_grid=m_grid,
        fixed_m=args.m,
        seed=args.seed,
        pca_mode=args.pca_preprocess,
    )
    payload = report.to_dict()
    summary = ("algorithm", "mean_error", "std_error", "mean_dimensionality")
    print(json.dumps({key: payload[key] for key in summary}))
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            for row in report.csv_rows():
                fh.write(",".join(str(v) for v in row) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    ds = load_dataset(args.data, args.format, args.header)
    params = _hyperparams(args)
    if args.param:
        if not args.values or args.m is None:
            raise ValueError("--param needs --values and a fixed --m")
        if args.param not in params:
            raise ValueError(f"unknown sweep parameter {args.param!r} for {args.algo}")
        base = {k: v for k, v in params.items() if k != args.param}
        values = [args.value_type[args.param](v) for v in args.values]
        rows = parameter_sweep(
            ds, args.algo, args.param, values, args.m,
            splits=args.splits, train_fraction=args.train_fraction,
            base_params=base, seed=args.seed, pca_mode=args.pca_preprocess,
        )
        header = (args.param, "mean_accuracy")
    else:
        top = default_m_grid(args.algo, ds)[-1] if args.m_max is None else args.m_max
        rows = dimension_sweep(
            ds, args.algo, list(range(args.m_min, top + 1)),
            splits=args.splits, train_fraction=args.train_fraction,
            params=params, seed=args.seed, pca_mode=args.pca_preprocess,
        )
        header = ("m", "mean_accuracy")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_partition_inspect(args) -> int:
    ds = load_dataset(args.data, args.format, args.header)
    labels = sorted(ds.class_counts)
    class_rows = [ds.class_indices(c) for c in labels]
    parts = partition_classes([ds.features[rows] for rows in class_rows], args.kprime, args.max_patch)
    out = [
        {
            "class": ds.label_names.get(c, c),
            "patches": [
                {"size": len(m), "linearity": float(lin), "members": rows[m].tolist()}
                for m, lin in zip(patches, linearity)
            ],
        }
        for c, rows, (patches, linearity) in zip(labels, class_rows, parts)
    ]
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "transform": cmd_transform,
    "benchmark": cmd_benchmark,
    "sweep": cmd_sweep,
    "partition-inspect": cmd_partition_inspect,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _apply_config(parser, list(argv))
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (MpdaError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        # unreadable or undecodable input is a data error, any other ValueError a usage error
        if isinstance(exc, (DataError, OSError, UnicodeDecodeError)):
            return EXIT_DATA
        return EXIT_COMPUTE if isinstance(exc, MpdaError) else EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
