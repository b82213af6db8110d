"""Spans around every public function of mpda's layers, and per-layer metrics.

The layers are the modules of ``src/mpda``.  The package imports functions
by name (``model``, ``partition``, ``tangent`` and ``geodesy`` all do
``from .graph import knn_neighbors``), so wrapping only the defining module
would miss calls: ``Tracer.install`` replaces each public function at every
module attribute of the package that refers to it, and ``uninstall`` puts
the originals back.  Nothing under ``src/`` changes.

Each wrapper records a span (name, start, end, parent) and a call count.
A few wrappers also probe arguments and results for sizes; probes run on
a paused clock, so their cost shows in no span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("dataset", "graph", "geodesy", "partition", "tangent", "model", "evaluation", "baselines")

# wrapped function -> the metric its self time counts toward.  A wrapped
# function not listed here counts toward its nearest listed caller in the
# same layer (pairwise_euclidean inside knn_neighbors is kNN time), and
# failing that toward "<layer>.other_s".
TIME_METRICS = {
    "dataset.load_dataset": "dataset.load_s",
    "graph.knn_neighbors": "graph.knn_s",
    "graph.between_class_graph": "graph.between_s",
    "graph.within_class_graph": "graph.within_s",
    "geodesy.geodesic_distances": "geodesy.shortest_path_s",
    "geodesy.graph_components": "geodesy.components_s",
    "geodesy.patch_linearity": "geodesy.linearity_s",
    "partition.partition_class": "partition.s",
    "partition.split_patch": "partition.s",
    "tangent.fit_tangent_basis": "tangent.s",
    "tangent.per_point_bases": "tangent.s",
    "model.assemble_within": "model.assemble_within_s",
    "model.assemble_between": "model.assemble_between_s",
    "model.solve_gep": "model.solve_s",
    "evaluation.cross_validate": "evaluation.cv_s",
    "evaluation.nn_classify": "evaluation.score_s",
    "evaluation.error_rate": "evaluation.score_s",
    "baselines.fit_pca": "baselines.pca_s",
}

# metric -> unit, in report order.  Times are self seconds per workload call
# (dataset.load_s: of the set-up parse); counts are per workload call.
UNITS = {
    **{m: "s" for m in dict.fromkeys(TIME_METRICS.values())},
    **{f"{layer}.other_s": "s" for layer in LAYERS},
    "graph.knn_calls": "count",
    "graph.between_dense_bytes": "bytes",
    "graph.within_edges": "count",
    "partition.calls": "count",
    "partition.patches": "count",
    "partition.split_calls": "count",
    "partition.distinct_ratio": "ratio",
    "tangent.bases": "count",
    "tangent.rank_mean": "dims",
    "model.stacked_dim": "dims",
    "model.solve_flops": "flop",
    "model.eig_residual_max": "ratio",
    "evaluation.fits": "count",
    "trace.overhead_frac": "ratio",
}

# count metrics -> the wrapped function whose calls feed them
COUNT_SOURCES = {
    "graph.knn_calls": "graph.knn_neighbors",
    "graph.between_dense_bytes": "graph.between_class_graph",
    "graph.within_edges": "graph.within_class_graph",
    "partition.calls": "partition.partition_class",
    "partition.patches": "partition.partition_class",
    "partition.split_calls": "partition.split_patch",
    "partition.distinct_ratio": "partition.partition_class",
    "tangent.bases": "tangent.fit_tangent_basis",
    "tangent.rank_mean": "tangent.fit_tangent_basis",
    "model.stacked_dim": "model.solve_gep",
    "model.solve_flops": "model.solve_gep",
    "model.eig_residual_max": "model.solve_gep",
    "evaluation.fits": "evaluation.fit_algorithm",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _digest(value, h) -> None:
    if isinstance(value, np.ndarray):
        h.update(repr((value.shape, value.dtype.str)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def solve_flops(n: int, m: int) -> float:
    """Computed LAPACK operation count of a dense generalized eigensolve
    (sygvx: Cholesky n^3/3, reduction n^3, tridiagonalisation 4n^3/3,
    back-transformation of m vectors 3n^2 m)."""
    return (8.0 / 3.0) * n**3 + 3.0 * n * n * m


def eig_residual(S_between, S_within, alpha, vals, vecs) -> float:
    """max over eigenpairs of |S'f - l (S + aI) f| / (|l| |(S + aI) f|)."""
    Bf = S_within @ vecs + alpha * vecs
    R = S_between @ vecs - Bf * vals
    lam = np.abs(vals)
    keep = lam > 1e-300
    if not keep.any():
        return 0.0
    ratio = np.linalg.norm(R, axis=0)[keep] / (lam[keep] * np.linalg.norm(Bf, axis=0)[keep])
    return float(np.max(ratio))


def _probe_between(rec, args, result):
    n = len(args["X"])
    rec["graph.between_dense_bytes"].append(8 * n * n)  # the dense n x n float64 result


def _probe_within(rec, args, result):
    rec["graph.within_edges"].append(result.nnz // 2)  # undirected edges


def _probe_partition(rec, args, result):
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(args):
        h.update(name.encode())
        _digest(args[name], h)
    rec["partition.inputs"].append(h.hexdigest())
    rec["partition.patches"].append(result.n_patches)


def _probe_tangent(rec, args, result):
    rec["tangent.rank"].append(result.dim)


def _probe_solve(rec, args, result):
    vals, vecs = result
    n = np.shape(args["S_between"])[0]
    rec["model.stacked_dim"].append(n)
    rec["model.solve_flops"].append(solve_flops(n, len(vals)))
    rec["model.eig_residual"].append(
        eig_residual(args["S_between"], args["S_within"], args["alpha"], vals, vecs)
    )


PROBES = {
    "graph.between_class_graph": _probe_between,
    "graph.within_class_graph": _probe_within,
    "partition.partition_class": _probe_partition,
    "tangent.fit_tangent_basis": _probe_tangent,
    "model.solve_gep": _probe_solve,
}


class Tracer:
    """Records spans, call counts and probe samples while installed."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._paused = 0.0
        self.probe_failures: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def now(self) -> float:
        """Wall clock minus the time spent in probes."""
        return time.perf_counter() - self._paused

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.now(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        self.counts[name] += 1
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = self.now()
        self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if probe is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    probe(self.samples, bound.arguments, result)
                except (KeyError, TypeError, AttributeError, ValueError):
                    # a changed signature or result: report, keep tracing
                    self.probe_failures[name] += 1
                self._paused += time.perf_counter() - t0
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of every layer wherever the package binds it."""
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    names[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def _time_metric(spans: list[Span], i: int) -> str | None:
    """The metric span ``i``'s self time counts toward (None for the root)."""
    name = spans[i].name
    if "." not in name:
        return None
    layer = name.split(".", 1)[0]
    j: int | None = i
    while j is not None:
        listed = TIME_METRICS.get(spans[j].name)
        if listed is not None and spans[j].name.startswith(layer + "."):
            return listed
        j = spans[j].parent
    return f"{layer}.other_s"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced workload call (every key in UNITS
    except ``trace.overhead_frac``)."""
    spans, counts, samples = tracer.spans, tracer.counts, tracer.samples
    out = {name: 0.0 for name in UNITS if name != "trace.overhead_frac"}
    for i, self_s in enumerate(self_times(spans)):
        metric = _time_metric(spans, i)
        if metric is not None:
            out[metric] += self_s
    out["graph.knn_calls"] = counts["graph.knn_neighbors"]
    out["graph.between_dense_bytes"] = sum(samples["graph.between_dense_bytes"])
    out["graph.within_edges"] = sum(samples["graph.within_edges"])
    calls = counts["partition.partition_class"]
    out["partition.calls"] = calls
    out["partition.patches"] = sum(samples["partition.patches"])
    out["partition.split_calls"] = counts["partition.split_patch"]
    out["partition.distinct_ratio"] = len(set(samples["partition.inputs"])) / calls if calls else 0.0
    out["tangent.bases"] = counts["tangent.fit_tangent_basis"]
    ranks = samples["tangent.rank"]
    out["tangent.rank_mean"] = float(np.mean(ranks)) if ranks else 0.0
    out["model.stacked_dim"] = max(samples["model.stacked_dim"], default=0)
    out["model.solve_flops"] = sum(samples["model.solve_flops"])
    out["model.eig_residual_max"] = max(samples["model.eig_residual"], default=0.0)
    out["evaluation.fits"] = counts["evaluation.fit_algorithm"]
    return out


def not_exercised(counts: Counter) -> dict[str, str]:
    """Metrics that read 0 because their functions never ran, with the reason."""
    out = {}
    sources = {**{m: [f for f, t in TIME_METRICS.items() if t == m] for m in set(TIME_METRICS.values())},
               **{m: [f] for m, f in COUNT_SOURCES.items()}}
    for metric, functions in sorted(sources.items()):
        if not any(counts[f] for f in functions):
            out[metric] = "no call to " + " or ".join(f"mpda.{f}" for f in functions)
    return out
