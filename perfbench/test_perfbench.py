"""Tests of the benchmark itself: inputs, output checks, tracing, steadiness."""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import pytest

import run
import steady
import tracing
import workloads
from worker import ROOT, import_mpda

mpda = import_mpda()


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_gives_byte_identical_csv(tmp_path, name):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        workloads.write_csv(str(path), *workloads.generate(name, seed))
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other
    spec = workloads.SPECS[name]
    rows = first.decode().splitlines()
    assert len(rows) == spec.n and len(rows[0].split(",")) == spec.d + 1


def test_inputs_depend_on_seed_modulo_recorded_seeds():
    a = workloads.generate("vehicle-split", 3)
    b = workloads.generate("vehicle-split", 3 + workloads.N_DATA_SEEDS)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _vehicle_reference() -> dict:
    return workloads.load_reference("vehicle-split")["seeds"]["0"]


def test_output_check_accepts_reference_and_last_bit_changes():
    ref = _vehicle_reference()
    outputs = copy.deepcopy(ref)
    assert workloads.compare(outputs, ref) == []
    outputs["eigenvalues"][0] *= 1 + 1e-14
    assert workloads.compare(outputs, ref) == []


def test_output_check_flags_perturbed_eigenvalue():
    ref = _vehicle_reference()
    outputs = copy.deepcopy(ref)
    outputs["eigenvalues"][-1] += 1e-6 * max(abs(v) for v in ref["eigenvalues"])
    assert any("eigenvalues" in p for p in workloads.compare(outputs, ref))


def test_output_check_flags_changed_best_params_and_table():
    ref = _vehicle_reference()
    outputs = copy.deepcopy(ref)
    outputs["best_params"]["k"] = 3 if ref["best_params"]["k"] != 3 else 7
    assert workloads.compare(outputs, ref) == ["best_params differs from the reference"]
    outputs = copy.deepcopy(ref)
    outputs["cv_table"][5][2] += 1e-12
    assert workloads.compare(outputs, ref) == ["cv_table differs from the reference"]


def test_self_times_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("a.child", 1.5, 2.0, 1),
        S("a.child", 2.5, 3.5, 1),
        S("b", 5.0, 9.0, 0),
        S("b.child", 5.0, 9.0, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0])


def test_self_times_count_overlapping_children_once():
    S = tracing.Span
    spans = [S("p", 0.0, 10.0, None), S("c", 2.0, 6.0, 0), S("c", 4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_goes_to_nearest_listed_caller_in_same_layer():
    S = tracing.Span
    spans = [
        S("call", 0.0, 10.0, None),
        S("graph.knn_neighbors", 0.0, 4.0, 0),
        S("graph.pairwise_euclidean", 0.0, 3.0, 1),
        S("model.assemble_between", 4.0, 9.0, 0),
        S("graph.laplacian", 4.0, 5.0, 3),
    ]
    tracer = tracing.Tracer()
    tracer.spans = spans
    metrics = tracing.layer_metrics(tracer)
    assert metrics["graph.knn_s"] == pytest.approx(4.0)
    assert metrics["graph.other_s"] == pytest.approx(1.0)
    assert metrics["model.assemble_between_s"] == pytest.approx(4.0)


def test_wrappers_count_knn_through_model_and_graph():
    if not hasattr(mpda.model, "knn_neighbors"):
        pytest.skip("mpda.model no longer binds knn_neighbors")
    original = mpda.graph.knn_neighbors
    X = np.random.default_rng(0).normal(size=(12, 3))
    tracer = tracing.Tracer()
    tracer.install(mpda)
    try:
        assert mpda.model.knn_neighbors is mpda.graph.knn_neighbors is not original
        mpda.graph.knn_neighbors(X, 2)
        mpda.model.knn_neighbors(X, 3)
    finally:
        tracer.uninstall()
    assert tracer.counts["graph.knn_neighbors"] == 2
    assert mpda.model.knn_neighbors is original and mpda.graph.knn_neighbors is original


def test_traced_fit_reports_every_layer_metric():
    rng = np.random.default_rng(1)
    X = np.concatenate([rng.normal(size=(15, 4)), rng.normal(loc=2.0, size=(15, 4))])
    ds = mpda.LabeledDataset(X, np.repeat([1, 2], 15))
    tracer = tracing.Tracer()
    tracer.install(mpda)
    try:
        tracer.run("call", mpda.fit_mpda, ds, m=2, max_patch=5)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.UNITS) - {"trace.overhead_frac"}
    assert metrics["graph.knn_calls"] >= 1
    assert tracer.probe_failures == {}
    assert "baselines.pca_s" in tracing.not_exercised(tracer.counts)


def test_solve_probe_reports_size_flops_and_residual():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(8, 8))
    G = rng.normal(size=(8, 3))
    tracer = tracing.Tracer()
    tracer.install(mpda)
    try:
        mpda.model.solve_gep(G @ G.T, F @ F.T, 1e-3, 2)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["model.stacked_dim"] == 8
    assert metrics["model.solve_flops"] == tracing.solve_flops(8, 2)
    assert 0.0 < metrics["model.eig_residual_max"] < 1e-8
    assert metrics["model.solve_s"] > 0.0


def test_steadiness_verdict():
    bound = {"name": "e2e_s.p50", "better": "lower", "bound": 0.2}
    steady_set = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert steady.verdict(bound, [steady_set, steady_set])[0]
    slower = [v * 1.3 for v in steady_set]
    assert not steady.verdict(bound, [steady_set, slower])[0]
    faster = [v * 0.7 for v in steady_set]
    assert steady.verdict(bound, [steady_set, faster])[0]
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.5, 1.5]
    assert not steady.verdict(bound, [wide, wide])[0]
    assert steady.verdict({**bound, "name": "setup_s"}, [wide, wide])[0]


def test_benchmark_json_lists_the_metrics_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    assert {w["name"] for w in config["workloads"]} == set(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == tracing.UNITS
    setup_bound = next(m["bound"] for m in config["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in config["end_to_end"])
