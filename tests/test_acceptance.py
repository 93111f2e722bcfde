"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 7 needs a locally downloaded Bitcoin OTC edge list (see README);
it is skipped when the file is absent.
"""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from weightpred import (
    CountMetric,
    DatasetSpec,
    ExperimentConfig,
    KnnConfig,
    KnnModel,
    SvmConfig,
    KernelSpec,
    WeightKind,
    Weighting,
    build_snapshot,
    compute_fairness_goodness,
    fit_points,
    mae,
    rmse,
    run_experiment,
)
from weightpred.svm import predict_embeddings

from helpers import (
    brute_fairness_goodness,
    brute_knn,
    brute_neighbors,
    brute_profile,
    fig_graph,
    fig_weighting,
    random_graph,
    random_instance,
    snapshot_of,
    universe_of,
    write_rating_file,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[acceptance] criterion {number}: SKIP - {description}")
                raise
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL - {description}")
                raise
            print(f"[acceptance] criterion {number}: PASS - {description}")
        return wrapper
    return decorate


@criterion(1, "metric axioms on 200 random digraphs, all three metrics, < 10 s")
def test_criterion_1_metric_axioms():
    rng = np.random.default_rng(2020)
    started = time.monotonic()
    for _ in range(200):
        graph = random_graph(rng, max_edges=200)
        h = float(rng.uniform(1e-9, 1.0))
        for kind in (WeightKind.ORIGIN, WeightKind.TERMINAL, WeightKind.EDGE):
            universe = universe_of(graph, kind)
            size = int(rng.integers(0, len(universe) + 1))
            idx = rng.choice(len(universe), size=size, replace=False)
            weights = {
                universe[i]: float(rng.uniform(-1.0, 1.0)) for i in sorted(idx)
            }
            metric = CountMetric(graph, Weighting(kind, weights, -1.0, 1.0), h)
            picks = rng.integers(0, len(universe), size=(20, 3))
            for i, j, k in picks:
                x, y, z = universe[i], universe[j], universe[k]
                dxy = metric.distance(x, y)
                assert dxy >= 0
                assert dxy == metric.distance(y, x)
                assert metric.distance(x, z) <= dxy + metric.distance(y, z)
                assert (dxy == 0) == (
                    metric.profile(x).band_count == metric.profile(y).band_count
                )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"


@criterion(2, "seven-edge example golden values reproduce")
def test_criterion_2_golden_values():
    graph = fig_graph()
    ow = fig_weighting(WeightKind.ORIGIN)
    tw = fig_weighting(WeightKind.TERMINAL)
    ew = fig_weighting(WeightKind.EDGE)

    from weightpred import neighbors

    assert set(neighbors(graph, ow, "a")) == {"b", "c"}
    assert set(neighbors(graph, ow, "d")) == {"b"}
    assert set(neighbors(graph, ow, "b")) == {"b"}
    assert set(neighbors(graph, tw, "1")) == {"2"}
    assert set(neighbors(graph, tw, "3")) == set()
    assert set(neighbors(graph, tw, "2")) == {"2", "4"}
    assert set(neighbors(graph, ew, ("a", "1"))) == {("b", "1")}
    assert set(neighbors(graph, ew, ("d", "3"))) == {("b", "3")}
    assert set(neighbors(graph, ew, ("b", "1"))) == {("b", "1"), ("b", "3")}

    mo = CountMetric(graph, ow, 0.2)
    assert mo.profile("a").avg_weight == pytest.approx(0.45, abs=1e-12)
    assert mo.profile("d").avg_weight == pytest.approx(0.3, abs=1e-12)
    assert mo.profile("a").band_count == 2
    assert mo.profile("d").band_count == 1
    assert mo.distance("a", "d") == 1
    assert mo.distance("a", "a") == 0
    assert mo.transfer("a") == 2.0

    me = CountMetric(graph, ew, 0.2)
    assert me.profile(("b", "1")).avg_weight == pytest.approx(0.315, abs=1e-12)
    assert me.profile(("a", "1")).band_count == 1
    assert me.profile(("d", "3")).band_count == 1
    assert me.distance(("a", "1"), ("d", "3")) == 0
    assert me.transfer(("d", "3")) == 1.0

    pred = KnnModel(mo, ["b", "c"], KnnConfig(k=1)).predict("a")
    assert pred.value == pytest.approx(0.45, abs=1e-12)
    fallback = KnnModel(mo, ["b", "c"], KnnConfig(k=1)).predict("d")
    assert fallback.used_fallback
    assert fallback.value == pytest.approx(0.45, abs=1e-12)


@criterion(3, "indexed implementation matches quadratic oracles on 50 graphs")
def test_criterion_3_brute_force_equivalence():
    rng = np.random.default_rng(3030)
    for _ in range(50):
        graph, weighting, h = random_instance(rng, max_edges=30)
        metric = CountMetric(graph, weighting, h)
        universe = universe_of(graph, weighting.kind)
        training = list(weighting.weights)

        from weightpred import neighbors

        for elem in universe:
            assert set(neighbors(graph, weighting, elem)) == brute_neighbors(
                graph, weighting, elem
            )
            want_avg, want_count = brute_profile(graph, weighting, elem, h)
            prof = metric.profile(elem)
            assert prof.avg_weight == want_avg
            assert prof.band_count == want_count

        if not training:
            continue
        counts = {a: brute_profile(graph, weighting, a, h)[1] for a in training}
        k = int(rng.integers(1, 5))
        for policy in ("exclude", "include"):
            model = KnnModel(
                metric, training, KnnConfig(k=k, zero_distance_policy=policy)
            )
            for elem in universe:
                qc = brute_profile(graph, weighting, elem, h)[1]
                want, want_deg = brute_knn(counts, qc, training, k, policy)
                got = model.neighborhood(elem)
                assert set(got.elements) == want
                assert got.degenerate == want_deg


@criterion(4, "fairness/goodness fixed point, oracle match within 1e-9, ranges hold")
def test_criterion_4_fairness_goodness():
    from weightpred import build_graph

    g = build_graph([("a", "1"), ("a", "2"), ("b", "1"), ("c", "3")])
    unit = compute_fairness_goodness(g, {e: 1.0 for e in g.edges})
    assert unit.converged and unit.iterations == 1
    assert all(v == 1.0 for v in unit.fairness.values())
    assert all(v == 1.0 for v in unit.goodness.values())

    rng = np.random.default_rng(4040)
    for _ in range(20):
        graph = random_graph(rng, max_edges=25)
        weights = {e: float(rng.uniform(-1.0, 1.0)) for e in graph.edges}
        scores = compute_fairness_goodness(graph, weights)
        f, gd, _, conv = brute_fairness_goodness(list(graph.edges), weights)
        assert conv == scores.converged
        for o in graph.origins:
            assert abs(scores.fairness[o] - f[o]) <= 1e-9
            assert 0.0 <= scores.fairness[o] <= 1.0
        for t in graph.terminals:
            assert abs(scores.goodness[t] - gd[t]) <= 1e-9
            assert -1.0 <= scores.goodness[t] <= 1.0


@criterion(5, "ridge fits match closed-form solves; constant labels exact")
def test_criterion_5_svm_sanity():
    # Single point: the unpenalized intercept absorbs the label exactly.
    for kernel in (KernelSpec("linear"), KernelSpec("rbf", gamma=1.0)):
        model = fit_points([(2.0, 0.7)], SvmConfig(kernel=kernel), (-1, 1))
        assert abs(predict_embeddings(model, [2.0]).raw[0] - 0.7) < 1e-9

    # Two points, linear kernel, against an augmented least-squares solve.
    points = [(0.0, 0.3), (1.0, 0.9)]
    lam = 1e-3
    model = fit_points(
        points, SvmConfig(kernel=KernelSpec("linear"), regularization=lam), (-1, 1)
    )
    u = np.array([p for p, _ in points])
    y = np.array([l for _, l in points])
    design = np.hstack([np.ones((2, 1)), np.outer(u, u) * y[None, :]])
    penalty = np.sqrt(lam) * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    beta, *_ = np.linalg.lstsq(
        np.vstack([design, penalty]), np.concatenate([y, [0.0, 0.0]]), rcond=None
    )
    assert abs(model.intercept - beta[0]) < 1e-9
    assert np.abs(np.array(model.coefficients) - beta[1:]).max() < 1e-9

    constant = fit_points(
        [(0.0, 0.4), (1.0, 0.4), (3.0, 0.4)],
        SvmConfig(kernel=KernelSpec("rbf", gamma=0.5)),
        (-1, 1),
    )
    for q in (0.0, 1.0, 3.0, 9.0):
        assert abs(predict_embeddings(constant, [q]).raw[0] - 0.4) < 1e-6


def _synthetic_snapshot(n_edges, seed):
    rng = np.random.default_rng(seed)
    pairs, records = set(), []
    while len(records) < n_edges:
        o, t = f"o{rng.integers(25)}", f"t{rng.integers(25)}"
        if (o, t) in pairs:
            continue
        pairs.add((o, t))
        records.append((o, t, float(rng.uniform(-1.0, 1.0))))
    return snapshot_of(records)


@criterion(6, "MAE/RMSE hand cases exact to 1e-12; rmse >= mae on all reports")
def test_criterion_6_error_metrics():
    assert mae([0.1, -0.4], [0.1, -0.4]) == pytest.approx(0.0, abs=1e-12)
    assert mae([0.5, -0.5], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
    assert mae([0.3], [0.7]) == pytest.approx(0.4, abs=1e-12)
    assert rmse([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert rmse([0.5, 0.0], [0.0, 0.0]) == pytest.approx(0.125 ** 0.5, abs=1e-12)

    snap = _synthetic_snapshot(150, seed=66)
    for task in ("origin", "terminal", "edge"):
        for method in ("knn", "svm"):
            for seed in (0, 1):
                report = run_experiment(
                    snap,
                    ExperimentConfig(task=task, method=method, seed=seed),
                ).report
                assert report.rmse >= report.mae * (1 - 1e-12) >= 0.0

    # Constant-weight network: every method is exact.
    pairs = dict.fromkeys((f"o{i % 9}", f"t{(i * 5) % 13}") for i in range(50))
    snap_const = snapshot_of((o, t, -0.3) for o, t in pairs)
    for method in ("knn", "svm"):
        report = run_experiment(
            snap_const, ExperimentConfig(task="edge", method=method, seed=3)
        ).report
        assert report.mae == pytest.approx(0.0, abs=1e-12)
        assert report.rmse == pytest.approx(0.0, abs=1e-12)


def _bitcoin_otc_path():
    env = os.environ.get("WEIGHTPRED_BITCOIN_OTC")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "soc-sign-bitcoinotc.csv"
    if default.exists():
        return default
    return None


@criterion(7, "full-scale Bitcoin OTC benchmark within tolerance bands")
def test_criterion_7_benchmark_scale():
    path = _bitcoin_otc_path()
    if path is None:
        pytest.skip(
            "Bitcoin OTC edge list not found (set WEIGHTPRED_BITCOIN_OTC or "
            "place data/soc-sign-bitcoinotc.csv)"
        )
    spec = DatasetSpec(
        path=str(path), weight_range=(-10.0, 10.0), has_timestamp=True, delimiter=","
    )
    snapshot = build_snapshot(spec)
    bands = {
        "edge": {"mae": (0.10, 0.35), "rmse": (0.20, 0.45)},
        "origin": {"mae": (0.03, 0.20)},
        "terminal": {"mae": (0.04, 0.25)},
    }
    for task, checks in bands.items():
        started = time.monotonic()
        for method in ("knn", "svm"):
            config = ExperimentConfig(
                task=task,
                method=method,
                seed=0,
                sample_size=5000,
                train_count=3500 if task == "edge" else None,
            )
            report = run_experiment(snapshot, config).report
            lo, hi = checks["mae"]
            assert lo <= report.mae <= hi, (
                f"{task}/{method} MAE {report.mae:.4f} outside [{lo}, {hi}]"
            )
            if "rmse" in checks:
                lo, hi = checks["rmse"]
                assert lo <= report.rmse <= hi, (
                    f"{task}/{method} RMSE {report.rmse:.4f} outside [{lo}, {hi}]"
                )
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"{task} task took {elapsed:.0f}s"


@criterion(8, "same seed and config give byte-identical reports across processes")
def test_criterion_8_determinism(tmp_path):
    raw = write_rating_file(tmp_path / "ratings.csv", n_edges=300, seed=88)
    snap_path = tmp_path / "snap.json"
    ingest = subprocess.run(
        [sys.executable, "-m", "weightpred.cli", "ingest",
         "--input", str(raw), "--output", str(snap_path),
         "--weight-min", "-10", "--weight-max", "10", "--timestamp"],
        capture_output=True, text=True,
    )
    assert ingest.returncode == 0, ingest.stderr

    blobs = []
    for name in ("first", "second"):
        report = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "weightpred.cli", "evaluate",
             "--snapshot", str(snap_path), "--task", "edge", "--method", "svm",
             "--sample-size", "250", "--train-count", "175", "--seed", "21",
             "--report", str(report)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]
    json.loads(blobs[0])  # the artifact is valid JSON
