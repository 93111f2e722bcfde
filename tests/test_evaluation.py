"""Scoring functions, the experiment pipeline, and report artifacts."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightpred import (
    EdgeRecord,
    ExperimentConfig,
    Snapshot,
    mae,
    rmse,
    run_experiment,
)
from weightpred import svm as svm_mod
from weightpred.evaluation import (
    METHODS,
    format_tables,
    read_predictions,
    write_predictions,
)
from weightpred.ingest import TASKS

weight_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
)


class TestMaeRmse:
    def test_identical_sequences_are_zero(self):
        assert mae([0.1, -0.4], [0.1, -0.4]) == 0.0
        assert rmse([0.1, -0.4], [0.1, -0.4]) == 0.0

    def test_hand_arithmetic(self):
        assert mae([0.5, -0.5], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert mae([0.3], [0.7]) == pytest.approx(0.4, abs=1e-12)
        assert rmse([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert rmse([0.5, 0.0], [0.0, 0.0]) == pytest.approx(
            math.sqrt(0.125), abs=1e-12
        )

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError):
            mae([], [])
        with pytest.raises(ValueError):
            rmse([0.1], [0.1, 0.2])

    @given(weight_lists, weight_lists)
    @settings(max_examples=100)
    def test_rmse_dominates_mae(self, preds, truths):
        n = min(len(preds), len(truths))
        p, t = preds[:n], truths[:n]
        assert rmse(p, t) >= mae(p, t) * (1.0 - 1e-12)


def _synthetic_snapshot(n_edges=60, seed=0, n_vertices=12):
    rng = np.random.default_rng(seed)
    pairs = set()
    records = []
    while len(records) < n_edges:
        o, t = f"o{rng.integers(n_vertices)}", f"t{rng.integers(n_vertices)}"
        if (o, t) in pairs:
            continue
        pairs.add((o, t))
        records.append(EdgeRecord(o, t, float(rng.uniform(-1.0, 1.0))))
    origins, terminals = [], []
    for r in records:
        if r.origin not in origins:
            origins.append(r.origin)
        if r.terminal not in terminals:
            terminals.append(r.terminal)
    return Snapshot(
        edges=tuple(records),
        origins=tuple(origins),
        terminals=tuple(terminals),
        raw_weight_range=(-1.0, 1.0),
        provenance={"source_path": "synthetic", "source_sha256": "0" * 64,
                    "sampling": None},
    )


def _constant_snapshot(n_edges=40):
    records = [EdgeRecord(f"o{i % 8}", f"t{(i * 3) % 11}", 0.25) for i in range(n_edges)]
    dedup = list({r.pair: r for r in records}.values())
    origins = list(dict.fromkeys(r.origin for r in dedup))
    terminals = list(dict.fromkeys(r.terminal for r in dedup))
    return Snapshot(
        edges=tuple(dedup),
        origins=tuple(origins),
        terminals=tuple(terminals),
        raw_weight_range=(-1.0, 1.0),
        provenance={"source_path": "synthetic", "source_sha256": "0" * 64,
                    "sampling": None},
    )


def _config(task, method, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("sample_size", None)
    return ExperimentConfig(task=task, method=method, **kw)


class TestRunExperiment:
    @pytest.mark.parametrize("task", ["edge", "origin", "terminal"])
    @pytest.mark.parametrize("method", ["knn", "svm"])
    def test_all_tasks_and_methods_produce_reports(self, task, method):
        snap = _synthetic_snapshot()
        result = run_experiment(snap, _config(task, method))
        rep = result.report
        assert rep.task == task and rep.method == method
        assert rep.n_test == len(result.predictions)
        assert rep.rmse >= rep.mae * (1 - 1e-12) >= 0.0
        assert rep.h > 0
        assert rep.prng == "numpy-pcg64"
        assert rep.snapshot_digest == snap.digest()
        assert rep.tie_stats["distinct_train_counts"] >= 1

    def test_constant_weight_network_scores_zero(self):
        snap = _constant_snapshot()
        for method in ("knn", "svm"):
            rep = run_experiment(snap, _config("edge", method)).report
            assert rep.mae == pytest.approx(0.0, abs=1e-12)
            assert rep.rmse == pytest.approx(0.0, abs=1e-12)
            assert rep.flags["h_stddev_zero"] == 1

    def test_same_seed_reproduces_report_bytes(self):
        snap = _synthetic_snapshot()
        a = run_experiment(snap, _config("edge", "knn")).report.to_json()
        b = run_experiment(snap, _config("edge", "knn")).report.to_json()
        assert a == b

    def test_different_seeds_differ(self):
        snap = _synthetic_snapshot(n_edges=120)
        a = run_experiment(snap, _config("edge", "knn", seed=1)).report
        b = run_experiment(snap, _config("edge", "knn", seed=2)).report
        assert a.to_json() != b.to_json()

    def test_vertex_task_weight_ranges(self):
        snap = _synthetic_snapshot(n_edges=90, seed=3)
        for task, lo, hi in (("origin", 0.0, 1.0), ("terminal", -1.0, 1.0)):
            result = run_experiment(snap, _config(task, "svm"))
            for row in result.predictions:
                assert lo <= row.predicted <= hi
                assert lo <= row.truth <= hi

    def test_fixed_h_override(self):
        snap = _synthetic_snapshot()
        rep = run_experiment(
            snap, _config("edge", "knn", h_mode="fixed", h_value=0.33)
        ).report
        assert rep.h == 0.33

    def test_flag_counters_present(self):
        snap = _synthetic_snapshot()
        rep = run_experiment(snap, _config("edge", "svm")).report
        assert set(rep.flags) == {
            "fallback_mean", "degenerate", "clamped", "h_stddev_zero",
        }

    @pytest.mark.parametrize("task", TASKS)
    def test_one_answer_per_distinct_test_count(self, task, monkeypatch):
        fit, predict_raw = svm_mod.fit, svm_mod._predict_raw
        metrics, embeddings = [], []

        def spy_fit(metric, training, config):
            metrics.append(metric)
            return fit(metric, training, config)

        def spy_predict_raw(model, u):
            embeddings.append(u)
            return predict_raw(model, u)

        monkeypatch.setattr(svm_mod, "fit", spy_fit)
        monkeypatch.setattr(svm_mod, "_predict_raw", spy_predict_raw)
        snap = _synthetic_snapshot(n_edges=300, n_vertices=40)
        rows, tallies = {}, {}
        for method in METHODS:
            # k=8 leaves most kNN answers degenerate, so the tally is not all 0.
            result = run_experiment(snap, _config(task, method, k=8))
            rows[method] = result.predictions
            tallies[method] = Counter(f for row in rows[method] for f in row.flags)
            assert result.report.flags == {
                "fallback_mean": 0, "degenerate": 0, "clamped": 0,
                **tallies[method],
                "h_stddev_zero": result.report.flags["h_stddev_zero"],
            }
        assert tallies["knn"]["degenerate"] > 0
        (metric,) = metrics
        counts = [metric.profile(row.element).band_count for row in rows["svm"]]
        assert len(set(counts)) < len(counts)  # some test counts repeat
        assert sorted(embeddings) == sorted(set(counts))

    def test_config_echo_reconstructs_run(self):
        snap = _synthetic_snapshot()
        rep = run_experiment(snap, _config("terminal", "knn")).report
        rebuilt = ExperimentConfig(**rep.config)
        rep2 = run_experiment(snap, rebuilt).report
        assert rep.to_json() == rep2.to_json()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="vertex", method="knn")
        with pytest.raises(ValueError):
            ExperimentConfig(task="edge", method="gnn")
        with pytest.raises(ValueError):
            ExperimentConfig(task="edge", method="knn", h_mode="fixed")
        with pytest.raises(ValueError):
            ExperimentConfig(task="edge", method="knn", k=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                task="edge", method="knn", train_count=5, train_fraction=0.5
            )


class TestPredictionFiles:
    def test_roundtrip_edge_task(self, tmp_path):
        snap = _synthetic_snapshot()
        result = run_experiment(snap, _config("edge", "knn"))
        path = tmp_path / "preds.csv"
        write_predictions(path, result)
        rows, meta = read_predictions(path)
        assert meta["task"] == "edge"
        assert meta["snapshot_digest"] == snap.digest()
        assert json.loads(meta["config"]) == result.report.config
        assert len(rows) == result.report.n_test
        for got, want in zip(rows, result.predictions):
            assert got.element == want.element
            assert got.predicted == want.predicted  # repr round-trips exactly
            assert got.truth == want.truth
            assert got.flags == want.flags

    def test_roundtrip_vertex_task(self, tmp_path):
        snap = _synthetic_snapshot()
        result = run_experiment(snap, _config("origin", "svm"))
        path = tmp_path / "preds.csv"
        write_predictions(path, result)
        rows, _ = read_predictions(path)
        assert [r.element for r in rows] == [r.element for r in result.predictions]

    def test_missing_truth_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "# format: weightpred-predictions-v1\n"
            "element,predicted,truth,flags\n"
            "a,0.5,,\n"
        )
        from weightpred import ParseError

        with pytest.raises(ParseError):
            read_predictions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("# format: weightpred-predictions-v1\n")
        from weightpred import ParseError

        with pytest.raises(ParseError):
            read_predictions(path)


class TestTables:
    def test_format_tables_layout(self):
        snap = _synthetic_snapshot()
        reports = [
            run_experiment(snap, _config(task, method)).report
            for task in ("origin", "terminal", "edge")
            for method in ("knn", "svm")
        ]
        text = format_tables(reports, label="synthetic")
        assert "Origin weights" in text
        assert "Terminal weights" in text
        assert "Edge weights" in text
        assert text.count("(") == 6  # one (MAE, RMSE) cell per run
