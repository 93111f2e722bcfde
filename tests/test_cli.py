"""Command-line surface: subcommands, artifacts, and exit codes."""

import json
import subprocess
import sys

import pytest

from weightpred import load_snapshot
from weightpred.cli import main

from helpers import FIG_EDGES, write_rating_file


@pytest.fixture(scope="module")
def rating_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ratings.csv"
    return write_rating_file(path, n_edges=400, seed=5)


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory, rating_file):
    out = tmp_path_factory.mktemp("snap") / "snap.json"
    code = main([
        "ingest", "--input", str(rating_file), "--output", str(out),
        "--weight-min", "-10", "--weight-max", "10", "--timestamp",
    ])
    assert code == 0
    return out


def _run_args(snapshot, task, method, out, **extra):
    args = [
        "predict", "--snapshot", str(snapshot), "--task", task, "--method", method,
        "--output", str(out), "--sample-size", "300", "--seed", "7",
    ]
    if task == "edge":
        args += ["--train-count", "210"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestIngest:
    def test_summary_line(self, rating_file, tmp_path, capsys):
        out = tmp_path / "snap.json"
        code = main([
            "ingest", "--input", str(rating_file), "--output", str(out),
            "--weight-min", "-10", "--weight-max", "10", "--timestamp",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "origins=" in printed and "edges=400" in printed
        assert "positive=" in printed
        snap = load_snapshot(out)
        assert len(snap.edges) == 400

    def test_sampled_ingest(self, rating_file, tmp_path, capsys):
        out = tmp_path / "snap.json"
        code = main([
            "ingest", "--input", str(rating_file), "--output", str(out),
            "--weight-min", "-10", "--weight-max", "10", "--timestamp",
            "--sample", "100", "--seed", "3",
        ])
        assert code == 0
        assert "edges=100" in capsys.readouterr().out

    def test_seven_edge_fixture(self, tmp_path, capsys):
        raw = tmp_path / "tiny.csv"
        raw.write_text("".join(f"{o},{t},1\n" for o, t in FIG_EDGES))
        out = tmp_path / "snap.json"
        code = main([
            "ingest", "--input", str(raw), "--output", str(out),
            "--weight-min", "-10", "--weight-max", "10",
        ])
        assert code == 0
        assert "origins=4 terminals=4 edges=7" in capsys.readouterr().out

    @pytest.mark.parametrize("extra,flag", [
        (["--sample", "0"], "--sample"),
        (["--sample", "-1"], "--sample"),
        (["--seed", "-1"], "--seed"),
        (["--weight-min", "5", "--weight-max", "1"], "--weight-min"),
        (["--weight-min=-inf"], "--weight-min"),
        (["--weight-max=nan"], "--weight-max"),
    ])
    def test_bad_flag_is_usage_error_without_output(
        self, rating_file, tmp_path, capsys, extra, flag
    ):
        out = tmp_path / "snap.json"
        code = main([
            "ingest", "--input", str(rating_file), "--output", str(out),
            "--weight-min", "-10", "--weight-max", "10", "--timestamp", *extra,
        ])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        code = main([
            "ingest", "--input", str(tmp_path / "nope.csv"), "--output", str(out),
            "--weight-min", "-10", "--weight-max", "10",
        ])
        assert code == 2
        assert not out.exists()


class TestGenWeights:
    def test_writes_scores(self, snapshot_file, tmp_path, capsys):
        out = tmp_path / "fg.json"
        code = main(["gen-weights", "--snapshot", str(snapshot_file),
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "weightpred-fg-v1"
        assert payload["converged"] is True
        assert all(0.0 <= v <= 1.0 for v in payload["fairness"].values())
        assert all(-1.0 <= v <= 1.0 for v in payload["goodness"].values())
        assert payload["snapshot_digest"] == load_snapshot(snapshot_file).digest()


@pytest.mark.parametrize("command,flag,value", [
    ("predict", "train_fraction", "1.5"),
    ("predict", "sample_size", "1"),
    ("predict", "train_count", "0"),
    ("predict", "fg_tol", "0"),
    ("predict", "fg_max_iter", "0"),
    ("predict", "seed", "-1"),
    ("gen-weights", "fg_tol", "0"),
    ("predict", "h", "inf"),
    ("predict", "fg_tol", "inf"),
    ("predict", "coef0", "inf"),
    ("predict", "gamma", "inf"),
    ("predict", "reg_lambda", "inf"),
    ("gen-weights", "fg_tol", "inf"),
])
def test_out_of_range_setting_is_usage_error(
    snapshot_file, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "out"
    option = f"--{flag.replace('_', '-')}"
    args = [command, "--snapshot", str(snapshot_file), "--output", str(out),
            option, value]
    if command == "predict":
        args += ["--task", "origin", "--method", "knn"]
    assert main(args) == 1
    assert not out.exists()
    assert option in capsys.readouterr().err


class TestPredict:
    def test_edge_task_row_count(self, snapshot_file, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(_run_args(snapshot_file, "edge", "knn", out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) - 1 == 90  # 300 sampled - 210 train (minus header)

    def test_vertex_task_covers_held_out_share(self, snapshot_file, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(_run_args(snapshot_file, "origin", "svm", out))
        assert code == 0
        snap = load_snapshot(snapshot_file)
        # Origins of the 300-edge subsample are split 70/30.
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        n_rows = len(rows) - 1
        assert 0 < n_rows < len(snap.origins)

    def test_unknown_method_is_usage_error(self, snapshot_file, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        code = main([
            "predict", "--snapshot", str(snapshot_file), "--task", "edge",
            "--method", "forest", "--output", str(out),
        ])
        assert code == 1

    def test_missing_snapshot_is_io_error(self, tmp_path):
        code = main([
            "predict", "--snapshot", str(tmp_path / "none.json"), "--task", "edge",
            "--method", "knn", "--output", str(tmp_path / "p.csv"),
        ])
        assert code == 2

    def test_malformed_snapshot_is_parse_error(self, snapshot_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads(snapshot_file.read_text())
        payload["edges"][0] = payload["edges"][0][:2]
        bad.write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        code = main(["predict", "--snapshot", str(bad), "--task", "edge",
                     "--method", "knn", "--output", str(out)])
        assert code == 2
        assert "edge 0" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_sample_is_numeric_error(self, snapshot_file, tmp_path):
        code = main(_run_args(snapshot_file, "edge", "knn",
                              tmp_path / "p.csv", sample_size=100000))
        assert code == 3

    def test_non_finite_result_writes_no_predictions(self, snapshot_file, tmp_path):
        out = tmp_path / "p.csv"
        code = main(_run_args(snapshot_file, "edge", "svm", out,
                              kernel="polynomial", degree=400))
        assert code == 3
        assert not out.exists()

    def test_internal_error_exits_4_without_output(
        self, snapshot_file, tmp_path, monkeypatch, capsys
    ):
        def broken(snapshot, config):
            raise AssertionError("rmse below mae")

        monkeypatch.setattr("weightpred.cli.run_experiment", broken)
        out = tmp_path / "p.csv"
        assert main(_run_args(snapshot_file, "edge", "knn", out)) == 4
        assert "internal error: rmse below mae" in capsys.readouterr().err
        assert not out.exists()

    def test_artifact_embeds_config_and_digest(self, snapshot_file, tmp_path):
        out = tmp_path / "preds.csv"
        assert main(_run_args(snapshot_file, "edge", "svm", out)) == 0
        text = out.read_text()
        assert "# config: " in text
        assert "# snapshot_digest: sha256:" in text


class TestEvaluate:
    def test_score_predictions_file(self, snapshot_file, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        assert main(_run_args(snapshot_file, "edge", "knn", preds)) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = main(["evaluate", "--predictions", str(preds),
                     "--report", str(report)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("(") and ", " in printed
        payload = json.loads(report.read_text())
        assert payload["task"] == "edge"
        assert payload["rmse"] >= payload["mae"] >= 0

    def test_snapshot_mode_repeat_seeds(self, snapshot_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--snapshot", str(snapshot_file), "--task", "edge",
            "--method", "knn", "--sample-size", "300", "--train-count", "210",
            "--repeat", "3", "--seed", "1", "--report", str(report),
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        assert "seed=1" in printed[0]
        assert "seed=2" in printed[1]
        assert "seed=3" in printed[2]
        for seed in (1, 2, 3):
            payload = json.loads(
                (tmp_path / f"report.seed{seed}.json").read_text()
            )
            assert payload["seed"] == seed

    def test_empty_predictions_file_rejected(self, tmp_path):
        preds = tmp_path / "empty.csv"
        preds.write_text("# format: weightpred-predictions-v1\n")
        assert main(["evaluate", "--predictions", str(preds)]) == 2

    def test_predictions_without_truth_rejected(self, tmp_path):
        preds = tmp_path / "nt.csv"
        preds.write_text(
            "# format: weightpred-predictions-v1\n"
            "element,predicted,truth,flags\nv1,0.5,,\n"
        )
        assert main(["evaluate", "--predictions", str(preds)]) == 2

    @pytest.mark.parametrize("predicted,truth", [
        ("abc", "0.5"), ("0.5", "x"), ("nan", "0.5"), ("0.5", "inf"),
    ])
    def test_bad_prediction_value_rejected(self, tmp_path, capsys, predicted, truth):
        preds = tmp_path / "p.csv"
        preds.write_text(
            "# format: weightpred-predictions-v1\n"
            f"element,predicted,truth,flags\nv1,0.25,0.5,\nv2,{predicted},{truth},\n"
        )
        report = tmp_path / "report.json"
        code = main(["evaluate", "--predictions", str(preds), "--report", str(report)])
        assert code == 2
        assert "line 4" in capsys.readouterr().err
        assert not report.exists()

    def test_non_finite_result_writes_no_report(self, snapshot_file, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--snapshot", str(snapshot_file), "--task", "edge",
            "--method", "svm", "--sample-size", "300", "--kernel", "polynomial",
            "--degree", "400", "--report", str(report),
        ])
        assert code == 3
        assert not report.exists()

    def test_both_modes_at_once_is_usage_error(self, snapshot_file, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("x")
        code = main(["evaluate", "--predictions", str(preds),
                     "--snapshot", str(snapshot_file)])
        assert code == 1

    def test_repeat_in_file_mode_is_usage_error(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("x")
        code = main(["evaluate", "--predictions", str(preds), "--repeat", "2"])
        assert code == 1


class TestReproduceTables:
    def test_prints_three_tables(self, snapshot_file, tmp_path, capsys):
        outdir = tmp_path / "reports"
        code = main([
            "reproduce-tables", "--snapshot", str(snapshot_file),
            "--sample-size", "300", "--seed", "11", "--label", "synthetic",
            "--output-dir", str(outdir),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        for title in ("Origin weights", "Terminal weights", "Edge weights"):
            assert title in printed
        assert printed.count("(") == 6
        assert len(list(outdir.glob("report_*.json"))) == 6


class TestConfigFile:
    def test_config_file_supplies_defaults(self, snapshot_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sample_size": 300, "train_count": 210, "seed": 7}))
        out = tmp_path / "preds.csv"
        code = main([
            "predict", "--snapshot", str(snapshot_file), "--task", "edge",
            "--method", "knn", "--output", str(out), "--config", str(cfg),
        ])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) - 1 == 90

    def test_flags_override_config_file(self, snapshot_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sample_size": 100000}))
        out = tmp_path / "preds.csv"
        code = main(_run_args(snapshot_file, "edge", "knn", out) + ["--config", str(cfg)])
        assert code == 0  # the explicit --sample-size 300 wins

    @pytest.mark.parametrize("key,value", [
        ("seed", "7"), ("k", 2.5), ("exclude_self", "yes"), ("kernel", 3),
        ("sample_size", "300"), ("train_fraction", "0.7"), ("k", True),
        ("exclude_self", 1),
    ])
    def test_mistyped_config_value_is_parse_error(
        self, snapshot_file, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "preds.csv"
        code = main([
            "predict", "--snapshot", str(snapshot_file), "--task", "origin",
            "--method", "knn", "--output", str(out), "--config", str(cfg),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and repr(key) in err
        assert not out.exists()


class TestDeterminismAcrossProcesses:
    def test_reports_are_byte_identical(self, snapshot_file, tmp_path):
        """Two fresh interpreters (different hash seeds) must agree exactly."""
        outputs = []
        for name in ("a", "b"):
            report = tmp_path / f"report_{name}.json"
            cmd = [
                sys.executable, "-m", "weightpred.cli", "evaluate",
                "--snapshot", str(snapshot_file), "--task", "edge",
                "--method", "knn", "--sample-size", "300",
                "--train-count", "210", "--seed", "13", "--report", str(report),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(report.read_bytes())
        assert outputs[0] == outputs[1]
