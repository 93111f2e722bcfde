"""Command-line surface: subcommands, artifacts, and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from weightpred import load_snapshot, save_snapshot
from weightpred.cli import build_parser, main
from weightpred.evaluation import ExperimentConfig, run_experiment, write_predictions

from helpers import FIG_EDGES, decoded, encoded, v1_form, write_rating_file


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


# Pieces of a predictions file of the origin task: its first four lines, its
# config line, its column header and a well-formed table.
_DIGEST = "sha256:" + "0" * 64
_V1 = ("# format: weightpred-predictions-v1\n# task: origin\n# method: knn\n"
       f"# snapshot_digest: {_DIGEST}\n")
_CONFIG = '# config: {"method": "knn", "task": "origin"}\n'
_HEAD = "element,predicted,truth,flags\n"
_ROWS = _HEAD + "v1,0.5,0.25,\n"


@pytest.fixture(scope="module")
def predictions_file(tmp_path_factory, snapshot_file):
    out = tmp_path_factory.mktemp("preds") / "preds.csv"
    assert main(_run_args(snapshot_file, "edge", "knn", out)) == 0
    return out


# Each flag ``evaluate --predictions`` refuses, with a value it parses.
_FILE_MODE_REFUSED = [
    ("--task", "origin"), ("--method", "svm"), ("--repeat", "2"), ("--config", None),
    ("--seed", "4"), ("--sample-size", "all"), ("--train-count", "10"),
    ("--train-fraction", "0.5"), ("--h", "0.1"), ("--k", "9"),
    ("--zero-distance-policy", "include"), ("--denominator-policy", "fixed_k"),
    ("--kernel", "linear"), ("--gamma", "0.5"), ("--degree", "2"), ("--coef0", "0.5"),
    ("--reg-lambda", "0.1"), ("--fg-tol", "0.001"), ("--fg-max-iter", "5"),
    ("--exclude-self", None),
]


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
        (["--delimiter", ""], "--delimiter"),
        (["--weight-min", "1e308", "--weight-max", "1.7e308"], "--weight-min"),
        (["--weight-min=-1e308", "--weight-max", "1e308"], "--weight-min"),
        (["--weight-max", "9e307"], "--weight-max"),
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

    @pytest.mark.parametrize("bounds", [["--weight-min", "-10"], ["--weight-max", "10"]])
    def test_missing_weight_bound_is_usage_error_without_output(
        self, rating_file, tmp_path, capsys, bounds
    ):
        out = tmp_path / "snap.json"
        code = main(["ingest", "--input", str(rating_file), "--output", str(out), *bounds])
        assert code == 1
        assert "--weight-min and --weight-max are required" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_above_edge_count_exits_3_without_output(self, rating_file, tmp_path):
        out = tmp_path / "snap.json"
        code = main([
            "ingest", "--input", str(rating_file), "--output", str(out),
            "--weight-min", "-10", "--weight-max", "10", "--timestamp",
            "--sample", "401",
        ])
        assert code == 3
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

    @pytest.mark.parametrize("extra,digest", [
        ([], "53e80b229f1cf252b0e5e3e3979961984d55139a18e7833826c4066c0e6674fd"),
        (["--fg-max-iter", "2"],
         "02c5ba0a32d85c23b2cd2dafe4e4141c4846c801ad0e4757d8c417d7f2c30c78"),
    ], ids=["converged", "cut-off"])
    def test_output_bytes_are_pinned(self, snapshot_file, tmp_path, extra, digest):
        """The scores file, converged and cut off unconverged, byte for byte."""
        out = tmp_path / "fg.json"
        assert main(["gen-weights", "--snapshot", str(snapshot_file),
                     "--output", str(out), *extra]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command,flag,value", [
    ("predict", "train_fraction", "1.5"),
    ("predict", "sample_size", "1"),
    ("predict", "train_count", "0"),
    ("predict", "fg_tol", "0"),
    ("predict", "fg_max_iter", "0"),
    ("predict", "seed", "-1"),
    ("predict", "k", "0"),
    ("predict", "degree", "0"),
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


@pytest.mark.parametrize("command,key", [
    ("predict", "h"), ("predict", "gamma"), ("predict", "coef0"), ("predict", "reg_lambda"),
    ("predict", "fg_tol"), ("gen-weights", "fg_tol"), ("ingest", "weight_min"),
    ("ingest", "weight_max"),
])
def test_config_int_beyond_float_range_is_usage_error(
    snapshot_file, rating_file, tmp_path, capsys, command, key
):
    """A JSON int no float can hold is an out-of-range setting: exit 1
    naming the flag."""
    cfg, out = tmp_path / "run.json", tmp_path / "out"
    cfg.write_text(json.dumps({key: 10**400}))
    other_bound = {"weight_min": ["--weight-max", "10"], "weight_max": ["--weight-min", "-10"]}
    args = {
        "predict": ["predict", "--snapshot", str(snapshot_file), "--task", "origin",
                    "--method", "svm"],
        "gen-weights": ["gen-weights", "--snapshot", str(snapshot_file)],
        "ingest": ["ingest", "--input", str(rating_file), *other_bound.get(key, [])],
    }[command]
    assert main([*args, "--output", str(out), "--config", str(cfg)]) == 1
    assert f"--{key.replace('_', '-')} must be at most" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "gen-weights"])
@pytest.mark.parametrize("old,new", [
    ('"sampling":null', '"sampling":' + "[" * 200_000 + "]" * 200_000),
    ('"src":"[^"]*"', '"src":' + "7" * 5_000),
], ids=["deep-provenance", "long-src-id"])
def test_snapshot_json_that_json_loads_refuses_is_parse_error(
    snapshot_file, tmp_path, capsys, command, old, new
):
    """``old``, a pattern, is put in the file as ``new``."""
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    text = snapshot_file.read_text(encoding="utf-8")
    assert re.search(old, text)
    bad.write_text(re.sub(old, new, text, count=1), encoding="utf-8")
    args = [command, "--snapshot", str(bad), "--output", str(out)]
    if command == "predict":
        args += ["--task", "origin", "--method", "knn"]
    assert main(args) == 2
    assert f"{bad}: invalid JSON: " in capsys.readouterr().err
    assert not out.exists()


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
        payload = decoded(json.loads(snapshot_file.read_text()))
        payload["dst"][0] = len(payload["terminals"])
        bad.write_text(json.dumps(encoded(payload)))
        out = tmp_path / "p.csv"
        code = main(["predict", "--snapshot", str(bad), "--task", "edge",
                     "--method", "knn", "--output", str(out)])
        assert code == 2
        assert "edge 0" in capsys.readouterr().err
        assert not out.exists()

    def test_token_with_a_line_boundary_is_parse_error(self, snapshot_file, tmp_path, capsys):
        # Such a token would break the predictions file into extra lines.
        bad = tmp_path / "bad.json"
        payload = json.loads(snapshot_file.read_text())
        payload["origins"][0] = "bad\rtok"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        code = main(["predict", "--snapshot", str(bad), "--task", "origin",
                     "--method", "knn", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "origins entry 0: token 'bad\\rtok' holds a line boundary" in err
        assert not out.exists()

    def test_a_v1_snapshot_is_parse_error_naming_ingest(self, snapshot_file, tmp_path, capsys):
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(v1_form(json.loads(snapshot_file.read_text()))))
        self._assert_refused_naming_ingest(old, tmp_path, capsys, "weightpred-snapshot-v1")

    def test_a_v2_snapshot_is_parse_error_naming_ingest(self, snapshot_file, tmp_path, capsys):
        """The layout of 0.5.0 and 0.6.0: ``src``, ``dst`` and ``weight`` as
        JSON lists."""
        old = tmp_path / "v2.json"
        payload = decoded(json.loads(snapshot_file.read_text()))
        old.write_text(json.dumps({**payload, "format": "weightpred-snapshot-v2"}))
        self._assert_refused_naming_ingest(old, tmp_path, capsys, "weightpred-snapshot-v2")

    @staticmethod
    def _assert_refused_naming_ingest(old, tmp_path, capsys, old_format):
        out = tmp_path / "p.csv"
        code = main(["predict", "--snapshot", str(old), "--task", "edge",
                     "--method", "knn", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert old_format in err and "weightpred ingest" in err
        assert not out.exists()

    def test_a_provenance_nested_below_the_json_limit_is_parse_error(
        self, snapshot_file, tmp_path
    ):
        """Nested 984 lists deep, ``sampling`` is within what ``json.loads``
        reads in a fresh process, and a digest of it can overflow the stack;
        the loader refuses it (exit 2) before any digest is taken."""
        bad, out = tmp_path / "deep.json", tmp_path / "p.csv"
        text = snapshot_file.read_text(encoding="utf-8")
        deep = "[" * 984 + "]" * 984
        bad.write_text(text.replace('"sampling":null', f'"sampling":{deep}', 1), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "weightpred.cli", "predict", "--snapshot", str(bad),
             "--task", "edge", "--method", "knn", "--sample-size", "all", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"{bad}: provenance nests deeper than" in proc.stderr
        assert not out.exists()

    def test_snapshot_not_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": ')
        out = tmp_path / "p.csv"
        code = main(["predict", "--snapshot", str(bad), "--task", "edge",
                     "--method", "knn", "--output", str(out)])
        assert code == 2
        assert f"{bad}: invalid JSON" in capsys.readouterr().err
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
        preds.write_text(_V1 + _CONFIG + _HEAD)
        assert main(["evaluate", "--predictions", str(preds)]) == 2

    def test_predictions_without_truth_rejected(self, tmp_path):
        preds = tmp_path / "nt.csv"
        preds.write_text(_V1 + _CONFIG + _HEAD + "v1,0.5,,\n")
        assert main(["evaluate", "--predictions", str(preds)]) == 2

    @pytest.mark.parametrize("predicted,truth", [
        ("abc", "0.5"), ("0.5", "x"), ("nan", "0.5"), ("0.5", "inf"),
    ])
    def test_bad_prediction_value_rejected(self, tmp_path, capsys, predicted, truth):
        preds = tmp_path / "p.csv"
        preds.write_text(_V1 + _CONFIG + _HEAD + f"v1,0.25,0.5,\nv2,{predicted},{truth},\n")
        report = tmp_path / "report.json"
        code = main(["evaluate", "--predictions", str(preds), "--report", str(report)])
        assert code == 2
        assert "line 8" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("body,located", [
        (_V1.replace("v1", "v2") + _CONFIG + _ROWS,
         "line 1: not a weightpred-predictions-v1 file"),
        (_V1 + '# config: {"k": \n' + _ROWS, "line 5: config is not valid JSON"),
        (_V1 + '# config: {"h_value": NaN}\n' + _ROWS, "line 5: config is not valid JSON"),
        (_V1 + "# config: 3\n" + _ROWS, "line 5: config is not a JSON object"),
        (_V1 + _CONFIG + "element,predicted,flags\nv1,0.5,\n",
         "line 6: expected the column header 'element,predicted,truth,flags'"),
        (_V1 + _CONFIG + _HEAD + "v1,0.5,0.25\n",
         "line 7: expected 4 fields, got 3"),
        (_V1 + _CONFIG + _HEAD, "no prediction rows"),
        (_V1 + _CONFIG + _HEAD + "v1,0.5,0.25,\nv2,0.5,0.25,bogus|clamped\n",
         "line 8: row flags 'bogus|clamped' are not an in-order |-join of"),
        (_V1 + _CONFIG + _HEAD + "v1,0.5,0.25,fallback_mean|fallback_mean\n",
         "line 7: row flags 'fallback_mean|fallback_mean' are not"),
        (_V1 + _CONFIG + _HEAD + "v1,0.5,0.25,fallback_mean||clamped\n",
         "line 7: row flags 'fallback_mean||clamped' are not"),
        (_V1 + _CONFIG + _HEAD + "v1,0.5,0.25,clamped|fallback_mean\n",
         "line 7: row flags 'clamped|fallback_mean' are not"),
        ("# format: weightpred-predictions-v1\n" + _ROWS,
         "line 2: expected the '# task:' line"),
        (_V1 + "# task: edge\n" + _CONFIG + _ROWS, "line 5: expected the '# config:' line"),
        (_V1.replace("origin", "vertex") + _CONFIG + _ROWS,
         "line 2: task 'vertex' is not one of ('origin', 'terminal', 'edge')"),
        (_V1.replace("knn", "svr") + _CONFIG + _ROWS,
         "line 3: method 'svr' is not one of ('knn', 'svm')"),
        (_V1.replace("origin", "edge") + _CONFIG.replace("origin", "edge") + _ROWS,
         "line 6: expected the column header 'origin,terminal,predicted,truth,flags'"),
        (_V1.replace(_DIGEST, "not-a-digest") + _CONFIG + _ROWS,
         "line 4: snapshot_digest 'not-a-digest' is not 'sha256:' and 64 lowercase hex"),
        (_V1.replace(_DIGEST, _DIGEST.replace("0", "A")) + _CONFIG + _ROWS,
         "line 4: snapshot_digest 'sha256:AAAA"),
        (_V1 + '# config: {"method": "svm", "task": "edge"}\n' + _ROWS,
         "line 5: config task 'edge' is not the header's 'origin'"),
        (_V1 + '# config: {"task": "origin"}\n' + _ROWS,
         "line 5: config method None is not the header's 'knn'"),
        (_V1 + _CONFIG + "predicted,element,truth,flags\n0.5,v1,0.25,\n",
         "line 6: expected the column header"),
        (_V1 + _CONFIG + "element,predicted,truth,flags,note\nv1,0.5,0.25,,x\n",
         "line 6: expected the column header"),
        (_V1 + _CONFIG + _HEAD + "v1,1e308,-1e308,\n",
         "line 7: predicted value '1e308' is outside [-1, 1]"),
        (_V1 + _CONFIG + _HEAD + "v1,0.5,0.25,\nv2,-0.5,-1e308,\n",
         "line 8: truth value '-1e308' is outside [-1, 1]"),
        (_V1 + _CONFIG + _HEAD + "v1,1.5,0.25,\n",
         "line 7: predicted value '1.5' is outside [-1, 1]"),
        (_V1 + "# config: " + "[" * 200_000 + "]" * 200_000 + "\n" + _ROWS,
         "line 5: config is not valid JSON: maximum recursion"),
    ], ids=["wrong-format", "config-not-json", "config-nan", "config-not-object",
            "no-truth-column", "short-row", "header-only", "unknown-flag", "repeated-flag",
            "empty-flag", "flags-out-of-order", "no-task-line", "repeated-task-line",
            "unknown-task", "unknown-method", "columns-of-another-task",
            "digest-not-sha256", "digest-uppercase-hex", "config-of-another-cell",
            "config-without-method", "reordered-columns", "extra-column",
            "values-near-the-float-maximum", "truth-near-the-float-minimum",
            "predicted-above-1", "config-deep-nesting"])
    def test_malformed_predictions_file_is_parse_error(
        self, tmp_path, capsys, body, located
    ):
        preds = tmp_path / "p.csv"
        preds.write_text(body)
        report = tmp_path / "report.json"
        code = main(["evaluate", "--predictions", str(preds), "--report", str(report)])
        assert code == 2
        assert f"{preds}: {located}" in capsys.readouterr().err
        assert not report.exists()

    def test_non_finite_result_writes_no_report(self, snapshot_file, tmp_path):
        report = tmp_path / "report.json"
        args = [
            "evaluate", "--snapshot", str(snapshot_file), "--task", "edge",
            "--method", "svm", "--sample-size", "300", "--kernel", "polynomial",
            "--degree", "400", "--report", str(report),
        ]
        assert main(args) == 3
        assert not report.exists()
        report.write_bytes(b"kept")
        assert main(args) == 3
        assert report.read_bytes() == b"kept"

    def test_both_modes_at_once_is_usage_error(self, snapshot_file, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("x")
        code = main(["evaluate", "--predictions", str(preds),
                     "--snapshot", str(snapshot_file)])
        assert code == 1

    @pytest.mark.parametrize("flag,value", _FILE_MODE_REFUSED,
                             ids=[flag[2:] for flag, _ in _FILE_MODE_REFUSED])
    def test_run_flag_in_file_mode_is_usage_error(
        self, predictions_file, tmp_path, capsys, flag, value
    ):
        report = tmp_path / "report.json"
        if flag == "--config":
            value = tmp_path / "run.json"
            value.write_text(json.dumps({"k": 9}))
        extra = [flag] if value is None else [flag, str(value)]
        code = main(["evaluate", "--predictions", str(predictions_file), *extra,
                     "--report", str(report)])
        assert code == 1
        assert f"usage error: {flag} applies only to snapshot mode" in capsys.readouterr().err
        assert not report.exists()

    def test_every_run_flag_is_refused_in_file_mode(self):
        evaluate = build_parser().parse_args(["evaluate"])
        flags = {"--" + dest.replace("_", "-") for dest in evaluate.config_flags}
        assert flags | {"--task", "--method", "--repeat", "--config"} == {
            flag for flag, _ in _FILE_MODE_REFUSED
        }

    @pytest.mark.parametrize("extra,problem", [
        ([], "pass --predictions or --snapshot"),
        (["--task", "edge"], "snapshot mode requires --task and --method"),
        (["--method", "knn"], "snapshot mode requires --task and --method"),
        (["--task", "edge", "--method", "knn", "--repeat", "0"], "--repeat must be >= 1"),
    ], ids=["no-mode", "no-method", "no-task", "repeat-0"])
    def test_snapshot_mode_usage_error_writes_no_report(
        self, snapshot_file, tmp_path, capsys, extra, problem
    ):
        report = tmp_path / "report.json"
        snapshot = ["--snapshot", str(snapshot_file)] if extra else []
        code = main(["evaluate", *snapshot, *extra, "--report", str(report)])
        assert code == 1
        assert f"usage error: {problem}" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_predictions_file_is_io_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["evaluate", "--predictions", str(tmp_path / "none.csv"),
                     "--report", str(report)])
        assert code == 2
        assert "none.csv" in capsys.readouterr().err
        assert not report.exists()


def test_no_subcommand_prints_help_and_exits_1(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().out


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

    @pytest.mark.parametrize("text,located", [
        (None, "cannot read config"),
        ('{"seed": 7', "invalid JSON"),
        ("[7]", "config file must hold a JSON object"),
        ('{"seed": ' + "[" * 200_000 + "]" * 200_000 + "}", "invalid JSON: maximum recursion"),
        ('{"seed": ' + "7" * 5_000 + "}", "invalid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["missing", "invalid-json", "not-an-object", "deep-nesting", "long-int"])
    def test_bad_config_file_is_parse_error(
        self, snapshot_file, tmp_path, capsys, text, located
    ):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "preds.csv"
        code = main([
            "predict", "--snapshot", str(snapshot_file), "--task", "origin",
            "--method", "knn", "--output", str(out), "--config", str(cfg),
        ])
        assert code == 2
        assert f"{cfg}: {located}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("role,content,line", [
    ("input", b"a,b,1\ncaf\xe9,x,2\n", 2),
    ("snapshot", b'{"format":\n"caf\xe9"}\n', 2),
    ("predictions", (_V1 + _CONFIG + _HEAD).encode() + b"caf\xe9,0.5,0.25,\n", 7),
    ("config", b'{\n  "seed":\n  "\xff"}', 3),
], ids=["raw-file", "snapshot", "predictions", "config"])
def test_file_that_is_not_utf8_is_parse_error(
    snapshot_file, tmp_path, capsys, role, content, line
):
    """Every text file is read as UTF-8, whatever the locale; a byte that is
    not UTF-8 text exits 2 naming the file and its line."""
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    args = {
        "input": ["ingest", "--input", str(bad), "--output", str(out),
                  "--weight-min", "-10", "--weight-max", "10"],
        "snapshot": ["gen-weights", "--snapshot", str(bad), "--output", str(out)],
        "predictions": ["evaluate", "--predictions", str(bad), "--report", str(out)],
        "config": _run_args(snapshot_file, "origin", "knn", out, config=bad),
    }[role]
    assert main(args) == 2
    assert f"{bad}: line {line}: not UTF-8 text: byte 0x" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role", ["snapshot", "predictions", "config"])
def test_file_with_a_byte_order_mark_is_read(snapshot_file, tmp_path, role):
    """A leading UTF-8 byte-order mark is dropped from every text input."""
    preds, marked, out = tmp_path / "preds.csv", tmp_path / "marked", tmp_path / "out.json"
    assert main(_run_args(snapshot_file, "origin", "knn", preds)) == 0
    source = {"snapshot": snapshot_file, "predictions": preds}.get(role)
    content = source.read_bytes() if source else json.dumps({"seed": 7}).encode()
    marked.write_bytes(b"\xef\xbb\xbf" + content)
    args = {
        "snapshot": ["gen-weights", "--snapshot", str(marked), "--output", str(out)],
        "predictions": ["evaluate", "--predictions", str(marked), "--report", str(out)],
        "config": _run_args(snapshot_file, "origin", "knn", out, config=marked),
    }[role]
    assert main(args) == 0
    assert out.exists()


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


def _cli(*args) -> None:
    assert main([str(a) for a in args]) == 0


# Every writer of the package, as a call that writes the file ``out``; the
# grid writes its origin kNN report there, so ``out`` is always named
# ``report_origin_knn.json``.
_RUN = ("--sample-size", "300", "--seed", "7")
_WRITERS = {
    "save_snapshot": lambda out, snap, preds: save_snapshot(load_snapshot(snap), out),
    "write_predictions": lambda out, snap, preds: write_predictions(out, run_experiment(
        load_snapshot(snap), ExperimentConfig("origin", "knn", sample_size=300, seed=7),
    )),
    "gen-weights": lambda out, snap, preds: _cli(
        "gen-weights", "--snapshot", snap, "--output", out),
    "evaluate-predictions": lambda out, snap, preds: _cli(
        "evaluate", "--predictions", preds, "--report", out),
    "evaluate-snapshot": lambda out, snap, preds: _cli(
        "evaluate", "--snapshot", snap, "--task", "origin", "--method", "knn", *_RUN,
        "--report", out),
    "reproduce-tables": lambda out, snap, preds: _cli(
        "reproduce-tables", "--snapshot", snap, *_RUN, "--output-dir", out.parent),
}
_OUT = "report_origin_knn.json"


@pytest.mark.parametrize("writer", list(_WRITERS))
class TestOutputFiles:
    """Each output is written through, in place: a rewritten path keeps its
    inode, mode and links, and holds the bytes of a first run."""

    @pytest.fixture
    def write(self, snapshot_file, predictions_file, writer):
        return lambda out: _WRITERS[writer](out, snapshot_file, predictions_file)

    @pytest.fixture
    def fresh(self, tmp_path, write):
        """The bytes the writer puts in a path that held no file."""
        out = tmp_path / "fresh" / _OUT
        out.parent.mkdir()
        write(out)
        return out.read_bytes()

    def test_a_rewrite_keeps_the_file(self, tmp_path, write, fresh):
        out = tmp_path / _OUT
        out.write_bytes(b"OLD\n")
        # Held open, so a file made anew could not reuse the freed inode number.
        with open(out, "rb") as old:
            write(out)
            assert out.stat().st_ino == os.fstat(old.fileno()).st_ino
        assert out.read_bytes() == fresh

    def test_a_symlinked_output_keeps_its_link(self, tmp_path, write, fresh):
        target, out = tmp_path / "target", tmp_path / _OUT
        target.write_bytes(b"OLD\n")
        out.symlink_to(target)
        write(out)
        assert out.is_symlink() and os.readlink(out) == str(target)
        assert target.read_bytes() == fresh

    def test_a_hard_linked_output_is_written_through(self, tmp_path, write, fresh):
        out, other = tmp_path / _OUT, tmp_path / "other"
        out.write_bytes(b"OLD\n")
        os.link(out, other)
        write(out)
        assert out.read_bytes() == other.read_bytes() == fresh
        assert out.samefile(other)

    def test_a_rewritten_output_keeps_its_mode(self, tmp_path, write, fresh):
        out = tmp_path / _OUT
        out.write_bytes(b"OLD\n")
        out.chmod(0o600)
        write(out)
        assert out.stat().st_mode & 0o777 == 0o600
        assert out.read_bytes() == fresh


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                    reason="root may write a read-only file")
def test_a_read_only_output_is_refused(snapshot_file, tmp_path, capsys):
    out = tmp_path / "fg.json"
    out.write_bytes(b"OLD\n")
    out.chmod(0o444)
    assert main(["gen-weights", "--snapshot", str(snapshot_file), "--output", str(out)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert out.read_bytes() == b"OLD\n"
