"""Command-line surface: subcommands, artifacts, and exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

from weightpred import load_snapshot
from weightpred.cli import build_parser, main

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


# Pieces of a predictions file: its first line and a well-formed table.
_V1 = "# format: weightpred-predictions-v1\n"
_ROWS = "element,predicted,truth,flags\nv1,0.5,0.25,\n"


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
        ([], "32c34fc584e6edac2fe77fddb9e4aaf2c3eb884655000237271fd4f24c598399"),
        (["--fg-max-iter", "2"],
         "21971c6a782c7a9f10805fe798384fe2c298b1631e145d388b091c80907875c3"),
    ])
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

    def test_token_with_a_line_boundary_is_parse_error(self, snapshot_file, tmp_path, capsys):
        # Such a token would break the predictions file into extra lines.
        bad = tmp_path / "bad.json"
        payload = json.loads(snapshot_file.read_text())
        token = payload["origins"][0]
        payload["origins"][0] = "bad\rtok"
        for edge in payload["edges"]:
            if edge[0] == token:
                edge[0] = "bad\rtok"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        code = main(["predict", "--snapshot", str(bad), "--task", "origin",
                     "--method", "knn", "--output", str(out)])
        assert code == 2
        assert "edge 0: token 'bad\\rtok' holds a line boundary" in capsys.readouterr().err
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

    @pytest.mark.parametrize("body,located", [
        ("# format: weightpred-predictions-v2\n" + _ROWS,
         "not a weightpred-predictions-v1 file"),
        (_V1 + '# config: {"k": \n' + _ROWS, "line 2: config is not valid JSON"),
        (_V1 + '# config: {"h_value": NaN}\n' + _ROWS, "line 2: config is not valid JSON"),
        (_V1 + "# config: 3\n" + _ROWS, "line 2: config is not a JSON object"),
        (_V1 + "element,predicted,flags\nv1,0.5,\n", "missing required columns"),
        (_V1 + "element,predicted,truth,flags\nv1,0.5,0.25\n",
         "line 3: expected 4 fields, got 3"),
        (_V1 + "element,predicted,truth,flags\n", "no prediction rows"),
        (_V1 + "element,predicted,truth,flags\nv1,0.5,0.25,\nv2,0.5,0.25,bogus|clamped\n",
         "line 4: unknown row flag 'bogus'"),
        (_V1 + "element,predicted,truth,flags\nv1,0.5,0.25,fallback_mean|fallback_mean\n",
         "line 3: repeated row flag 'fallback_mean'"),
    ], ids=["wrong-format", "config-not-json", "config-nan", "config-not-object",
            "no-truth-column", "short-row", "header-only", "unknown-flag", "repeated-flag"])
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
    ], ids=["missing", "invalid-json", "not-an-object"])
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
    ("predictions", _V1.encode() + b"element,predicted,truth,flags\ncaf\xe9,0.5,0.25,\n", 3),
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
