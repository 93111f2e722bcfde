"""Scoring functions, the experiment pipeline, and report artifacts."""

import dataclasses
import gc
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightpred import (
    DatasetSpec,
    ExperimentConfig,
    KnnConfig,
    Snapshot,
    build_snapshot,
    load_snapshot,
    mae,
    rmse,
    run_experiment,
    save_snapshot,
)
from weightpred import evaluation
from weightpred import svm as svm_mod
from weightpred.errors import SettingError
from weightpred.evaluation import (
    METHODS,
    REPORT_FORMAT,
    format_tables,
    indented_json,
    read_predictions,
    write_predictions,
)
from weightpred.fairness import check_stopping_rule
from weightpred.graph import DirectedGraph, WeightKind, graph_of
from weightpred.ingest import TASKS, SplitPlan

from helpers import snapshot_of, token_pipeline, write_rating_file

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
        records.append((o, t, float(rng.uniform(-1.0, 1.0))))
    return snapshot_of(records)


def _constant_snapshot(n_edges=40):
    pairs = dict.fromkeys((f"o{i % 8}", f"t{(i * 3) % 11}") for i in range(n_edges))
    return snapshot_of((o, t, 0.25) for o, t in pairs)


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
        predict_raw = svm_mod._predict_raw
        calls = []

        def spy_predict_raw(model, u):
            calls.append(np.asarray(u).tolist())
            return predict_raw(model, u)

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
        monkeypatch.undo()
        # The test elements' band counts, read through the token-level API.
        metric, truths, _ = token_pipeline(snap, _config(task, "svm", k=8))
        assert [e for e, _ in truths] == [row.element for row in rows["svm"]]
        counts = [metric.profile(row.element).band_count for row in rows["svm"]]
        assert len(set(counts)) < len(counts)  # some test counts repeat
        # The SVM run made one batched call, at exactly the distinct counts.
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(set(counts))

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("method", METHODS)
    def test_rows_and_tokens_are_built_only_when_read(self, task, method, monkeypatch):
        built, token_calls = [], []
        row_type, tokens = evaluation.PredictionRow, DirectedGraph.tokens

        def spy_row(*args):
            built.append(args)
            return row_type(*args)

        def spy_tokens(graph, kind, ids):
            token_calls.append((graph, kind))
            return tokens(graph, kind, ids)

        monkeypatch.setattr(evaluation, "PredictionRow", spy_row)
        monkeypatch.setattr(DirectedGraph, "tokens", spy_tokens)
        snap = _synthetic_snapshot()
        result = run_experiment(snap, _config(task, method))
        assert built == []
        assert [kind for graph, kind in token_calls if graph is result.graph] == []
        rows = result.predictions
        assert len(built) == len(rows) == result.report.n_test
        assert all(type(row) is row_type for row in rows)
        # Edge tokens come from one call for the edges, which makes one for
        # each side; a vertex task's from one call.
        want = {"edge": [WeightKind.EDGE, WeightKind.ORIGIN, WeightKind.TERMINAL]}
        assert [kind for graph, kind in token_calls if graph is result.graph] == want.get(
            task, [WeightKind(task)]
        )
        assert result.predictions is rows

    def test_run_builds_no_token_views_of_the_snapshot(self):
        snap = _synthetic_snapshot()
        for task in TASKS:
            for method in METHODS:
                run_experiment(snap, _config(task, method))
        views = {"edges", "origin_index", "terminal_index",
                 "origin_id", "terminal_id", "edge_id"}
        assert not views & vars(snap.graph).keys()
        assert "edges" not in vars(snap)

    def test_a_task_major_grid_computes_each_shared_step_once(self, monkeypatch):
        calls = Counter()

        def spy(module, name, counter=None):
            real = getattr(module, name)

            def counted(*args):
                calls[counter or name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)

        snap = _synthetic_snapshot(n_edges=120, n_vertices=30)
        for name in ("sample_edges", "split_ids", "fairness_goodness", "profile_arrays",
                     "count_classes"):
            spy(evaluation, name)
        # The SVM cells read the count-class table: no cell merges points itself.
        spy(svm_mod, "count_classes", "svm.count_classes")
        results = [run_experiment(snap, _config(task, method))
                   for task in TASKS for method in METHODS]
        # Every task of the grid splits the one edge sample.
        assert calls == {"sample_edges": 1, "split_ids": 3, "fairness_goodness": 1,
                         "profile_arrays": 3, "count_classes": 3}
        assert calls["svm.count_classes"] == 0
        # One (key, value) entry per level, of the last task; the profile
        # level holds the band counts and the count-class table.
        assert sorted(snap._memo) == ["fairness", "profile", "sample", "split"]
        assert all(len(held) == 2 for held in snap._memo.values())
        band_counts, classes = snap._memo["profile"][1]
        # The shared arrays are read-only, so no caller can change the next cell.
        split, scores = snap._memo["split"][1], snap._memo["fairness"][1]
        rows, sampled, _ = snap._memo["sample"][1]
        assert split.sampled is rows and split.graph is sampled
        for array in (rows, split.sampled, split.train, split.test, scores.fairness,
                      scores.goodness, band_counts, classes.counts, classes.weights,
                      classes.ptr, classes.first):
            assert not array.flags.writeable
        for result in results:
            with pytest.raises(ValueError):
                result.test[0] = 0

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
        # A bandwidth the std-dev rule would ignore, and an unknown rule.
        with pytest.raises(SettingError, match="h_mode 'fixed'") as err:
            ExperimentConfig(task="edge", method="knn", h_value=0.3)
        assert err.value.setting == "h_value"
        with pytest.raises(SettingError) as err:
            ExperimentConfig(task="edge", method="knn", h_mode="median")
        assert err.value.setting == "h_mode"
        with pytest.raises(ValueError):
            ExperimentConfig(task="edge", method="knn", k=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                task="edge", method="knn", train_count=5, train_fraction=0.5
            )

    def test_predictor_defaults_are_the_predictor_configs(self):
        config = ExperimentConfig(task="edge", method="knn")
        assert config.knn_config() == KnnConfig()
        assert config.svm_config() == svm_mod.SvmConfig()


# The five lines that open a predictions file of the origin task.
_HEADER = ("# format: weightpred-predictions-v1\n# task: origin\n# method: knn\n"
           f"# snapshot_digest: sha256:{'0' * 64}\n"
           '# config: {"method": "knn", "task": "origin"}\n')


class TestPredictionFiles:
    def test_roundtrip_edge_task(self, tmp_path):
        snap = _synthetic_snapshot()
        result = run_experiment(snap, _config("edge", "knn"))
        path = tmp_path / "preds.csv"
        write_predictions(path, result)
        rows, meta = read_predictions(path)
        assert meta["task"] == "edge"
        assert meta["snapshot_digest"] == snap.digest()
        assert meta["config"] == result.report.config
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

    @pytest.mark.parametrize("task", ["edge", "origin"])
    def test_roundtrip_tokens_with_space_comma_and_tab(self, tmp_path, task):
        # A snapshot file may hold any token without a line boundary or
        # padding; the predictions file gives each one back.
        snap_path = tmp_path / "snap.json"
        save_snapshot(_synthetic_snapshot(), snap_path)
        text = re.sub(
            r'"o(\d+)"', lambda m: json.dumps(f'o {m[1]}, "q"\t{m[1]}'), snap_path.read_text()
        )
        snap_path.write_text(text)
        snap = load_snapshot(snap_path)
        assert all(" " in o and "," in o and "\t" in o for o in snap.origins)
        result = run_experiment(snap, _config(task, "knn"))
        path = tmp_path / "preds.csv"
        write_predictions(path, result)
        rows, _ = read_predictions(path)
        assert [r.element for r in rows] == [r.element for r in result.predictions]

    @pytest.mark.parametrize("task", ["edge", "origin", "terminal"])
    def test_roundtrip_tokens_starting_with_a_hash(self, tmp_path, task):
        # The raw line "#b,x,3" gives the origin "#b": after the column
        # header, a line starting with "#" is a row, not a header line.
        snap = _synthetic_snapshot()
        snap = snapshot_of(("#" + r.origin, "# " + r.terminal, r.weight) for r in snap.edges)
        result = run_experiment(snap, _config(task, "knn"))
        path = tmp_path / "preds.csv"
        write_predictions(path, result)
        rows, meta = read_predictions(path)
        assert [r.element for r in rows] == [r.element for r in result.predictions]
        assert (meta["task"], meta["config"]) == (task, result.report.config)

    def test_a_token_utf8_cannot_encode_writes_no_file(self, tmp_path):
        # Snapshot(...) checks nothing, so a lone surrogate can reach the writer.
        snap = _synthetic_snapshot()
        pairs = [("o\ud800" if r.origin == "o0" else r.origin, r.terminal) for r in snap.edges]
        snap = Snapshot(graph_of(*zip(*pairs)), snap.weight, snap.raw_weight_range,
                        snap.provenance)
        result = run_experiment(snap, _config("edge", "knn"))
        assert "o\ud800" in {r.element[0] for r in result.predictions}
        path = tmp_path / "preds.csv"
        with pytest.raises(UnicodeEncodeError):
            write_predictions(path, result)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(UnicodeEncodeError):
            write_predictions(path, result)
        assert path.read_bytes() == b"kept"

    def test_missing_truth_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(_HEADER + "element,predicted,truth,flags\na,0.5,,\n")
        from weightpred import ParseError

        with pytest.raises(ParseError, match="line 7: truth value '' is not a finite number"):
            read_predictions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(_HEADER + "element,predicted,truth,flags\n")
        from weightpred import ParseError

        with pytest.raises(ParseError, match="no prediction rows"):
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


# The settings the grid test varies, each as config fields; a walk starts
# from every setting's first value.
_GRID_SETTINGS = {
    "task": [{"task": t} for t in TASKS],
    "method": [{"method": m} for m in METHODS],
    "seed": [{"seed": 3}, {"seed": 4}],
    "sample_size": [{"sample_size": None}, {"sample_size": 90}],
    "split": [{}, {"train_count": 12}, {"train_fraction": 0.5}],
    "h": [{}, {"h_mode": "fixed", "h_value": 0.05}],
    "exclude_self": [{}, {"exclude_self": True}],
    "fg_tol": [{}, {"fg_tol": 1e-2}],
    "fg_max_iter": [{}, {"fg_max_iter": 1}],
}


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """Config -> the report and predictions bytes of its run on a freshly
    loaded copy of the grid snapshot, and the snapshot's path."""
    path = tmp_path_factory.mktemp("grid")
    save_snapshot(_synthetic_snapshot(n_edges=120, n_vertices=30), path / "snap.json")
    done = {}

    def run(config):
        if config not in done:
            done[config] = _report_and_file(
                run_experiment(load_snapshot(path / "snap.json"), config), path / "want.csv")
        return done[config]
    return run, path


def _report_and_file(result, path):
    write_predictions(path, result)
    return result.report.to_json(), path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(sorted(_GRID_SETTINGS)), st.integers(0, 2)),
                      min_size=1, max_size=16))
# Fairness settings change an origin's band counts under a small fixed h.
@example(steps=[("h", 1), ("fg_max_iter", 1), ("fg_tol", 1)])
# Every task splits one shared edge sample; a task's partition must not
# start where the previous task's left the generator.
@example(steps=[("task", 0), ("task", 1), ("task", 2), ("task", 0), ("seed", 1), ("seed", 0)])
def test_runs_on_one_snapshot_match_runs_on_fresh_copies(fresh_run, steps):
    """Whatever runs came before on a snapshot, a run's report and
    predictions file are those of the run on a freshly loaded copy.  Each
    step sets one setting, so consecutive runs often differ in one."""
    run, path = fresh_run
    shared = load_snapshot(path / "snap.json")
    chosen = {name: values[0] for name, values in _GRID_SETTINGS.items()}
    for name, i in steps:
        chosen[name] = _GRID_SETTINGS[name][i % len(_GRID_SETTINGS[name])]
        config = ExperimentConfig(**{k: v for kw in chosen.values() for k, v in kw.items()})
        assert _report_and_file(run_experiment(shared, config), path / "got.csv") == run(config)


@pytest.fixture(scope="module")
def rating_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("adapters") / "ratings.csv"
    write_rating_file(path, n_edges=900, seed=31, n_origins=120, n_terminals=90)
    return build_snapshot(DatasetSpec(str(path), (-10.0, 10.0), has_timestamp=True))


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("method", METHODS)
def test_token_api_matches_run_experiment(rating_snapshot, task, method):
    """The public token-level functions, called per element as the
    benchmark's traced mode calls them, score exactly as ``run_experiment``."""
    config = ExperimentConfig(task=task, method=method, seed=3, sample_size=700)
    report = run_experiment(rating_snapshot, config).report
    _, truths, preds = token_pipeline(rating_snapshot, config)
    values = [p.value for p in preds]
    actual = [t for _, t in truths]
    assert mae(values, actual).hex() == report.mae.hex()
    assert rmse(values, actual).hex() == report.rmse.hex()


@pytest.mark.parametrize("field,setting", [
    ("seed", "seed"), ("sample_size", "sample_size"), ("train_count", "train_count"),
    ("k", "k"), ("degree", "degree"), ("fg_max_iter", "max_iter"),
])
@pytest.mark.parametrize("value", [True, False, 300.0, 2.5])
def test_integer_settings_reject_bools_and_floats(field, setting, value):
    with pytest.raises(SettingError, match="must be an integer") as err:
        ExperimentConfig(task="edge", method="knn", **{field: value})
    assert err.value.setting == setting


@pytest.mark.parametrize("build,setting", [
    (lambda v: SplitPlan(seed=v, train_fraction=0.5), "seed"),
    (lambda v: SplitPlan(seed=0, sample_size=v, train_fraction=0.5), "sample_size"),
    (lambda v: SplitPlan(seed=0, train_count=v), "train_count"),
    (lambda v: KnnConfig(k=v), "k"),
    (lambda v: svm_mod.KernelSpec(kind="rbf", degree=v), "degree"),
    (lambda v: check_stopping_rule(1e-6, v), "max_iter"),
])
@pytest.mark.parametrize("value", [True, 3.0])
def test_setting_types_reject_bools_and_floats(build, setting, value):
    with pytest.raises(SettingError) as err:
        build(value)
    assert err.value.setting == setting


@pytest.mark.parametrize("field,setting", [
    ("h_value", "h_value"), ("fg_tol", "tol"), ("gamma", "gamma"), ("coef0", "coef0"),
    ("reg_lambda", "regularization"),
])
@pytest.mark.parametrize("value", [True, False])
def test_float_settings_reject_bools(field, setting, value):
    fixed = {"h_mode": "fixed", "h_value": 0.5}
    with pytest.raises(SettingError, match="must be a number") as err:
        ExperimentConfig(task="edge", method="svm", **{**fixed, field: value})
    assert err.value.setting == setting


@pytest.mark.parametrize("field,setting", [
    ("h_value", "h_value"), ("fg_tol", "tol"), ("gamma", "gamma"), ("coef0", "coef0"),
    ("reg_lambda", "regularization"),
])
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["above", "below"])
def test_float_settings_reject_ints_beyond_float_range(field, setting, value):
    fixed = {"h_mode": "fixed", "h_value": 0.5}
    with pytest.raises(SettingError, match="must be at most 1.7976931348623157e") as err:
        ExperimentConfig(task="edge", method="svm", **{**fixed, field: value})
    assert err.value.setting == setting


@pytest.mark.parametrize("build,setting", [
    (lambda v: svm_mod.KernelSpec(kind="rbf", gamma=v), "gamma"),
    (lambda v: svm_mod.KernelSpec(kind="polynomial", coef0=v), "coef0"),
    (lambda v: svm_mod.SvmConfig(regularization=v), "regularization"),
    (lambda v: check_stopping_rule(v, 10), "tol"),
])
@pytest.mark.parametrize("value", [True, "0.5"])
def test_float_setting_types_reject_bools_and_strings(build, setting, value):
    with pytest.raises(SettingError, match="must be a number") as err:
        build(value)
    assert err.value.setting == setting


# Strings over every code point: control characters and lone surrogates,
# which json.dumps escapes, drawn often.
_TEXT = (st.characters(exclude_categories=()) | st.characters(max_codepoint=0x1F)
         | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))

# JSON values as the package's reports hold them: str keys, nested objects
# and lists (tuples too), and every kind of scalar json.dumps spells, ints
# beyond 64 bits among them.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**300)
    | st.integers(-(2**300), -(2**64)) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(_TEXT, max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(_TEXT, max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_indented_json_is_the_text_of_json_dumps(value):
    assert indented_json(value) == json.dumps(value, sort_keys=True, indent=2,
                                              allow_nan=False) + "\n"


@pytest.mark.parametrize("value", [math.nan, [1.0, {"a": math.inf}], {"b": -math.inf}])
def test_indented_json_refuses_what_json_dumps_refuses(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        indented_json(value)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("method", METHODS)
def test_to_dict_is_the_dataclass_as_a_dict(task, method):
    """A report's and a config's dict hold what ``dataclasses.asdict``
    gives, with the report's dict fields copied."""
    config = _config(task, method)
    report = run_experiment(_synthetic_snapshot(), config).report
    got = report.to_dict()
    assert got == {"format": REPORT_FORMAT, **dataclasses.asdict(report)}
    assert not any(got[name] is getattr(report, name) for name in ("flags", "tie_stats", "config"))
    assert config.to_dict() == dataclasses.asdict(config)


def test_a_report_leaves_no_reference_cycles():
    """Writing a report, a scores file or a file-mode report leaves nothing
    for the cyclic collector to free."""
    report = run_experiment(_synthetic_snapshot(), _config("edge", "knn")).report
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        report.to_json()
        indented_json({"fairness": {"a": 0.5, "b": -0.25}, "config": {"tol": 1e-6}})
        assert gc.collect() == 0
    finally:
        gc.enable() if was else gc.disable()
