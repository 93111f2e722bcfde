"""MAE/RMSE scoring, the experiment pipeline, and report assembly.

An experiment is a pure function of (snapshot, config): sample the edge
universe, build the graph, attach weights for the task (scaled edge weights
directly, or fairness/goodness scores generated from them for the vertex
tasks), split into train/test, fit the requested predictor, and score the
held-out elements.  Reports echo the full configuration and the snapshot
digest, so a run can be reproduced byte-for-byte from its report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .countmetric import count_classes, profile_arrays
from .errors import (
    ParseError, PredictionError, SettingError, check_float, json_value, read_bytes, utf8_text,
)
from .fairness import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    check_stopping_rule,
    fairness_goodness,
)
from .graph import DirectedGraph, WeightKind, _read_only
from .ingest import PRNG_NAME, TASKS, Snapshot, SplitPlan, _write_file, sample_edges, split_ids
from .knn import KnnClasses, KnnConfig
from . import svm as svm_mod

REPORT_FORMAT = "weightpred-report-v1"
PREDICTIONS_FORMAT = "weightpred-predictions-v1"

METHODS = ("knn", "svm")

# Edges the paper's protocol samples from each dataset; the CLI's default.
PROTOCOL_SAMPLE_SIZE = 5000

# Prediction-row flags in file order, each with the prediction attribute
# that raises it (a predictor without the attribute never raises the flag).
_ROW_FLAGS = {"fallback_mean": "used_fallback", "degenerate": "degenerate",
              "clamped": "clamped"}

# Each flags field a predictions file can hold, the empty one included: the
# `|`-join of an in-order subset of _ROW_FLAGS, to that subset.
_FLAG_FIELDS = {"|".join(names): names for r in range(len(_ROW_FLAGS) + 1)
                for names in combinations(_ROW_FLAGS, r)}

# The `# key: value` lines that open a predictions file, in order, and the
# column header of each task that follows them.
_HEADER_KEYS = ("format", "task", "method", "snapshot_digest", "config")
_DIGEST = re.compile("sha256:[0-9a-f]{64}")
_COLUMNS = {task: ("origin,terminal" if task == "edge" else "element") + ",predicted,truth,flags"
            for task in TASKS}

# Bandwidth when the training weights have zero spread; keeps h > 0 while
# still treating only exactly-average weights as in-band.
_H_FLOOR = 1e-12


def mae(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Mean absolute error over paired sequences."""
    p, t = _paired(predictions, truths)
    return float(np.mean(np.abs(p - t)))


def rmse(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Root mean square error over paired sequences.

    Squares are taken on errors scaled by their maximum so the result never
    underflows below the MAE when the errors are tiny.
    """
    p, t = _paired(predictions, truths)
    d = np.abs(p - t)
    top = float(d.max())
    if top == 0.0:
        return 0.0
    return top * float(np.sqrt(np.mean((d / top) ** 2)))


def _paired(predictions, truths):
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.size == 0:
        raise ValueError("cannot score an empty prediction set")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} predictions vs {t.shape} truths")
    return p, t


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a single run depends on besides the snapshot itself."""

    task: str
    method: str
    seed: int = 0
    sample_size: Optional[int] = None  # None -> all snapshot edges
    train_count: Optional[int] = None
    train_fraction: Optional[float] = None  # default 0.7 when neither given
    h_mode: str = "stddev"  # or "fixed"
    h_value: Optional[float] = None
    k: int = KnnConfig.k
    zero_distance_policy: str = KnnConfig.zero_distance_policy
    denominator_policy: str = KnnConfig.denominator_policy
    kernel: str = svm_mod.KernelSpec.kind
    gamma: Optional[float] = svm_mod.KernelSpec.gamma
    degree: int = svm_mod.KernelSpec.degree
    coef0: float = svm_mod.KernelSpec.coef0
    reg_lambda: float = svm_mod.SvmConfig.regularization
    fg_tol: float = DEFAULT_TOL
    fg_max_iter: int = DEFAULT_MAX_ITER
    exclude_self: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise SettingError("task", f"must be one of {TASKS}, got {self.task!r}")
        if self.method not in METHODS:
            raise SettingError("method", f"must be one of {METHODS}, got {self.method!r}")
        if self.h_mode not in ("stddev", "fixed"):
            raise SettingError(
                "h_mode", f"must be 'stddev' or 'fixed', got {self.h_mode!r}"
            )
        if self.h_mode == "stddev" and self.h_value is not None:
            raise SettingError("h_value", "is only used with h_mode 'fixed'")
        if self.h_mode == "fixed" and self.h_value is not None:
            check_float("h_value", self.h_value)
        if self.h_mode == "fixed" and not (
            self.h_value is not None
            and self.h_value > 0
            and math.isfinite(self.h_value)
        ):
            raise SettingError(
                "h_value", f"must be a positive finite number, got {self.h_value!r}"
            )
        if self.train_count is not None and self.train_fraction is not None:
            raise SettingError("train_count", "cannot be combined with a train fraction")
        check_stopping_rule(self.fg_tol, self.fg_max_iter)
        # Split and predictor parameter validation is delegated to their types.
        self.split_plan()
        self.knn_config()
        self.svm_config()

    def split_plan(self) -> SplitPlan:
        frac = self.train_fraction
        if self.train_count is None and frac is None:
            frac = 0.7
        return SplitPlan(
            seed=self.seed,
            sample_size=self.sample_size,
            train_count=self.train_count,
            train_fraction=frac,
        )

    def knn_config(self) -> KnnConfig:
        return KnnConfig(
            k=self.k,
            zero_distance_policy=self.zero_distance_policy,
            denominator_policy=self.denominator_policy,
        )

    def svm_config(self) -> svm_mod.SvmConfig:
        kernel = svm_mod.KernelSpec(
            kind=self.kernel, degree=self.degree, gamma=self.gamma, coef0=self.coef0
        )
        return svm_mod.SvmConfig(kernel=kernel, regularization=self.reg_lambda)

    def to_dict(self) -> dict:  # the fields, as dataclasses.asdict has them
        return dict(vars(self))


@dataclass(frozen=True)
class PredictionRow:
    element: object  # vertex token or (origin, terminal) pair
    predicted: float
    truth: float
    flags: tuple


def indented_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` of
    ``str``-keyed objects, lists and scalars, and a line break, spelling each
    key and scalar by :func:`_scalar`: the pure-Python encoder leaves a cycle."""
    return _indented(value, "\n") + "\n"


_ENCODE = json.JSONEncoder(allow_nan=False).encode
_STRING = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    """A key or scalar as ``json.dumps`` spells it: an exact ``str``, ``int``
    or finite ``float`` by the functions it uses, anything else by the C
    encoder, which refuses NaN and infinities as it does."""
    kind = type(value)
    if kind is str:
        return _STRING(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    return _ENCODE(value)


def _indented(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{_scalar(k)}: {_indented(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join(_indented(v, inner) for v in value) + newline + "]"
    return _scalar(value)


@dataclass(frozen=True)
class EvaluationReport:
    task: str
    method: str
    mae: float
    rmse: float
    n_train: int
    n_test: int
    h: float
    seed: int
    prng: str
    flags: dict
    tie_stats: dict
    config: dict
    snapshot_digest: str

    def __post_init__(self):
        if not (math.isfinite(self.mae) and math.isfinite(self.rmse)):
            raise PredictionError(f"non-finite result: mae {self.mae}, rmse {self.rmse}")
        if self.rmse < self.mae * (1.0 - 1e-12):
            raise AssertionError(
                f"rmse {self.rmse} < mae {self.mae}; scoring is broken"
            )

    def to_dict(self) -> dict:
        return {"format": REPORT_FORMAT, **vars(self), "flags": dict(self.flags),
                "tie_stats": dict(self.tie_stats), "config": dict(self.config)}

    def to_json(self) -> str:
        return indented_json(self.to_dict())

    def pair(self) -> str:
        """The (MAE, RMSE) cell, three decimals."""
        return f"({self.mae:.3f}, {self.rmse:.3f})"


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """A run's report and its test rows as columns: row i is element
    ``test[i]`` of ``graph``, ``predicted[i]`` against ``truth[i]``, with the
    row flags set in ``flags[answer[i]]``.  Rows and tokens are built only
    when ``predictions`` is read."""

    report: EvaluationReport
    graph: DirectedGraph
    test: np.ndarray
    predicted: np.ndarray
    truth: np.ndarray
    answer: np.ndarray
    flags: np.ndarray  # one row of booleans per answer, a column per row flag

    @cached_property
    def predictions(self) -> tuple:
        """The PredictionRows in test order, built on first use."""
        names = [tuple(f for f, on in zip(_ROW_FLAGS, row) if on) for row in self.flags.tolist()]
        return tuple(map(PredictionRow, self.graph.tokens(WeightKind(self.report.task), self.test),
                         self.predicted.tolist(), self.truth.tolist(),
                         map(names.__getitem__, self.answer.tolist())))


def tally_flags(rows) -> dict:
    """How many rows carry each flag; flags no row carries are absent."""
    return dict(Counter(f for row in rows for f in row.flags))


def _training_bandwidth(config: ExperimentConfig, train_weights: np.ndarray) -> tuple:
    """Resolve h; returns (h, fell_back_to_floor)."""
    if config.h_mode == "fixed":
        return float(config.h_value), False
    std = float(np.std(train_weights))
    if std > 0.0:
        return std, False
    return _H_FLOOR, True


def _memo(snapshot: Snapshot, level: str, key: tuple, compute):
    """``compute()``, or the value the snapshot holds for ``level`` if it was
    computed for ``key``.  A level holds its last key only, as one ``(key,
    value)`` tuple, so a concurrent reader never gets another key's value."""
    held = snapshot._memo.get(level)
    if held is None or held[0] != key:
        held = snapshot._memo[level] = (key, compute())
    return held[1]


def _task_data(snapshot: Snapshot, config: ExperimentConfig) -> tuple:
    """The id split, the weight of every element of the task by id in the
    split's graph, the range of those weights, and the settings they depend
    on."""
    key = (config.split_plan(), config.task)
    sample = _memo(snapshot, "sample", (config.seed, config.sample_size),
                   lambda: sample_edges(snapshot.graph, key[0]))
    split = _memo(snapshot, "split", key, lambda: split_ids(snapshot.graph, *key, sample))
    if config.task == "edge":
        return split, snapshot.weight[split.sampled], (-1.0, 1.0), key
    # The sample depends on the seed and sample size only, so the origin and
    # terminal tasks share one fairness run.
    fg = (config.seed, config.sample_size, config.fg_tol, config.fg_max_iter)
    scores = _memo(snapshot, "fairness", fg, lambda: fairness_goodness(
        split.graph, snapshot.weight[split.sampled], config.fg_tol, config.fg_max_iter))
    if config.task == "origin":
        return split, scores.fairness, (0.0, 1.0), key + fg
    return split, scores.goodness, (-1.0, 1.0), key + fg


def run_experiment(snapshot: Snapshot, config: ExperimentConfig) -> ExperimentResult:
    """Execute one (task, method, seed) run end to end.

    The edge sample, split, fairness scores, band counts and count-class
    table are computed once per snapshot while the settings they depend on
    stay the same, so the cells of a task-major grid share them."""
    split, table, value_range, key = _task_data(snapshot, config)
    kind = WeightKind(config.task)
    train_weights = table[split.train]
    h, h_fell_back = _training_bandwidth(config, train_weights)

    def profile():  # the band counts and the training elements' count classes
        _, _, counts, by_weight = profile_arrays(
            split.graph, kind, split.train, train_weights, h, config.exclude_self)
        return _read_only(counts), count_classes(counts[split.train], train_weights, by_weight)
    band_counts, classes = _memo(snapshot, "profile", (*key, h, config.exclude_self), profile)
    # Both predictors see a query only through its band count: one answer
    # per distinct test count, ascending, all in one batch.
    distinct = np.flatnonzero(np.bincount(band_counts[split.test]))
    answer = np.searchsorted(distinct, band_counts[split.test])

    if config.method == "knn":
        p = KnnClasses(classes, config.knn_config()).predict_counts(distinct)
    else:
        model = svm_mod.fit_classes(classes, band_counts[split.train], config.svm_config(),
                                    value_range)
        p = svm_mod.predict_embeddings(model, distinct)
    none = np.zeros(len(distinct), dtype=bool)
    flags = np.stack([getattr(p, attr, none) for attr in _ROW_FLAGS.values()], axis=1)
    # Each answer's flags count once per test element that got it.
    tally = np.bincount(answer, minlength=len(distinct)) @ flags

    preds = p.value[answer]
    truths = table[split.test]
    report = EvaluationReport(
        task=config.task,
        method=config.method,
        mae=mae(preds, truths),
        rmse=rmse(preds, truths),
        n_train=len(split.train),
        n_test=len(split.test),
        h=h,
        seed=config.seed,
        prng=PRNG_NAME,
        flags={**dict(zip(_ROW_FLAGS, tally.tolist())), "h_stddev_zero": int(h_fell_back)},
        tie_stats={
            "distinct_train_counts": len(classes.counts),
            "max_count_multiplicity": int(np.diff(classes.ptr).max()),
        },
        config=config.to_dict(),
        snapshot_digest=snapshot.digest(),
    )
    return ExperimentResult(report, split.graph, split.test, preds, truths, answer, flags)


# ---- prediction files and text tables ---------------------------------------


def write_predictions(path, result: ExperimentResult) -> None:
    """Write per-element predictions as CSV with a self-describing header."""
    report = result.report
    config = json.dumps(report.config, sort_keys=True, allow_nan=False)
    values = (PREDICTIONS_FORMAT, report.task, report.method, report.snapshot_digest, config)
    buf = io.StringIO()
    buf.writelines(f"# {key}: {value}\n" for key, value in zip(_HEADER_KEYS, values))
    buf.write(_COLUMNS[report.task] + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    edge = report.task == "edge"
    for row in result.predictions:
        element = row.element if edge else (row.element,)
        writer.writerow([*element, repr(row.predicted), repr(row.truth),
                         "|".join(row.flags)])
    _write_file(path, buf.getvalue())


def _parse_config_header(text, path, line) -> dict:
    """The run config of a ``# config:`` line: a JSON object, no NaN or Infinity."""

    def reject(name):
        raise ValueError(f"{name} is not a JSON value")

    config = json_value(text, path, line, "config is not valid JSON", parse_constant=reject)
    if not isinstance(config, dict):
        raise ParseError("config is not a JSON object", path=path, line=line)
    return config


def read_predictions(path):
    """Read a predictions file in the layout :func:`write_predictions`
    writes; returns (rows, metadata dict).

    Lines 1-5 are the ``# key: value`` lines of ``_HEADER_KEYS`` in order:
    the format, a task of ``TASKS``, a method of ``METHODS``, the snapshot
    digest (``sha256:`` and 64 lowercase hex digits) and the config, a JSON
    object whose ``task`` and ``method`` are the header's.  The metadata
    holds each value, the config parsed.  Line 6 is the task's column
    header, and each later line is a row, whose predicted and truth values
    are finite numbers in [-1, 1] and whose flags field is one of
    ``_FLAG_FIELDS``.
    """
    where = str(path)
    lines = utf8_text(read_bytes(path, "predictions"), path).splitlines()
    if lines[:1] != [f"# format: {PREDICTIONS_FORMAT}"]:
        raise ParseError(f"not a {PREDICTIONS_FORMAT} file", path=where, line=1)
    meta = {}
    for lineno, (key, line) in enumerate(zip(_HEADER_KEYS, lines[:5] + [""] * 5), start=1):
        prefix = f"# {key}: "
        if not line.startswith(prefix):
            raise ParseError(f"expected the {prefix.strip()!r} line", path=where, line=lineno)
        meta[key] = line[len(prefix):]
    for lineno, key, allowed in ((2, "task", TASKS), (3, "method", METHODS)):
        if meta[key] not in allowed:
            raise ParseError(f"{key} {meta[key]!r} is not one of {allowed}",
                             path=where, line=lineno)
    if not _DIGEST.fullmatch(meta["snapshot_digest"]):
        raise ParseError(f"snapshot_digest {meta['snapshot_digest']!r} is not 'sha256:' "
                         "and 64 lowercase hex digits", path=where, line=4)
    meta["config"] = config = _parse_config_header(meta["config"], where, 5)
    for key in ("task", "method"):
        if config.get(key) != meta[key]:
            raise ParseError(f"config {key} {config.get(key)!r} is not the header's "
                             f"{meta[key]!r}", path=where, line=5)
    header = _COLUMNS[meta["task"]]
    if lines[5:6] != [header]:
        raise ParseError(f"expected the column header {header!r}", path=where, line=6)

    edge, width = meta["task"] == "edge", len(header.split(","))
    rows = []
    reader = csv.reader(lines[6:])
    for rec in reader:
        lineno = 6 + reader.line_num
        if len(rec) != width:
            raise ParseError(f"expected {width} fields, got {len(rec)}", path=where, line=lineno)
        *element, predicted, truth, field = rec
        values = []
        for name, text in (("predicted", predicted), ("truth", truth)):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"{name} value {text!r} is not a finite number",
                                 path=where, line=lineno)
            if not -1.0 <= value <= 1.0:  # scaled weights, so the scores stay finite
                raise ParseError(f"{name} value {text!r} is outside [-1, 1]",
                                 path=where, line=lineno)
            values.append(value)
        flags = _FLAG_FIELDS.get(field)
        if flags is None:
            raise ParseError(f"row flags {field!r} are not an in-order |-join of "
                             f"{', '.join(_ROW_FLAGS)}", path=where, line=lineno)
        rows.append(PredictionRow(tuple(element) if edge else element[0], *values, flags))
    if not rows:
        raise ParseError("no prediction rows", path=where)
    return rows, meta


_TASK_TITLES = {
    "origin": "Origin weights",
    "terminal": "Terminal weights",
    "edge": "Edge weights",
}
_METHOD_TITLES = {"knn": "kNN", "svm": "SVM"}


def format_tables(reports: Sequence[EvaluationReport], label: str = "dataset") -> str:
    """Aligned (MAE, RMSE) tables, one section per task, columns per method."""
    by_task: dict = {}
    for rep in reports:
        by_task.setdefault(rep.task, {})[rep.method] = rep
    width = max(16, len(label) + 2)
    lines = []
    for task in TASKS:
        if task not in by_task:
            continue
        cells = by_task[task]
        lines.append(_TASK_TITLES[task])
        lines.append("Network".ljust(width)
                     + "".join(_METHOD_TITLES[m].ljust(18) for m in METHODS))
        lines.append(label.ljust(width) + "".join(
            (cells[m].pair() if m in cells else "-").ljust(18) for m in METHODS))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
