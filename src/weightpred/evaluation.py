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
import dataclasses
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .countmetric import profile_arrays
from .errors import (
    ParseError, PredictionError, SettingError, check_float, read_bytes, utf8_text,
)
from .fairness import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    check_stopping_rule,
    fairness_goodness,
)
from .graph import DirectedGraph, WeightKind, _read_only
from .ingest import PRNG_NAME, TASKS, Snapshot, SplitPlan, split_ids
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PredictionRow:
    element: object  # vertex token or (origin, terminal) pair
    predicted: float
    truth: float
    flags: tuple


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
        return {"format": REPORT_FORMAT, **dataclasses.asdict(self)}

    def to_json(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        return text + "\n"

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
    columns = snapshot.columns
    key = (config.split_plan(), config.task)
    split = _memo(snapshot, "split", key, lambda: split_ids(columns, *key))
    if config.task == "edge":
        return split, columns.weight[split.sampled], (-1.0, 1.0), key
    # The sample depends on the seed and sample size only, so the origin and
    # terminal tasks share one fairness run.
    fg = (config.seed, config.sample_size, config.fg_tol, config.fg_max_iter)
    scores = _memo(snapshot, "fairness", fg, lambda: fairness_goodness(
        split.graph, columns.weight[split.sampled], config.fg_tol, config.fg_max_iter))
    if config.task == "origin":
        return split, scores.fairness, (0.0, 1.0), key + fg
    return split, scores.goodness, (-1.0, 1.0), key + fg


def run_experiment(snapshot: Snapshot, config: ExperimentConfig) -> ExperimentResult:
    """Execute one (task, method, seed) run end to end.

    The split, the fairness scores and the band counts are computed once
    per snapshot while the settings they depend on stay the same, so the
    cells of a task-major grid share them."""
    split, table, value_range, key = _task_data(snapshot, config)
    kind = WeightKind(config.task)
    train_weights = table[split.train]
    h, h_fell_back = _training_bandwidth(config, train_weights)
    band_counts = _memo(snapshot, "profile", (*key, h, config.exclude_self), lambda: _read_only(
        profile_arrays(split.graph, kind, split.train, train_weights, h, config.exclude_self)[2]))
    train_counts = band_counts[split.train]
    # Both predictors see a query only through its band count: one answer
    # per distinct test count, ascending, all in one batch.
    distinct = np.flatnonzero(np.bincount(band_counts[split.test]))
    answer = np.searchsorted(distinct, band_counts[split.test])

    if config.method == "knn":
        p = KnnClasses(train_counts, train_weights, config.knn_config()).predict_counts(distinct)
    else:
        model = svm_mod.fit_points(
            np.stack((train_counts, train_weights), axis=1), config.svm_config(), value_range
        )
        p = svm_mod.predict_embeddings(model, distinct)
    none = np.zeros(len(distinct), dtype=bool)
    flags = np.stack([getattr(p, attr, none) for attr in _ROW_FLAGS.values()], axis=1)
    # Each answer's flags count once per test element that got it.
    tally = np.bincount(answer, minlength=len(distinct)) @ flags

    preds = p.value[answer]
    truths = table[split.test]
    per_count = np.bincount(train_counts)
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
            "distinct_train_counts": int(np.count_nonzero(per_count)),
            "max_count_multiplicity": int(per_count.max()),
        },
        config=config.to_dict(),
        snapshot_digest=snapshot.digest(),
    )
    return ExperimentResult(report, split.graph, split.test, preds, truths, answer, flags)


# ---- prediction files and text tables ---------------------------------------


def write_predictions(path, result: ExperimentResult) -> None:
    """Write per-element predictions as CSV with a self-describing header."""
    report = result.report
    buf = io.StringIO()
    buf.write(f"# format: {PREDICTIONS_FORMAT}\n")
    buf.write(f"# task: {report.task}\n")
    buf.write(f"# method: {report.method}\n")
    buf.write(f"# snapshot_digest: {report.snapshot_digest}\n")
    config = json.dumps(report.config, sort_keys=True, allow_nan=False)
    buf.write(f"# config: {config}\n")
    writer = csv.writer(buf, lineterminator="\n")
    edge = report.task == "edge"
    key = ["origin", "terminal"] if edge else ["element"]
    writer.writerow(key + ["predicted", "truth", "flags"])
    for row in result.predictions:
        element = row.element if edge else (row.element,)
        writer.writerow([*element, repr(row.predicted), repr(row.truth),
                         "|".join(row.flags)])
    # Encoded before the file opens, so a token UTF-8 cannot encode writes no file.
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def _parse_config_header(text, path, line) -> dict:
    """The run config of a ``# config:`` line: a JSON object, no NaN or Infinity."""

    def reject(name):
        raise ValueError(f"{name} is not a JSON value")

    try:
        config = json.loads(text, parse_constant=reject)
    except ValueError as exc:
        raise ParseError(f"config is not valid JSON: {exc}", path=path, line=line) from None
    if not isinstance(config, dict):
        raise ParseError("config is not a JSON object", path=path, line=line)
    return config


def read_predictions(path):
    """Read a predictions file; returns (rows, metadata dict).

    The metadata holds each ``# key: value`` header line's value as text,
    except ``config``, which is parsed from JSON.  Only lines before the
    column-header row are header lines: after it, a line that starts with
    ``#`` is a row whose first token does.  A row's flags are distinct names
    of ``_ROW_FLAGS``.
    """
    text = utf8_text(read_bytes(path, "predictions"), path)
    meta = {}
    data_lines = []
    linenos = []  # file line number of each data line
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not data_lines and line.startswith("#"):
            body = line.lstrip("#").strip()
            if ": " in body:
                key, value = body.split(": ", 1)
                if key == "config":
                    value = _parse_config_header(value, str(path), lineno)
                meta[key] = value
        elif line.strip():
            data_lines.append(line)
            linenos.append(lineno)
    if meta.get("format") != PREDICTIONS_FORMAT:
        raise ParseError(
            f"not a {PREDICTIONS_FORMAT} file", path=str(path)
        )
    if not data_lines:
        raise ParseError("no prediction rows", path=str(path))

    reader = csv.reader(data_lines)
    header = next(reader)
    try:
        pred_col = header.index("predicted")
        truth_col = header.index("truth")
        flags_col = header.index("flags")
    except ValueError:
        raise ParseError(
            f"missing required columns in header {header!r}", path=str(path)
        ) from None

    rows = []
    for lineno, rec in zip(linenos[1:], reader):
        if len(rec) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(rec)}",
                path=str(path), line=lineno,
            )
        values = []
        for col in (pred_col, truth_col):
            try:
                value = float(rec[col])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"{header[col]} value {rec[col]!r} is not a finite number",
                    path=str(path), line=lineno,
                )
            values.append(value)
        if header[0] == "origin":
            element = (rec[0], rec[1])
        else:
            element = rec[0]
        flags = tuple(f for f in rec[flags_col].split("|") if f)
        for k, flag in enumerate(flags):
            if flag not in _ROW_FLAGS or flag in flags[:k]:
                fault = "repeated" if flag in _ROW_FLAGS else "unknown"
                raise ParseError(f"{fault} row flag {flag!r}", path=str(path), line=lineno)
        rows.append(PredictionRow(element, *values, flags))
    if not rows:
        raise ParseError("no prediction rows", path=str(path))
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
