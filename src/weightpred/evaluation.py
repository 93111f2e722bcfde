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
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .countmetric import CountMetric
from .errors import ParseError, PredictionError, SettingError
from .fairness import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    check_stopping_rule,
    compute_fairness_goodness,
)
from .graph import WeightKind, Weighting, build_graph
from .ingest import PRNG_NAME, TASKS, Snapshot, Split, SplitPlan, make_split
from .knn import KnnConfig, KnnModel
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
    k: int = 5
    zero_distance_policy: str = "exclude"
    denominator_policy: str = "neighborhood_size"
    kernel: str = "rbf"
    gamma: Optional[float] = None
    degree: int = 3
    coef0: float = 1.0
    reg_lambda: float = 1e-3
    fg_tol: float = DEFAULT_TOL
    fg_max_iter: int = DEFAULT_MAX_ITER
    exclude_self: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise SettingError("task", f"must be one of {TASKS}, got {self.task!r}")
        if self.method not in METHODS:
            raise SettingError("method", f"must be one of {METHODS}, got {self.method!r}")
        if self.h_mode not in ("stddev", "fixed"):
            raise ValueError(f"h_mode must be 'stddev' or 'fixed', got {self.h_mode!r}")
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
        self.kernel_spec()
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

    def kernel_spec(self) -> svm_mod.KernelSpec:
        return svm_mod.KernelSpec(
            kind=self.kernel, degree=self.degree, gamma=self.gamma, coef0=self.coef0
        )

    def svm_config(self) -> svm_mod.SvmConfig:
        return svm_mod.SvmConfig(
            kernel=self.kernel_spec(), regularization=self.reg_lambda
        )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return dataclasses.replace(self, seed=seed)

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


@dataclass(frozen=True)
class ExperimentResult:
    report: EvaluationReport
    predictions: tuple  # PredictionRows in test order
    split: Split


def tally_flags(rows) -> dict:
    """How many rows carry each flag; flags no row carries are absent."""
    return dict(Counter(f for row in rows for f in row.flags))


def _training_bandwidth(config: ExperimentConfig, train_weights) -> tuple:
    """Resolve h; returns (h, fell_back_to_floor)."""
    if config.h_mode == "fixed":
        return float(config.h_value), False
    std = float(np.std(np.asarray(train_weights, dtype=float)))
    if std > 0.0:
        return std, False
    return _H_FLOOR, True


def _task_data(config: ExperimentConfig, split: Split):
    """Graph, training weight map, held-out truth pairs, and weight kind."""
    graph = build_graph([r.pair for r in split.sampled])
    if config.task == "edge":
        train_weights = {r.pair: r.weight for r in split.train}
        truths = [(r.pair, r.weight) for r in split.test]
        return graph, train_weights, truths, WeightKind.EDGE, (-1.0, 1.0)

    scores = compute_fairness_goodness(
        graph,
        {r.pair: r.weight for r in split.sampled},
        tol=config.fg_tol,
        max_iter=config.fg_max_iter,
    )
    if config.task == "origin":
        table, kind, rng = scores.fairness, WeightKind.ORIGIN, (0.0, 1.0)
    else:
        table, kind, rng = scores.goodness, WeightKind.TERMINAL, (-1.0, 1.0)
    train_weights = {v: table[v] for v in split.train}
    truths = [(v, table[v]) for v in split.test]
    return graph, train_weights, truths, kind, rng


def run_experiment(snapshot: Snapshot, config: ExperimentConfig) -> ExperimentResult:
    """Execute one (task, method, seed) run end to end."""
    split = make_split(snapshot.edges, config.split_plan(), config.task)
    graph, train_weights, truths, kind, value_range = _task_data(config, split)
    if not truths:
        raise PredictionError("empty test set; nothing to score")

    h, h_fell_back = _training_bandwidth(config, list(train_weights.values()))
    weighting = Weighting(kind, train_weights, *value_range)
    metric = CountMetric(graph, weighting, h, exclude_self=config.exclude_self)
    train_elements = list(train_weights)

    if config.method == "knn":
        predict = KnnModel(metric, train_elements, config.knn_config()).predict_count
    else:
        model = svm_mod.fit(metric, train_elements, config.svm_config())
        predict = lambda c: svm_mod.predict_at(model, float(c))

    # Both predictors see a query only through its band count: one answer
    # (value, row flags) per distinct test count, in first-appearance order.
    table = {}
    rows = []
    for elem, truth in truths:
        c = metric.profile(elem).band_count
        if c not in table:
            p = predict(c)
            table[c] = p.value, tuple(
                f for f, attr in _ROW_FLAGS.items() if getattr(p, attr, False)
            )
        value, flags = table[c]
        rows.append(PredictionRow(elem, value, truth, flags))

    preds = [r.predicted for r in rows]
    actual = [r.truth for r in rows]
    train_counts = Counter(metric.profile(a).band_count for a in train_elements)
    report = EvaluationReport(
        task=config.task,
        method=config.method,
        mae=mae(preds, actual),
        rmse=rmse(preds, actual),
        n_train=len(train_elements),
        n_test=len(rows),
        h=h,
        seed=config.seed,
        prng=PRNG_NAME,
        flags={**dict.fromkeys(_ROW_FLAGS, 0), **tally_flags(rows),
               "h_stddev_zero": int(h_fell_back)},
        tie_stats={
            "distinct_train_counts": len(train_counts),
            "max_count_multiplicity": max(train_counts.values()),
        },
        config=config.to_dict(),
        snapshot_digest=snapshot.digest(),
    )
    return ExperimentResult(report=report, predictions=tuple(rows), split=split)


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
    Path(path).write_text(buf.getvalue())


def read_predictions(path):
    """Read a predictions file; returns (rows, metadata dict)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read predictions: {exc}", path=str(path)) from exc

    meta = {}
    data_lines = []
    linenos = []  # file line number of each data line
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ": " in body:
                key, value = body.split(": ", 1)
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
