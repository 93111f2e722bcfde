"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py JOB.json`` with ``src`` on PYTHONPATH.
The job names the mode, the workload, the seed, the raw input file and where
to write the result.

* ``plain`` mode drives the package's own entry points, as a CLI user does:
  ``build_snapshot`` -> ``save_snapshot`` -> ``load_snapshot`` (the set-up,
  repeated ``setups`` times), then ``run_experiment`` once per cell.  Before
  the first set-up and after every set-up and cell it times one reference
  block (see ``reference_s``), so ``run.py`` can rescale each sample by the
  speed the machine ran at around it.
* ``traced`` mode runs the same cells stage by stage through each module's
  public functions, with a span around every call, and counts the work each
  layer did.  It mirrors ``run_experiment`` step for step, so its MAE and
  RMSE must equal the plain report's bit for bit.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from weightpred import svm
from weightpred.countmetric import CountMetric
from weightpred.evaluation import ExperimentConfig, mae, rmse, run_experiment
from weightpred.fairness import compute_fairness_goodness
from weightpred.graph import WeightKind, Weighting, build_graph
from weightpred.ingest import (
    DatasetSpec,
    build_snapshot,
    load_snapshot,
    make_split,
    parse_edge_list,
    save_snapshot,
)
from weightpred.knn import KnnModel

from spans import Tracer
from workloads import HAS_TIMESTAMP, WEIGHT_RANGE, Workload

# Bandwidth floor for zero-spread training weights, as in evaluation.py.
H_FLOOR = 1e-12
REFERENCE_ITERATIONS = 40_000


def cell_key(task: str, method: str, seed: int) -> str:
    return f"{task}/{method}/seed{seed}"


def _config(workload: Workload, task: str, method: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        task=task, method=method, seed=seed, sample_size=workload.sample_size
    )


def _error(exc: BaseException) -> str:
    """The exception and the innermost place it was raised."""
    message = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return message
    return f"{message} (at {Path(frames[-1].filename).name}:{frames[-1].lineno})"


def reference_block() -> int:
    """Fixed pure-Python work that uses nothing from the package.

    Dict, set, tuple and float operations, the kind the package's own loops
    spend their time on, so that load on the machine slows it about as much
    as it slows them.  A change to the package cannot change its speed.
    """
    counts, seen, acc = {}, set(), 0.0
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) % 1543
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i % 13))
        acc += (i % 17) * 0.5
    return len(counts) + len(seen) + int(acc)


def reference_s() -> float:
    """Wall time of one reference block."""
    started = time.perf_counter()
    reference_block()
    return time.perf_counter() - started


def plain_rep(job: dict) -> dict:
    workload = Workload.from_dict(job["workload"])
    spec = DatasetSpec(job["input"], WEIGHT_RANGE, HAS_TIMESTAMP)
    ref_s = [reference_s()]  # one before the first sample and one after each
    setup_s = []
    for _ in range(job["setups"]):
        started = time.perf_counter()
        save_snapshot(build_snapshot(spec), job["snapshot"])
        snapshot = load_snapshot(job["snapshot"])
        setup_s.append(time.perf_counter() - started)
        ref_s.append(reference_s())

    cells = []
    for task, method, seed in workload.cells(job["seed"]):
        cell = {"cell": cell_key(task, method, seed), "method": method}
        started = time.perf_counter()
        try:
            cell["report"] = run_experiment(
                snapshot, _config(workload, task, method, seed)
            ).report.to_json()
        except Exception as exc:  # a failing cell is counted, not fatal
            cell["error"] = _error(exc)
        cell["seconds"] = time.perf_counter() - started
        cells.append(cell)
        ref_s.append(reference_s())
    return {
        "setup_s": setup_s,
        "cells": cells,
        "ref_s": ref_s,
        "snapshot": {
            "edges": len(snapshot.edges),
            "origins": len(snapshot.origins),
            "terminals": len(snapshot.terminals),
        },
    }


def _bandwidth(config: ExperimentConfig, train_weights: list) -> float:
    if config.h_mode == "fixed":
        return float(config.h_value)
    std = float(np.std(np.asarray(train_weights, dtype=float)))
    return std if std > 0.0 else H_FLOOR


def _neighbor_visits(graph, kind: WeightKind, element) -> int:
    """Candidates the neighbor relation inspects for one element."""
    if kind is WeightKind.ORIGIN:
        return sum(len(graph.terminal_index[t]) for _, t in graph.out_edges(element))
    if kind is WeightKind.TERMINAL:
        return sum(len(graph.origin_index[o]) for o, _ in graph.in_edges(element))
    return len(graph.origin_index[element[0]]) + len(graph.terminal_index[element[1]])


def traced_cell(tracer: Tracer, snapshot, config: ExperimentConfig, n: Counter) -> tuple:
    """One cell, stage by stage; returns (mae, rmse) and adds to counts ``n``."""
    with tracer.span("ingest.digest"):
        snapshot.digest()
    with tracer.span("ingest.split"):
        split = make_split(snapshot.edges, config.split_plan(), config.task)
    with tracer.span("graph.build"):
        graph = build_graph([r.pair for r in split.sampled])
    n["graph.edges"] += len(graph.edges)
    n["graph.origins"] += len(graph.origins)
    n["graph.terminals"] += len(graph.terminals)

    if config.task == "edge":
        train_weights = {r.pair: r.weight for r in split.train}
        truths = [(r.pair, r.weight) for r in split.test]
        kind, value_range = WeightKind.EDGE, (-1.0, 1.0)
    else:
        edge_weights = {r.pair: r.weight for r in split.sampled}
        with tracer.span("fairness.fg"):
            scores = compute_fairness_goodness(
                graph, edge_weights, tol=config.fg_tol, max_iter=config.fg_max_iter
            )
        n["fairness.sweeps"] += scores.iterations
        n["fairness.edge_updates"] += scores.iterations * len(graph.edges) * 2
        n["fairness.converged_cells"] += int(scores.converged)
        if config.task == "origin":
            table, kind, value_range = scores.fairness, WeightKind.ORIGIN, (0.0, 1.0)
        else:
            table, kind, value_range = scores.goodness, WeightKind.TERMINAL, (-1.0, 1.0)
        train_weights = {v: table[v] for v in split.train}
        truths = [(v, table[v]) for v in split.test]

    h = _bandwidth(config, list(train_weights.values()))
    train = list(train_weights)
    elements = train + [e for e, _ in truths]
    with tracer.span("countmetric.profile"):
        metric = CountMetric(
            graph, Weighting(kind, train_weights, *value_range), h,
            exclude_self=config.exclude_self,
        )
        profiles = [metric.profile(e) for e in elements]
    n["countmetric.profiles"] += len(profiles)
    n["countmetric.neighbor_visits"] += sum(_neighbor_visits(graph, kind, e) for e in elements)
    n["countmetric.empty_profiles"] += sum(p.neighbor_count == 0 for p in profiles)
    n["countmetric.distinct_counts"] = max(
        n["countmetric.distinct_counts"], len({p.band_count for p in profiles})
    )

    if config.method == "knn":
        with tracer.span("knn.fit"):
            model = KnnModel(metric, train, config.knn_config())
        with tracer.span("knn.predict"):
            preds = [model.predict(e) for e, _ in truths]
        n["knn.queries"] += len(truths)
        n["knn.scanned"] += len(truths) * len(train)
        n["knn.fallback"] += sum(p.used_fallback for p in preds)
        n["knn.degenerate"] += sum(p.degenerate for p in preds)
    else:
        with tracer.span("svm.fit"):
            model = svm.fit(metric, train, config.svm_config())
        with tracer.span("svm.predict"):
            preds = [svm.predict_weight_svm(model, metric, e) for e, _ in truths]
        n["svm.merged_points"] += model.merged_count
        n["svm.clamped"] += sum(p.clamped for p in preds)

    values = [p.value for p in preds]
    actual = [t for _, t in truths]
    with tracer.span("evaluation.score"):
        return mae(values, actual), rmse(values, actual)


def _per_call(total_s: float, calls: int, scale: float) -> float:
    return total_s * scale / calls if calls else 0.0


def layer_metrics(tracer: Tracer, n: Counter) -> dict:
    """Per-layer figures of one traced repetition, keyed by metric name.

    A layer that did not run (fairness on the edge task) has no entry.
    """
    layers = {s.name for s in tracer.spans} - {"setup", "cell"}
    out = {f"{name}_s": tracer.total(name) for name in layers}
    out.update(n)
    out["fairness.sweep_ms"] = _per_call(
        out.get("fairness.fg_s", 0.0), n["fairness.sweeps"], 1e3
    )
    out["countmetric.us_per_visit"] = _per_call(
        out.get("countmetric.profile_s", 0.0), n["countmetric.neighbor_visits"], 1e6
    )
    out["knn.us_per_query"] = _per_call(out.get("knn.predict_s", 0.0), n["knn.queries"], 1e6)
    return out


def traced_rep(job: dict) -> dict:
    workload = Workload.from_dict(job["workload"])
    spec = DatasetSpec(job["input"], WEIGHT_RANGE, HAS_TIMESTAMP)
    tracer = Tracer()
    n = Counter()
    with tracer.span("setup"):
        with tracer.span("ingest.parse"):
            parse_edge_list(spec)
        with tracer.span("ingest.build_snapshot"):
            snapshot = build_snapshot(spec)
        with tracer.span("ingest.save"):
            save_snapshot(snapshot, job["snapshot"])
        with tracer.span("ingest.load"):
            snapshot = load_snapshot(job["snapshot"])
    n["ingest.edges"] = len(snapshot.edges)

    cells = []
    for task, method, seed in workload.cells(job["seed"]):
        key = cell_key(task, method, seed)
        cell = {"cell": key}
        try:
            with tracer.span("cell", cell=key):
                m, r = traced_cell(tracer, snapshot, _config(workload, task, method, seed), n)
            cell.update(mae=m.hex(), rmse=r.hex())
        except Exception as exc:  # a failing cell is counted, not fatal
            cell["error"] = _error(exc)
        cells.append(cell)
    return {
        "cells": cells,
        "cells_s": tracer.total("cell"),
        "layers": layer_metrics(tracer, n),
        "spans": tracer.to_list(),
    }


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    result = plain_rep(job) if job["mode"] == "plain" else traced_rep(job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    Path(job["result"]).write_text(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main(sys.argv[1])
