#!/usr/bin/env python3
"""The weightpred benchmark: time the task x method grid end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 40 --trace 0

The input file is generated from ``--seed`` by ``scripts/make_synthetic.py``.
Repetitions run one after another, each in a fresh worker process, for
``--seconds`` seconds (at least one).  ``--trace 0`` times the package's own
entry points and prints the end-to-end metrics; ``--trace 1`` alternates such
repetitions with traced ones that call each module's public functions stage
by stage, and prints the per-layer metrics.  End-to-end timings are medians
at the reference speed (see ``at_reference_speed``).  Every report is checked
(see ``gate``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details (sample counts, raw samples and wall-time
medians, input and machine facts, per-cell report SHA-256s).  Spans of the
traced run are written to ``.perfbench-out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/weightpred/evaluation.py", "scripts/make_synthetic.py")
OUT_DIR = ".perfbench-out"
BLAS_THREADS = 1  # one process, no extra threads; at most nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_PER_REP = 3
# A reference block's wall time on an unloaded vCPU of the VM the README's
# figures come from; timings are reported at this reference speed.
REF_S = 0.025
REF_WINDOW = 4  # reference blocks that set the scale of one sample
DEADLINE_S = 170.0  # a worker still running this long into a run is killed

# End-to-end metrics of the untraced run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "knn_s": "s",
    "svm_s": "s",
    "peak_rss_mb": "MiB",
    "mae": "w_scaled",
    "rmse": "w_scaled",
    "cell_pass_rate": "fraction",
}

# Per-layer metrics of the traced run, as worker.layer_metrics names them.
PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in (
        "ingest.parse", "ingest.build_snapshot", "ingest.save", "ingest.load",
        "ingest.split", "ingest.digest", "graph.build", "fairness.fg",
        "countmetric.profile", "knn.fit", "knn.predict", "svm.fit", "svm.predict",
        "evaluation.score", "evaluation.trace_gap",
    )},
    "fairness.sweep_ms": "ms",
    "countmetric.us_per_visit": "us",
    "knn.us_per_query": "us",
    **{name: "count" for name in (
        "ingest.edges", "graph.edges", "graph.origins", "graph.terminals",
        "fairness.sweeps", "fairness.edge_updates", "fairness.converged_cells",
        "countmetric.profiles", "countmetric.neighbor_visits",
        "countmetric.empty_profiles", "countmetric.distinct_counts",
        "knn.queries", "knn.scanned", "knn.fallback", "knn.degenerate",
        "svm.merged_points", "svm.clamped",
    )},
}


def load_generator(root: Path):
    """``generate`` from ``scripts/make_synthetic.py``, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "make_synthetic", root / "scripts" / "make_synthetic.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate


def input_facts(path: Path) -> dict:
    data = path.read_bytes()
    origins, terminals, edges = set(), set(), 0
    for line in data.decode().splitlines():
        fields = line.split(",")
        origins.add(fields[0])
        terminals.add(fields[1])
        edges += 1
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "edges": edges,
        "origins": len(origins),
        "terminals": len(terminals),
    }


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads_cap": BLAS_THREADS,
        "cpu": cpu,
    }


def run_rep(root: Path, work: Path, job: dict, timeout: float) -> dict:
    """Run one repetition in a fresh process; raises RuntimeError on failure."""
    job = dict(job, snapshot=str(work / "snapshot.json"), result=str(work / "result.json"))
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    # The hash seed follows the benchmark seed, so a run's dict and set
    # layouts repeat with its inputs instead of changing per process.
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONHASHSEED=str(job["seed"] % 2**32))
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            env=env, cwd=root, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{job['mode']} repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{job['mode']} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(Path(job["result"]).read_text())


def collect(workload: Workload, seed: int, seconds: float, traced: bool, root: Path,
            out_dir: Path):
    """Generate the input and run repetitions; returns (input facts, plain, traced, errors)."""
    started = time.perf_counter()
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=out_dir))
    plain, traced_reps, errors = [], [], []
    try:
        raw = work / "input.csv"
        load_generator(root)(raw, workload.edges, workload.raters, workload.ratees, seed)
        facts = input_facts(raw)
        job = {"workload": workload.to_dict(), "seed": seed, "input": str(raw),
               "setups": SETUPS_PER_REP}
        measuring = time.perf_counter()
        while True:
            mode = "traced" if traced and len(traced_reps) < len(plain) else "plain"
            rep_started = time.perf_counter()
            timeout = max(1.0, DEADLINE_S - (rep_started - started))
            try:
                rep = run_rep(root, work, dict(job, mode=mode), timeout)
            except RuntimeError as exc:
                errors.append(str(exc))
                break
            (traced_reps if mode == "traced" else plain).append(rep)
            now = time.perf_counter()
            done = not traced or traced_reps
            if done and (now - measuring) + (now - rep_started) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return facts, plain, traced_reps, errors


def _strict_json(text: str) -> dict:
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def gate(plain: list, traced: list) -> tuple:
    """Check every cell run.

    Returns (attempted, breaches, report SHA-256 per cell, (mae, rmse) as
    float hex per cell that passed).

    A plain run fails if it raised, if its report is not valid JSON, if MAE
    or RMSE is not finite or RMSE < MAE, or if its report differs from the
    first repetition's.  A traced run fails if it raised or if its MAE or
    RMSE is not bit-identical to the plain report's.
    """
    breaches, shas, reference = [], {}, {}
    attempted = 0
    for rep_no, rep in enumerate(plain):
        for cell in rep["cells"]:
            attempted += 1
            key = cell["cell"]
            where = f"plain rep {rep_no} {key}"
            if "error" in cell:
                breaches.append(f"{where}: raised {cell['error']}")
                continue
            sha = hashlib.sha256(cell["report"].encode()).hexdigest()
            try:
                report = _strict_json(cell["report"])
                m, r = float(report["mae"]), float(report["rmse"])
            except (ValueError, KeyError, TypeError) as exc:
                breaches.append(f"{where}: report is not valid JSON ({exc})")
                continue
            if not (math.isfinite(m) and math.isfinite(r)):
                breaches.append(f"{where}: non-finite mae={m!r} rmse={r!r}")
            elif r < m:
                breaches.append(f"{where}: rmse {r!r} < mae {m!r}")
            elif shas.setdefault(key, sha) != sha:
                breaches.append(f"{where}: report sha256 {sha} != {shas[key]}")
            else:
                reference.setdefault(key, (m.hex(), r.hex()))
    for rep_no, rep in enumerate(traced):
        for cell in rep["cells"]:
            attempted += 1
            key = cell["cell"]
            where = f"traced rep {rep_no} {key}"
            if "error" in cell:
                breaches.append(f"{where}: raised {cell['error']}")
            elif reference.get(key) != (cell["mae"], cell["rmse"]):
                breaches.append(
                    f"{where}: traced (mae, rmse) = ({cell['mae']}, {cell['rmse']}) "
                    f"!= untraced {reference.get(key)}"
                )
    return attempted, breaches, shas, reference


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def at_reference_speed(plain: list) -> tuple:
    """(set-up times, [(cell, time)]) of the plain repetitions at the reference speed.

    Each sample is scaled by REF_S over the median of the REF_WINDOW
    reference blocks timed nearest to it, as many before it as after it.
    Load on the machine drifts over minutes, and it slows the sample and
    the blocks around it alike, so the drift cancels out; the median of
    several blocks keeps a single block's own noise out of the scale.
    """
    refs, samples = [], []
    for rep in plain:  # in the order they ran, so the blocks are in time order
        timed = [(None, t) for t in rep["setup_s"]] + [(c, c["seconds"]) for c in rep["cells"]]
        samples += [(cell, t, len(refs) + i) for i, (cell, t) in enumerate(timed)]
        refs += rep["ref_s"]  # one block before each sample, one after the last
    half = REF_WINDOW // 2
    setups, cells = [], []
    for cell, t, before in samples:
        window = refs[max(0, before + 1 - half): before + 1 + half]
        scaled = t * REF_S / statistics.median(window)
        if cell is None:
            setups.append(scaled)
        else:
            cells.append((cell, scaled))
    return setups, cells


def _run_s(plain: list, method: str | None = None, wall: bool = False) -> float:
    """Sum over cells of each cell's median time across repetitions.

    Times are at the reference speed, or wall time with ``wall``.
    """
    if wall:
        cells = [(c, c["seconds"]) for rep in plain for c in rep["cells"]]
    else:
        cells = at_reference_speed(plain)[1]
    times: dict = {}
    for c, seconds in cells:
        if method in (None, c["method"]):
            times.setdefault(c["cell"], []).append(seconds)
    return sum(statistics.median(v) for v in times.values())


def end_to_end(plain: list, reference: dict, attempted: int, failed: int) -> dict:
    """End-to-end values: timings are medians over samples at the reference
    speed, MAE/RMSE means over cells."""
    checked = [tuple(map(float.fromhex, pair)) for pair in reference.values()]
    return {
        "setup_s": _median(at_reference_speed(plain)[0]),
        "run_s": _run_s(plain),
        "knn_s": _run_s(plain, "knn"),
        "svm_s": _run_s(plain, "svm"),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in plain]),
        "mae": statistics.fmean(m for m, _ in checked) if checked else 0.0,
        "rmse": statistics.fmean(r for _, r in checked) if checked else 0.0,
        "cell_pass_rate": 1.0 - failed / attempted,
    }


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer values: medians over traced repetitions (counts are the same in each)."""
    values = {
        name: _median([rep["layers"].get(name, 0.0) for rep in traced])
        for name in PER_LAYER_UNITS
    }
    if traced and plain:
        values["evaluation.trace_gap_s"] = (
            _median([rep["cells_s"] for rep in traced]) - _run_s(plain, wall=True)
        )
    return values


def write_trace(out_dir: Path, name: str, seed: int, traced: list) -> Path:
    """Spans of every traced repetition plus self time summed per span name."""
    self_s: dict = {}
    for rep in traced:
        for span in rep["spans"]:
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self"]
    path = out_dir / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(
        {"repetitions": [rep["spans"] for rep in traced], "self_s_total": self_s},
        indent=1, allow_nan=False,
    ))
    return path


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 root: Path = ROOT, out_dir: Path = ROOT / OUT_DIR) -> tuple:
    """Measure one workload; returns (result line, details)."""
    facts, plain, traced_reps, errors = collect(
        workload, seed, seconds, traced, root, out_dir
    )
    attempted, breaches, shas, reference = gate(plain, traced_reps)
    n_cells = len(workload.cells(seed))  # a crashed worker fails all its cells
    failed = len(breaches) + n_cells * len(errors)
    attempted += n_cells * len(errors)
    breaches += [f"{error} ({n_cells} cells not run)" for error in errors]

    if traced:
        values, units = per_layer(plain, traced_reps), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plain, reference, attempted, failed), END_TO_END_UNITS
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "samples": {
            "plain_repetitions": len(plain),
            "traced_repetitions": len(traced_reps),
            "setups": sum(len(rep["setup_s"]) for rep in plain),
        },
        "raw": {
            "setup_s": [rep["setup_s"] for rep in plain],
            "cell_s": [{c["cell"]: c["seconds"] for c in rep["cells"]} for rep in plain],
            "ref_s": [rep["ref_s"] for rep in plain],
        },
        "wall_medians": {
            "setup_s": _median([t for rep in plain for t in rep["setup_s"]]),
            "run_s": _run_s(plain, wall=True),
            "knn_s": _run_s(plain, "knn", wall=True),
            "svm_s": _run_s(plain, "svm", wall=True),
            "ref_s": _median([t for rep in plain for t in rep["ref_s"]]),
        },
        "input": facts,
        "snapshot": plain[0]["snapshot"] if plain else None,
        "machine": {**machine_facts(), "numpy": plain[0]["numpy"] if plain else None},
        "report_sha256": shas,
        "breaches": breaches,
    }
    if traced_reps:
        details["trace_file"] = str(write_trace(out_dir, workload.name, seed, traced_reps))
    result = {
        "correct": not breaches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a weightpred checkout; missing {missing}",
              file=sys.stderr)
        return 2
    result, details = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for breach in details["breaches"]:
        print(f"FAILED {breach}")
    print(json.dumps({"details": details}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
