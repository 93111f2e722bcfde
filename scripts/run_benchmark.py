#!/usr/bin/env python3
"""Run every task/method combination over several seeds and summarize.

Works straight off a raw edge list: ingests it, then runs the standard
protocol (sample 5000 edges, 70% training, h = training std-dev) once per
seed and prints per-run pairs plus mean +/- std across seeds.

Example:
    python3 scripts/make_synthetic.py --output /tmp/synth.csv
    python3 scripts/run_benchmark.py --input /tmp/synth.csv \\
        --weight-min -10 --weight-max 10 --timestamp --seeds 3
"""

import argparse
import time

import numpy as np

from weightpred import DatasetSpec, ExperimentConfig, build_snapshot, run_experiment
from weightpred.evaluation import METHODS, PROTOCOL_SAMPLE_SIZE
from weightpred.ingest import TASKS
from weightpred.svm import KERNEL_KINDS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True)
    parser.add_argument("--weight-min", type=float, required=True)
    parser.add_argument("--weight-max", type=float, required=True)
    parser.add_argument("--timestamp", action="store_true")
    parser.add_argument("--delimiter", default=",")
    parser.add_argument("--sample-size", type=int, default=PROTOCOL_SAMPLE_SIZE)
    parser.add_argument("--seeds", type=int, default=3, help="seeds 0..N-1")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--kernel", default="rbf", choices=KERNEL_KINDS)
    args = parser.parse_args()

    spec = DatasetSpec(
        path=args.input,
        weight_range=(args.weight_min, args.weight_max),
        has_timestamp=args.timestamp,
        delimiter=args.delimiter,
    )
    snapshot = build_snapshot(spec)
    print(f"snapshot: {len(snapshot.origins)} origins, "
          f"{len(snapshot.terminals)} terminals, {len(snapshot.edges)} edges")

    for task in TASKS:
        for method in METHODS:
            maes, rmses = [], []
            started = time.monotonic()
            for seed in range(args.seeds):
                config = ExperimentConfig(
                    task=task, method=method, seed=seed,
                    sample_size=min(args.sample_size, len(snapshot.edges)),
                    k=args.k, kernel=args.kernel,
                )
                report = run_experiment(snapshot, config).report
                maes.append(report.mae)
                rmses.append(report.rmse)
            elapsed = time.monotonic() - started
            print(
                f"{task:>8} {method:>4}  "
                f"MAE {np.mean(maes):.3f} +/- {np.std(maes):.3f}  "
                f"RMSE {np.mean(rmses):.3f} +/- {np.std(rmses):.3f}  "
                f"[{elapsed / args.seeds:.1f}s/run]"
            )


if __name__ == "__main__":
    main()
