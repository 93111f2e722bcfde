"""Command-line front end: ingest, gen-weights, predict, evaluate, reproduce-tables.

Exit codes are a stable contract for scripting: 0 success, 1 usage error,
2 IO/parse error, 3 domain or numeric failure, 4 internal invariant failure
(a bug, never bad input).

Defaults mirror the standard experiment protocol: sample 5000 edges, train
on 3500 edges (edge task) or 70% of the vertex set (vertex tasks), and set
the bandwidth h to the standard deviation of the training weights.  Pass
``--sample-size all`` to use every edge of a snapshot.

Every setting flag (all but file paths, ``--task``, ``--method``,
``--repeat`` and ``--label``) can also be supplied through ``--config
file.json``, a flat JSON object keyed by flag destination names, e.g.
``{"sample_size": 200}``.  Each value must have the JSON type its flag
takes, or the run exits 2 naming the key.  Explicit flags win over the
config file, and a setting neither gives takes the library's default, which
for the run settings is the :class:`ExperimentConfig` field default.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DomainError, ParseError, PredictionError, SettingError, check_float, json_value,
    read_bytes, utf8_text,
)
from .evaluation import (
    METHODS,
    PROTOCOL_SAMPLE_SIZE,
    ExperimentConfig,
    REPORT_FORMAT,
    format_tables,
    indented_json,
    mae,
    read_predictions,
    rmse,
    run_experiment,
    tally_flags,
    write_predictions,
)
from .fairness import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    check_stopping_rule,
    fairness_goodness,
)
from .ingest import (
    TASKS,
    DatasetSpec,
    Snapshot,
    _write_file,
    build_snapshot,
    load_snapshot,
    save_snapshot,
)
from .knn import DENOMINATOR_POLICIES, ZERO_DISTANCE_POLICIES
from .svm import KERNEL_KINDS

FG_FORMAT = "weightpred-fg-v1"


class UsageError(Exception):
    pass


# Library setting names whose flag destination is spelled differently.
_SETTING_DESTS = {"h_value": "h", "tol": "fg_tol", "max_iter": "fg_max_iter",
                  "regularization": "reg_lambda"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flag(p, flags):
    """Add ``--config``; a config file may set the given flags and no others."""
    p.add_argument("--config", help="JSON file of flag values; given flags win")
    p.set_defaults(config_flags={f.dest: f for f in flags})


def _sample_size(text):
    """Parse a sample-size flag: a number of edges, or 'all'."""
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'all', got {text!r}"
        ) from None


def _fits(flag, value) -> bool:
    """Whether a config-file value has the JSON type its flag takes."""
    if flag.choices is not None:
        return value in flag.choices
    if flag.nargs == 0:  # store_const
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if flag.type is int:
        return isinstance(value, int)
    if flag.type is float:
        return isinstance(value, (int, float))
    if flag.type is _sample_size:
        return isinstance(value, int) or value == "all"
    return isinstance(value, str)


def _given(args) -> dict:
    """Settings given by flag or, failing that, by the ``--config`` file.

    A setting neither gives is left out, so the callee's default holds.
    """
    given = {}
    if args.config:
        loaded = json_value(utf8_text(read_bytes(args.config, "config"), args.config), args.config)
        if not isinstance(loaded, dict):
            raise ParseError("config file must hold a JSON object", path=args.config)
        given = {k: v for k, v in loaded.items() if k in args.config_flags}
        for key, value in given.items():
            flag = args.config_flags[key]
            if not _fits(flag, value):
                raise ParseError(
                    f"{key!r}: {value!r} is not a valid {flag.option_strings[0]} value",
                    path=args.config,
                )
    for key in args.config_flags:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    return given


def _parse_delimiter(value):
    mapping = {"comma": ",", "tab": "\t", "whitespace": " ", "auto": None}
    return mapping.get(value, value)


# ---- subcommand argument groups ---------------------------------------------


def _add_task_flags(p, required):
    p.add_argument("--task", choices=TASKS, required=required)
    p.add_argument("--method", choices=METHODS, required=required)


def _add_run_flags(p):
    _add_config_flag(p, [
        p.add_argument("--seed", type=int),
        p.add_argument("--sample-size", type=_sample_size,
                       help="edges to sample from the snapshot, "
                       f"or 'all' (default {PROTOCOL_SAMPLE_SIZE})"),
        p.add_argument("--train-count", type=int),
        p.add_argument("--train-fraction", type=float),
        p.add_argument("--h", type=float,
                       help="fixed bandwidth; default is the training std-dev"),
        p.add_argument("--k", type=int),
        p.add_argument("--zero-distance-policy", choices=ZERO_DISTANCE_POLICIES),
        p.add_argument("--denominator-policy", choices=DENOMINATOR_POLICIES),
        p.add_argument("--kernel", choices=KERNEL_KINDS),
        p.add_argument("--gamma", type=float),
        p.add_argument("--degree", type=int),
        p.add_argument("--coef0", type=float),
        p.add_argument("--reg-lambda", type=float),
        p.add_argument("--fg-tol", type=float),
        p.add_argument("--fg-max-iter", type=int),
        p.add_argument("--exclude-self", action="store_const", const=True),
    ])


def _experiment_config(args, task, method) -> ExperimentConfig:
    given = _given(args)
    h = given.pop("h", None)
    if h is not None:
        given.update(h_mode="fixed", h_value=h)
    sample_size = given.get("sample_size", PROTOCOL_SAMPLE_SIZE)
    given["sample_size"] = None if sample_size == "all" else sample_size
    return ExperimentConfig(task=task, method=method, **given)


def _snapshot_summary(snapshot: Snapshot) -> str:
    weight = snapshot.weight
    pct = 100.0 * int((weight > 0).sum()) / len(weight)
    return (
        f"origins={len(snapshot.origins)} terminals={len(snapshot.terminals)} "
        f"edges={len(weight)} positive={pct:.2f}%"
    )


# ---- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    given = _given(args)
    lo, hi = given.get("weight_min"), given.get("weight_max")
    if lo is None or hi is None:
        raise UsageError("--weight-min and --weight-max are required")
    for name, value in (("weight_min", lo), ("weight_max", hi)):
        check_float(name, value)  # before float(), which an int may overflow
    sample = given.get("sample", "all")
    if sample != "all" and sample < 1:
        raise UsageError(f"--sample must be a positive integer or 'all', got {sample}")
    seed = given.get("seed", 0)
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    spec = DatasetSpec(
        path=args.input,
        weight_range=(float(lo), float(hi)),
        has_timestamp=bool(given.get("timestamp")),
        delimiter=_parse_delimiter(given.get("delimiter", ",")),
    )
    snapshot = build_snapshot(
        spec, sample_size=None if sample == "all" else sample, seed=seed
    )
    save_snapshot(snapshot, args.output)
    print(_snapshot_summary(snapshot))
    print(f"snapshot written to {args.output}")
    return 0


def cmd_gen_weights(args) -> int:
    given = _given(args)
    tol = given.get("fg_tol", DEFAULT_TOL)
    max_iter = given.get("fg_max_iter", DEFAULT_MAX_ITER)
    check_stopping_rule(tol, max_iter)
    snapshot = load_snapshot(args.snapshot)
    scores = fairness_goodness(snapshot.graph, snapshot.weight, tol, max_iter)
    payload = {
        "format": FG_FORMAT,
        "fairness": dict(zip(snapshot.origins, scores.fairness.tolist())),
        "goodness": dict(zip(snapshot.terminals, scores.goodness.tolist())),
        "iterations": scores.iterations,
        "converged": scores.converged,
        "config": {"tol": tol, "max_iter": max_iter},
        "snapshot_digest": snapshot.digest(),
    }
    _write_file(args.output, indented_json(payload))
    print(f"converged={scores.converged} iterations={scores.iterations}")
    print(f"scores written to {args.output}")
    return 0


def cmd_predict(args) -> int:
    config = _experiment_config(args, args.task, args.method)
    snapshot = load_snapshot(args.snapshot)
    result = run_experiment(snapshot, config)
    write_predictions(args.output, result)
    rep = result.report
    print(
        f"{rep.task} {rep.method} seed={rep.seed} "
        f"predictions={rep.n_test} -> {args.output}"
    )
    return 0


def _report_path(base, seed, repeat) -> Path:
    base = Path(base)
    if repeat <= 1:
        return base
    return base.with_name(f"{base.stem}.seed{seed}{base.suffix}")


def cmd_evaluate(args) -> int:
    if args.predictions is not None:
        if args.snapshot is not None:
            raise UsageError("pass either --predictions or --snapshot, not both")
        # A predictions file carries its run's settings; a flag would be ignored.
        for dest in ("task", "method", "repeat", "config", *args.config_flags):
            if getattr(args, dest) is not None:
                raise UsageError(
                    f"--{dest.replace('_', '-')} applies only to snapshot mode"
                )
        rows, meta = read_predictions(args.predictions)
        preds = [r.predicted for r in rows]
        truths = [r.truth for r in rows]
        report = {
            "format": REPORT_FORMAT,
            "task": meta["task"],
            "method": meta["method"],
            "mae": mae(preds, truths),
            "rmse": rmse(preds, truths),
            "n_test": len(rows),
            "flags": tally_flags(rows),
            "config": meta["config"],
            "snapshot_digest": meta["snapshot_digest"],
            "scored_from": "predictions-file",
        }
        if args.report:
            _write_file(args.report, indented_json(report))
        print(f"({report['mae']:.3f}, {report['rmse']:.3f})")
        return 0

    if args.snapshot is None:
        raise UsageError("pass --predictions or --snapshot")
    if args.task is None or args.method is None:
        raise UsageError("snapshot mode requires --task and --method")
    repeat = args.repeat if args.repeat is not None else 1
    if repeat < 1:
        raise UsageError("--repeat must be >= 1")
    base_config = _experiment_config(args, args.task, args.method)
    snapshot = load_snapshot(args.snapshot)
    for i in range(repeat):
        config = dataclasses.replace(base_config, seed=base_config.seed + i)
        result = run_experiment(snapshot, config)
        rep = result.report
        if args.report:
            _write_file(_report_path(args.report, config.seed, repeat), rep.to_json())
        print(f"{rep.task} {rep.method} seed={rep.seed} {rep.pair()}")
    return 0


def cmd_reproduce_tables(args) -> int:
    configs = [_experiment_config(args, task, method)
               for task in TASKS for method in METHODS]
    snapshot = load_snapshot(args.snapshot)
    label = args.label or Path(args.snapshot).stem
    print(_snapshot_summary(snapshot))
    print()
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
    reports = []
    for config in configs:
        result = run_experiment(snapshot, config)
        reports.append(result.report)
        if args.output_dir:
            _write_file(out / f"report_{config.task}_{config.method}.json",
                        result.report.to_json())
    print(format_tables(reports, label=label))
    return 0


# ---- parser wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weightpred",
        description="Weight prediction on directed networks via count metrics.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", help="parse a raw edge list into a snapshot")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_config_flag(p, [
        p.add_argument("--weight-min", type=float),
        p.add_argument("--weight-max", type=float),
        p.add_argument("--delimiter",
                       help="',', 'tab', 'whitespace', 'auto', or a single character"),
        p.add_argument("--timestamp", action="store_const", const=True,
                       help="records carry a fourth timestamp field"),
        p.add_argument("--sample", type=_sample_size,
                       help="subsample this many edges at ingest time, or 'all'"),
        p.add_argument("--seed", type=int),
    ])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-weights", help="fairness/goodness scores for a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--output", required=True)
    _add_config_flag(p, [
        p.add_argument("--fg-tol", type=float),
        p.add_argument("--fg-max-iter", type=int),
    ])
    p.set_defaults(func=cmd_gen_weights)

    p = sub.add_parser("predict", help="predict held-out weights")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--output", required=True)
    _add_task_flags(p, required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions or run end to end")
    p.add_argument("--predictions", default=None)
    p.add_argument("--snapshot", default=None)
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--repeat", type=int, default=None,
                   help="run N seeds (seed, seed+1, ...) in snapshot mode")
    _add_task_flags(p, required=False)
    _add_run_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "reproduce-tables", help="all tasks x methods, printed as aligned tables"
    )
    p.add_argument("--snapshot", required=True)
    p.add_argument("--label", default=None, help="dataset name for the table rows")
    p.add_argument("--output-dir", dest="output_dir", default=None)
    _add_run_flags(p)
    p.set_defaults(func=cmd_reproduce_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SettingError as exc:
        dest = _SETTING_DESTS.get(exc.setting, exc.setting)
        print(f"usage error: --{dest.replace('_', '-')} {exc.problem}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PredictionError, ValueError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
