"""The benchmark's own tests, at a tiny scale.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from run import REF_S, ROOT, at_reference_speed, gate, run_workload
from spans import Tracer
from workloads import WORKLOADS, Workload

TINY = Workload(
    name="tiny", why="test scale", edges=300, raters=40, ratees=40,
    tasks=("origin", "edge"),
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_lists_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("traced,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, traced, section):
    result, details = run_workload(TINY, 3, 0, traced, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["breaches"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(section)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert len(details["report_sha256"]) == len(TINY.cells(3))
    if traced:
        spans = json.loads((tmp_path / "trace-tiny-seed3.json").read_text())
        assert spans["self_s_total"]["knn.predict"] > 0
    else:
        assert result["metrics"]["cell_pass_rate"]["value"] == 1.0


def test_injected_failing_cells_lower_the_pass_rate(tmp_path):
    broken = dataclasses.replace(TINY, tasks=("edge", "no-such-task"))
    result, details = run_workload(broken, 3, 0, False, out_dir=tmp_path)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["metrics"]["cell_pass_rate"]["value"] == 0.5
    assert all("no-such-task" in b for b in details["breaches"])


def _plain(mae, rmse):
    report = json.dumps({"mae": mae, "rmse": rmse})
    return {"cells": [{"cell": "edge/knn/seed0", "method": "knn", "report": report}]}


def _traced(mae, rmse):
    return {"cells": [{"cell": "edge/knn/seed0", "mae": mae.hex(), "rmse": rmse.hex()}]}


def test_gate_accepts_bit_identical_traced_scores():
    attempted, breaches, _, _ = gate([_plain(0.25, 0.5)], [_traced(0.25, 0.5)])
    assert (attempted, breaches) == (2, [])


def test_gate_fires_when_traced_and_untraced_disagree():
    off_by_one_ulp = 0.25 + 2 ** -54
    _, breaches, _, _ = gate([_plain(0.25, 0.5)], [_traced(off_by_one_ulp, 0.5)])
    assert len(breaches) == 1 and "traced" in breaches[0]


@pytest.mark.parametrize("mae,rmse", [(0.5, 0.25), (float("nan"), 0.5)])
def test_gate_rejects_broken_scores(mae, rmse):
    _, breaches, _, _ = gate([_plain(mae, rmse)], [])
    assert len(breaches) == 1


def test_gate_rejects_a_report_that_changes_between_repetitions():
    _, breaches, _, _ = gate([_plain(0.25, 0.5), _plain(0.25, 0.75)], [])
    assert len(breaches) == 1 and "sha256" in breaches[0]


def _rep(ref_s):
    return {
        "setup_s": [1.0],
        "cells": [{"cell": "edge/knn/seed0", "method": "knn", "seconds": 4.0}],
        "ref_s": ref_s,
    }


def test_samples_are_rescaled_to_the_reference_speed():
    # The machine runs at half the reference speed throughout.
    setups, cells = at_reference_speed([_rep([2 * REF_S] * 3)])
    assert setups == pytest.approx([0.5])
    assert [t for _, t in cells] == pytest.approx([2.0])


def test_one_slow_reference_block_does_not_move_the_scale():
    setups, cells = at_reference_speed([_rep([REF_S, REF_S, 5 * REF_S])])
    assert setups == pytest.approx([1.0])
    assert [t for _, t in cells] == pytest.approx([4.0])


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer", cell="c"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.to_list()
    assert inner["parent"] == 0 and inner["cell"] == "c"
    assert outer["self"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
