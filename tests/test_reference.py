"""``run_experiment`` against ``helpers.reference_run``, bit for bit.

The reference recomputes a whole run from the brute-force oracles, so these
tests pin every prediction, truth, flag, ``h``, MAE, RMSE and ``tie_stats``
of the library pipeline on small snapshots of every shape: tokens that are
both origins and terminals, training weights that are all equal (the ``h``
floor), queries in an empty count-zero class, sampled subsets and both
``exclude_self`` settings.  Also pins how a snapshot file with a bad
weight fails to load.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightpred import (
    DomainError,
    ExperimentConfig,
    ParseError,
    load_snapshot,
    run_experiment,
    save_snapshot,
)
from weightpred.evaluation import METHODS
from weightpred.ingest import TASKS, split_ids

from helpers import reference_edge_fault, reference_run, snapshot_of

def _snapshot(pairs, weights):
    return snapshot_of((o, t, w) for (o, t), w in zip(pairs, weights))


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _assert_matches_reference(snapshot, config):
    """Run both; returns the reference result, or None if both refused the split."""
    try:
        want = reference_run(snapshot, config)
    except DomainError:
        with pytest.raises(DomainError):
            run_experiment(snapshot, config)
        return None
    result = run_experiment(snapshot, config)
    got_rows = [(r.element, r.predicted.hex(), r.truth.hex(), r.flags)
                for r in result.predictions]
    want_rows = [(x, p.hex(), t.hex(), f) for x, p, t, f in want["rows"]]
    assert got_rows == want_rows
    rep = result.report
    assert [_bits(v) for v in (rep.h, rep.mae, rep.rmse)] == [
        _bits(want[k]) for k in ("h", "mae", "rmse")
    ]
    assert rep.flags["h_stddev_zero"] == want["h_stddev_zero"]
    assert rep.tie_stats == want["tie_stats"]
    assert rep.n_train == len(want["train"]) and rep.n_test == len(want["test"])
    return want


_TOKENS = "abcdef"  # one pool for both ends, so many tokens play both roles
_LEVELS = [-1.0, -0.5, 0.0, 0.25, 1.0]


@st.composite
def _cases(draw):
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_TOKENS)),
        min_size=2, max_size=24, unique=True,
    ))
    value = st.one_of(
        st.sampled_from(_LEVELS),
        st.floats(-1.0, 1.0, allow_nan=False).map(lambda w: w + 0.0),  # no -0.0
    )
    if draw(st.booleans()):
        weights = [draw(value)] * len(pairs)  # all equal
    else:
        weights = draw(st.lists(value, min_size=len(pairs), max_size=len(pairs)))
    n = len(pairs)
    config = ExperimentConfig(
        task=draw(st.sampled_from(TASKS)),
        method=draw(st.sampled_from(METHODS)),
        seed=draw(st.integers(0, 1000)),
        sample_size=draw(st.one_of(st.none(), st.integers(2, n))),
        train_fraction=draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
        k=draw(st.integers(1, 4)),
        zero_distance_policy=draw(st.sampled_from(["exclude", "include"])),
        denominator_policy=draw(st.sampled_from(["neighborhood_size", "fixed_k"])),
        fg_max_iter=draw(st.sampled_from([1, 3, 100])),
        exclude_self=draw(st.booleans()),
    )
    return _snapshot(pairs, weights), config


@given(_cases())
@settings(max_examples=300, deadline=None)
def test_run_experiment_matches_reference(case):
    _assert_matches_reference(*case)


def test_reference_cases_cover_each_listed_shape():
    """Seeded instances that compare equal and, between them, hit every
    shape the module docstring lists."""
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys(
        ["both_roles", "h_floor", "empty_zero_class", "zero_count_query",
         "sampled", "exclude_self", "include_self", "edge", "origin", "terminal"],
        0,
    )
    tokens = "abcdefgh"
    for i in range(240):
        n, pool = int(rng.integers(4, 40)), int(rng.integers(3, len(tokens) + 1))
        pairs = list(dict.fromkeys(
            (tokens[int(rng.integers(pool))], tokens[int(rng.integers(pool))])
            for _ in range(n)
        ))
        if len(pairs) < 2:
            continue
        if i % 4 == 0:
            weights = [0.5] * len(pairs)
        else:
            weights = [float(rng.choice(_LEVELS)) for _ in pairs]
        task = TASKS[i % 3]
        config = ExperimentConfig(
            task=task,
            method=METHODS[(i // 3) % 2],
            seed=i,
            sample_size=None if i % 5 else len(pairs) - 1 if len(pairs) > 2 else None,
            exclude_self=bool(i % 7 % 2),
        )
        want = _assert_matches_reference(_snapshot(pairs, weights), config)
        if want is None:
            continue
        origins = {o for o, _ in pairs}
        terminals = {t for _, t in pairs}
        test_counts = [want["counts"][x] for x in want["test"]]
        train_counts = [want["counts"][x] for x in want["train"]]
        seen["both_roles"] += bool(origins & terminals)
        seen["h_floor"] += want["h_stddev_zero"]
        seen["zero_count_query"] += 0 in test_counts
        seen["empty_zero_class"] += 0 in test_counts and 0 not in train_counts
        seen["sampled"] += config.sample_size is not None
        seen["exclude_self" if config.exclude_self else "include_self"] += 1
        seen[task] += 1
    assert all(seen.values()), seen


# ---- a bad weight in a snapshot file ------------------------------------------


def _clean_snapshot():
    rng = np.random.default_rng(8)
    pairs = list(dict.fromkeys(
        (f"o{rng.integers(6)}", f"t{rng.integers(6)}") for _ in range(40)
    ))
    return _snapshot(pairs, [float(rng.uniform(-1.0, 1.0)) for _ in pairs])


def _assert_load_rejects(tmp_path, config, row, bad):
    """The clean snapshot's file loads and runs under ``config``; with
    weight ``bad`` at edge ``row`` it fails to load, naming that edge and
    the fault the reference names."""
    path = tmp_path / "snap.json"
    save_snapshot(_clean_snapshot(), path)
    run_experiment(load_snapshot(path), config)
    payload = json.loads(path.read_text())
    payload["edges"][row][2] = bad
    path.write_text(json.dumps(payload))
    i, fault = reference_edge_fault(payload["edges"])
    assert i == row
    with pytest.raises(ParseError) as err:
        load_snapshot(path)
    assert str(err.value) == f"{path}: edge {row}: {fault}"


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("bad", [float("nan"), 1.5, -2.0])
def test_bad_snapshot_weight_is_rejected_naming_the_edge(tmp_path, task, bad):
    """The bad edge is a training edge of the run's split."""
    config = ExperimentConfig(task=task, method="knn", seed=4)
    split = split_ids(_clean_snapshot().columns, config.split_plan(), "edge")
    _assert_load_rejects(tmp_path, config, int(split.sampled[split.train[0]]), bad)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.5])
@pytest.mark.parametrize("where", ["test", "unsampled"])
def test_bad_weight_outside_the_training_set_is_rejected(tmp_path, task, bad, where):
    """``load_snapshot`` checks every edge: a held-out or unsampled one too."""
    config = ExperimentConfig(task=task, method="svm", seed=4, sample_size=10)
    split = split_ids(_clean_snapshot().columns, config.split_plan(), "edge")
    if where == "test":
        row = int(split.sampled[split.test[-1]])
    else:  # the first edge the sample leaves out
        row = next(i for i in itertools.count() if i not in split.sampled)
    _assert_load_rejects(tmp_path, config, row, bad)
