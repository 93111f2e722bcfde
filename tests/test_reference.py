"""``run_experiment`` against ``helpers.reference_run``, bit for bit.

The reference recomputes a whole run from the brute-force oracles, so these
tests pin every prediction, truth, flag, ``h``, MAE, RMSE and ``tie_stats``
of the library pipeline on small snapshots of every shape: tokens that are
both origins and terminals, training weights that are all equal (the ``h``
floor), queries in an empty count-zero class, sampled subsets and both
``exclude_self`` settings.  Also pins how a snapshot built in Python with a
bad weight fails.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightpred import (
    DomainError,
    EdgeRecord,
    ExperimentConfig,
    Snapshot,
    make_split,
    run_experiment,
)
from weightpred.evaluation import METHODS
from weightpred.ingest import TASKS

from helpers import reference_run

_PROVENANCE = {"source_path": "synthetic", "source_sha256": "0" * 64, "sampling": None}


def _snapshot(pairs, weights):
    return Snapshot.from_edges(
        (EdgeRecord(o, t, w) for (o, t), w in zip(pairs, weights)),
        raw_weight_range=(-1.0, 1.0),
        provenance=_PROVENANCE,
    )


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


# ---- a bad weight in a snapshot built in Python -------------------------------


def _clean_snapshot():
    rng = np.random.default_rng(8)
    pairs = list(dict.fromkeys(
        (f"o{rng.integers(6)}", f"t{rng.integers(6)}") for _ in range(40)
    ))
    return _snapshot(pairs, [float(rng.uniform(-1.0, 1.0)) for _ in pairs])


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("bad", [float("nan"), 1.5, -2.0])
def test_bad_snapshot_weight_is_rejected_naming_the_edge(task, bad):
    """``load_snapshot`` rejects such a file; ``Snapshot.from_edges``
    rejects such edges with a ``ValueError`` naming the edge, before any run.
    The bad edge is a training edge of the run's split."""
    clean = _clean_snapshot()
    config = ExperimentConfig(task=task, method="knn", seed=4)
    target = make_split(clean.edges, config.split_plan(), "edge").train[0]
    with pytest.raises(ValueError, match=re.escape(repr(target.pair))):
        Snapshot.from_edges(
            (EdgeRecord(r.origin, r.terminal, bad) if r == target else r
             for r in clean.edges),
            raw_weight_range=clean.raw_weight_range,
            provenance=clean.provenance,
        )


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.5])
@pytest.mark.parametrize("where", ["test", "unsampled"])
def test_bad_weight_outside_the_training_set_is_rejected(task, bad, where):
    """``from_edges`` checks every edge: a held-out or unsampled one too."""
    clean = _clean_snapshot()
    config = ExperimentConfig(task=task, method="svm", seed=4, sample_size=10)
    split = make_split(clean.edges, config.split_plan(), "edge")
    if where == "test":
        target = split.test[-1]
    else:
        target = next(r for r in clean.edges if r not in split.sampled)
    with pytest.raises(ValueError, match=re.escape(repr(target.pair))):
        Snapshot.from_edges(
            (EdgeRecord(r.origin, r.terminal, bad) if r == target else r
             for r in clean.edges),
            raw_weight_range=clean.raw_weight_range,
            provenance=clean.provenance,
        )
