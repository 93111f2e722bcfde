"""Iterative fairness/goodness scoring for edge-weighted digraphs.

Given edge weights scaled to [-1, 1], alternate two averaging sweeps until
the scores stop moving:

* goodness of a terminal t: mean over in-edges (o, t) of
  ``fairness(o) * weight(o, t)``;
* fairness of an origin o: ``1 - mean over out-edges (o, t) of
  |weight(o, t) - goodness(t)| / 2``.

Both vectors start at 1.  Within a sweep every goodness value is computed
from the previous fairness vector and every fairness value from the fresh
goodness vector, so update order never matters.  The forms guarantee
fairness stays in [0, 1] and goodness in [-1, 1] at every sweep; this is
asserted, and sub-ulp float excursions are clamped.

Fairness scores serve as origin weights (range [0, 1]) and goodness scores
as terminal weights (range [-1, 1]) when building vertex-weighted networks
from edge-weighted data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import math

from .errors import DomainError
from .graph import DirectedGraph

_RANGE_SLACK = 1e-9

# Stopping rule shared by the library, the experiment config and the CLI.
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class FgScores:
    fairness: dict  # origin -> [0, 1]
    goodness: dict  # terminal -> [-1, 1]
    iterations: int
    converged: bool
    max_changes: tuple  # per-sweep max absolute score change
    isolated: tuple  # vertices that kept their initial value (no incident edges)


def _clamp(value: float, lo: float, hi: float, label: str) -> float:
    if value < lo - _RANGE_SLACK or value > hi + _RANGE_SLACK:
        raise AssertionError(
            f"{label} score {value!r} escaped [{lo}, {hi}]; input weights "
            "must lie in [-1, 1]"
        )
    return min(max(value, lo), hi)


def compute_fairness_goodness(
    graph: DirectedGraph,
    edge_weights: Mapping,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FgScores:
    """Run the fixed-point iteration on a fully edge-weighted graph.

    ``edge_weights`` must assign a finite weight in [-1, 1] to every edge of
    ``graph``.  Stops when the largest absolute score change in a sweep
    drops below ``tol``, or after ``max_iter`` sweeps.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not (isinstance(max_iter, int) and max_iter >= 1):
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    for e in graph.edges:
        if e not in edge_weights:
            raise DomainError(f"edge {e!r} has no weight; all edges need one")
        w = edge_weights[e]
        if not math.isfinite(w):
            raise ValueError(f"weight for edge {e!r} is not finite: {w!r}")
        if not -1.0 <= w <= 1.0:
            raise ValueError(f"weight {w!r} for edge {e!r} outside [-1, 1]")

    fairness = {o: 1.0 for o in graph.origins}
    goodness = {t: 1.0 for t in graph.terminals}
    # Origins without out-edges / terminals without in-edges cannot occur in
    # graphs built from edge lists, but flag them if handed one anyway.
    isolated = tuple(o for o in graph.origins if not graph.origin_index.get(o)) + tuple(
        t for t in graph.terminals if not graph.terminal_index.get(t)
    )

    max_changes = []
    converged = False
    iterations = 0
    for sweep in range(1, max_iter + 1):
        iterations = sweep
        change = 0.0

        new_goodness = {}
        for t in graph.terminals:
            in_edges = graph.terminal_index.get(t, ())
            if not in_edges:
                new_goodness[t] = goodness[t]
                continue
            total = 0.0
            for o, _ in in_edges:
                total += fairness[o] * edge_weights[(o, t)]
            val = _clamp(total / len(in_edges), -1.0, 1.0, "goodness")
            change = max(change, abs(val - goodness[t]))
            new_goodness[t] = val
        goodness = new_goodness

        new_fairness = {}
        for o in graph.origins:
            out_edges = graph.origin_index.get(o, ())
            if not out_edges:
                new_fairness[o] = fairness[o]
                continue
            total = 0.0
            for _, t in out_edges:
                total += abs(edge_weights[(o, t)] - goodness[t]) / 2.0
            val = _clamp(1.0 - total / len(out_edges), 0.0, 1.0, "fairness")
            change = max(change, abs(val - fairness[o]))
            new_fairness[o] = val
        fairness = new_fairness

        max_changes.append(change)
        if change < tol:
            converged = True
            break

    return FgScores(
        fairness=fairness,
        goodness=goodness,
        iterations=iterations,
        converged=converged,
        max_changes=tuple(max_changes),
        isolated=isolated,
    )
