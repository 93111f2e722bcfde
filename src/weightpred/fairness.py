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

A sweep is one grouped sum per side, ``np.bincount(..., weights=)`` over
the graph's ``src``/``dst`` ids and the edge weights: the sparse mat-vec
form of Kumar et al., "Edge Weight Prediction in Weighted Signed Networks"
(ICDM 2016).  Its bits equal a per-vertex loop over edges in insertion
order.  :func:`fairness_goodness` runs it on a weight array indexed like the
graph's edges; :func:`compute_fairness_goodness` takes and returns dicts
keyed by tokens.

Fairness scores serve as origin weights (range [0, 1]) and goodness scores
as terminal weights (range [-1, 1]) when building vertex-weighted networks
from edge-weighted data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, SettingError, check_float, check_int
from .graph import DirectedGraph, _read_only, check_weights

_RANGE_SLACK = 1e-9

# Stopping rule shared by the library, the experiment config and the CLI.
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100


def check_stopping_rule(tol, max_iter) -> None:
    """Raise ``SettingError`` unless ``tol`` is positive and finite and
    ``max_iter`` is an int >= 1."""
    check_float("tol", tol)
    if not (tol > 0 and math.isfinite(tol)):
        raise SettingError("tol", f"must be positive and finite, got {tol!r}")
    check_int("max_iter", max_iter, 1)


@dataclass(frozen=True)
class FgScores:
    fairness: np.ndarray | dict  # origin -> [0, 1]: by origin id, or a dict by token
    goodness: np.ndarray | dict  # terminal -> [-1, 1]: by terminal id, or a dict by token
    iterations: int
    converged: bool
    max_changes: tuple  # per-sweep max absolute score change


def _clamp(values: np.ndarray, lo: float, hi: float, label: str) -> np.ndarray:
    bad = (values < lo - _RANGE_SLACK) | (values > hi + _RANGE_SLACK)
    if bad.any():
        raise AssertionError(
            f"{label} score {float(values[bad.argmax()])!r} escaped [{lo}, {hi}]; "
            "input weights must lie in [-1, 1]"
        )
    return np.clip(values, lo, hi)


def compute_fairness_goodness(
    graph: DirectedGraph,
    edge_weights: Mapping,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FgScores:
    """Run the fixed-point iteration on a fully edge-weighted graph.

    ``edge_weights`` must assign a finite weight in [-1, 1] to every edge of
    ``graph``.  Stops when the largest absolute score change in a sweep
    drops below ``tol``, or after ``max_iter`` sweeps.  Scores come back as
    dicts keyed by vertex token.
    """
    check_stopping_rule(tol, max_iter)
    try:
        w = np.array([edge_weights[e] for e in graph.edges], dtype=float)
    except KeyError as exc:
        raise DomainError(f"edge {exc.args[0]!r} has no weight; all edges need one") from None
    check_weights(w, -1.0, 1.0, lambda i: f"edge {graph.edges[i]!r}")
    scores = fairness_goodness(graph, w, tol, max_iter)
    return dataclasses.replace(
        scores,
        fairness=dict(zip(graph.origins, scores.fairness.tolist())),
        goodness=dict(zip(graph.terminals, scores.goodness.tolist())),
    )


def fairness_goodness(
    graph: DirectedGraph, w: np.ndarray, tol: float, max_iter: int
) -> FgScores:
    """The iteration over ``graph``'s id arrays; ``w[i]`` is edge ``i``'s
    weight, finite and in [-1, 1].  Scores come back as read-only arrays by
    vertex id."""
    n_o, n_t = len(graph.origins), len(graph.terminals)
    src, dst = graph.src, graph.dst
    out_deg = np.bincount(src, minlength=n_o)
    in_deg = np.bincount(dst, minlength=n_t)

    # Bit-exact with a per-vertex loop: np.bincount adds each bin's terms in
    # input order from 0.0, which is each vertex's edges in edge order, and
    # every element-wise step is the same IEEE operation.
    fairness, goodness = np.ones(n_o), np.ones(n_t)
    max_changes = []
    for iterations in range(1, max_iter + 1):
        new_goodness = _clamp(
            np.bincount(dst, weights=fairness[src] * w, minlength=n_t) / in_deg,
            -1.0, 1.0, "goodness",
        )
        new_fairness = _clamp(
            1.0 - np.bincount(src, weights=np.abs(w - new_goodness[dst]) / 2.0,
                              minlength=n_o) / out_deg,
            0.0, 1.0, "fairness",
        )
        change = float(max(np.abs(new_goodness - goodness).max(),
                           np.abs(new_fairness - fairness).max()))
        goodness, fairness = new_goodness, new_fairness
        max_changes.append(change)
        converged = change < tol
        if converged:
            break

    return FgScores(
        fairness=_read_only(fairness),
        goodness=_read_only(goodness),
        iterations=iterations,
        converged=converged,
        max_changes=tuple(max_changes),
    )
