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
the edges' origin ids, terminal ids and weights: the sparse mat-vec form of
Kumar et al., "Edge Weight Prediction in Weighted Signed Networks" (ICDM
2016).  Its bits equal a per-vertex loop over edges in insertion order.

Fairness scores serve as origin weights (range [0, 1]) and goodness scores
as terminal weights (range [-1, 1]) when building vertex-weighted networks
from edge-weighted data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, SettingError
from .graph import DirectedGraph

_RANGE_SLACK = 1e-9

# Stopping rule shared by the library, the experiment config and the CLI.
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100


def check_stopping_rule(tol, max_iter) -> None:
    """Raise ``SettingError`` unless ``tol`` is positive and finite and
    ``max_iter`` is an int >= 1."""
    if not (tol > 0 and math.isfinite(tol)):
        raise SettingError("tol", f"must be positive and finite, got {tol!r}")
    if not (isinstance(max_iter, int) and max_iter >= 1):
        raise SettingError("max_iter", f"must be a positive integer, got {max_iter!r}")


@dataclass(frozen=True)
class FgScores:
    fairness: dict  # origin -> [0, 1]
    goodness: dict  # terminal -> [-1, 1]
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
    drops below ``tol``, or after ``max_iter`` sweeps.
    """
    check_stopping_rule(tol, max_iter)
    weights = []
    for e in graph.edges:
        if e not in edge_weights:
            raise DomainError(f"edge {e!r} has no weight; all edges need one")
        w = edge_weights[e]
        if not math.isfinite(w):
            raise ValueError(f"weight for edge {e!r} is not finite: {w!r}")
        if not -1.0 <= w <= 1.0:
            raise ValueError(f"weight {w!r} for edge {e!r} outside [-1, 1]")
        weights.append(w)

    n_o, n_t = len(graph.origins), len(graph.terminals)
    origin_id = dict(zip(graph.origins, range(n_o)))
    terminal_id = dict(zip(graph.terminals, range(n_t)))
    src = np.array([origin_id[o] for o, _ in graph.edges], dtype=np.intp)
    dst = np.array([terminal_id[t] for _, t in graph.edges], dtype=np.intp)
    w = np.array(weights, dtype=float)
    out_deg = np.bincount(src, minlength=n_o)
    in_deg = np.bincount(dst, minlength=n_t)

    # Bit-exact with a per-vertex loop: np.bincount adds each bin's terms in
    # input order from 0.0, graph.edges lists each vertex's edges in its
    # index order, and every element-wise step is the same IEEE operation.
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
        fairness=dict(zip(graph.origins, fairness.tolist())),
        goodness=dict(zip(graph.terminals, goodness.tolist())),
        iterations=iterations,
        converged=converged,
        max_changes=tuple(max_changes),
    )
