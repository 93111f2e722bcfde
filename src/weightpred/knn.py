"""Modified k-nearest-neighbor prediction over the count distance.

The neighborhood of a query x collects every training element whose
distance to x equals one of the k smallest *distinct* qualifying distance
values.  Under the default ``zero_distance_policy="exclude"`` only nonzero
distances qualify (so exact equivalents of x are skipped); ``"include"``
admits distance zero as the smallest value.  Because many training elements
share a band count, the neighborhood routinely holds more than k elements.

The predicted weight is the mean of the training weights over the
neighborhood.  ``denominator_policy="neighborhood_size"`` (default) divides
by the actual neighborhood size; ``"fixed_k"`` divides by k, which can push
predictions outside the training range when ties inflate the set.  An empty
neighborhood falls back to the global training mean, flagged.

The distance depends on an element only through its integer band count, so
kNN reads the training weights grouped by count, one class per count in
ascending order, and selects classes, never single elements.  The k smallest
distinct distances from a count c lie among the k nearest classes on each
side of c, so all queries are answered in one batch.  :class:`KnnClasses`
answers from a :func:`weightpred.countmetric.count_classes` table, which a
run shares with its SVM cell, and :class:`KnnModel` builds one from a metric
and training elements, then memoises one answer per query count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .countmetric import CountClasses, CountMetric, _training_weights, count_classes, ordered_sum
from .errors import SettingError, check_int

ZERO_DISTANCE_POLICIES = ("exclude", "include")
DENOMINATOR_POLICIES = ("neighborhood_size", "fixed_k")


@dataclass(frozen=True)
class KnnConfig:
    """Tunables for the kNN predictor (the bandwidth h rides with the metric)."""

    k: int = 5
    zero_distance_policy: str = "exclude"
    denominator_policy: str = "neighborhood_size"

    def __post_init__(self):
        check_int("k", self.k, 1)
        if self.zero_distance_policy not in ZERO_DISTANCE_POLICIES:
            raise SettingError(
                "zero_distance_policy", f"must be one of {ZERO_DISTANCE_POLICIES}"
            )
        if self.denominator_policy not in DENOMINATOR_POLICIES:
            raise SettingError(
                "denominator_policy", f"must be one of {DENOMINATOR_POLICIES}"
            )


@dataclass(frozen=True)
class KnnNeighborhood:
    elements: tuple
    degenerate: bool  # fewer than k distinct qualifying distance values


@dataclass(frozen=True)
class KnnPrediction:
    value: float
    used_fallback: bool
    degenerate: bool
    neighborhood_size: int


class KnnClasses:
    """kNN answers from the count-class table of the training elements."""

    def __init__(self, classes: CountClasses, config: KnnConfig):
        self.config, self._fallback = config, classes.mean
        self._counts, self._weights, self._ptr = classes.counts, classes.weights, classes.ptr

    def _runs(self, q: np.ndarray) -> tuple:
        """``(lo, left, right, hi, degenerate)``: query ``q[i]`` chooses the
        classes ``lo[i]:left[i]`` below it and ``right[i]:hi[i]`` above it."""
        t, k, w = self._counts, self.config.k, min(self.config.k, len(self._counts))
        include = self.config.zero_distance_policy == "include"
        left = np.searchsorted(t, q, "right" if include else "left")
        right = np.searchsorted(t, q, "right")
        # Distances to the w nearest classes on each side, inf past the ends.
        # Sorted, with each repeat (one distance on both sides) moved past the
        # end, column k holds the k-th smallest distinct distance, or inf
        # (every qualifying class) when fewer than k are finite.
        padded = np.concatenate((np.full(w, -np.inf), t, np.full(w, np.inf)))
        steps = np.arange(w)
        dist = np.concatenate((q[:, None] - padded[left[:, None] + (w - 1) - steps],
                               padded[right[:, None] + w + steps] - q[:, None]), axis=1)
        dist.sort(axis=1)
        dist[:, 1:][dist[:, 1:] == dist[:, :-1]] = np.inf
        dist.sort(axis=1)
        reach = dist[:, min(k, 2 * w) - 1]
        lo, hi = np.searchsorted(t, q - reach), np.searchsorted(t, q + reach, "right")
        return lo, left, right, hi, reach == np.inf

    def predict_counts(self, counts) -> KnnPrediction:
        """The answers for query band counts: each field holds one per query."""
        lo, left, right, hi, degenerate = self._runs(np.asarray(counts, dtype=float).reshape(-1))
        p = self._ptr
        sizes = p[left] - p[lo] + p[hi] - p[right]
        values = np.full(len(sizes), self._fallback)
        fixed_k = self.config.denominator_policy == "fixed_k"
        for i, (a, b, c, d) in enumerate(zip(*(p[x].tolist() for x in (lo, left, right, hi)))):
            if a < b or c < d:
                chosen = np.sort(np.concatenate((self._weights[a:b], self._weights[c:d])))
                values[i] = ordered_sum(chosen) / (self.config.k if fixed_k else len(chosen))
        return KnnPrediction(values, sizes == 0, degenerate, sizes)


class KnnModel(KnnClasses):
    """kNN predictor bound to a metric and a fixed training enumeration."""

    def __init__(self, metric: CountMetric, training: Sequence, config: KnnConfig = KnnConfig()):
        training = tuple(training)
        weights = _training_weights(metric.weighting, training)
        counts = [metric.profile(a).band_count for a in training]
        super().__init__(count_classes(counts, weights), config)
        self.metric = metric
        self.training = training
        self._memo: dict = {}  # query band count -> KnnPrediction

    def neighborhood(self, x) -> KnnNeighborhood:
        runs = self._runs(np.array([float(self.metric.profile(x).band_count)]))
        lo, left, right, hi, degenerate = (r.item() for r in runs)
        counts = {*self._counts[lo:left].tolist(), *self._counts[right:hi].tolist()}
        elems = tuple(a for a in self.training if self.metric.profile(a).band_count in counts)
        return KnnNeighborhood(elements=elems, degenerate=degenerate)

    def predict(self, x) -> KnnPrediction:
        c = self.metric.profile(x).band_count
        if c not in self._memo:
            p = self.predict_counts([c])
            self._memo[c] = KnnPrediction(*(a.item() for a in vars(p).values()))
        return self._memo[c]
