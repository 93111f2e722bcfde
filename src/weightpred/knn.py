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
the training weights are grouped by count once, one class per count in
ascending order, and classes are selected, never single elements.  The k
smallest distinct distances from a count c lie among the k nearest classes
on each side of c, so all queries are answered in one batch.
:class:`KnnClasses` works on the training counts and weights as given, lists
or arrays, and :class:`KnnModel` reads them from a metric and training
elements, then memoises one answer per query count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .countmetric import CountMetric, _grouped, _training_weights, ordered_sum, stable_mean
from .errors import PredictionError, SettingError, check_int

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
    """kNN answers from the training band counts and weights, given in
    training order: one class of weights per distinct count."""

    def __init__(self, counts: Sequence[int], weights: Sequence[float], config: KnnConfig):
        self.config = config
        counts = np.asarray(counts)
        if not len(counts):
            raise PredictionError("kNN requires a non-empty training set")
        # Class j holds the weights of the j-th smallest distinct count,
        # self._counts[j], as self._weights[self._ptr[j]:self._ptr[j + 1]].
        ordered = np.sort(counts)
        self._counts = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        rank = np.searchsorted(self._counts, counts)
        self._weights, self._ptr = _grouped(rank, len(self._counts), np.asarray(weights, float))
        self._fallback = stable_mean(self._weights)

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
        super().__init__([metric.profile(a).band_count for a in training], weights, config)
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
