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
the training weights are grouped by count once (one ascending class per
count, see :func:`weightpred.countmetric.key_classes`) and classes are
selected, never single elements.  A query is answered from its band count alone:
:class:`KnnClasses` works on the training counts and weights as given, lists
or arrays, and :class:`KnnModel` reads them from a metric and training
elements, then memoises one answer per query count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .countmetric import CountMetric, _training_weights, key_classes, ordered_sum, stable_mean
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
        # Class k holds the weights of band count self._counts[k], ascending.
        self._counts, self._weights, self._ptr = key_classes(counts, weights)
        if not len(self._weights):
            raise PredictionError("kNN requires a non-empty training set")
        self._fallback = stable_mean(self._weights)

    def _select(self, c: int):
        """Table positions of the classes chosen for query count c, and the degenerate flag."""
        dists = [abs(t - c) for t in self._counts]
        include = self.config.zero_distance_policy == "include"
        values = sorted({d for d in dists if d > 0 or include})
        chosen = set(values[: self.config.k])
        return [k for k, d in enumerate(dists) if d in chosen], len(values) < self.config.k

    def predict_count(self, c: int) -> KnnPrediction:
        """The answer for every query whose band count is c."""
        chosen, degenerate = self._select(c)
        classes = [self._weights[self._ptr[k]:self._ptr[k + 1]] for k in chosen]
        n = sum(map(len, classes))
        denom = n if self.config.denominator_policy == "neighborhood_size" else self.config.k
        return KnnPrediction(
            value=ordered_sum(np.sort(np.concatenate(classes))) / denom if n else self._fallback,
            used_fallback=n == 0,
            degenerate=degenerate,
            neighborhood_size=n,
        )


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
        chosen, degenerate = self._select(self.metric.profile(x).band_count)
        counts = {self._counts[k] for k in chosen}
        elems = tuple(a for a in self.training if self.metric.profile(a).band_count in counts)
        return KnnNeighborhood(elements=elems, degenerate=degenerate)

    def predict(self, x) -> KnnPrediction:
        c = self.metric.profile(x).band_count
        if c not in self._memo:
            self._memo[c] = self.predict_count(c)
        return self._memo[c]
