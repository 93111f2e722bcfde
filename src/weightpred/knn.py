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
the model groups the training weights by count once (one class per distinct
count) and selects classes, never single elements.  A query is answered
from its band count alone (``predict_count``); the model, metric and config
are immutable, so ``predict`` memoises one answer per query count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .countmetric import CountMetric, stable_mean
from .errors import DomainError, PredictionError, SettingError

ZERO_DISTANCE_POLICIES = ("exclude", "include")
DENOMINATOR_POLICIES = ("neighborhood_size", "fixed_k")


@dataclass(frozen=True)
class KnnConfig:
    """Tunables for the kNN predictor (the bandwidth h rides with the metric)."""

    k: int = 5
    zero_distance_policy: str = "exclude"
    denominator_policy: str = "neighborhood_size"

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise SettingError("k", f"must be a positive integer, got {self.k!r}")
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


class KnnModel:
    """kNN predictor bound to a metric and a fixed training enumeration."""

    def __init__(self, metric: CountMetric, training: Sequence, config: KnnConfig = KnnConfig()):
        training = tuple(training)
        if not training:
            raise PredictionError("kNN requires a non-empty training set")
        domain = metric.weighting.weights
        for elem in training:
            if elem not in domain:
                raise DomainError(f"training element {elem!r} has no weight")
        self.metric = metric
        self.training = training
        self.config = config
        weights = [float(metric.weighting.weights[a]) for a in training]
        self._classes: dict = {}  # band count -> training weights, first appearance
        for a, w in zip(training, weights):
            self._classes.setdefault(metric.profile(a).band_count, []).append(w)
        self._fallback = stable_mean(weights)
        self._memo: dict = {}  # query band count -> KnnPrediction

    def _select(self, c: int):
        """Counts of the classes chosen for query count c, and the degenerate flag."""
        dists = {t: abs(t - c) for t in self._classes}
        if self.config.zero_distance_policy == "exclude":
            dists = {t: d for t, d in dists.items() if d > 0}
        values = sorted(set(dists.values()))
        chosen = set(values[: self.config.k])
        return {t for t, d in dists.items() if d in chosen}, len(values) < self.config.k

    def neighborhood(self, x) -> KnnNeighborhood:
        chosen, degenerate = self._select(self.metric.profile(x).band_count)
        elems = tuple(
            a for a in self.training if self.metric.profile(a).band_count in chosen
        )
        return KnnNeighborhood(elements=elems, degenerate=degenerate)

    def predict(self, x) -> KnnPrediction:
        c = self.metric.profile(x).band_count
        if c not in self._memo:
            self._memo[c] = self.predict_count(c)
        return self._memo[c]

    def predict_count(self, c: int) -> KnnPrediction:
        """The answer for every query whose band count is c."""
        chosen, degenerate = self._select(c)
        weights = sorted(w for t in chosen for w in self._classes[t])
        n = len(weights)
        denom = n if self.config.denominator_policy == "neighborhood_size" else self.config.k
        return KnnPrediction(
            value=sum(weights) / denom if n else self._fallback,
            used_fallback=n == 0,
            degenerate=degenerate,
            neighborhood_size=n,
        )
