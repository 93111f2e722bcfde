"""Kernel-expansion regressor over the scalar count embedding.

Each element maps to the real line through its band count (see
:meth:`weightpred.countmetric.CountMetric.transfer`).  The predictor is the
label-scaled kernel expansion

    y(u) = w0 + sum_i w_i * y_i * kappa(u, u_i)

over the training points (u_i, y_i).  Coefficients come from ridge
regression on the basis functions phi_i(u) = y_i * kappa(u, u_i): minimize
the sum of squared training residuals plus ``regularization`` times the
squared norm of (w_1..w_m); the intercept w0 is not penalized, so constant
labels are reproduced exactly.

Band counts are small integers, so distinct training elements frequently
collide at the same embedding value.  Colliding points are merged before
fitting (label = mean of the group) to keep the normal system full rank;
the merge count is reported on the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .countmetric import CountMetric, stable_mean
from .errors import PredictionError, SettingError

KERNEL_KINDS = ("linear", "polynomial", "rbf")

_EPS = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel on pairs of reals: linear, polynomial, or Gaussian RBF.

    ``gamma=None`` on an RBF kernel means "resolve from data at fit time"
    (1 / (2 * variance of the training embeddings + eps)).
    """

    kind: str = "rbf"
    degree: int = 3
    gamma: float | None = None
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise SettingError("kernel", f"must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.kind == "polynomial" and not (isinstance(self.degree, int) and self.degree >= 1):
            raise SettingError(
                "degree", f"of a polynomial kernel must be a positive integer, got {self.degree!r}"
            )
        if self.kind == "rbf" and self.gamma is not None and not self.gamma > 0:
            raise SettingError("gamma", f"of an rbf kernel must be positive, got {self.gamma!r}")
        for name in ("gamma", "coef0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SettingError(name, f"must be finite, got {value!r}")


def kernel_eval(spec: KernelSpec, u: float, v: float) -> float:
    """Evaluate the kernel on a pair of reals."""
    if spec.kind == "linear":
        return u * v
    if spec.kind == "polynomial":
        return (u * v + spec.coef0) ** spec.degree
    if spec.gamma is None:
        raise ValueError("rbf kernel has unresolved gamma; fit a model first")
    return math.exp(-spec.gamma * (u - v) ** 2)


def _kernel_matrix(spec: KernelSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        return np.outer(u, v)
    if spec.kind == "polynomial":
        return (np.outer(u, v) + spec.coef0) ** spec.degree
    return np.exp(-spec.gamma * (u[:, None] - v[None, :]) ** 2)


@dataclass(frozen=True)
class SvmConfig:
    kernel: KernelSpec = KernelSpec()
    regularization: float = 1e-3

    def __post_init__(self):
        if not (self.regularization > 0 and math.isfinite(self.regularization)):
            raise SettingError(
                "regularization", f"must be positive and finite, got {self.regularization!r}"
            )


@dataclass(frozen=True)
class SvmModel:
    """Fitted kernel expansion over the merged training points."""

    points: tuple  # ((embedding, label), ...) after merge
    coefficients: tuple
    intercept: float
    kernel: KernelSpec  # gamma resolved
    regularization: float
    value_range: tuple
    merged_count: int  # original points absorbed by embedding collisions
    train_mae: float  # unclamped, over the original (unmerged) points


@dataclass(frozen=True)
class SvmPrediction:
    value: float
    clamped: bool
    raw: float


def fit_points(
    points: Sequence,
    config: SvmConfig = SvmConfig(),
    value_range: tuple = (-1.0, 1.0),
) -> SvmModel:
    """Fit the expansion to explicit (embedding, label) pairs."""
    points = [(float(u), float(y)) for u, y in points]
    if not points:
        raise PredictionError("cannot fit a model to an empty training set")
    for u, y in points:
        if not (math.isfinite(u) and math.isfinite(y)):
            raise ValueError(f"non-finite training point ({u!r}, {y!r})")

    u_all = np.array([u for u, _ in points])
    y_all = np.array([y for _, y in points])

    kernel = config.kernel
    if kernel.kind == "rbf" and kernel.gamma is None:
        gamma = 1.0 / (2.0 * float(np.var(u_all)) + _EPS)
        kernel = KernelSpec(kind="rbf", degree=kernel.degree, gamma=gamma, coef0=kernel.coef0)

    # Merge embedding collisions; group order follows first appearance.
    groups: dict = {}
    for u, y in points:
        groups.setdefault(u, []).append(y)
    merged = [(u, stable_mean(ys)) for u, ys in groups.items()]
    merged_count = len(points) - len(merged)

    u_m = np.array([u for u, _ in merged])
    y_m = np.array([y for _, y in merged])
    m = len(merged)

    # A kernel can overflow on large embeddings (a high polynomial degree);
    # that surfaces as the non-finite fit rejected below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        basis = _kernel_matrix(kernel, u_m, u_m) * y_m[None, :]
        design = np.hstack([np.ones((m, 1)), basis])
        penalty = np.eye(m + 1)
        penalty[0, 0] = 0.0  # intercept unpenalized
        lam = config.regularization
        beta = np.linalg.solve(
            design.T @ design + lam * penalty, design.T @ y_m
        )

        basis_all = _kernel_matrix(kernel, u_all, u_m) * y_m[None, :]
        pred_all = beta[0] + basis_all @ beta[1:]
        train_mae = float(np.abs(pred_all - y_all).mean())
    if not (np.isfinite(beta).all() and math.isfinite(train_mae)):
        raise PredictionError(
            f"SVM fit is not finite under {kernel} on embeddings up to "
            f"{float(np.abs(u_all).max())}"
        )

    return SvmModel(
        points=tuple(merged),
        coefficients=tuple(float(b) for b in beta[1:]),
        intercept=float(beta[0]),
        kernel=kernel,
        regularization=lam,
        value_range=(float(value_range[0]), float(value_range[1])),
        merged_count=merged_count,
        train_mae=train_mae,
    )


def fit(metric: CountMetric, training: Sequence, config: SvmConfig = SvmConfig()) -> SvmModel:
    """Fit from training elements, embedding them through the metric."""
    training = tuple(training)
    points = [(metric.transfer(a), metric.weighting.weights[a]) for a in training]
    return fit_points(points, config, value_range=metric.weighting.value_range)


def _predict_raw(model: SvmModel, u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_m = np.array([p for p, _ in model.points])
    y_m = np.array([y for _, y in model.points])
    k = _kernel_matrix(model.kernel, u, u_m)
    coef = np.array(model.coefficients)
    return model.intercept + k @ (coef * y_m)


def predict_at(model: SvmModel, embedding: float) -> SvmPrediction:
    """Predict at an embedding value, clamping into the weight range."""
    raw = float(_predict_raw(model, embedding)[0])
    lo, hi = model.value_range
    value = min(max(raw, lo), hi)
    return SvmPrediction(value=value, clamped=value != raw, raw=raw)


def predict_weight_svm(model: SvmModel, metric: CountMetric, element) -> SvmPrediction:
    """Predict the weight of an element of the metric's kind."""
    return predict_at(model, metric.transfer(element))
