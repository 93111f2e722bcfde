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
fitting, one per class of :func:`weightpred.countmetric.key_classes` in
first-appearance order (the first point's embedding stands for its class),
labelled with the mean of the class's ascending labels as in kNN; that
keeps the normal system full rank, and the merge count is reported on the
model.  A point's fitted value is its merged point's, so ``train_mae`` needs
no kernel matrix beyond the fit's m x m one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import math

import numpy as np

from .countmetric import CountMetric, _training_weights, key_classes
from .errors import PredictionError, SettingError, check_float, check_int

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
        check_int("degree", self.degree, 1)
        for name in ("gamma", "coef0"):
            value = getattr(self, name)
            if value is not None:
                check_float(name, value)
                if not math.isfinite(value):
                    raise SettingError(name, f"must be finite, got {value!r}")
        if self.kind == "rbf" and self.gamma is not None and not self.gamma > 0:
            raise SettingError("gamma", f"of an rbf kernel must be positive, got {self.gamma!r}")


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
        check_float("regularization", self.regularization)
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
    value_range: tuple
    merged_count: int  # original points absorbed by embedding collisions
    train_mae: float  # mean unclamped |fitted - label| over the unmerged points

    @cached_property
    def _expansion(self) -> tuple:  # merged embeddings, coefficients x labels
        u_m, y_m = np.array(self.points).T
        return u_m, np.array(self.coefficients) * y_m


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
    # An iterator (a zip, a generator) is read once into a list.
    pairs = np.array(list(points) if iter(points) is points else points, dtype=float)
    if not len(pairs):
        raise PredictionError("cannot fit a model to an empty training set")
    pairs = pairs.reshape(len(pairs), 2)
    bad = pairs[~np.isfinite(pairs).all(axis=1)].tolist()
    if bad:
        raise ValueError("non-finite training point ({!r}, {!r})".format(*bad[0]))
    u_all, y_all = np.ascontiguousarray(pairs.T)

    kernel = config.kernel
    if kernel.kind == "rbf" and kernel.gamma is None:
        gamma = 1.0 / (2.0 * float(np.var(u_all)) + _EPS)
        kernel = KernelSpec(kind="rbf", degree=kernel.degree, gamma=gamma, coef0=kernel.coef0)

    # Merge embedding collisions; class order follows first appearance.
    table, labels, ptr = key_classes(u_all, y_all)
    m = len(table)
    sizes = np.diff(ptr)
    u_m = np.array(table)
    y_m = np.bincount(np.repeat(np.arange(m), sizes), weights=labels, minlength=m) / sizes

    # A kernel can overflow on large embeddings (a high polynomial degree);
    # that surfaces as the non-finite fit rejected below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        basis = _kernel_matrix(kernel, u_m, u_m) * y_m[None, :]
        design = np.hstack([np.ones((m, 1)), basis])
        penalty = np.eye(m + 1)
        penalty[0, 0] = 0.0  # intercept unpenalized
        beta = np.linalg.solve(
            design.T @ design + config.regularization * penalty, design.T @ y_m
        )

        # A point's fitted value is that of its merged point.
        fitted = np.repeat(design @ beta, sizes)
        train_mae = float(np.abs(fitted - labels).mean())
    if not (np.isfinite(beta).all() and math.isfinite(train_mae)):
        raise PredictionError(
            f"SVM fit is not finite under {kernel} on embeddings up to "
            f"{float(np.abs(u_all).max())}"
        )

    return SvmModel(
        points=tuple(zip(table, y_m.tolist())),
        coefficients=tuple(float(b) for b in beta[1:]),
        intercept=float(beta[0]),
        kernel=kernel,
        value_range=(float(value_range[0]), float(value_range[1])),
        merged_count=len(u_all) - m,
        train_mae=train_mae,
    )


def fit(metric: CountMetric, training: Sequence, config: SvmConfig = SvmConfig()) -> SvmModel:
    """Fit from training elements, embedding them through the metric."""
    training = tuple(training)
    points = zip(map(metric.transfer, training), _training_weights(metric.weighting, training))
    return fit_points(points, config, value_range=(metric.weighting.lo, metric.weighting.hi))


def _predict_raw(model: SvmModel, u) -> np.ndarray:
    """The unclamped expansion at each embedding in ``u``."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_m, coef = model._expansion
    raw = np.empty(len(u))
    # Kernel rows in blocks no larger than the fit's m x m matrix, each row
    # its own (1, m) @ (m,) product: a (rows, m) one rounds differently.
    # As in the fit, an overflowing kernel gives values, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(u), len(u_m)):
            rows = _kernel_matrix(model.kernel, u[a:a + len(u_m)], u_m)
            raw[a:a + len(rows)] = [(row[None] @ coef)[0] for row in rows]
        return model.intercept + raw


def predict_embeddings(model: SvmModel, embeddings) -> SvmPrediction:
    """Predict at embedding values, clamping into the weight range: each
    field holds one entry per embedding."""
    raw = _predict_raw(model, embeddings)
    lo, hi = model.value_range
    # Python's min(max(raw, lo), hi), which keeps raw's -0.0.
    value = np.where(lo > raw, lo, raw)
    value = np.where(hi < value, hi, value)
    return SvmPrediction(value=value, clamped=value != raw, raw=raw)


def predict_weight_svm(model: SvmModel, metric: CountMetric, element) -> SvmPrediction:
    """Predict the weight of an element of the metric's kind."""
    p = predict_embeddings(model, [metric.transfer(element)])
    return SvmPrediction(*(a.item() for a in vars(p).values()))
