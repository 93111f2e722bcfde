"""Kernel evaluation and the ridge-fitted kernel expansion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightpred import (
    CountMetric,
    DomainError,
    KernelSpec,
    PredictionError,
    SvmConfig,
    fit,
    fit_points,
    predict_weight_svm,
)
from weightpred.svm import _kernel_matrix, predict_embeddings

from helpers import _left_sum, brute_kernel

finite_reals = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", gamma=-1.0)

    def test_golden_values(self):
        for spec, u, v, want in (
            (KernelSpec("linear"), 2.0, 3.0, 6.0),
            (KernelSpec("rbf", gamma=0.7), 1.5, 1.5, 1.0),
            (KernelSpec("polynomial", degree=2, coef0=1.0), 1.0, 1.0, 4.0),
        ):
            assert brute_kernel(spec, u, v) == want
            assert _kernel_matrix(spec, np.array([u]), np.array([v]))[0, 0] == want

    @given(finite_reals, finite_reals)
    @settings(max_examples=80)
    def test_symmetry(self, u, v):
        for spec in (
            KernelSpec("linear"),
            KernelSpec("polynomial", degree=3, coef0=0.5),
            KernelSpec("rbf", gamma=0.25),
        ):
            mat = _kernel_matrix(spec, np.array([u, v]), np.array([u, v]))
            assert mat[0, 1] == mat[1, 0]

    def test_matrix_agrees_with_scalar(self):
        u = np.array([0.0, 1.0, 2.5])
        v = np.array([1.0, 3.0])
        for spec in (
            KernelSpec("linear"),
            KernelSpec("polynomial", degree=2, coef0=1.0),
            KernelSpec("rbf", gamma=0.5),
        ):
            mat = _kernel_matrix(spec, u, v)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    assert mat[i, j] == pytest.approx(brute_kernel(spec, a, b), rel=1e-15)


class TestFit:
    def test_single_point_reproduces_label(self):
        # Closed form: the penalty drives the coefficient to zero and the
        # intercept absorbs the label, for any lambda.
        for kernel in (KernelSpec("linear"), KernelSpec("rbf", gamma=1.0),
                       KernelSpec("polynomial", degree=2, coef0=1.0)):
            model = fit_points([(2.0, 0.7)], SvmConfig(kernel=kernel), (-1, 1))
            assert abs(predict_embeddings(model, [2.0]).raw[0] - 0.7) < 1e-6

    def test_constant_labels_reproduced_everywhere(self):
        model = fit_points(
            [(0.0, 0.4), (1.0, 0.4), (3.0, 0.4)],
            SvmConfig(kernel=KernelSpec("rbf", gamma=0.3)),
            (-1, 1),
        )
        for u in (0.0, 1.0, 3.0, 10.0, -4.0):
            assert abs(predict_embeddings(model, [u]).raw[0] - 0.4) < 1e-6

    def test_two_point_linear_matches_explicit_solve(self):
        # Independent oracle: augmented least squares for the same objective
        # (residuals plus lambda * squared norm of the non-intercept part).
        points = [(0.0, 0.3), (1.0, 0.9)]
        lam = 1e-3
        model = fit_points(
            points, SvmConfig(kernel=KernelSpec("linear"), regularization=lam), (-1, 1)
        )
        u = np.array([p for p, _ in points])
        y = np.array([l for _, l in points])
        design = np.hstack([np.ones((2, 1)), np.outer(u, u) * y[None, :]])
        penalty_rows = np.sqrt(lam) * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        beta, *_ = np.linalg.lstsq(
            np.vstack([design, penalty_rows]), np.concatenate([y, [0.0, 0.0]]),
            rcond=None,
        )
        assert abs(model.intercept - beta[0]) < 1e-9
        assert np.abs(np.array(model.coefficients) - beta[1:]).max() < 1e-9

    def test_embedding_collisions_are_merged(self):
        model = fit_points(
            [(1.0, 0.2), (1.0, 0.8), (2.0, 0.5)],
            SvmConfig(kernel=KernelSpec("rbf", gamma=0.5)),
            (-1, 1),
        )
        assert model.merged_count == 1
        assert model.points == ((1.0, 0.5), (2.0, 0.5))
        assert len(model.coefficients) == len(model.points)

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.25, 3.0]),
        st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1.0, max_value=1.0),
    ), min_size=1, max_size=30))
    def test_merge_matches_a_dict_oracle(self, pairs):
        model = fit_points(pairs, SvmConfig(kernel=KernelSpec("rbf", gamma=0.5)), (-1, 1))
        # Of 0.0 and -0.0 the first stands for the merged point.
        groups = {}
        for u, y in pairs:
            groups.setdefault(u, []).append(y)
        want = [(u, _left_sum(sorted(ys)) / len(ys)) for u, ys in groups.items()]
        bits = lambda points: [(type(u), u.hex(), type(y), y.hex()) for u, y in points]
        assert bits(model.points) == bits(want)
        assert model.merged_count == len(pairs) - len(groups)

    def test_every_form_of_the_points_fits_the_same_model(self):
        pairs = [(1.0, 0.2), (-0.0, -0.5), (1.0, 0.8), (0.0, 0.1), (2.5, -0.0)]
        forms = [
            zip([u for u, _ in pairs], [y for _, y in pairs]),
            (pair for pair in pairs),
            pairs,
            [list(pair) for pair in pairs],
            np.array(pairs),
        ]
        models = [fit_points(form, SvmConfig(), (-1, 1)) for form in forms]
        # repr round-trips every float, the sign of -0.0 included.
        assert len({repr(model) for model in models}) == 1
        assert [repr(u) for u, _ in models[0].points] == ["1.0", "-0.0", "2.5"]

    def test_train_mae_reported_finite(self):
        model = fit_points(
            [(0.0, -0.5), (1.0, 0.1), (2.0, 0.9)],
            SvmConfig(kernel=KernelSpec("rbf", gamma=1.0)),
            (-1, 1),
        )
        assert math.isfinite(model.train_mae)

    @pytest.mark.parametrize("kernel", [
        KernelSpec("linear"), KernelSpec("polynomial", degree=2), KernelSpec("rbf"),
    ], ids=["linear", "polynomial", "rbf"])
    @pytest.mark.parametrize("seed", range(4))
    def test_train_mae_is_the_mean_residual_over_the_unmerged_points(self, kernel, seed):
        rng = np.random.default_rng(seed)
        # Small integer embeddings collide, -0.0 with 0.0 among them.
        points = [(float(u) if u >= 0 else -0.0, float(y))
                  for u, y in zip(rng.integers(-1, 6, 40), rng.uniform(-1, 1, 40))]
        model = fit_points(points, SvmConfig(kernel=kernel), (-1, 1))
        assert model.merged_count > 0
        residuals = [
            abs(model.intercept + sum(
                c * y_j * brute_kernel(model.kernel, u, u_j)
                for c, (u_j, y_j) in zip(model.coefficients, model.points)
            ) - y)
            for u, y in points
        ]
        assert model.train_mae == pytest.approx(sum(residuals) / len(points), rel=1e-9)

    def test_gamma_resolved_from_embedding_variance(self):
        pts = [(0.0, 0.1), (2.0, 0.5), (4.0, 0.9)]
        model = fit_points(pts, SvmConfig(kernel=KernelSpec("rbf")), (-1, 1))
        var = np.var([0.0, 2.0, 4.0])
        assert model.kernel.gamma == pytest.approx(1.0 / (2.0 * var + 1e-12))

    def test_an_overflowing_kernel_predicts_without_warnings(self):
        """At ``gamma=1e308`` the kernel of distinct embeddings overflows to
        ``exp(-inf) == 0`` in the prediction as in the fit: each embedding
        then sees only its own training point."""
        pts = [(0.0, 0.1), (2.0, 0.5), (4.0, 0.9)]
        model = fit_points(pts, SvmConfig(kernel=KernelSpec("rbf", gamma=1e308)), (-1, 1))
        p = predict_embeddings(model, [0.0, 1.0, 4.0])
        assert np.isfinite(p.raw).all()
        assert p.raw[1] == model.intercept

    def test_empty_training_rejected(self):
        with pytest.raises(PredictionError):
            fit_points([], SvmConfig(), (-1, 1))

    def test_non_finite_label_rejected(self):
        for points in ([(0.0, float("inf"))], np.array([[0.0, np.inf]])):
            with pytest.raises(ValueError) as err:
                fit_points(points, SvmConfig(), (-1, 1))
            assert "non-finite training point (0.0, inf)" in str(err.value)

    def test_nonpositive_regularization_rejected(self):
        with pytest.raises(ValueError):
            SvmConfig(regularization=0.0)

    def test_residuals_weakly_decrease_as_lambda_shrinks(self):
        points = [(0.0, -0.4), (1.0, 0.2), (2.0, 0.1), (3.0, 0.8)]
        maes = [
            fit_points(
                points,
                SvmConfig(kernel=KernelSpec("rbf", gamma=0.8), regularization=lam),
                (-1, 1),
            ).train_mae
            for lam in (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
        ]
        for worse, better in zip(maes, maes[1:]):
            assert better <= worse + 1e-12


class TestPredict:
    def test_constant_model_predicts_constant(self):
        model = fit_points(
            [(0.0, 0.25), (2.0, 0.25)], SvmConfig(kernel=KernelSpec("linear")), (-1, 1)
        )
        assert predict_embeddings(model, [5.0]).value[0] == pytest.approx(0.25, abs=1e-6)

    def test_lone_point_query_hits_label(self):
        model = fit_points([(3.0, -0.6)], SvmConfig(kernel=KernelSpec("rbf", gamma=2.0)), (-1, 1))
        pred = predict_embeddings(model, [3.0])
        assert abs(pred.value[0] - (-0.6)) < 1e-6

    def test_clamping_flags_and_bounds(self):
        # A steep linear fit pushed far outside the training embeddings
        # overshoots the declared range and must be clamped.
        model = fit_points(
            [(0.0, -0.9), (1.0, 0.9)],
            SvmConfig(kernel=KernelSpec("linear"), regularization=1e-6),
            (-1, 1),
        )
        pred = predict_embeddings(model, [50.0])
        assert pred.clamped[0]
        assert -1.0 <= pred.value[0] <= 1.0
        assert pred.raw[0] != pred.value[0]

    def test_prediction_depends_only_on_embedding(self, fig1, origin_weights):
        metric = CountMetric(fig1, origin_weights, 0.2)
        model = fit(metric, ["b", "c"])
        pb = predict_weight_svm(model, metric, "b")
        pc = predict_weight_svm(model, metric, "c")
        assert metric.transfer("b") == metric.transfer("c")
        assert pb.value == pc.value

    def test_training_element_without_weight_rejected(self, fig1, origin_weights):
        metric = CountMetric(fig1, origin_weights, 0.2)
        with pytest.raises(DomainError, match="training element 'a' has no weight"):
            fit(metric, ["a"])

    def test_fit_from_metric_uses_weight_range(self, fig1, origin_weights):
        metric = CountMetric(fig1, origin_weights, 0.2)
        model = fit(metric, ["b", "c"])
        assert model.value_range == (0.0, 1.0)
        for o in fig1.origins:
            assert 0.0 <= predict_weight_svm(model, metric, o).value <= 1.0


class TestBatchedPredict:
    @pytest.mark.parametrize("kernel", [
        KernelSpec("linear"), KernelSpec("polynomial", degree=3, coef0=0.5), KernelSpec("rbf"),
    ], ids=["linear", "polynomial", "rbf"])
    @pytest.mark.parametrize("seed", range(3))
    def test_each_answer_has_the_bits_of_one_embedding_alone(self, kernel, seed):
        rng = np.random.default_rng(seed)
        points = list(zip(rng.integers(0, 8, 30).astype(float), rng.uniform(-1, 1, 30)))
        model = fit_points(points, SvmConfig(kernel=kernel, regularization=1e-6), (-0.5, 0.5))
        # More embeddings than merged points, so the kernel rows take
        # several blocks; -0.0 and far-off values clamp.
        embeddings = [-0.0, *rng.integers(-5, 40, 3 * len(model.points)).astype(float)]
        batch = predict_embeddings(model, embeddings)
        u_m = np.array([u for u, _ in model.points])
        coef = np.array(model.coefficients) * np.array([y for _, y in model.points])
        for i, u in enumerate(embeddings):
            one = predict_embeddings(model, [u])
            # The product as one embedding alone computes it.
            raw = float((model.intercept + _kernel_matrix(model.kernel, np.array([u]), u_m) @ coef)[0])
            assert float(one.raw[0]).hex() == float(batch.raw[i]).hex() == raw.hex()
            assert float(one.value[0]).hex() == float(batch.value[i]).hex()
            assert one.clamped[0] == batch.clamped[i]
        assert batch.clamped.any() and not batch.clamped.all()
