"""Modified kNN: neighborhood selection and prediction policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightpred import (
    CountMetric,
    DomainError,
    KnnConfig,
    KnnModel,
    PredictionError,
    WeightKind,
    Weighting,
    build_graph,
)

from weightpred.countmetric import count_classes
from weightpred.knn import DENOMINATOR_POLICIES, ZERO_DISTANCE_POLICIES, KnnClasses

from helpers import _left_sum, brute_knn, brute_profile, random_instance, universe_of

APPROX = 1e-12


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)
        with pytest.raises(ValueError):
            KnnConfig(zero_distance_policy="sometimes")
        with pytest.raises(ValueError):
            KnnConfig(denominator_policy="avg")

    def test_defaults(self):
        cfg = KnnConfig()
        assert cfg.k == 5
        assert cfg.zero_distance_policy == "exclude"
        assert cfg.denominator_policy == "neighborhood_size"


class TestNeighborhood:
    def test_fig1_k1(self, fig1, origin_weights):
        # Band counts: C(a)=2, C(b)=C(c)=1, so both b and c sit at the
        # smallest nonzero distance 1.
        m = CountMetric(fig1, origin_weights, 0.2)
        nb = KnnModel(m, ["b", "c"], KnnConfig(k=1)).neighborhood("a")
        assert set(nb.elements) == {"b", "c"}
        assert not nb.degenerate

    def test_all_distances_zero_excluded(self, fig1, origin_weights):
        # C(d)=1 equals both training counts: no nonzero distance exists.
        m = CountMetric(fig1, origin_weights, 0.2)
        nb = KnnModel(m, ["b", "c"], KnnConfig(k=1)).neighborhood("d")
        assert nb.elements == ()
        assert nb.degenerate

    def test_include_policy_admits_equivalents(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        nb = KnnModel(
            m, ["b", "c"], KnnConfig(k=1, zero_distance_policy="include")
        ).neighborhood("d")
        assert set(nb.elements) == {"b", "c"}
        assert not nb.degenerate

    def test_saturation_flags_degenerate(self, fig1, origin_weights):
        # Only one distinct nonzero distance value exists, so k=5 saturates.
        m = CountMetric(fig1, origin_weights, 0.2)
        nb = KnnModel(m, ["b", "c"], KnnConfig(k=5)).neighborhood("a")
        assert set(nb.elements) == {"b", "c"}
        assert nb.degenerate


class TestPredict:
    def test_fig1_mean_over_neighborhood(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        pred = KnnModel(m, ["b", "c"], KnnConfig(k=1)).predict("a")
        assert pred.value == pytest.approx(0.45, abs=APPROX)
        assert not pred.used_fallback

    def test_fixed_k_denominator(self, fig1, origin_weights):
        # Ties inflate the set to 2 elements; dividing by k=1 doubles the mean.
        m = CountMetric(fig1, origin_weights, 0.2)
        pred = KnnModel(
            m, ["b", "c"], KnnConfig(k=1, denominator_policy="fixed_k")
        ).predict("a")
        assert pred.value == pytest.approx(0.9, abs=APPROX)

    def test_single_neighbor_any_policy(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        for policy in ("neighborhood_size", "fixed_k"):
            pred = KnnModel(
                m,
                ["b"],
                KnnConfig(k=1, zero_distance_policy="include",
                          denominator_policy=policy),
            ).predict("a")
            assert pred.value == pytest.approx(0.3, abs=APPROX)

    def test_fallback_to_training_mean(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        pred = KnnModel(m, ["b", "c"], KnnConfig(k=1)).predict("d")
        assert pred.used_fallback
        assert pred.value == pytest.approx(0.45, abs=APPROX)
        assert pred.neighborhood_size == 0

    def test_empty_training_set_rejected(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        with pytest.raises(PredictionError):
            KnnModel(m, [])

    def test_training_element_without_weight_rejected(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        with pytest.raises(DomainError):
            KnnModel(m, ["b", "a"])
        with pytest.raises(DomainError, match="training element 'a' has no weight"):
            KnnModel(m, ["a"])

    @pytest.mark.parametrize("zero_distance_policy", ["exclude", "include"])
    @pytest.mark.parametrize("denominator_policy", ["neighborhood_size", "fixed_k"])
    def test_classes_answer_alike_from_lists_and_arrays(
        self, zero_distance_policy, denominator_policy
    ):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 9, 60)
        weights = rng.uniform(-1, 1, 60)
        weights[:6] = [0.0, -0.0, 0.0, -0.0, 0.5, -0.5]
        config = KnnConfig(3, zero_distance_policy, denominator_policy)
        lists = KnnClasses(count_classes(counts.tolist(), weights.tolist()), config)
        arrays = KnnClasses(count_classes(counts, weights), config)
        queries = list(range(12))
        want = lists.predict_counts(queries)
        got = arrays.predict_counts(np.array(queries))
        for name, column in vars(want).items():
            assert column.tolist() == getattr(got, name).tolist()
        assert list(map(float.hex, got.value.tolist())) == list(map(float.hex, want.value.tolist()))


class TestPredictionProperties:
    def test_within_training_range(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            graph, weighting, h = random_instance(rng)
            metric = CountMetric(graph, weighting, h)
            training = list(weighting.weights)
            model = KnnModel(metric, training, KnnConfig(k=int(rng.integers(1, 6))))
            lo = min(weighting.weights.values())
            hi = max(weighting.weights.values())
            for elem in universe_of(graph, weighting.kind):
                value = model.predict(elem).value
                assert lo - 1e-12 <= value <= hi + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            graph, weighting, h = random_instance(rng)
            metric = CountMetric(graph, weighting, h)
            training = list(weighting.weights)
            shuffled = [training[i] for i in rng.permutation(len(training))]
            cfg = KnnConfig(k=int(rng.integers(1, 5)))
            a = KnnModel(metric, training, cfg)
            b = KnnModel(metric, shuffled, cfg)
            for elem in universe_of(graph, weighting.kind):
                pa, pb = a.predict(elem), b.predict(elem)
                assert pa.value == pb.value  # bit-identical by design
                assert pa.used_fallback == pb.used_fallback

    def test_constant_training_weights_predict_constant(self):
        graph = build_graph(
            [("a", "1"), ("b", "1"), ("c", "1"), ("c", "2"), ("d", "2")]
        )
        w = Weighting(WeightKind.ORIGIN, {"a": 0.6, "b": 0.6, "c": 0.6}, 0.0, 1.0)
        metric = CountMetric(graph, w, 0.5)
        model = KnnModel(metric, ["a", "b", "c"], KnnConfig(k=2))
        for o in graph.origins:
            assert model.predict(o).value == pytest.approx(0.6, abs=APPROX)


class TestBruteForceOracle:
    def test_neighborhood_matches_full_scan(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            graph, weighting, h = random_instance(rng, max_edges=30)
            metric = CountMetric(graph, weighting, h)
            training = list(weighting.weights)
            if not training:
                continue
            counts = {
                a: brute_profile(graph, weighting, a, h)[1] for a in training
            }
            for policy in ("exclude", "include"):
                k = int(rng.integers(1, 5))
                model = KnnModel(
                    metric, training, KnnConfig(k=k, zero_distance_policy=policy)
                )
                for elem in universe_of(graph, weighting.kind):
                    qc = brute_profile(graph, weighting, elem, h)[1]
                    want, want_degenerate = brute_knn(counts, qc, training, k, policy)
                    nb = model.neighborhood(elem)
                    assert set(nb.elements) == want
                    assert nb.degenerate == want_degenerate


class TestBatchedAnswers:
    """Every query count of one batch against a full scan of the training set."""

    @given(
        training=st.lists(st.tuples(
            st.integers(0, 12),
            # 0.1 + 0.2 + 0.3 rounds differently in another order.
            st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3]),
        ), min_size=1, max_size=30),
        queries=st.lists(st.integers(-3, 18), min_size=1, max_size=12),
        k=st.integers(1, 16),
        zero_distance_policy=st.sampled_from(ZERO_DISTANCE_POLICIES),
        denominator_policy=st.sampled_from(DENOMINATOR_POLICIES),
        as_arrays=st.booleans(),
    )
    # k = 1; k beyond the classes (degenerate); queries outside the training
    # counts, below and above, and on a training count.
    @example([(2, 0.1), (2, 0.2), (5, 0.3), (9, -0.0)], [-3, 2, 5, 18], 1,
             "exclude", "neighborhood_size", False)
    @example([(2, 0.1), (2, 0.2), (5, 0.3), (9, -0.0)], [-3, 2, 5, 18], 9,
             "include", "fixed_k", True)
    @example([(4, 0.5)], [4, 0, 17], 2, "exclude", "fixed_k", True)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_scan(self, training, queries, k, zero_distance_policy,
                                 denominator_policy, as_arrays):
        counts = {i: c for i, (c, _) in enumerate(training)}
        weights = [w for _, w in training]
        config = KnnConfig(k, zero_distance_policy, denominator_policy)
        if as_arrays:
            classes = count_classes(np.array(list(counts.values())), np.array(weights))
            knn = KnnClasses(classes, config)
            got = knn.predict_counts(np.array(queries))
        else:
            knn = KnnClasses(count_classes(list(counts.values()), weights), config)
            got = knn.predict_counts(queries)
        fallback = _left_sum(sorted(weights)) / len(weights)
        for i, q in enumerate(queries):
            chosen, degenerate = brute_knn(counts, q, counts, k, zero_distance_policy)
            n = len(chosen)
            denom = n if denominator_policy == "neighborhood_size" else k
            value = _left_sum(sorted(weights[a] for a in chosen)) / denom if n else fallback
            assert float(got.value[i]).hex() == value.hex()
            assert (bool(got.used_fallback[i]), bool(got.degenerate[i]),
                    int(got.neighborhood_size[i])) == (n == 0, degenerate, n)
            one = knn.predict_counts([q])
            assert float(one.value[0]).hex() == value.hex()
            assert (bool(one.used_fallback[0]), bool(one.degenerate[0]),
                    int(one.neighborhood_size[0])) == (n == 0, degenerate, n)
