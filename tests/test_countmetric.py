"""Profiles, band counts, and the metric-modulo-equivalence axioms."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weightpred.countmetric as countmetric
from weightpred import (
    CountMetric,
    DomainError,
    PredictionError,
    WeightKind,
    Weighting,
    build_graph,
    stable_mean,
)
from weightpred.ingest import DatasetSpec, parse_edge_list

from helpers import (
    _left_sum,
    brute_neighbors,
    brute_profile,
    random_graph,
    random_instance,
    reference_count_classes,
    universe_of,
    write_rating_file,
)

APPROX = 1e-12


class TestAvgNeighborWeight:
    def test_fig1_origin_averages(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        assert m.profile("a").avg_weight == pytest.approx(0.45, abs=APPROX)
        assert m.profile("d").avg_weight == pytest.approx(0.3, abs=APPROX)

    def test_empty_neighborhood_is_undefined(self, fig1):
        # With only c weighted, d has no neighbors in the training set.
        w = Weighting(WeightKind.ORIGIN, {"c": 0.6}, 0.0, 1.0)
        m = CountMetric(fig1, w, 0.2)
        assert m.profile("d").avg_weight is None

    def test_stable_mean_is_permutation_invariant(self):
        vals = [0.31, -0.7, 0.11, 0.9999, -0.23, 0.5]
        assert stable_mean(vals) == stable_mean(list(reversed(vals)))


@given(st.lists(st.tuples(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 7.0]),
    st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1.0, max_value=1.0),
), max_size=40))
def test_count_classes_keep_first_appearance_and_sort_each_class(pairs):
    keys = [k for k, _ in pairs]
    if not pairs:
        with pytest.raises(PredictionError):
            countmetric.count_classes(keys, [])
        return
    table, values, ptr = countmetric.count_classes(
        keys, [v for _, v in pairs]).by_first_appearance()
    # Dict oracle: of 0.0 and -0.0 the first stands for the class.
    groups = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    signed = lambda ks: [(k, math.copysign(1.0, k)) for k in ks]
    assert signed(table.tolist()) == signed(groups)
    assert table.dtype == np.float64
    assert ptr[0] == 0 and ptr[-1] == len(values) == len(pairs)
    for i, want in enumerate(groups.values()):
        got = values[ptr[i]:ptr[i + 1]].tolist()
        assert [v.hex() for v in got] == [v.hex() for v in sorted(want)]
        assert countmetric.ordered_sum(got).hex() == _left_sum(sorted(want)).hex()


@given(st.lists(st.floats(allow_nan=False) | st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
]), max_size=60).map(np.array) | st.lists(
    st.integers(-2**53, 2**53), max_size=60).map(lambda v: np.array(v, dtype=np.int64)))
def test_count_classes_order_values_as_their_sorted_rank(values):
    if not len(values):
        with pytest.raises(PredictionError):
            countmetric.count_classes(np.zeros(0), values)
        return
    # Reference: each value's rank in the sorted values (equal values,
    # 0.0 and -0.0 among them, share one), ties in input order.
    rank = np.searchsorted(np.sort(values), values)
    want = values[np.argsort(rank, kind="stable")]
    _, got, _ = countmetric.count_classes(np.zeros(len(values)), values).by_first_appearance()
    assert got.dtype == values.dtype
    assert got.tobytes() == want.tobytes()


# Keys that differ in one 32-bit half only: negative, at and above 2**32,
# and around +-2**53, where float64 keys could no longer tell them apart.
_INT64_KEYS = st.sampled_from([
    0, 1, -1, 2**31, -2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, -2**32,
    2**53, 2**53 + 1, -2**53, -2**53 - 1, 2**63 - 1, -2**63,
]) | st.integers(-2**63, 2**63 - 1)
_FLOAT_KEYS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5]) | st.floats(allow_nan=False)


@given(st.lists(st.tuples(_INT64_KEYS, st.floats(allow_nan=False)), max_size=40).map(
    lambda pairs: (np.array([k for k, _ in pairs], dtype=np.int64), pairs)
) | st.lists(st.tuples(_FLOAT_KEYS, st.floats(allow_nan=False)), max_size=40).map(
    lambda pairs: ([k for k, _ in pairs], pairs)
))
@example((np.array([], dtype=np.int64), []))
@example(([], []))
@example((np.array([2**53, 2**53 + 1, 2**53]), [(2**53, 0.0), (2**53 + 1, 0.0), (2**53, 0.0)]))
def test_count_classes_number_classes_as_a_dict_does(case):
    keys, pairs = case
    values = np.array([v for _, v in pairs])
    if not pairs:
        with pytest.raises(PredictionError):
            countmetric.count_classes(keys, values)
        return
    table, values, ptr = countmetric.count_classes(keys, values).by_first_appearance()
    # Dict oracle: classes in first-appearance order; of 0.0 and -0.0 the
    # first stands for the class.
    groups = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    assert [(type(k), repr(k)) for k in table.tolist()] == [(type(k), repr(k)) for k in groups]
    assert ptr.tolist() == np.cumsum([0, *map(len, groups.values())]).tolist()
    for i, want in enumerate(groups.values()):
        assert values[ptr[i]:ptr[i + 1]].tobytes() == np.array(sorted(want)).tobytes()


@given(st.lists(st.tuples(
    # Band counts, up to the largest the class table takes.
    st.integers(0, 12) | st.integers(0, 2**32 - 1),
    # 0.1 + 0.2 + 0.3 rounds differently in another order.
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3]) | st.floats(-1.0, 1.0),
), min_size=1, max_size=40), st.booleans())
@example([(0, 0.0), (1, -0.0), (0, -0.0), (1, 0.0), (2, 0.5), (2, -0.5), (0, 0.0)], False)
@example([(3, 0.3), (3, -0.0), (3, 0.1), (3, 0.0), (3, 0.2)], True)
def test_count_classes_match_a_brute_force_grouping(pairs, as_arrays):
    counts, weights = [c for c, _ in pairs], [w for _, w in pairs]
    if as_arrays:  # with the weight order known, as a run passes it
        w = np.array(weights)
        got = countmetric.count_classes(np.array(counts), w, countmetric._ascending(w))
    else:
        got = countmetric.count_classes(counts, weights)
    want_counts, want_classes, want_first, want_mean = reference_count_classes(counts, weights)
    assert got.counts.tolist() == want_counts
    assert got.ptr.tolist() == np.cumsum([0, *map(len, want_classes)]).tolist()
    for j, want in enumerate(want_classes):
        assert got.weights[got.ptr[j]:got.ptr[j + 1]].tobytes() == np.array(want).tobytes()
    assert got.first.tolist() == want_first
    assert got.mean.hex() == want_mean.hex()
    assert not any(a.flags.writeable for a in (got.counts, got.weights, got.ptr, got.first))
    # The first-appearance view, against a dict oracle, is the same for the
    # counts as floats, as fit_points groups them.
    groups = {}
    for c, w in pairs:
        groups.setdefault(c, []).append(w)
    want = (list(groups), [w for ws in groups.values() for w in sorted(ws)],
            np.cumsum([0, *map(len, groups.values())]).tolist())
    for table in (got, countmetric.count_classes(np.array(counts, dtype=float), weights)):
        view_counts, view_weights, view_ptr = table.by_first_appearance()
        assert view_counts.tolist() == want[0]
        assert view_weights.tobytes() == np.array(want[1]).tobytes()
        assert view_ptr.tolist() == want[2]


def test_count_classes_refuse_an_empty_training_set():
    with pytest.raises(PredictionError):
        countmetric.count_classes([], [])


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 4, 5, *(2**k + d for k in (3, 10, 16) for d in (-1, 0, 1))]
)
def test_stable_order_is_the_stable_argsort(n):
    # Index counts at and around powers of two, where the index field widens;
    # keys at both ends of the documented range, most of them tied.
    rng = np.random.default_rng(n)
    keys = rng.choice(np.array([0, 1, 2**31, 2**32 - 2, 2**32 - 1]), n)
    keys[:2] = [2**32 - 1, 0][:n]
    got = countmetric._stable_order(keys)
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()


class TestBandCount:
    def test_fig1_counts(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        assert m.profile("a").band_count == 2
        assert m.profile("d").band_count == 1

    def test_no_neighbors_counts_zero(self, fig1):
        w = Weighting(WeightKind.ORIGIN, {"c": 0.6}, 0.0, 1.0)
        m = CountMetric(fig1, w, 0.2)
        assert m.profile("d").band_count == 0

    def test_nonpositive_h_rejected(self, fig1, origin_weights):
        with pytest.raises(ValueError):
            CountMetric(fig1, origin_weights, 0.0)
        with pytest.raises(ValueError):
            CountMetric(fig1, origin_weights, -1.0)

    def test_monotone_in_h(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            graph, weighting, h = random_instance(rng)
            small = CountMetric(graph, weighting, h)
            big = CountMetric(graph, weighting, h + float(rng.uniform(0.0, 1.0)))
            for elem in universe_of(graph, weighting.kind):
                assert small.profile(elem).band_count <= big.profile(elem).band_count


class TestDistance:
    def test_fig1_origin_distance(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        assert m.distance("a", "d") == 1

    def test_reflexive(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        for x in fig1.origins:
            assert m.distance(x, x) == 0

    def test_fig1_edge_distance_zero(self, fig1, edge_weights):
        m = CountMetric(fig1, edge_weights, 0.2)
        assert m.profile(("a", "1")).band_count == 1
        assert m.profile(("d", "3")).band_count == 1
        assert m.distance(("a", "1"), ("d", "3")) == 0

    def test_kind_mismatch(self, fig1, origin_weights):
        m = CountMetric(fig1, origin_weights, 0.2)
        with pytest.raises(DomainError):
            m.distance("a", ("a", "1"))
        with pytest.raises(DomainError):
            m.distance("a", "1")  # a terminal token, not an origin


class TestMetricAxioms:
    def _triples(self, rng, universe, n=25):
        idx = rng.integers(0, len(universe), size=(n, 3))
        return [(universe[i], universe[j], universe[k]) for i, j, k in idx]

    def test_axioms_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            graph, weighting, h = random_instance(rng, max_edges=40, allow_empty=True)
            metric = CountMetric(graph, weighting, h)
            universe = universe_of(graph, weighting.kind)
            for x, y, z in self._triples(rng, universe):
                dxy = metric.distance(x, y)
                assert dxy >= 0
                assert dxy == metric.distance(y, x)
                assert metric.distance(x, z) <= dxy + metric.distance(y, z)
                zero = dxy == 0
                same_count = metric.profile(x).band_count == metric.profile(y).band_count
                assert zero == same_count

    def test_equivalence_relation_properties(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            graph, weighting, h = random_instance(rng, max_edges=25)
            metric = CountMetric(graph, weighting, h)
            universe = universe_of(graph, weighting.kind)
            for x, y, z in self._triples(rng, universe, n=15):
                assert metric.distance(x, x) == 0
                assert (metric.distance(x, y) == 0) == (metric.distance(y, x) == 0)
                if metric.distance(x, y) == 0 and metric.distance(y, z) == 0:
                    assert metric.distance(x, z) == 0


class TestBruteForceOracle:
    def test_profiles_match_quadratic_recomputation(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            graph, weighting, h = random_instance(rng, max_edges=30)
            for exclude_self in (False, True):
                metric = CountMetric(graph, weighting, h, exclude_self=exclude_self)
                for elem in universe_of(graph, weighting.kind):
                    want_avg, want_count = brute_profile(
                        graph, weighting, elem, h, exclude_self
                    )
                    prof = metric.profile(elem)
                    assert prof.avg_weight == want_avg  # exact: same summation contract
                    assert prof.band_count == want_count
                    assert prof.neighbor_count == len(
                        brute_neighbors(graph, weighting, elem, exclude_self)
                    )

    def test_profile_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            graph, weighting, h = random_instance(rng, allow_empty=True)
            metric = CountMetric(graph, weighting, h)
            for elem in universe_of(graph, weighting.kind):
                prof = metric.profile(elem)
                assert 0 <= prof.band_count <= prof.neighbor_count
                assert (prof.avg_weight is None) == (prof.neighbor_count == 0)


def _hex(value):
    return None if value is None else float.hex(value)


def _assert_matches_oracle(metric, graph, elements, h, exclude_self=False):
    """Every element's profile has the brute-force oracle's bits."""
    weighting = metric.weighting
    for elem in elements:
        want_avg, want_count = brute_profile(graph, weighting, elem, h, exclude_self)
        prof = metric.profile(elem)
        assert _hex(prof.avg_weight) == _hex(want_avg)
        assert prof.band_count == want_count
        assert prof.neighbor_count == len(
            brute_neighbors(graph, weighting, elem, exclude_self)
        )


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(WeightKind)),
    st.booleans(),
    st.sampled_from([5e-324, 0.25, 1.0]),
    st.data(),
)
def test_profiles_with_tied_weights_match_oracle(seed, kind, exclude_self, h, data):
    # Training weights from a small set holding 0.0, -0.0 and a subnormal,
    # so many tie; ties keep their input order in the fill's weight order.
    graph = random_graph(np.random.default_rng(seed))
    elements = universe_of(graph, kind)
    drawn = data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, 0.5, -0.5]) | st.none(),
        min_size=len(elements), max_size=len(elements),
    ))
    weights = {x: w for x, w in zip(elements, drawn) if w is not None}
    metric = CountMetric(graph, Weighting(kind, weights, -1.0, 1.0), h, exclude_self=exclude_self)
    _assert_matches_oracle(metric, graph, elements, h, exclude_self)


class TestChunkBoundaries:
    """The fill takes the elements in chunks of at most ``_CHUNK_ENTRIES``
    (element, candidate) pairs, and at least one element per chunk; where
    the chunks split must not change a profile."""

    @pytest.mark.parametrize("kind", list(WeightKind))
    @pytest.mark.parametrize("budget", [1, 5])
    def test_profiles_match_oracle_under_small_budgets(self, monkeypatch, kind, budget):
        monkeypatch.setattr(countmetric, "_CHUNK_ENTRIES", budget)
        rng = np.random.default_rng(44)
        largest = 0
        for _ in range(25):
            graph, weighting, h = random_instance(rng, max_edges=30, kind=kind)
            elements = universe_of(graph, kind)
            for exclude_self in (False, True):
                metric = CountMetric(graph, weighting, h, exclude_self=exclude_self)
                _assert_matches_oracle(metric, graph, elements, h, exclude_self)
                largest = max(largest, *(metric.profile(x).neighbor_count for x in elements))
        # An element whose segment alone exceeds the budget got a chunk.
        assert largest > budget


class TestSummationOrder:
    """Segments of 100+ neighbors with full-mantissa weights, where a
    pairwise sum (``np.sum``, ``np.add.reduceat``) of the sorted weights
    differs from the left-to-right sum in its last bits."""

    @pytest.mark.parametrize("kind,n_origins,n_terminals,checked", [
        (WeightKind.ORIGIN, 150, 16, 40),
        (WeightKind.TERMINAL, 16, 150, 40),
        (WeightKind.EDGE, 150, 16, 200),
    ])
    def test_long_segments_match_oracle_bits(
        self, tmp_path, kind, n_origins, n_terminals, checked
    ):
        path = write_rating_file(
            tmp_path / "r.csv", 2000, seed=5, n_origins=n_origins, n_terminals=n_terminals
        )
        records = parse_edge_list(DatasetSpec(str(path), (-10.0, 10.0), True))
        graph = build_graph([r.pair for r in records])
        rng = np.random.default_rng(6)
        weights = {
            x: float(rng.uniform(-1.0, 1.0))
            for x in universe_of(graph, kind)
            if rng.random() < 0.9
        }
        metric = CountMetric(graph, Weighting(kind, weights, -1.0, 1.0), 0.3)
        elements = universe_of(graph, kind)[:checked]
        assert min(metric.profile(x).neighbor_count for x in elements) >= 100
        _assert_matches_oracle(metric, graph, elements, 0.3)


class TestTransfer:
    def test_fig1_values(self, fig1, origin_weights, edge_weights):
        mo = CountMetric(fig1, origin_weights, 0.2)
        me = CountMetric(fig1, edge_weights, 0.2)
        assert mo.transfer("a") == 2.0
        assert me.transfer(("d", "3")) == 1.0

    def test_isolated_element_maps_to_zero(self, fig1):
        w = Weighting(WeightKind.ORIGIN, {"c": 0.6}, 0.0, 1.0)
        m = CountMetric(fig1, w, 0.2)
        assert m.transfer("d") == 0.0


def test_profile_cache_reuses_objects(fig1, origin_weights):
    m = CountMetric(fig1, origin_weights, 0.2)
    assert m.profile("a") is m.profile("a")
