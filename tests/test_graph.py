"""Graph construction and the neighbor relation on all three element kinds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightpred import (
    CountMetric,
    DomainError,
    WeightKind,
    Weighting,
    build_graph,
    neighbors,
)

from helpers import FIG_EDGES, brute_neighbors, random_instance


def _assert_indexes_scan_edges(graph):
    """Each index holds, per vertex in first-appearance order, its edges in
    edge order, as a scan of ``graph.edges`` finds them."""
    for pos, index, vertices in ((0, graph.origin_index, graph.origins),
                                 (1, graph.terminal_index, graph.terminals)):
        scan = {}
        for e in graph.edges:
            scan[e[pos]] = scan.get(e[pos], ()) + (e,)
        assert list(index.items()) == list(scan.items())
        assert vertices == tuple(scan)


class TestBuildGraph:
    def test_fig1_sizes(self, fig1):
        assert len(fig1.origins) == 4
        assert len(fig1.terminals) == 4
        assert len(fig1.edges) == 7

    def test_single_edge(self):
        g = build_graph([("a", "1")])
        assert len(g.origins) == len(g.terminals) == len(g.edges) == 1

    def test_duplicate_collapse(self):
        g = build_graph([("a", "1"), ("a", "1")])
        assert len(g.edges) == 1

    def test_empty_edge_list_rejected(self):
        with pytest.raises(DomainError):
            build_graph([])

    def test_role_distinct_shared_token(self):
        # "x" is both an origin and a terminal; both roles must exist.
        g = build_graph([("x", "y"), ("w", "x")])
        assert "x" in g.origin_id and "x" in g.terminal_id
        assert "y" not in g.origin_id

    def test_vertex_sets_are_endpoint_tokens(self, fig1):
        assert set(fig1.origins) == {o for o, _ in FIG_EDGES}
        assert set(fig1.terminals) == {t for _, t in FIG_EDGES}

    def test_indexes_match_edge_set(self, fig1):
        _assert_indexes_scan_edges(fig1)

    def test_integer_views_scan_edges(self, fig1):
        shared = build_graph([("x", "y"), ("w", "x"), ("x", "z"), ("x", "y"), ("y", "x")])
        for graph in (fig1, shared):
            origin_pos, terminal_pos = {}, {}
            for o, t in graph.edges:
                origin_pos.setdefault(o, len(origin_pos))
                terminal_pos.setdefault(t, len(terminal_pos))
            assert graph.src.tolist() == [origin_pos[o] for o, _ in graph.edges]
            assert graph.dst.tolist() == [terminal_pos[t] for _, t in graph.edges]
            assert list(graph.edge_id.items()) == [(e, i) for i, e in enumerate(graph.edges)]
            assert not graph.src.flags.writeable and not graph.dst.flags.writeable

    def test_subgraph_matches_build_graph_of_its_edges(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            graph, _, _ = random_instance(rng)
            rows = rng.permutation(len(graph.edges))[: int(rng.integers(1, len(graph.edges) + 1))]
            sub = graph.subgraph(rows)
            want = build_graph([graph.edges[i] for i in rows])
            assert (sub.origins, sub.terminals, sub.edges) == (
                want.origins, want.terminals, want.edges
            )
            assert sub.src.tolist() == want.src.tolist()
            assert sub.dst.tolist() == want.dst.tolist()
            assert not sub.src.flags.writeable and not sub.dst.flags.writeable

    def test_tuple_pairs_become_the_edges(self):
        pair = ("a", "1")
        assert build_graph([pair, ["a", "1"], ["b", "1"]]).edges[0] is pair

    def test_has_edge(self, fig1):
        assert ("a", "1") in fig1.edge_id
        assert ("1", "a") not in fig1.edge_id
        assert ("a", "3") not in fig1.edge_id
        with pytest.raises(TypeError):
            ["a", "1"] in fig1.edge_id  # unhashable, as for any set lookup

    def test_out_in_edges(self, fig1):
        assert set(fig1.out_edges("a")) == {("a", "1"), ("a", "2")}
        assert set(fig1.in_edges("3")) == {("b", "3"), ("d", "3")}
        with pytest.raises(DomainError):
            fig1.out_edges("zzz")


class TestWeighting:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Weighting(WeightKind.ORIGIN, {"a": 2.0}, 0.0, 1.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Weighting(WeightKind.ORIGIN, {}, 1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Weighting(WeightKind.ORIGIN, {"a": float("nan")}, -1.0, 1.0)

    def test_check_domain(self, fig1):
        w = Weighting(WeightKind.ORIGIN, {"nope": 0.5}, 0.0, 1.0)
        with pytest.raises(DomainError):
            w.check_domain(fig1)


class TestNeighborsOfOrigin:
    def test_golden_sets(self, fig1, origin_weights):
        assert set(neighbors(fig1, origin_weights, "a")) == {"b", "c"}
        assert set(neighbors(fig1, origin_weights, "d")) == {"b"}
        # b shares terminal 1 with itself only (c has no common terminal).
        assert set(neighbors(fig1, origin_weights, "b")) == {"b"}

    def test_exclude_self(self, fig1, origin_weights):
        assert neighbors(fig1, origin_weights, "b", exclude_self=True) == ()
        assert set(
            neighbors(fig1, origin_weights, "a", exclude_self=True)
        ) == {"b", "c"}

    def test_unknown_origin(self, fig1, origin_weights):
        with pytest.raises(DomainError):
            neighbors(fig1, origin_weights, "zzz")


class TestNeighborsOfTerminal:
    def test_golden_sets(self, fig1, terminal_weights):
        assert set(neighbors(fig1, terminal_weights, "1")) == {"2"}
        assert set(neighbors(fig1, terminal_weights, "3")) == set()
        assert set(neighbors(fig1, terminal_weights, "2")) == {"2", "4"}

    def test_unknown_terminal(self, fig1, terminal_weights):
        with pytest.raises(DomainError):
            neighbors(fig1, terminal_weights, "zzz")


class TestNeighborsOfEdge:
    def test_golden_sets(self, fig1, edge_weights):
        assert set(neighbors(fig1, edge_weights, ("a", "1"))) == {("b", "1")}
        assert set(neighbors(fig1, edge_weights, ("d", "3"))) == {("b", "3")}
        assert set(neighbors(fig1, edge_weights, ("b", "1"))) == {
            ("b", "1"),
            ("b", "3"),
        }

    def test_exclude_self(self, fig1, edge_weights):
        got = neighbors(fig1, edge_weights, ("b", "1"), exclude_self=True)
        assert set(got) == {("b", "3")}

    def test_unknown_edge(self, fig1, edge_weights):
        with pytest.raises(DomainError):
            neighbors(fig1, edge_weights, ("a", "3"))


class TestNeighborsOutsideKind:
    """An element the graph lacks as the weighting's kind is a DomainError."""

    CASES = [
        ("edge_weights", "a"),  # an origin under the edge weighting
        ("origin_weights", ("a", "1")),  # an edge under the origin weighting
        ("terminal_weights", "zzz"),  # in no role at all
    ]

    @pytest.mark.parametrize("weights, element", CASES)
    def test_neighbors_rejects(self, request, fig1, weights, element):
        weighting = request.getfixturevalue(weights)
        with pytest.raises(DomainError):
            neighbors(fig1, weighting, element)

    @pytest.mark.parametrize("weights, element", CASES)
    def test_profile_rejects(self, request, fig1, weights, element):
        metric = CountMetric(fig1, request.getfixturevalue(weights), 0.2)
        with pytest.raises(DomainError):
            metric.profile(element)

    def test_profile_rejects_unhashable(self, fig1, edge_weights):
        metric = CountMetric(fig1, edge_weights, 0.2)
        with pytest.raises(DomainError, match=r"edge \['a', '1'\] is not in the graph"):
            metric.profile(["a", "1"])


class TestNeighborProperties:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            graph, weighting, _ = random_instance(rng, max_edges=50)
            for kind_flag in (False, True):
                for elem in _universe(graph, weighting.kind):
                    got = neighbors(graph, weighting, elem, exclude_self=kind_flag)
                    want = brute_neighbors(graph, weighting, elem, exclude_self=kind_flag)
                    assert set(got) == want
                    assert len(got) == len(set(got))  # no duplicates

    def test_subset_of_training_domain(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            graph, weighting, _ = random_instance(rng, allow_empty=True)
            for elem in _universe(graph, weighting.kind):
                got = neighbors(graph, weighting, elem)
                assert set(got) <= weighting.weights.keys()

    def test_index_rebuild_matches(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            graph, _, _ = random_instance(rng)
            _assert_indexes_scan_edges(graph)


@given(
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=60)
def test_shared_endpoint_symmetry(pairs):
    """alpha in N(o) iff some terminal links both (restricted to the domain)."""
    graph = build_graph(pairs)
    domain = {o: 0.5 for o in graph.origins[::2]}
    weighting = Weighting(WeightKind.ORIGIN, domain, 0.0, 1.0)
    for o in graph.origins:
        got = set(neighbors(graph, weighting, o))
        want = {
            alpha
            for alpha in domain
            if any(
                (o, t) in graph.edge_id and (alpha, t) in graph.edge_id
                for t in graph.terminals
            )
        }
        assert got == want


def _universe(graph, kind):
    if kind is WeightKind.ORIGIN:
        return graph.origins
    if kind is WeightKind.TERMINAL:
        return graph.terminals
    return graph.edges
