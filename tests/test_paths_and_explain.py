"""Tests for witness paths and query certificates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalGraph, TILLIndex, UnsupportedIntervalError
from repro.core.explain import span_certificate
from repro.core.intervals import Interval
from repro.graph.paths import (
    path_is_valid_witness,
    shortest_span_path,
    span_path,
    theta_path,
)
from repro.graph.projection import (
    span_reaches_bruteforce,
    theta_reaches_bruteforce,
)

from tests.conftest import random_graph


class TestSpanPath:
    def test_trivial_same_vertex(self, triangle):
        assert span_path(triangle, "a", "a", (1, 1)) == []

    def test_direct_edge(self, triangle):
        assert span_path(triangle, "a", "b", (3, 3)) == [("a", "b", 3)]

    def test_two_hop_chain(self, triangle):
        path = span_path(triangle, "a", "c", (3, 5))
        assert path == [("a", "b", 3), ("b", "c", 5)]

    def test_unreachable_returns_none(self, triangle):
        assert span_path(triangle, "a", "c", (3, 4)) is None

    def test_path_respects_window(self, paper_graph):
        path = span_path(paper_graph, "v1", "v8", (3, 5))
        assert path is not None
        assert all(3 <= t <= 5 for _, _, t in path)
        assert path_is_valid_witness(paper_graph, "v1", "v8", (3, 5), path)

    def test_hop_minimality(self, diamond):
        # s -> y -> t inside [3, 4]: two hops exactly
        path = span_path(diamond, "s", "t", (1, 5))
        assert len(path) == 2

    def test_alias(self):
        assert shortest_span_path is span_path

    def test_undirected_orientation(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("c", "b", 2)],
                                     directed=False)
        path = span_path(g, "a", "c", (1, 2))
        assert path == [("a", "b", 1), ("b", "c", 2)]
        assert path_is_valid_witness(g, "a", "c", (1, 2), path)

    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_path_exists_iff_reachable(self, seed):
        g = random_graph(seed, num_vertices=9, num_edges=25, max_time=8)
        rng = random.Random(seed)
        for _ in range(10):
            u, v = rng.randrange(9), rng.randrange(9)
            t1 = rng.randint(1, 8)
            window = (t1, rng.randint(t1, 8))
            path = span_path(g, u, v, window)
            want = span_reaches_bruteforce(g, u, v, window)
            assert (path is not None) == want
            if path is not None:
                assert path_is_valid_witness(g, u, v, window, path)


class TestThetaPath:
    def test_finds_leftmost_window(self, paper_graph):
        result = theta_path(paper_graph, "v1", "v12", (1, 5), 3)
        assert result is not None
        window, path = result
        assert window == Interval(3, 5)
        assert path_is_valid_witness(paper_graph, "v1", "v12", window, path)

    def test_none_when_infeasible(self, triangle):
        assert theta_path(triangle, "a", "c", (1, 9), 2) is None

    def test_same_vertex_leftmost_trivial(self, triangle):
        window, path = theta_path(triangle, "a", "a", (2, 9), 3)
        assert window == Interval(2, 4)
        assert path == []

    def test_validation(self, triangle):
        with pytest.raises(ValueError):
            theta_path(triangle, "a", "c", (1, 9), 0)
        with pytest.raises(ValueError):
            theta_path(triangle, "a", "c", (1, 2), 5)

    @given(st.integers(0, 150), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_feasible_iff_theta_reachable(self, seed, theta):
        g = random_graph(seed, num_vertices=8, num_edges=22, max_time=8)
        rng = random.Random(seed)
        u, v = rng.randrange(8), rng.randrange(8)
        result = theta_path(g, u, v, (1, 8), theta)
        assert (result is not None) == theta_reaches_bruteforce(
            g, u, v, (1, 8), theta
        )
        if result is not None:
            window, path = result
            assert window.length == theta
            assert path_is_valid_witness(g, u, v, window, path)


class TestWitnessValidation:
    def test_rejects_wrong_endpoints(self, triangle):
        assert not path_is_valid_witness(
            triangle, "a", "c", (1, 9), [("a", "b", 3)]
        )

    def test_rejects_broken_chain(self, triangle):
        assert not path_is_valid_witness(
            triangle, "a", "c", (1, 9), [("a", "b", 3), ("a", "c", 5)]
        )

    def test_rejects_time_outside_window(self, triangle):
        assert not path_is_valid_witness(
            triangle, "a", "c", (4, 5), [("a", "b", 3), ("b", "c", 5)]
        )

    def test_rejects_fabricated_edge(self, triangle):
        assert not path_is_valid_witness(
            triangle, "a", "c", (1, 9), [("a", "c", 4)]
        )

    def test_rejects_empty_for_distinct(self, triangle):
        assert not path_is_valid_witness(triangle, "a", "c", (1, 9), [])


class TestCertificates:
    def test_same_vertex(self, paper_index):
        cert = paper_index.explain("v3", "v3", (1, 1))
        assert cert == {
            "reachable": True, "kind": "same-vertex", "hub": None,
            "out_interval": None, "in_interval": None,
        }

    def test_prefilter_negative(self, paper_index):
        cert = paper_index.explain("v10", "v1", (1, 8))
        assert not cert["reachable"]
        assert cert["kind"] == "prefilter"  # v10 has no out-edges at all

    def test_unreachable_after_prefilters(self, paper_index):
        cert = paper_index.explain("v8", "v10", (4, 8))
        assert not cert["reachable"]
        assert cert["kind"] == "unreachable"

    def test_positive_kinds_are_consistent(self, paper_index):
        for u in ["v1", "v2", "v5", "v6"]:
            for v in ["v3", "v4", "v8", "v12"]:
                for window in [(1, 4), (3, 5), (1, 8)]:
                    cert = paper_index.explain(u, v, window)
                    assert cert["reachable"] == \
                        paper_index.span_reachable(u, v, window)
                    if cert["kind"] == "common-hub":
                        assert cert["hub"] is not None
                        assert cert["out_interval"] is not None
                        assert cert["in_interval"] is not None

    def test_hub_evidence_checks_out(self, paper_index):
        graph = paper_index.graph
        cert = paper_index.explain("v6", "v4", (4, 6))
        assert cert["reachable"]
        if cert["kind"] == "common-hub":
            hub = cert["hub"]
            assert span_reaches_bruteforce(
                graph, "v6", hub, cert["out_interval"]
            )
            assert span_reaches_bruteforce(
                graph, hub, "v4", cert["in_interval"]
            )

    def test_explain_respects_vartheta(self, triangle):
        index = TILLIndex.build(triangle, vartheta=2)
        with pytest.raises(UnsupportedIntervalError) as exc:
            index.explain("a", "c", (1, 9))
        assert str(exc.value) == (
            "query needs interval length 9 but the index was built with "
            "vartheta=2; rebuild with a larger cap or pass fallback='online'"
        )

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_certificate_agrees_with_query(self, seed):
        g = random_graph(seed, num_vertices=9, num_edges=28, max_time=8)
        index = TILLIndex.build(g)
        rng = random.Random(seed)
        for _ in range(10):
            u, v = rng.randrange(9), rng.randrange(9)
            t1 = rng.randint(1, 8)
            window = (t1, rng.randint(t1, 8))
            cert = index.explain(u, v, window)
            assert cert["reachable"] == index.span_reachable(u, v, window)


class TestBatchQueries:
    def test_matches_single_queries(self, paper_index):
        pairs = [("v1", "v8"), ("v1", "v3"), ("v10", "v1"), ("v5", "v4")]
        window = (3, 5)
        batch = paper_index.span_reachable_many(pairs, window)
        singles = [paper_index.span_reachable(u, v, window) for u, v in pairs]
        assert batch == singles

    def test_empty_batch(self, paper_index):
        assert paper_index.span_reachable_many([], (1, 8)) == []

    def test_batch_respects_vartheta(self, triangle):
        index = TILLIndex.build(triangle, vartheta=2)
        with pytest.raises(UnsupportedIntervalError):
            index.span_reachable_many([("a", "b")], (1, 9))


class TestIndexWitnessPath:
    def test_facade_witness_path(self, paper_index):
        path = paper_index.witness_path("v1", "v8", (3, 5))
        assert path is not None
        assert path_is_valid_witness(
            paper_index.graph, "v1", "v8", (3, 5), path
        )

    def test_facade_witness_none(self, paper_index):
        assert paper_index.witness_path("v8", "v10", (4, 8)) is None


class TestThetaCertificates:
    def test_agrees_with_theta_query(self, paper_index):
        for theta in (1, 2, 3, 5):
            for u in ["v1", "v5", "v6"]:
                for v in ["v4", "v8", "v12"]:
                    cert = paper_index.explain_theta(u, v, (1, 8), theta)
                    assert cert["reachable"] == \
                        paper_index.theta_reachable(u, v, (1, 8), theta), (
                            u, v, theta
                        )

    def test_witness_window_is_valid(self, paper_index):
        graph = paper_index.graph
        cert = paper_index.explain_theta("v1", "v12", (1, 5), 3)
        assert cert["reachable"]
        ws, we = cert["window"]
        assert we - ws + 1 == 3
        assert 1 <= ws and we <= 5
        assert span_reaches_bruteforce(graph, "v1", "v12", (ws, we))

    def test_witness_window_is_earliest(self):
        # a->b at 3 and again at 9; theta=1 -> earliest window is [3,3]
        g = TemporalGraph.from_edges([("a", "b", 3), ("a", "b", 9)])
        index = TILLIndex.build(g)
        cert = index.explain_theta("a", "b", (1, 10), 1)
        assert cert["window"] == (3, 3)

    def test_same_vertex_window(self, paper_index):
        cert = paper_index.explain_theta("v2", "v2", (4, 8), 2)
        assert cert == {
            "reachable": True, "kind": "same-vertex", "hub": None,
            "out_interval": None, "in_interval": None, "window": (4, 5),
        }

    def test_negative_kinds(self, paper_index):
        assert paper_index.explain_theta("v10", "v1", (1, 8), 2)["kind"] == \
            "prefilter"
        assert paper_index.explain_theta("v1", "v3", (1, 8), 1)["kind"] == \
            "unreachable"

    def test_validation(self, paper_index):
        from repro import InvalidIntervalError

        with pytest.raises(InvalidIntervalError) as exc:
            paper_index.explain_theta("v1", "v2", (1, 8), 0)
        assert str(exc.value) == "theta must be a positive window length, got 0"
        with pytest.raises(InvalidIntervalError) as exc:
            paper_index.explain_theta("v1", "v2", (1, 2), 5)
        assert str(exc.value) == "query interval [1, 2] is shorter than theta=5"

    @given(st.integers(0, 200), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_certificate_window_property(self, seed, theta):
        g = random_graph(seed, num_vertices=8, num_edges=25, max_time=8)
        index = TILLIndex.build(g)
        rng = random.Random(seed)
        u, v = rng.randrange(8), rng.randrange(8)
        cert = index.explain_theta(u, v, (1, 8), theta)
        assert cert["reachable"] == index.theta_reachable(u, v, (1, 8), theta)
        if cert["reachable"]:
            ws, we = cert["window"]
            assert we - ws + 1 == theta
            assert 1 <= ws and we <= 8
            assert span_reaches_bruteforce(g, u, v, (ws, we))
