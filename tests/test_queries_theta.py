"""Tests for θ-reachability query processing (Algorithm 5 + naive)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalGraph, TILLIndex
from repro.core.intervals import Interval
from repro.errors import InvalidIntervalError
from repro.core.queries import theta_reachable, theta_reachable_naive
from repro.graph.projection import theta_reaches_bruteforce

from tests.conftest import random_graph


def _sliding(index, u, v, window, theta):
    g = index.graph
    return theta_reachable(
        g, index.flat, index.order.rank,
        g.index_of(u), g.index_of(v), Interval(*window), theta,
    )


def _naive(index, u, v, window, theta):
    g = index.graph
    return theta_reachable_naive(
        g, index.flat, index.order.rank,
        g.index_of(u), g.index_of(v), Interval(*window), theta,
    )


class TestThetaSemantics:
    def test_example2(self, paper_index):
        assert _sliding(paper_index, "v1", "v12", (1, 5), 3)

    def test_lemma1_theta_implies_span(self, paper_index):
        # theta-reach within I implies span-reach in I (Lemma 1)
        for theta in (1, 2, 3):
            if _sliding(paper_index, "v1", "v12", (1, 5), theta):
                assert paper_index.span_reachable("v1", "v12", (1, 5))

    def test_theta_equal_window_is_span(self, paper_index):
        for u, v in [("v1", "v8"), ("v6", "v4"), ("v10", "v1")]:
            window = (3, 5)
            assert _sliding(paper_index, u, v, window, 3) == \
                paper_index.span_reachable(u, v, window)

    def test_theta_one_is_snapshot_reachability(self, paper_index):
        # theta=1: a single-timestamp path must exist
        assert _sliding(paper_index, "v5", "v8", (1, 8), 1)  # edge at t=4
        assert not _sliding(paper_index, "v1", "v3", (1, 8), 1)

    def test_monotone_in_theta(self, paper_index):
        # larger windows can only help
        hits = [
            _sliding(paper_index, "v1", "v4", (1, 8), theta)
            for theta in range(1, 9)
        ]
        assert hits == sorted(hits)  # False... then True...

    def test_same_vertex(self, paper_index):
        assert _sliding(paper_index, "v9", "v9", (1, 8), 2)


class TestExample9:
    def test_example9_of_paper(self, paper_index):
        # 3-reachability from v6 to v4 in [1, 8] is true in the paper's
        # Example 9 (via a common hub with close intervals).
        assert _sliding(paper_index, "v6", "v4", (1, 8), 3)
        assert _naive(paper_index, "v6", "v4", (1, 8), 3)


class TestNaiveEquivalence:
    @pytest.mark.parametrize("theta", [1, 2, 3, 5, 8])
    def test_naive_matches_sliding_on_paper_graph(self, paper_index, theta):
        vs = ["v1", "v2", "v4", "v5", "v6", "v8", "v10", "v12"]
        for u in vs:
            for v in vs:
                assert _sliding(paper_index, u, v, (1, 8), theta) == \
                    _naive(paper_index, u, v, (1, 8), theta)


class TestThetaAgainstOracle:
    @given(
        st.integers(0, 400),
        st.booleans(),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_three_agree_with_bruteforce(self, seed, directed, u, v, theta):
        g = random_graph(
            seed, num_vertices=9, num_edges=28, max_time=8, directed=directed
        )
        index = TILLIndex.build(g)
        window = (1, 8)
        want = theta_reaches_bruteforce(g, u, v, window, theta)
        assert _sliding(index, u, v, window, theta) == want
        assert _naive(index, u, v, window, theta) == want

    @given(st.integers(0, 200), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_correct_with_vartheta_cap(self, seed, theta, extra):
        g = random_graph(seed, num_vertices=9, num_edges=28, max_time=8)
        cap = theta + extra - 1  # cap >= theta, often barely
        index = TILLIndex.build(g, vartheta=max(theta, cap))
        window = (1, 8)
        for u, v in [(0, 5), (3, 7), (8, 1)]:
            want = theta_reaches_bruteforce(g, u, v, window, theta)
            assert _sliding(index, u, v, window, theta) == want


class TestMalformedWindowRejected:
    """Regression: a window shorter than theta used to fall through the
    empty sliding ``range`` and silently return ``False``; the algorithm
    layer now rejects it exactly like the :class:`TILLIndex` facade."""

    def test_sliding_rejects_window_shorter_than_theta(self, paper_index):
        with pytest.raises(InvalidIntervalError):
            _sliding(paper_index, "v1", "v12", (1, 2), 5)

    def test_naive_rejects_window_shorter_than_theta(self, paper_index):
        with pytest.raises(InvalidIntervalError):
            _naive(paper_index, "v1", "v12", (1, 2), 5)

    def test_bad_theta_rejected(self, paper_index):
        for bad in (0, -3):
            with pytest.raises(InvalidIntervalError):
                _sliding(paper_index, "v1", "v12", (1, 5), bad)
            with pytest.raises(InvalidIntervalError):
                _naive(paper_index, "v1", "v12", (1, 5), bad)

    def test_validation_precedes_same_vertex_shortcut(self, paper_index):
        # u == v answers True for any *valid* query, but a malformed
        # window must still be rejected, matching the facade.
        with pytest.raises(InvalidIntervalError):
            _sliding(paper_index, "v1", "v1", (1, 2), 5)
        with pytest.raises(InvalidIntervalError):
            _naive(paper_index, "v1", "v1", (1, 2), 5)

    def test_window_exactly_theta_is_valid(self, paper_index):
        want = theta_reaches_bruteforce(paper_index.graph, "v1", "v12", (1, 3), 3)
        assert _sliding(paper_index, "v1", "v12", (1, 3), 3) == want
        assert _naive(paper_index, "v1", "v12", (1, 3), 3) == want

    def test_store_naive_rejects_like_facade_naive(self, paper_index):
        """The ``ES-Reach`` baseline over the flat store validates the
        θ-window before its sliding ``range`` — an empty range would
        silently answer ``False`` where the facade raises."""
        g = paper_index.graph
        ui, vi = g.index_of("v1"), g.index_of("v12")
        for window, theta in [((1, 2), 5), ((1, 5), 0), ((1, 5), -3)]:
            with pytest.raises(InvalidIntervalError):
                paper_index.theta_reachable("v1", "v12", window, theta,
                                            algorithm="naive")
            for prefilter in (True, False):
                with pytest.raises(InvalidIntervalError):
                    theta_reachable_naive(
                        g, paper_index.flat, paper_index.order.rank,
                        ui, vi, Interval(*window), theta,
                        prefilter=prefilter,
                    )
        # And on a well-formed query the baseline still answers.
        assert _naive(paper_index, "v1", "v12", (1, 3), 3) == \
            theta_reaches_bruteforce(g, "v1", "v12", (1, 3), 3)
