"""Tests for the TILLIndex public facade."""

import pytest

from repro import (
    Interval,
    TemporalGraph,
    TILLIndex,
    InvalidIntervalError,
    IndexBuildError,
    UnknownVertexError,
    UnsupportedIntervalError,
)

from tests.conftest import empty_out_labels, random_graph


class TestBuildOptions:
    def test_default_build(self, triangle):
        index = TILLIndex.build(triangle)
        assert index.method == "optimized"
        assert index.ordering_name == "degree-product"
        assert index.vartheta is None
        assert index.build_seconds > 0

    def test_build_freezes_graph(self):
        g = TemporalGraph()
        g.add_edge("a", "b", 1)
        index = TILLIndex.build(g)
        assert g.frozen
        assert index.span_reachable("a", "b", (1, 1))

    def test_unknown_method_rejected(self, triangle):
        with pytest.raises(IndexBuildError, match="unknown build method"):
            TILLIndex.build(triangle, method="quantum")

    def test_unknown_ordering_rejected(self, triangle):
        with pytest.raises(IndexBuildError, match="unknown ordering"):
            TILLIndex.build(triangle, ordering="by-vibes")

    def test_custom_vertex_order(self, triangle):
        from repro.core.ordering import VertexOrder

        order = VertexOrder([2, 1, 0])
        index = TILLIndex.build(triangle, ordering=order)
        assert index.ordering_name == "custom"
        index.verify(samples=100)

    def test_basic_method(self, triangle):
        index = TILLIndex.build(triangle, method="basic")
        assert index.method == "basic"
        index.verify(samples=100)

    def test_repr(self, triangle):
        index = TILLIndex.build(triangle, vartheta=4)
        assert "vartheta=4" in repr(index)
        assert "vartheta=inf" in repr(TILLIndex.build(triangle))


class TestQueryValidation:
    def test_unknown_vertex(self, paper_index):
        with pytest.raises(UnknownVertexError):
            paper_index.span_reachable("nope", "v1", (1, 2))

    def test_inverted_interval(self, paper_index):
        with pytest.raises(InvalidIntervalError):
            paper_index.span_reachable("v1", "v2", (5, 3))

    def test_theta_zero(self, paper_index):
        with pytest.raises(InvalidIntervalError) as exc:
            paper_index.theta_reachable("v1", "v2", (1, 5), 0)
        assert str(exc.value) == "theta must be a positive window length, got 0"

    def test_theta_longer_than_window(self, paper_index):
        with pytest.raises(InvalidIntervalError) as exc:
            paper_index.theta_reachable("v1", "v2", (1, 3), 5)
        assert str(exc.value) == "query interval [1, 3] is shorter than theta=5"

    def test_unknown_theta_algorithm(self, paper_index):
        with pytest.raises(InvalidIntervalError, match="unknown theta algorithm"):
            paper_index.theta_reachable("v1", "v2", (1, 5), 2, algorithm="psychic")


class TestVarthetaCap:
    def test_wide_window_raises(self, triangle):
        index = TILLIndex.build(triangle, vartheta=2)
        with pytest.raises(UnsupportedIntervalError) as exc:
            index.span_reachable("a", "c", (1, 5))
        assert str(exc.value) == (
            "query needs interval length 5 but the index was built with "
            "vartheta=2; rebuild with a larger cap or pass fallback='online'"
        )

    def test_online_fallback(self, triangle):
        index = TILLIndex.build(triangle, vartheta=2)
        assert index.span_reachable("a", "c", (1, 5), fallback="online")

    def test_theta_within_cap_on_wide_window(self, triangle):
        # theta <= cap is answerable even if the outer window is wider.
        index = TILLIndex.build(triangle, vartheta=3)
        assert index.theta_reachable("a", "c", (1, 9), 3)

    def test_theta_beyond_cap_raises(self, triangle):
        index = TILLIndex.build(triangle, vartheta=2)
        with pytest.raises(UnsupportedIntervalError) as exc:
            index.theta_reachable("a", "c", (1, 9), 3)
        assert str(exc.value) == (
            "query needs interval length 3 but the index was built with "
            "vartheta=2; rebuild with a larger cap or pass fallback='online'"
        )

    def test_batch_wide_window_raises_without_fallback(self, triangle):
        index = TILLIndex.build(triangle, vartheta=2)
        with pytest.raises(UnsupportedIntervalError, match="vartheta=2"):
            index.span_reachable_many([("a", "c")], (1, 5))

    def test_batch_online_fallback_matches_scalar(self):
        g = random_graph(23, num_vertices=9, num_edges=25, max_time=8)
        index = TILLIndex.build(g, vartheta=3)
        pairs = [(u, v) for u in (0, 4, 7) for v in (1, 5, 8)]
        window = (1, 8)  # wider than the cap
        got = index.span_reachable_many(pairs, window, fallback="online")
        want = [
            index.span_reachable(u, v, window, fallback="online")
            for u, v in pairs
        ]
        assert got == want

    def test_batch_fallback_unused_within_cap(self, triangle):
        index = TILLIndex.build(triangle, vartheta=3)
        assert index.span_reachable_many(
            [("a", "c"), ("c", "b")], (3, 5), fallback="online"
        ) == [
            index.span_reachable("a", "c", (3, 5)),
            index.span_reachable("c", "b", (3, 5)),
        ]


class TestIntrospection:
    def test_label_entries_table1_pinned_values(self, paper_index):
        assert paper_index.label_entries("v6")["in"] == [
            ("v1", 2, 2), ("v1", 7, 7)
        ]

    def test_label_entries_undirected_mirrors(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)],
                                     directed=False)
        index = TILLIndex.build(g)
        for v in g.vertices():
            entries = index.label_entries(v)
            assert entries["in"] == entries["out"]

    def test_stats_consistency(self, paper_index):
        stats = paper_index.stats()
        assert stats.num_vertices == 12
        assert stats.num_edges == 15
        assert stats.total_entries == paper_index.labels.total_entries()
        assert stats.max_label_entries >= stats.avg_label_entries
        assert stats.estimated_bytes > 0
        assert stats.as_dict()["method"] == "optimized"

    def test_verify_passes_on_correct_index(self, paper_index):
        paper_index.verify(samples=300)

    def test_verify_catches_corruption(self, paper_index):
        # sabotage: clear all out-labels -> most queries must now disagree
        empty_out_labels(paper_index)
        with pytest.raises(AssertionError, match="disagrees"):
            paper_index.verify(samples=300)

    def test_verify_catches_single_entry_invariant_break(self, paper_index):
        # one entry stretched past the graph lifetime: the structural
        # invariant pass reports it before any query is even sampled
        label = next(
            l for l in paper_index.labels.out_labels if l.num_entries
        )
        label.ends[0] = paper_index.graph.max_time + 7
        with pytest.raises(AssertionError, match="label invariant"):
            paper_index.verify(samples=10)

    def test_verify_exercises_over_cap_windows(self):
        # Historical gap: verify() never sampled windows wider than the
        # build cap, leaving the raise/fallback paths untested.  The
        # harness-backed verify must cover them (and pass).
        g = random_graph(29, num_vertices=9, num_edges=28, max_time=9)
        index = TILLIndex.build(g, vartheta=3)
        index.verify(samples=120)

    def test_verify_covers_theta_and_explain_paths(self, monkeypatch):
        # break one non-default answer path only; verify must notice
        import repro.core.queries as queries

        g = random_graph(31, num_vertices=8, num_edges=24, max_time=7)
        index = TILLIndex.build(g)
        real = queries.theta_reachable_naive

        def broken(graph, labels, rank, ui, vi, window, theta, prefilter=True):
            return not real(graph, labels, rank, ui, vi, window, theta,
                            prefilter=prefilter)

        monkeypatch.setattr(queries, "theta_reachable_naive", broken)
        with pytest.raises(AssertionError, match="disagrees"):
            index.verify(samples=200)


class TestTheta:
    def test_facade_theta_both_algorithms_agree(self, paper_index):
        for theta in (1, 2, 4):
            for u, v in [("v1", "v4"), ("v6", "v4"), ("v2", "v12")]:
                assert paper_index.theta_reachable(u, v, (1, 8), theta) == \
                    paper_index.theta_reachable(
                        u, v, (1, 8), theta, algorithm="naive"
                    )

    def test_theta_equals_window_length_is_span(self):
        g = random_graph(11, num_vertices=10, num_edges=30, max_time=9)
        index = TILLIndex.build(g)
        for u, v in [(0, 5), (2, 8)]:
            window = (2, 6)
            assert index.theta_reachable(u, v, window, 5) == \
                index.span_reachable(u, v, window)
