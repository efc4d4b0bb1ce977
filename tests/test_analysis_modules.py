"""Tests for index anatomy, temporal metrics and query profiling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalGraph, TILLIndex
from repro.core.label_stats import anatomy_report, index_anatomy
from repro.core.profiling import (
    QueryProfile,
    profile_span_query,
    profile_workload,
)
from repro.errors import GraphError
from repro.graph import generators, metrics

from tests.conftest import random_graph


class TestIndexAnatomy:
    def test_entry_accounting(self, paper_index):
        anatomy = index_anatomy(paper_index)
        assert anatomy.total_entries == paper_index.labels.total_entries()
        assert sum(anatomy.per_vertex_entries) == anatomy.total_entries
        assert sum(anatomy.hub_occupancy.values()) == anatomy.total_entries
        assert sum(anatomy.interval_length_counts.values()) == \
            anatomy.total_entries

    def test_lengths_positive(self, paper_index):
        anatomy = index_anatomy(paper_index)
        assert all(length >= 1 for length in anatomy.interval_length_counts)

    def test_median_interval_length(self):
        g = random_graph(3, num_vertices=12, num_edges=40, max_time=10)
        index = TILLIndex.build(g)
        anatomy = index_anatomy(index)
        flat = sorted(
            length
            for length, count in anatomy.interval_length_counts.items()
            for _ in range(count)
        )
        assert anatomy.median_interval_length == flat[(len(flat) - 1) // 2]

    def test_vartheta_bounds_lengths(self):
        g = random_graph(5, num_vertices=12, num_edges=40, max_time=12)
        anatomy = index_anatomy(TILLIndex.build(g, vartheta=3))
        assert max(anatomy.interval_length_counts) <= 3

    def test_hub_concentration_degree_vs_random(self):
        g = generators.preferential_attachment_temporal_graph(
            300, 1200, 80, seed=1
        )
        smart = index_anatomy(TILLIndex.build(g))
        dumb = index_anatomy(TILLIndex.build(g, ordering="random"))
        assert smart.hub_concentration(0.1) > dumb.hub_concentration(0.1)

    def test_top_hubs_sorted(self, paper_index):
        anatomy = index_anatomy(paper_index)
        top = anatomy.top_hubs(5)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)

    def test_empty_index_defaults(self):
        g = TemporalGraph(directed=True)
        g.add_vertex("a")
        g.freeze()
        anatomy = index_anatomy(TILLIndex.build(g))
        assert anatomy.total_entries == 0
        assert anatomy.median_interval_length == 0
        assert anatomy.hub_concentration() == 0.0
        assert anatomy.mean_vertex_entries == 0.0

    def test_report_renders(self, paper_index):
        text = anatomy_report(paper_index)
        assert "index anatomy" in text
        assert "top hubs" in text

    def test_anatomy_after_compaction(self, paper_graph, tmp_path):
        # A built index and its zero-copy mapped copy hold the same
        # compact flat store, so their anatomies agree.
        built = TILLIndex.build(paper_graph)
        built.save(tmp_path / "p.till")
        plain = index_anatomy(built)
        compact = index_anatomy(
            TILLIndex.load(tmp_path / "p.till", paper_graph, mmap=True)
        )
        assert plain.total_entries == compact.total_entries
        assert plain.hub_occupancy == compact.hub_occupancy


class TestTimestampHistogram:
    def test_counts_sum_to_edges(self, paper_graph):
        hist = metrics.timestamp_histogram(paper_graph, buckets=4)
        assert sum(count for _, _, count in hist) == paper_graph.num_edges

    def test_buckets_cover_lifetime(self, paper_graph):
        hist = metrics.timestamp_histogram(paper_graph, buckets=4)
        assert hist[0][0] == paper_graph.min_time
        assert hist[-1][1] == paper_graph.max_time

    def test_single_bucket(self, paper_graph):
        hist = metrics.timestamp_histogram(paper_graph, buckets=1)
        assert len(hist) == 1
        assert hist[0][2] == paper_graph.num_edges

    def test_empty_graph(self):
        assert metrics.timestamp_histogram(TemporalGraph()) == []

    def test_invalid_buckets(self, paper_graph):
        with pytest.raises(GraphError):
            metrics.timestamp_histogram(paper_graph, buckets=0)


class TestBurstiness:
    def test_periodic_sequence_negative(self):
        g = TemporalGraph.from_edges(
            [("a", "b", t) for t in range(0, 100, 10)]
        )
        assert metrics.burstiness(g) < -0.5

    def test_bursty_sequence_positive(self):
        times = [1, 1, 1, 2, 2, 500, 501, 501, 1000, 1000, 1000, 1001]
        g = TemporalGraph.from_edges([("a", "b", t) for t in times])
        assert metrics.burstiness(g) > 0.3

    def test_degenerate_cases(self):
        assert metrics.burstiness(TemporalGraph()) == 0.0
        g = TemporalGraph.from_edges([("a", "b", 1)])
        assert metrics.burstiness(g) == 0.0

    def test_cascade_more_bursty_than_uniform(self):
        uni = generators.uniform_temporal_graph(100, 800, 1000, seed=3)
        casc = generators.cascade_temporal_graph(100, 800, 1000, seed=3)
        assert metrics.burstiness(casc) > metrics.burstiness(uni)

    def test_inter_event_times_sorted_gaps(self):
        g = TemporalGraph.from_edges(
            [("a", "b", 5), ("b", "c", 1), ("c", "a", 9)]
        )
        assert metrics.inter_event_times(g) == [4, 4]


class TestDegreeDistribution:
    def test_total_counts_all_vertices(self, paper_graph):
        dist = metrics.degree_distribution(paper_graph)
        assert sum(dist.values()) == paper_graph.num_vertices

    def test_directions_differ(self):
        g = TemporalGraph.from_edges([("hub", x, 1) for x in "abcde"])
        out_dist = metrics.degree_distribution(g, "out")
        in_dist = metrics.degree_distribution(g, "in")
        assert out_dist[5] == 1  # the hub
        assert in_dist[1] == 5   # the leaves

    def test_invalid_direction(self, paper_graph):
        with pytest.raises(GraphError):
            metrics.degree_distribution(paper_graph, "diagonal")


class TestActivitySpanAndDensity:
    def test_activity_span(self):
        g = TemporalGraph.from_edges([("a", "b", 3), ("b", "c", 7)])
        spans = metrics.activity_span(g)
        assert spans["a"] == (3, 3)
        assert spans["b"] == (3, 7)
        assert spans["c"] == (7, 7)

    def test_isolated_vertices_omitted(self):
        g = TemporalGraph()
        g.add_vertex("ghost")
        g.add_edge("a", "b", 1)
        assert "ghost" not in metrics.activity_span(g)

    def test_temporal_density(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "a", 2)])
        assert metrics.temporal_density(g) == pytest.approx(2 / (2 * 2))

    def test_density_empty(self):
        assert metrics.temporal_density(TemporalGraph()) == 0.0


class TestProfiling:
    def test_profiled_answers_match_production(self):
        g = random_graph(17, num_vertices=12, num_edges=40, max_time=10)
        index = TILLIndex.build(g)
        rng = random.Random(17)
        for _ in range(60):
            u, v = rng.randrange(12), rng.randrange(12)
            t1 = rng.randint(1, 10)
            window = (t1, rng.randint(t1, 10))
            profile = profile_span_query(index, u, v, window)
            assert profile.answer == index.span_reachable(u, v, window)

    def test_outcome_same_vertex(self, paper_index):
        profile = profile_span_query(paper_index, "v3", "v3", (1, 1))
        assert profile.outcome == "same-vertex"
        assert profile.hubs_compared == 0

    def test_outcome_prefilter(self, paper_index):
        profile = profile_span_query(paper_index, "v10", "v1", (1, 8))
        assert profile.outcome == "prefilter"
        assert not profile.answer

    def test_prefilter_disabled_changes_outcome(self, paper_index):
        profile = profile_span_query(
            paper_index, "v10", "v1", (1, 8), prefilter=False
        )
        assert profile.outcome == "unreachable"
        assert not profile.answer

    def test_label_entry_counters(self, paper_index):
        profile = profile_span_query(paper_index, "v6", "v4", (4, 6))
        ui = paper_index.graph.index_of("v6")
        vi = paper_index.graph.index_of("v4")
        assert profile.out_label_entries == \
            paper_index.labels.out_labels[ui].num_entries
        assert profile.in_label_entries == \
            paper_index.labels.in_labels[vi].num_entries

    def test_workload_aggregation(self, paper_index):
        queries = [
            ("v1", "v8", (3, 5)),
            ("v10", "v1", (1, 8)),
            ("v2", "v2", (1, 1)),
        ]
        aggregate = profile_workload(paper_index, queries)
        assert aggregate.queries == 3
        assert aggregate.positive == 2
        assert aggregate.outcomes["prefilter"] == 1
        assert aggregate.outcomes["same-vertex"] == 1
        assert aggregate.mean_hubs_compared >= 0

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_profiled_matches_production_property(self, seed):
        g = random_graph(seed, num_vertices=9, num_edges=25, max_time=8)
        index = TILLIndex.build(g)
        rng = random.Random(seed)
        u, v = rng.randrange(9), rng.randrange(9)
        t1 = rng.randint(1, 8)
        window = (t1, rng.randint(t1, 8))
        assert profile_span_query(index, u, v, window).answer == \
            index.span_reachable(u, v, window)
