"""Tests for the public repro.testing module."""

import pytest
from hypothesis import given, settings

from repro import TILLIndex
from repro.testing import (
    assert_index_correct,
    query_windows,
    random_temporal_graph,
    temporal_graphs,
)
from tests.conftest import empty_out_labels


class TestRandomTemporalGraph:
    def test_all_vertices_present(self):
        g = random_temporal_graph(seed=1, num_vertices=9, num_edges=5)
        assert g.num_vertices == 9

    def test_deterministic(self):
        a = random_temporal_graph(seed=4)
        b = random_temporal_graph(seed=4)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_frozen_and_ready(self):
        g = random_temporal_graph(seed=2)
        assert g.frozen


class TestAssertIndexCorrect:
    def test_passes_on_valid_index(self):
        g = random_temporal_graph(seed=3, num_vertices=10, num_edges=30)
        assert_index_correct(TILLIndex.build(g), samples=100, theta_samples=20)

    def test_respects_vartheta(self):
        g = random_temporal_graph(seed=5, num_vertices=10, num_edges=30)
        index = TILLIndex.build(g, vartheta=3)
        assert_index_correct(index, samples=100, theta_samples=20)

    def test_detects_corruption(self):
        g = random_temporal_graph(seed=6, num_vertices=10, num_edges=40)
        index = TILLIndex.build(g)
        empty_out_labels(index)
        with pytest.raises(AssertionError, match="disagrees with oracle"):
            assert_index_correct(index, samples=200)

    def test_trivial_graphs_skip(self):
        g = random_temporal_graph(seed=0, num_vertices=2, num_edges=1)
        assert_index_correct(TILLIndex.build(g), samples=10)


class TestStrategies:
    @given(temporal_graphs(max_vertices=8, max_edges=20, max_time=8))
    @settings(max_examples=25, deadline=None)
    def test_generated_graphs_index_correctly(self, graph):
        assert_index_correct(TILLIndex.build(graph), samples=20)

    @given(temporal_graphs(directed=False, max_vertices=6, max_edges=15))
    @settings(max_examples=10, deadline=None)
    def test_directed_pin(self, graph):
        assert not graph.directed

    @given(query_windows(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_windows_are_valid(self, window):
        start, end = window
        assert 1 <= start <= end <= 20


class TestAssertIndexConsistent:
    def test_passes_on_valid_index(self):
        from repro.testing import assert_index_consistent

        g = random_temporal_graph(seed=5, num_vertices=9, num_edges=28)
        assert_index_consistent(TILLIndex.build(g), samples=40)

    def test_passes_on_capped_index(self):
        from repro.testing import assert_index_consistent

        g = random_temporal_graph(seed=6, num_vertices=9, num_edges=28)
        assert_index_consistent(TILLIndex.build(g, vartheta=3), samples=40)

    def test_detects_invariant_break(self):
        from repro.testing import assert_index_consistent

        g = random_temporal_graph(seed=7, num_vertices=9, num_edges=28)
        index = TILLIndex.build(g)
        label = next(l for l in index.labels.out_labels if l.num_entries)
        label.ends[0] = g.max_time + 3
        with pytest.raises(AssertionError, match="label invariant"):
            assert_index_consistent(index, samples=10)
