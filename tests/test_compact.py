"""Tests for the compact label storage every index carries: the
constructor packs the built labels into typed-array flat buffers once,
and every query answers from them."""

from array import array

import pytest

from repro import TemporalGraph, TILLIndex
from repro.core.flatstore import FlatTILLStore
from repro.graph.projection import (
    span_reaches_bruteforce,
    theta_reaches_bruteforce,
)

from tests.conftest import random_graph


class TestCompact:
    def test_compact_preserves_all_answers(self):
        g = random_graph(13, num_vertices=12, num_edges=40, max_time=10)
        index = TILLIndex.build(g)
        for u in range(0, 12, 2):
            for v in range(1, 12, 2):
                for w in [(1, 4), (3, 8), (5, 5), (1, 10)]:
                    assert index.span_reachable(u, v, w) == \
                        span_reaches_bruteforce(g, u, v, w)

    def test_flatten_returns_self(self):
        g = random_graph(0, num_vertices=6, num_edges=15)
        index = TILLIndex.build(g)
        store = index.flat
        assert index.flatten() is index
        assert index.flat is store  # already flat: nothing rebuilt

    def test_arrays_are_typed_after_compaction(self):
        g = random_graph(1, num_vertices=8, num_edges=20)
        index = TILLIndex.build(g)
        assert isinstance(index.flat.out.starts, array)
        label = index.labels.out_labels[0]
        assert isinstance(label.hub_ranks, array)
        assert isinstance(label.starts, array)

    def test_theta_queries_after_compaction(self):
        g = random_graph(2, num_vertices=10, num_edges=30, max_time=8)
        index = TILLIndex.build(g)
        for u in (0, 3):
            for v in (5, 7):
                for theta in (1, 3):
                    assert index.theta_reachable(u, v, (1, 8), theta) == \
                        theta_reaches_bruteforce(g, u, v, (1, 8), theta)

    def test_compact_requires_finalized(self):
        from repro.core.labels import TILLLabels

        labels = TILLLabels(1, directed=True)
        labels.out_labels[0].append(0, 1, 2)
        with pytest.raises(AssertionError):
            FlatTILLStore.from_labels(labels)
        labels.finalize()
        FlatTILLStore.from_labels(labels)  # fine now

    def test_save_load_after_compaction(self, tmp_path):
        g = random_graph(3, num_vertices=8, num_edges=20)
        index = TILLIndex.build(g)
        path = tmp_path / "c.till"
        index.save(path)
        loaded = TILLIndex.load(path, g)
        loaded.verify(samples=200)

    def test_verify_after_compaction(self, paper_graph):
        index = TILLIndex.build(paper_graph)
        index.verify(samples=300)

    def test_negative_times_survive_compaction(self):
        g = TemporalGraph.from_edges([("a", "b", -100), ("b", "c", -50)])
        index = TILLIndex.build(g)
        assert index.span_reachable("a", "c", (-100, -50))
        assert not index.span_reachable("a", "c", (-99, -50))
