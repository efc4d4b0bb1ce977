"""Bounded stress tests: a mid-size dataset pushed through the full
pipeline in one go (build, verify, persist, analyze, stream)."""

import pytest

from repro import TILLIndex
from repro.core.incremental import IncrementalTILLIndex
from repro.core.label_stats import index_anatomy
from repro.datasets import load_dataset
from repro.testing import assert_index_correct
from repro.workloads import make_span_workload


@pytest.fixture(scope="module")
def enron_index():
    return TILLIndex.build(load_dataset("enron"))


class TestMidSizePipeline:
    def test_build_and_verify(self, enron_index):
        assert_index_correct(enron_index, samples=150, theta_samples=25)

    def test_workload_agreement_with_online(self, enron_index):
        from repro.core.online import online_span_reachable
        from repro.core.queries import span_reachable

        graph = enron_index.graph
        workload = make_span_workload(graph, num_pairs=40, seed=3)
        rank, store = enron_index.order.rank, enron_index.flat
        for q in workload:
            ui, vi = graph.index_of(q.u), graph.index_of(q.v)
            assert span_reachable(graph, store, rank, ui, vi, q.interval) \
                == online_span_reachable(graph, ui, vi, q.interval)

    def test_persist_roundtrip(self, enron_index, tmp_path):
        path = tmp_path / "enron.till"
        enron_index.save(path)
        loaded = TILLIndex.load(path, enron_index.graph)
        assert loaded.labels.total_entries() == \
            enron_index.labels.total_entries()
        assert_index_correct(loaded, samples=50)

    def test_anatomy_consistency(self, enron_index):
        anatomy = index_anatomy(enron_index)
        assert anatomy.total_entries == enron_index.labels.total_entries()
        # degree-ordered covers concentrate entries heavily on top hubs
        assert anatomy.hub_concentration(0.1) > 0.3

    def test_streaming_burst(self, enron_index):
        graph = enron_index.graph
        inc = IncrementalTILLIndex(graph, rebuild_threshold=50)
        lo, hi = graph.min_time, graph.max_time
        labels = list(graph.vertices())
        import random

        rng = random.Random(0)
        for i in range(60):  # crosses one rebuild boundary
            u, v = rng.sample(labels, 2)
            inc.add_edge(u, v, rng.randint(lo, hi))
        assert inc.rebuilds >= 1
        # spot-check a few queries against a fresh mirror index
        from repro.graph.temporal_graph import TemporalGraph

        mirror = TemporalGraph(directed=True)
        for label in graph.vertices():
            mirror.add_vertex(label)
        for e in graph.edges():
            mirror.add_edge(*e)
        # replay the same stream deterministically
        rng = random.Random(0)
        for i in range(60):
            u, v = rng.sample(labels, 2)
            mirror.add_edge(u, v, rng.randint(lo, hi))
        fresh = TILLIndex.build(mirror.freeze())
        rng = random.Random(7)
        for _ in range(25):
            u, v = rng.sample(labels, 2)
            a = rng.randint(lo, hi)
            b = rng.randint(a, hi)
            assert inc.span_reachable(u, v, (a, b)) == \
                fresh.span_reachable(u, v, (a, b))
