"""Micro-benchmarks of the core primitives.

Not a paper artefact — these isolate the inner loops the figures are
built from so performance regressions are attributable: skyline
insertion (SRT search), single-query label merge (Algorithm 4), the
two-pointer θ pass (Algorithm 5), and the Lemma 9/10 prefilter.
"""

import random

import pytest

from repro.core.intervals import Interval, SkylineSet
from repro.core.queries import span_reachable, theta_reachable

from benchmarks.conftest import get_graph, get_index

DATASET = "enron"


def test_skyline_insertion(benchmark):
    rng = random.Random(0)
    items = [
        (s, s + rng.randint(0, 40))
        for s in (rng.randint(0, 500) for _ in range(2000))
    ]

    def run():
        sky = SkylineSet()
        for item in items:
            sky.add(item)
        return len(sky)

    benchmark(run)


def test_single_span_query_latency(benchmark):
    graph = get_graph(DATASET)
    index = get_index(DATASET)
    rank, store = index.order.rank, index.flat
    rng = random.Random(1)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
    window = Interval(graph.min_time, graph.max_time)

    def run():
        hits = 0
        for ui, vi in pairs:
            if span_reachable(graph, store, rank, ui, vi, window):
                hits += 1
        return hits

    benchmark(run)


def test_single_theta_query_latency(benchmark):
    graph = get_graph(DATASET)
    index = get_index(DATASET)
    rank, store = index.order.rank, index.flat
    rng = random.Random(2)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
    window = Interval(graph.min_time, graph.max_time)
    theta = max(1, graph.lifetime // 10)

    def run():
        hits = 0
        for ui, vi in pairs:
            if theta_reachable(graph, store, rank, ui, vi, window, theta):
                hits += 1
        return hits

    benchmark(run)


def test_prefilter_check(benchmark):
    graph = get_graph(DATASET)
    rng = random.Random(3)
    n = graph.num_vertices
    lo, hi = graph.min_time, graph.max_time
    probes = [
        (rng.randrange(n), rng.randint(lo, hi), rng.randint(lo, hi))
        for _ in range(2000)
    ]

    def run():
        hits = 0
        for ui, a, b in probes:
            if graph.has_out_edge_in(ui, min(a, b), max(a, b)):
                hits += 1
        return hits

    benchmark(run)
