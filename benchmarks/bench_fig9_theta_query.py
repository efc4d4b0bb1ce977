"""Figure 9 — θ-reachability query time, ES-Reach vs ES-Reach*.

Batches of Section VI-C queries per (representative dataset, θ
fraction).  Paper shape: ES-Reach* at or below ES-Reach for every
fraction, the two converging as θ approaches the interval length.
"""

import pytest

from repro.core.queries import theta_reachable, theta_reachable_naive
from repro.datasets import REPRESENTATIVE

from benchmarks.conftest import get_graph, get_index

FRACTIONS = [0.1, 0.5, 0.9]


@pytest.mark.parametrize("dataset", REPRESENTATIVE)
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_es_reach_naive(benchmark, dataset, fraction, theta_workloads):
    graph = get_graph(dataset)
    index = get_index(dataset)
    rank, store = index.order.rank, index.flat
    queries = theta_workloads[dataset][fraction]

    def run():
        hits = 0
        for ui, vi, window, theta in queries:
            if theta_reachable_naive(graph, store, rank, ui, vi, window, theta):
                hits += 1
        return hits

    hits = benchmark(run)
    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["theta_fraction"] = fraction
    benchmark.extra_info["positive"] = hits


@pytest.mark.parametrize("dataset", REPRESENTATIVE)
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_es_reach_star(benchmark, dataset, fraction, theta_workloads):
    graph = get_graph(dataset)
    index = get_index(dataset)
    rank, store = index.order.rank, index.flat
    queries = theta_workloads[dataset][fraction]

    def run():
        hits = 0
        for ui, vi, window, theta in queries:
            if theta_reachable(graph, store, rank, ui, vi, window, theta):
                hits += 1
        return hits

    hits = benchmark(run)
    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["theta_fraction"] = fraction
    benchmark.extra_info["positive"] = hits


@pytest.mark.parametrize("dataset", REPRESENTATIVE)
def test_answers_agree(dataset, theta_workloads):
    """Validity guard: both θ algorithms answer identically."""
    graph = get_graph(dataset)
    index = get_index(dataset)
    rank, store = index.order.rank, index.flat
    for fraction, queries in theta_workloads[dataset].items():
        for ui, vi, window, theta in queries[:100]:
            assert theta_reachable(graph, store, rank, ui, vi, window, theta) \
                == theta_reachable_naive(
                    graph, store, rank, ui, vi, window, theta
                )
