"""Figure 4 — span-reachability query time, Online-Reach vs Span-Reach.

One benchmark per (dataset, algorithm): the full 1000-query Section
VI-A batch.  The paper's shape: Span-Reach at least two orders of
magnitude faster than Online-Reach on large datasets (the ratio grows
with graph size; at our scaled-down sizes expect one to two orders).
"""

import pytest

from repro.core.online import online_span_reachable
from repro.core.queries import span_reachable

from benchmarks.conftest import LADDER, get_graph, get_index


@pytest.mark.parametrize("dataset", LADDER)
def test_online_reach(benchmark, dataset, span_workloads):
    graph = get_graph(dataset)
    queries = span_workloads[dataset]

    def run():
        hits = 0
        for ui, vi, window in queries:
            if online_span_reachable(graph, ui, vi, window):
                hits += 1
        return hits

    hits = benchmark(run)
    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["positive"] = hits


@pytest.mark.parametrize("dataset", LADDER)
def test_span_reach(benchmark, dataset, span_workloads):
    graph = get_graph(dataset)
    index = get_index(dataset)
    rank, store = index.order.rank, index.flat
    queries = span_workloads[dataset]

    def run():
        hits = 0
        for ui, vi, window in queries:
            if span_reachable(graph, store, rank, ui, vi, window):
                hits += 1
        return hits

    hits = benchmark(run)
    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["positive"] = hits


@pytest.mark.parametrize("dataset", LADDER)
def test_answers_agree(dataset, span_workloads):
    """Not a timing: the two algorithms must return identical answers
    on the benchmark workload (guards the comparison's validity)."""
    graph = get_graph(dataset)
    index = get_index(dataset)
    rank, store = index.order.rank, index.flat
    for ui, vi, window in span_workloads[dataset][:200]:
        assert online_span_reachable(graph, ui, vi, window) == \
            span_reachable(graph, store, rank, ui, vi, window)
