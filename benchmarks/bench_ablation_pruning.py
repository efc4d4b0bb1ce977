"""Ablation A2 — Lemma 9/10 query prefilters (DESIGN.md).

Measures Span-Reach batches with the prefilters on and off, under the
paper's filtered workload (checks always pass: pure overhead) and a
fully random workload (checks often fail: the prefilter should win).
"""

import random

import pytest

from repro.core.intervals import Interval
from repro.core.queries import span_reachable

from benchmarks.conftest import get_graph, get_index

DATASET = "enron"


def _random_queries(graph, count, seed=0):
    rng = random.Random(seed)
    n = graph.num_vertices
    lo, hi = graph.min_time, graph.max_time
    out = []
    for _ in range(count):
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        out.append(
            (rng.randrange(n), rng.randrange(n), Interval(min(a, b), max(a, b)))
        )
    return out


@pytest.mark.parametrize("prefilter", [True, False],
                         ids=["prefilter-on", "prefilter-off"])
@pytest.mark.parametrize("regime", ["filtered", "unfiltered"])
def test_prefilter_ablation(benchmark, prefilter, regime):
    graph = get_graph(DATASET)
    index = get_index(DATASET)
    rank, store = index.order.rank, index.flat
    if regime == "filtered":
        from repro.workloads import make_span_workload

        queries = [
            (graph.index_of(q.u), graph.index_of(q.v), q.interval)
            for q in make_span_workload(graph, num_pairs=50, seed=0)
        ]
    else:
        queries = _random_queries(graph, 500)

    def run():
        hits = 0
        for ui, vi, window in queries:
            if span_reachable(
                graph, store, rank, ui, vi, window, prefilter=prefilter
            ):
                hits += 1
        return hits

    hits = benchmark(run)
    benchmark.extra_info["regime"] = regime
    benchmark.extra_info["prefilter"] = prefilter
    benchmark.extra_info["positive"] = hits
