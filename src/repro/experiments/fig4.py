"""Figure 4 — span-reachability query time: Online-Reach vs Span-Reach.

Protocol (paper Section VI-A): 100 random vertex pairs per dataset,
10 Lemma-9/10-filtered random intervals per pair → 1000 queries; report
the total running time of both algorithms on the full batch.

Expected shape: Span-Reach at least two orders of magnitude faster than
Online-Reach on every dataset.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.online import online_span_reachable
from repro.core.queries import span_reachable
from repro.datasets import dataset_names
from repro.experiments.harness import ExperimentResult, prepare_dataset, time_callable
from repro.experiments.report import speedup
from repro.workloads import make_span_workload


def run(
    datasets: Optional[List[str]] = None,
    num_pairs: int = 100,
    intervals_per_pair: int = 10,
    seed: int = 0,
    repeat: int = 3,
) -> ExperimentResult:
    """Measure both query algorithms on every dataset's workload."""
    names = datasets if datasets is not None else dataset_names()
    result = ExperimentResult(
        experiment="Figure 4",
        description=(
            "Span-reachability query processing: total time over "
            f"{num_pairs * intervals_per_pair} queries per dataset"
        ),
    )
    for name in names:
        prepared = prepare_dataset(name)
        graph, index = prepared.graph, prepared.index
        workload = make_span_workload(
            graph, num_pairs=num_pairs, intervals_per_pair=intervals_per_pair,
            seed=seed,
        )
        resolved = [
            (graph.index_of(q.u), graph.index_of(q.v), q.interval)
            for q in workload
        ]
        rank = index.order.rank
        store = index.flat

        def run_online():
            for ui, vi, window in resolved:
                online_span_reachable(graph, ui, vi, window)

        def run_indexed():
            for ui, vi, window in resolved:
                span_reachable(graph, store, rank, ui, vi, window)

        online_s = time_callable(run_online, repeat=repeat)
        span_s = time_callable(run_indexed, repeat=repeat)
        result.add_row(
            Dataset=name,
            queries=len(resolved),
            online_reach_s=online_s,
            span_reach_s=span_s,
            speedup=speedup(online_s, span_s),
        )
    result.note(
        "paper shape check: speedup should be >= ~100x on every dataset "
        "(Fig. 4 reports >= two orders of magnitude)."
    )
    return result
