"""Ablation A1 — vertex-ordering strategies (DESIGN.md).

Section IV-A adopts the ``(deg_out + 1) * (deg_in + 1)`` importance
heuristic without ablating it.  This experiment quantifies the choice:
index size, construction time and batch query time for each ordering
strategy on a set of datasets.

Expected shape: degree-product and degree-sum produce the smallest and
fastest indexes; random/identity inflate label sizes substantially on
the skewed-degree datasets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.index import TILLIndex
from repro.core.queries import span_reachable
from repro.datasets import load_dataset
from repro.experiments.harness import ExperimentResult, time_callable
from repro.workloads import make_span_workload

DEFAULT_DATASETS: Sequence[str] = ("chess", "college-msg", "enron")
DEFAULT_STRATEGIES: Sequence[str] = (
    "degree-product", "degree-sum", "out-degree", "random", "identity",
)


def run(
    datasets: Optional[List[str]] = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    num_pairs: int = 50,
    seed: int = 0,
    repeat: int = 3,
) -> ExperimentResult:
    names = datasets if datasets is not None else list(DEFAULT_DATASETS)
    result = ExperimentResult(
        experiment="Ablation A1",
        description="Vertex-ordering strategies vs index size and speed",
    )
    for name in names:
        graph = load_dataset(name)
        workload = make_span_workload(graph, num_pairs=num_pairs, seed=seed)
        resolved = [
            (graph.index_of(q.u), graph.index_of(q.v), q.interval)
            for q in workload
        ]
        for strategy in strategies:
            index = TILLIndex.build(graph, ordering=strategy)
            rank = index.order.rank
            store = index.flat

            def run_queries():
                for ui, vi, window in resolved:
                    span_reachable(graph, store, rank, ui, vi, window)

            query_s = time_callable(run_queries, repeat=repeat)
            stats = index.stats()
            result.add_row(
                Dataset=name,
                ordering=strategy,
                build_s=stats.build_seconds,
                index_entries=stats.total_entries,
                query_batch_s=query_s,
            )
    result.note(
        "design-choice check: the paper's degree-product order should "
        "give the smallest index and the fastest queries on skewed graphs."
    )
    return result
