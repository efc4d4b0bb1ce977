"""Figure 9 — θ-reachability query time: ES-Reach vs ES-Reach*.

Section VI-C's protocol on the four representative datasets: the
Fig. 4 workload's vertex pairs and intervals, with θ set to 10%–90% of
each interval's length; total batch time of the naive per-window sweep
(ES-Reach) against the sliding-window Algorithm 5 (ES-Reach*).

Expected shape: ES-Reach* at or below ES-Reach at every fraction, the
gap narrowing as θ approaches the interval length (at θ = |I| the two
algorithms coincide), and ES-Reach* roughly flat-to-downward.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.queries import theta_reachable, theta_reachable_naive
from repro.datasets import REPRESENTATIVE
from repro.experiments.harness import ExperimentResult, prepare_dataset, time_callable
from repro.experiments.report import speedup
from repro.workloads import make_theta_workload

DEFAULT_FRACTIONS: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)


def run(
    datasets: Optional[List[str]] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    num_pairs: int = 100,
    intervals_per_pair: int = 10,
    seed: int = 0,
    repeat: int = 3,
) -> ExperimentResult:
    names = datasets if datasets is not None else list(REPRESENTATIVE)
    result = ExperimentResult(
        experiment="Figure 9",
        description="Theta-reachability query processing, naive vs sliding window",
    )
    for name in names:
        prepared = prepare_dataset(name)
        graph, index = prepared.graph, prepared.index
        rank = index.order.rank
        store = index.flat
        for fraction in fractions:
            workload = make_theta_workload(
                graph, fraction, num_pairs=num_pairs,
                intervals_per_pair=intervals_per_pair, seed=seed,
            )
            resolved = [
                (graph.index_of(q.u), graph.index_of(q.v), q.interval, q.theta)
                for q in workload
            ]

            def run_naive():
                for ui, vi, window, theta in resolved:
                    theta_reachable_naive(graph, store, rank, ui, vi, window, theta)

            def run_sliding():
                for ui, vi, window, theta in resolved:
                    theta_reachable(graph, store, rank, ui, vi, window, theta)

            naive_s = time_callable(run_naive, repeat=repeat)
            sliding_s = time_callable(run_sliding, repeat=repeat)
            result.add_row(
                Dataset=name,
                theta_fraction=fraction,
                es_reach_s=naive_s,
                es_reach_star_s=sliding_s,
                speedup=speedup(naive_s, sliding_s),
            )
    result.note(
        "paper shape check: ES-Reach* <= ES-Reach everywhere, converging "
        "as the fraction approaches 1."
    )
    return result
