"""Ablation A2 — the query prefilters of Lemma 9/10 (DESIGN.md).

Algorithm 4 short-circuits to ``False`` when the source lacks an
out-edge — or the target an in-edge — inside the query window.  The
paper's workload deliberately keeps only queries that *pass* these
checks (so Fig. 4 measures label scanning, not prefiltering).  This
ablation measures both regimes:

* ``filtered`` — the paper's workload (prefilters always pass): the
  checks are pure overhead here, so on/off should be nearly identical;
* ``unfiltered`` — fully random intervals: many queries die at the
  prefilter, so enabling it should visibly win.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.intervals import Interval
from repro.core.queries import span_reachable
from repro.experiments.harness import ExperimentResult, prepare_dataset, time_callable
from repro.experiments.report import speedup
from repro.workloads import make_span_workload

DEFAULT_DATASETS: Sequence[str] = ("chess", "enron", "dblp")


def _random_queries(graph, count: int, seed: int):
    rng = random.Random(seed)
    lo, hi = graph.min_time, graph.max_time
    n = graph.num_vertices
    out = []
    for _ in range(count):
        ui, vi = rng.randrange(n), rng.randrange(n)
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        out.append((ui, vi, Interval(min(a, b), max(a, b))))
    return out


def run(
    datasets: Optional[List[str]] = None,
    num_queries: int = 500,
    seed: int = 0,
    repeat: int = 3,
) -> ExperimentResult:
    names = datasets if datasets is not None else list(DEFAULT_DATASETS)
    result = ExperimentResult(
        experiment="Ablation A2",
        description="Lemma 9/10 query prefilters on/off, two workload regimes",
    )
    for name in names:
        prepared = prepare_dataset(name)
        graph, index = prepared.graph, prepared.index
        rank, store = index.order.rank, index.flat
        filtered = [
            (graph.index_of(q.u), graph.index_of(q.v), q.interval)
            for q in make_span_workload(
                graph, num_pairs=max(1, num_queries // 10), seed=seed
            )
        ]
        unfiltered = _random_queries(graph, num_queries, seed)
        for regime, queries in (("filtered", filtered), ("unfiltered", unfiltered)):

            def run_with(prefilter: bool):
                for ui, vi, window in queries:
                    span_reachable(
                        graph, store, rank, ui, vi, window, prefilter=prefilter
                    )

            on_s = time_callable(lambda: run_with(True), repeat=repeat)
            off_s = time_callable(lambda: run_with(False), repeat=repeat)
            result.add_row(
                Dataset=name,
                regime=regime,
                queries=len(queries),
                prefilter_on_s=on_s,
                prefilter_off_s=off_s,
                speedup=speedup(off_s, on_s),
            )
    result.note(
        "design-choice check: prefilters pay off on unfiltered workloads "
        "and cost almost nothing on the paper's filtered workload."
    )
    return result
