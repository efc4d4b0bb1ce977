"""Extension experiment A3 — streaming maintenance cost.

The paper's conclusion calls for an incremental construction algorithm
for streaming edges.  This experiment quantifies the delta-buffer
design of :class:`repro.core.incremental.IncrementalTILLIndex` against
the two naive policies on a replayed edge stream with interleaved
queries.  The stream is the graph's last edges in time order, the case
of the paper's closing remark: each rebuild of the incremental index
then folds the buffer into the label and keeps every entry that ends
before it.  Policies:

* ``rebuild-per-edge`` — rebuild the full index after every arrival
  (the correctness ceiling, cost floor for query time);
* ``online-only``      — never index; answer every query with
  Algorithm 1;
* ``incremental``      — the delta-buffer index with a rebuild
  threshold.

Reported per policy: total maintenance time (ingest + rebuilds), total
query time, end-to-end wall time, and rebuilds (of which folds).
Expected shape: incremental's end-to-end cost sits well below
rebuild-per-edge while keeping query latency near the indexed floor.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Tuple

from repro.core.incremental import IncrementalTILLIndex
from repro.core.index import TILLIndex
from repro.core.online import online_span_reachable
from repro.datasets import load_dataset
from repro.experiments.harness import ExperimentResult
from repro.graph.temporal_graph import TemporalGraph


def _make_stream(
    graph: TemporalGraph, num_stream: int
) -> Tuple[TemporalGraph, List]:
    """Split *graph*'s edges by time into a bootstrap graph and a replay
    stream of its last *num_stream* edges, in time order."""
    edges = sorted(graph.edges(), key=lambda e: e[2])
    split = max(1, len(edges) - num_stream)
    base = TemporalGraph(directed=graph.directed)
    for label in graph.vertices():
        base.add_vertex(label)
    for u, v, t in edges[:split]:
        base.add_edge(u, v, t)
    return base.freeze(), edges[split:]


def _make_queries(graph: TemporalGraph, count: int, seed: int):
    rng = random.Random(seed + 1)
    labels = list(graph.vertices())
    lo, hi = graph.min_time, graph.max_time
    out = []
    for _ in range(count):
        u, v = rng.sample(labels, 2)
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        out.append((u, v, (min(a, b), max(a, b))))
    return out


def run(
    datasets: Optional[List[str]] = None,
    num_stream: int = 200,
    queries_per_batch: int = 5,
    batch_every: int = 20,
    rebuild_threshold: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    names = datasets if datasets is not None else ["chess", "college-msg"]
    result = ExperimentResult(
        experiment="Extension A3",
        description=(
            "Streaming maintenance: incremental delta-buffer index vs "
            "rebuild-per-edge vs online-only"
        ),
    )
    for name in names:
        full = load_dataset(name)
        base, stream = _make_stream(full, num_stream)
        queries = _make_queries(full, queries_per_batch, seed)

        # Policy 1: incremental.
        t0 = time.perf_counter()
        inc = IncrementalTILLIndex(base, rebuild_threshold=rebuild_threshold)
        maintain = time.perf_counter() - t0
        query_time = 0.0
        for i, (u, v, t) in enumerate(stream, 1):
            t0 = time.perf_counter()
            inc.add_edge(u, v, t)
            maintain += time.perf_counter() - t0
            if i % batch_every == 0:
                t0 = time.perf_counter()
                for qu, qv, window in queries:
                    inc.span_reachable(qu, qv, window)
                query_time += time.perf_counter() - t0
        result.add_row(
            Dataset=name, policy="incremental",
            maintain_s=maintain, query_s=query_time,
            total_s=maintain + query_time, rebuilds=inc.rebuilds,
            folds=inc.folds,
        )

        # Policy 2: rebuild the full index on every arrival.
        mirror = base.copy(freeze=False)
        t0 = time.perf_counter()
        index = TILLIndex.build(base.copy())
        maintain = time.perf_counter() - t0
        query_time = 0.0
        for i, (u, v, t) in enumerate(stream, 1):
            t0 = time.perf_counter()
            mirror.add_edge(u, v, t)
            index = TILLIndex.build(mirror.copy())
            maintain += time.perf_counter() - t0
            if i % batch_every == 0:
                t0 = time.perf_counter()
                for qu, qv, window in queries:
                    index.span_reachable(qu, qv, window)
                query_time += time.perf_counter() - t0
        result.add_row(
            Dataset=name, policy="rebuild-per-edge",
            maintain_s=maintain, query_s=query_time,
            total_s=maintain + query_time, rebuilds=len(stream), folds=0,
        )

        # Policy 3: never index.
        mirror = base.copy(freeze=False)
        maintain = 0.0
        query_time = 0.0
        for i, (u, v, t) in enumerate(stream, 1):
            t0 = time.perf_counter()
            mirror.add_edge(u, v, t)
            maintain += time.perf_counter() - t0
            if i % batch_every == 0:
                snapshot = mirror.copy()
                t0 = time.perf_counter()
                for qu, qv, window in queries:
                    online_span_reachable(
                        snapshot, snapshot.index_of(qu),
                        snapshot.index_of(qv), window,
                    )
                query_time += time.perf_counter() - t0
        result.add_row(
            Dataset=name, policy="online-only",
            maintain_s=maintain, query_s=query_time,
            total_s=maintain + query_time, rebuilds=0, folds=0,
        )
    result.note(
        "shape check: incremental total cost well below rebuild-per-edge; "
        "query time near the indexed floor."
    )
    return result
