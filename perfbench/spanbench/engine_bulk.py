"""``engine-bulk``: offline analytic batches through an in-process engine.

A ``QueryEngine`` over the ``flickr`` index (library defaults,
``cache_size=0``) answers batches of ~2000 pairs per window drawn from
a small hot source set, 80% ``span_many`` and 20% ``theta_many``.  The
batch kernels, dedup and the prefilter do the work; the network,
protocol and micro-batcher are not on this path.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Dict, List

from repro.datasets.registry import load_dataset
from repro.serve.engine import QueryEngine

from . import layers
from .common import (
    OUT, WORK, Result, Stopwatch, median, percentile, proc_peak_rss_mb,
    self_cpu_seconds, tail_percentile,
)
from .inputs import Batch, Query, bulk_batches
from .tracing import Tracer

DATASET = "flickr"
#: Distinct batches per run; the measured loop cycles through them.
DISTINCT = 64
SETUP_REPS = 3


def _queries(batch: Batch) -> List[Query]:
    return [Query(u, v, batch.t1, batch.t2, batch.theta)
            for u, v in batch.pairs]


def _call(engine: QueryEngine, batch: Batch) -> List[bool]:
    if batch.theta is None:
        return engine.span_many(batch.pairs, (batch.t1, batch.t2))
    return engine.theta_many(batch.pairs, (batch.t1, batch.t2), batch.theta)


def _pass(engine, batches, want, seconds, result, start=0,
          tracer=None) -> Dict[str, object]:
    """Call the engine on *batches* cyclically for *seconds*; every
    answer is checked.  Returns per-call latencies and totals."""
    latencies: List[float] = []
    queries = 0
    cpu0 = self_cpu_seconds()
    t_end = time.perf_counter() + seconds
    k = start
    while time.perf_counter() < t_end:
        b = k % len(batches)
        t0 = time.perf_counter()
        if tracer is None:
            got = _call(engine, batches[b])
        else:
            with tracer.span("engine", request=k):
                got = _call(engine, batches[b])
        latencies.append(time.perf_counter() - t0)
        queries += len(got)
        result.check(got, want[b], f"batch{b}")
        k += 1
    return {"latencies": latencies, "queries": queries, "calls": k - start,
            "cpu_s": self_cpu_seconds() - cpu0,
            "wall_s": time.perf_counter() - t_end + seconds}


def run(seed: int, seconds: float, traced: bool) -> None:
    result = Result("engine-bulk", seed, traced)
    graph = load_dataset(DATASET)
    batches = bulk_batches(graph, DISTINCT, seed)
    sw = Stopwatch()
    path = str(WORK / "flickr.till")
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _g, built, mapped = layers.index_setup(
            sw, lambda: load_dataset(DATASET, cache=False), path)
        setups.append(time.perf_counter() - t0)
    index_mb = os.path.getsize(path) / 2**20
    backend = mapped.flat_backend
    engine = QueryEngine(mapped, cache_size=0)

    want = [layers.reference_answers(built, _queries(b)) for b in batches]
    sample = [q for b in batches[:8] for q in _queries(b)[::50]]
    layers.oracle_check(result, graph, sample,
                        layers.reference_answers(built, sample), seed)
    for b in range(4):  # warm-up: lazy views, first-call costs
        _call(engine, batches[b])
    engine.reset_stats()
    gc.collect()  # measure without set-up garbage

    details: Dict[str, object] = {"setup_s_reps": setups,
                                  "index_mb": index_mb}
    result.facts.update({
        "dataset": {"name": DATASET, "vertices": graph.num_vertices,
                    "edges": graph.num_edges,
                    "label_entries": built.labels.total_entries()},
        "kernel_backend": {"default": backend}, "cache_size": 0,
        "batch_size": len(batches[0].pairs),
    })
    untraced = _pass(engine, batches, want,
                     seconds / 2 if traced else seconds, result)
    lat = untraced["latencies"]
    p50 = percentile(lat, 50)
    details["calls"] = untraced["calls"]
    if not traced:
        result.set("setup_s", median(setups))
        result.set("throughput_qps", untraced["queries"] / sum(lat))
        result.set("latency_p50_ms", p50 * 1e3)
        result.set("peak_rss_mb", proc_peak_rss_mb(os.getpid()))
        result.set("index_mb", index_mb)
        details["latency_p99_ms"] = percentile(lat, 99) * 1e3
    else:
        engine.reset_stats()
        tracer = Tracer()
        restore = layers.wrap_kernels(tracer, mapped)
        try:
            traced_pass = _pass(engine, batches, want, seconds / 2, result,
                                start=untraced["calls"], tracer=tracer)
        finally:
            restore()
        tracer.write(OUT / "engine-bulk-spans.jsonl")
        per = tracer.per_request_self_us()
        engine_s = sum(s.end - s.start for s in tracer.spans
                       if s.name == "engine")
        kernel_s = sum(s.end - s.start for s in tracer.spans
                       if s.name == "kernel")
        layers.engine_layer(result, engine.stats().as_dict(), engine_s,
                            kernel_s)
        result.set("trace.overhead_pct",
                   (percentile(traced_pass["latencies"], 50) / p50 - 1)
                   * 100)
        result.set("trace.unattributed_us", p50 * 1e6 - sum(per.values()))
        details["budget_us_per_call"] = per
        pct = tail_percentile(len(lat))
        result.set("e2e.latency_p99_ms", percentile(lat, pct) * 1e3)
        details["tail_percentile"] = pct
        result.set("worker.cpu_us_per_request",
                   untraced["cpu_s"] / untraced["queries"] * 1e6)
        result.set("worker.cpu_util", untraced["cpu_s"] / untraced["wall_s"])
        result.set("admission.rejected", 0)

        points = [q for b in batches[:4] for q in _queries(b)]
        spans = [b for b in batches if b.theta is None][:8]
        thetas = [b for b in batches if b.theta is not None][:4]
        layers.kernel_probe(
            result, mapped, points[::7],
            [([(graph.index_of(u), graph.index_of(v)) for u, v in b.pairs],
              b.t1, b.t2, b.theta) for b in spans + thetas], backend)
        lines = [q.line(k) for k, q in enumerate(points)]
        layers.protocol_probe(result, lines,
                              [a for b in range(4) for a in want[b]])
        result.set("batcher.wait_ms", layers.batcher_wait_ms(
            [(q.op, (q.u, q.v), q.t1, q.t2, q.theta) for q in points],
            [len(b.pairs) for b in batches[:4]]))
        layers.report_index(result, sw, built)
        layers.incremental_probe(result, graph, seed=seed)
    engine.close()
    details["engine_stats"] = engine.stats().as_dict()
    details["ru_maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result.emit(details)
