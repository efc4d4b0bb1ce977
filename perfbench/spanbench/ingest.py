"""``ingest``: streamed edges beside point queries on an incremental index.

The base ``IncrementalTILLIndex`` holds the first 80% of ``email-eu``'s
edges by timestamp; the remaining edges are streamed in time order, and
after each edge a fixed number of span point queries run through a
cached ``QueryEngine``.  Every mutation bumps the cache generation and
every 256 edges a full rebuild stalls the writer, so a change that
speeds reads by slowing updates, or the reverse, shows here.

Every answer is checked against a breadth-first search over the live
edge set computed during set-up, and a seeded sample of those against
``span_reaches_bruteforce`` on the materialized live graph.
"""

from __future__ import annotations

import gc
import os
import random
import time
from collections import deque
from typing import Dict, List, Sequence

from repro.core.incremental import IncrementalTILLIndex
from repro.core.index import TILLIndex
from repro.datasets.registry import load_dataset
from repro.graph.projection import span_reaches_bruteforce
from repro.serve.engine import QueryEngine

from . import layers
from .common import (
    OUT, WORK, Result, Stopwatch, median, percentile, proc_peak_rss_mb,
    self_cpu_seconds, tail_percentile,
)
from .inputs import Query, ingest_queries, split_by_time
from .tracing import Tracer

DATASET = "email-eu"
STREAM_SHARE = 0.2
PER_EDGE = 4
SETUP_REPS = 3
ORACLE_SAMPLE = 20


def live_answers(graph, base: Sequence[tuple], stream: Sequence[tuple],
                 qs: Sequence[Sequence[Query]]) -> List[List[bool]]:
    """Span answers on the live edge set after each streamed edge, by
    breadth-first search over the edges inside each query's window."""
    adj: Dict[object, List[tuple]] = {}

    def add(u, v, t):
        adj.setdefault(u, []).append((v, t))
        if not graph.directed:
            adj.setdefault(v, []).append((u, t))

    for edge in base:
        add(*edge)
    out = []
    for edge, batch in zip(stream, qs):
        add(*edge)
        answers = []
        for q in batch:
            seen = {q.u}
            todo = deque([q.u])
            found = q.u == q.v
            while todo and not found:
                for y, t in adj.get(todo.popleft(), ()):
                    if q.t1 <= t <= q.t2 and y not in seen:
                        if y == q.v:
                            found = True
                            break
                        seen.add(y)
                        todo.append(y)
            answers.append(found)
        out.append(answers)
    return out


def _oracle_sample(result, graph, base, stream, qs, want, seed) -> None:
    rng = random.Random(seed ^ 0x1E57)
    for i in sorted(rng.sample(range(len(stream)), ORACLE_SAMPLE)):
        live = layers.base_graph_of(graph, list(base) + list(stream[:i + 1]))
        k = rng.randrange(len(qs[i]))
        q = qs[i][k]
        result.check([span_reaches_bruteforce(live, q.u, q.v, (q.t1, q.t2))],
                     [want[i][k]], f"oracle@edge{i}")


def _pass(inc, stream, qs, want, result, tracer=None) -> Dict[str, list]:
    """Stream every edge, each followed by its point queries."""
    engine = QueryEngine(inc)
    adds: List[float] = []
    stalls: List[float] = []
    query_s: List[float] = []
    cpu0, wall0 = self_cpu_seconds(), time.perf_counter()
    for i, ((u, v, t), batch) in enumerate(zip(stream, qs)):
        before = inc.rebuilds
        t0 = time.perf_counter()
        if tracer is None:
            inc.add_edge(u, v, t)
        else:
            with tracer.span("incremental.add_edge", request=("e", i)):
                inc.add_edge(u, v, t)
        took = time.perf_counter() - t0
        (stalls if inc.rebuilds != before else adds).append(took)
        got = []
        for k, q in enumerate(batch):
            t0 = time.perf_counter()
            if tracer is None:
                got.append(engine.span_reachable(q.u, q.v, (q.t1, q.t2)))
            else:
                with tracer.span("engine", request=("q", i, k)):
                    got.append(engine.span_reachable(q.u, q.v,
                                                     (q.t1, q.t2)))
            query_s.append(time.perf_counter() - t0)
        result.check(got, want[i], f"edge{i}")
    stats = engine.stats().as_dict()
    engine.close()
    return {"adds": adds, "stalls": stalls, "query_s": query_s,
            "stats": stats, "rebuilds": inc.rebuilds,
            "cpu_s": self_cpu_seconds() - cpu0,
            "wall_s": time.perf_counter() - wall0}


def run(seed: int, seconds: float, traced: bool) -> None:
    result = Result("ingest", seed, traced)
    graph = load_dataset(DATASET)
    base, stream = split_by_time(graph,
                                 int(graph.num_edges * STREAM_SHARE))
    qs = ingest_queries(graph, stream, PER_EDGE, seed)

    sw = Stopwatch()
    path = str(WORK / "email-eu-base.till")
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        base_graph, built, _mapped = layers.index_setup(
            sw, lambda: layers.base_graph_of(
                load_dataset(DATASET, cache=False), base), path)
        with sw("incremental.build"):
            inc = IncrementalTILLIndex(base_graph)
        setups.append(time.perf_counter() - t0)
    index_mb = os.path.getsize(path) / 2**20

    want = live_answers(graph, base, stream, qs)
    _oracle_sample(result, graph, base, stream, qs, want, seed)
    result.facts.update({
        "dataset": {"name": DATASET, "vertices": graph.num_vertices,
                    "edges": graph.num_edges, "base_edges": len(base),
                    "streamed_edges": len(stream),
                    "label_entries": built.labels.total_entries()},
        "kernel_backend": {"default": "python (base index not flattened)"},
        "queries_per_edge": PER_EDGE,
        "rebuild_threshold": inc.rebuild_threshold,
    })

    # Whole passes over the stream, at least two and until *seconds*
    # have been measured (a fixed minimum keeps the work per run from
    # flipping with host speed); the traced run measures one untraced
    # pass, then a traced one.
    passes = []
    measured = 0.0
    while not passes or (not traced and (len(passes) < 2
                                         or measured < seconds)):
        if passes:
            inc = IncrementalTILLIndex(base_graph)
        gc.collect()  # start every pass without set-up garbage
        t0 = time.perf_counter()
        passes.append(_pass(inc, stream, qs, want, result))
        measured += time.perf_counter() - t0
    adds = [x for p in passes for x in p["adds"]]
    stalls = [x for p in passes for x in p["stalls"]]
    query_s = [x for p in passes for x in p["query_s"]]
    busy = sum(adds) + sum(stalls) + sum(query_s)
    details: Dict[str, object] = {
        "setup_s_reps": setups, "index_mb": index_mb, "passes": len(passes),
        "update_stall_ms": median(stalls) * 1e3,
        "engine_stats": passes[-1]["stats"],
    }
    if not traced:
        result.set("setup_s", median(setups))
        result.set("throughput_qps", (len(adds) + len(stalls)
                                      + len(query_s)) / busy)
        result.set("latency_p50_ms", percentile(query_s, 50) * 1e3)
        result.set("peak_rss_mb", proc_peak_rss_mb(os.getpid()))
        result.set("index_mb", index_mb)
    else:
        untraced = passes[0]
        tracer = Tracer()
        inc = IncrementalTILLIndex(base_graph)
        undo = [tracer.wrap(inc, "rebuild", "incremental.rebuild"),
                tracer.wrap(inc, "span_reachable", "incremental.query"),
                tracer.wrap(TILLIndex, "span_reachable", "kernel")]
        try:
            traced_pass = _pass(inc, stream, qs, want, result, tracer)
        finally:
            for restore in undo:
                restore()
        tracer.write(OUT / "ingest-spans.jsonl")
        per = tracer.per_request_self_us()
        q_p50 = percentile(query_s, 50)
        result.set("trace.overhead_pct",
                   (percentile(traced_pass["query_s"], 50) / q_p50 - 1)
                   * 100)
        query_layers = ("engine", "incremental.query", "kernel")
        result.set("trace.unattributed_us", q_p50 * 1e6 - sum(
            per.get(name, 0.0) for name in query_layers))
        details["budget_us_per_query"] = {
            name: per.get(name, 0.0) for name in query_layers}
        details["budget_us_per_edge"] = {
            name: per.get(name, 0.0) for name in
            ("incremental.add_edge", "incremental.rebuild")}
        engine_s = sum(s.end - s.start for s in tracer.spans
                       if s.name == "engine")
        kernel_s = sum(s.end - s.start for s in tracer.spans
                       if s.name == "kernel")
        layers.engine_layer(result, traced_pass["stats"], engine_s,
                            kernel_s)
        rebuild_s = [s.end - s.start for s in tracer.spans
                     if s.name == "incremental.rebuild"]
        layers.report_incremental(result, adds, stalls, rebuild_s, query_s,
                                  untraced["rebuilds"])
        pct = tail_percentile(len(query_s))
        result.set("e2e.latency_p99_ms", percentile(query_s, pct) * 1e3)
        details["tail_percentile"] = pct
        ops = len(adds) + len(stalls) + len(query_s)
        result.set("worker.cpu_us_per_request", untraced["cpu_s"] / ops * 1e6)
        result.set("worker.cpu_util", untraced["cpu_s"] / untraced["wall_s"])
        result.set("admission.rejected", 0)

        points = [q for batch in qs for q in batch]
        built.flatten("python")
        layers.kernel_probe(result, built, points,
                            layers.bulk_shape(built.graph, points), "python")
        lines = [q.line(k) for k, q in enumerate(points)]
        layers.protocol_probe(result, lines,
                              [a for batch in want for a in batch])
        result.set("batcher.wait_ms", layers.batcher_wait_ms(
            [(q.op, (q.u, q.v), q.t1, q.t2, q.theta) for q in points],
            [1] * 400))
        layers.report_index(result, sw, built)
    details["incremental_build_s"] = sw.median("incremental.build")
    result.emit(details)
