"""Per-layer probes shared by the workloads.

Each probe times calls into one module's public functions on the
workload's own inputs: index set-up (``repro.datasets``,
``repro.core.index``), the flat batch kernels (``repro.core.queries`` /
``repro.core.flatkernels``), the wire protocol (``repro.serve.protocol``),
the in-process serving pipeline (``parse_request`` -> admission ->
``MicroBatcher`` -> ``QueryEngine`` -> ``encode_answer``) and the
incremental index (``repro.core.incremental``).
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import flatkernels, queries
from repro.core.incremental import IncrementalTILLIndex
from repro.core.index import TILLIndex
from repro.graph.projection import (
    span_reaches_bruteforce,
    theta_reaches_bruteforce,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.admission import AdmissionController
from repro.serve.batching import MicroBatcher
from repro.serve.engine import QueryEngine
from repro.serve.protocol import encode_answer, parse_request
from repro.serve.server import ServerConfig

from .common import Result, Stopwatch, median
from .inputs import Query, split_by_time
from .tracing import Tracer

INDEX_STEPS = ("datasets.load", "index.build", "index.flatten",
               "index.save", "index.load_mmap")


def index_setup(sw: Stopwatch, load: Callable[[], TemporalGraph],
                path: str) -> Tuple[TemporalGraph, TILLIndex, TILLIndex]:
    """One set-up pass: load the graph, build, flatten, save as format
    3 and map it back; every step is timed into *sw*.  Returns the
    graph, the built index and the mmap-loaded one."""
    with sw("datasets.load"):
        graph = load()
    with sw("index.build"):
        built = TILLIndex.build(graph)
    with sw("index.flatten"):
        built.flatten()
    with sw("index.save"):
        built.save(path, format=3)
    with sw("index.load_mmap"):
        mapped = TILLIndex.load(path, graph, mmap=True)
    return graph, built, mapped


def report_index(result: Result, sw: Stopwatch, index: TILLIndex) -> None:
    for step in INDEX_STEPS:
        result.set(step + "_s", sw.median(step))
    result.set("index.label_entries", index.labels.total_entries())


# ----------------------------------------------------------------------
# correctness: python flat path for every answer, oracle for a sample
# ----------------------------------------------------------------------


def reference_answers(index: TILLIndex, qs: Sequence[Query]) -> List[bool]:
    """Answers from the scalar python flat kernels, one query at a time
    (no engine, no batching, no cache)."""
    index.flatten("python")
    out = []
    for q in qs:
        if q.theta is None:
            out.append(index.span_reachable(q.u, q.v, (q.t1, q.t2)))
        else:
            out.append(index.theta_reachable(q.u, q.v, (q.t1, q.t2),
                                             q.theta))
    return out


def oracle_check(result: Result, graph: TemporalGraph,
                 qs: Sequence[Query], want: Sequence[bool], seed: int,
                 spans: int = 40, thetas: int = 3) -> None:
    """Check a seeded sample of *qs* against the projected-graph BFS
    oracle; every sampled query is one op, a disagreement a failure."""
    rng = random.Random(seed ^ 0x5EED)
    span_ix = [k for k, q in enumerate(qs) if q.theta is None]
    theta_ix = sorted((k for k, q in enumerate(qs) if q.theta is not None),
                      key=lambda k: qs[k].t2 - qs[k].t1)
    picks = rng.sample(span_ix, min(spans, len(span_ix)))
    # θ oracle cost grows with the window: sample the shorter half.
    short = theta_ix[: max(thetas, len(theta_ix) // 2)]
    picks += rng.sample(short, min(thetas, len(short)))
    got = []
    for k in picks:
        q = qs[k]
        if q.theta is None:
            got.append(span_reaches_bruteforce(graph, q.u, q.v,
                                               (q.t1, q.t2)))
        else:
            got.append(theta_reaches_bruteforce(graph, q.u, q.v,
                                                (q.t1, q.t2), q.theta))
    result.check(got, [want[k] for k in picks], "oracle")


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


def _kernel_calls(index: TILLIndex, backend: str):
    """``(span(pairs, ws, we), theta(pairs, ws, we, θ), resolved)`` for
    the batch kernels *backend* resolves to on *index*."""
    kernels = flatkernels.select(index.flat, index.order.rank, backend)
    if kernels is not None:
        return kernels.span_batch, kernels.theta_batch, kernels.backend
    flat, rank = index.flat, index.order.rank
    return (
        lambda pairs, ws, we: queries.flat_span_batch(flat, rank, pairs,
                                                      ws, we),
        lambda pairs, ws, we, th: queries.flat_theta_batch(
            flat, rank, pairs, ws, we, th),
        "python",
    )


def kernel_probe(result: Result, index: TILLIndex, qs: Sequence[Query],
                 bulk: Sequence[Tuple[list, int, int, Optional[int]]],
                 default_backend: str, budget_s: float = 1.5) -> str:
    """µs per query through the batch kernels, alone (batch size 1 on
    *qs*) and at the bulk shape (*bulk*: ``(pairs, t1, t2, θ)``), for
    the workload's default backend and for python.  A span-only *qs*
    runs every fifth query as a θ query with θ = half its window."""
    graph = index.graph
    ids = [(graph.index_of(q.u), graph.index_of(q.v)) for q in qs]
    has_theta = any(q.theta is not None for q in qs)
    resolved = None
    for label, backend in (("default", default_backend),
                           ("python", "python")):
        span, theta, name = _kernel_calls(index, backend)
        if label == "default":
            resolved = name
        per = {"span_us_b1": [], "theta_us_b1": [],
               "span_us_bulk": [], "theta_us_bulk": []}
        deadline = time.perf_counter() + budget_s / 2
        for k, (q, pair) in enumerate(zip(qs, ids)):
            th = q.theta
            if th is None and not has_theta and k % 5 == 4:
                th = max(1, (q.t2 - q.t1 + 1) // 2)  # span-only streams
            t0 = time.perf_counter()
            if th is None:
                span([pair], q.t1, q.t2)
                per["span_us_b1"].append(time.perf_counter() - t0)
            else:
                theta([pair], q.t1, q.t2, th)
                per["theta_us_b1"].append(time.perf_counter() - t0)
            if t0 > deadline and per["theta_us_b1"]:
                break
        deadline = time.perf_counter() + budget_s / 2
        for pairs, t1, t2, th in bulk:
            t0 = time.perf_counter()
            if th is None:
                span(pairs, t1, t2)
                per["span_us_bulk"].append(
                    (time.perf_counter() - t0) / len(pairs))
            else:
                theta(pairs, t1, t2, th)
                per["theta_us_bulk"].append(
                    (time.perf_counter() - t0) / len(pairs))
            if t0 > deadline and per["theta_us_bulk"]:
                break
        for key, values in per.items():
            result.set(f"kernel.{label}.{key}", median(values) * 1e6)
    return resolved


def bulk_shape(graph: TemporalGraph, qs: Sequence[Query], batches: int = 10,
               size: int = 2000) -> List[Tuple[list, int, int, Optional[int]]]:
    """The workload's own pairs (cycled as needed) regrouped into
    *batches* batches of *size* over the window of each batch's first
    pair; every fifth batch is a θ batch with θ = half the window."""
    out = []
    for b in range(batches):
        chunk = [qs[(b * size + j) % len(qs)] for j in range(size)]
        head = chunk[0]
        theta = max(1, (head.t2 - head.t1 + 1) // 2) if b % 5 == 4 else None
        pairs = [(graph.index_of(q.u), graph.index_of(q.v)) for q in chunk]
        out.append((pairs, head.t1, head.t2, theta))
    return out


# ----------------------------------------------------------------------
# protocol + in-process serving pipeline
# ----------------------------------------------------------------------


def protocol_probe(result: Result, lines: Sequence[bytes],
                   answers: Sequence[bool]) -> None:
    """µs per ``parse_request`` / ``encode_answer`` on the exact lines."""
    gc.collect()
    t0 = time.perf_counter()
    parsed = [parse_request(line) for line in lines]
    t1 = time.perf_counter()
    for request, answer in zip(parsed, answers):
        encode_answer(request.id, answer)
    t2 = time.perf_counter()
    result.set("protocol.parse_us", (t1 - t0) / len(lines) * 1e6)
    result.set("protocol.encode_us", (t2 - t1) / len(lines) * 1e6)


def pipeline_replay(index: TILLIndex, lines: Sequence[bytes],
                    due: Sequence[float], tracer: Tracer,
                    config: Optional[ServerConfig] = None):
    """Replay request *lines* in-process through the serving layers —
    ``parse_request`` -> ``AdmissionController`` -> ``MicroBatcher`` ->
    executor hop -> ``QueryEngine`` -> ``encode_answer`` — each line
    submitted at its offset in *due* (seconds), with a span per layer.

    The engine is built like a server worker's (thread-safe, the
    default cache size, one executor thread), over the same index.
    Returns the answers and the engine's ``stats()`` as a dict.
    """
    config = config or ServerConfig()
    engine = QueryEngine(index, cache_size=config.cache_size,
                         thread_safe=True,
                         kernel_threads=config.kernel_threads)
    restore = wrap_kernels(tracer, index)
    executor = ThreadPoolExecutor(max_workers=config.executor_threads)
    admission = AdmissionController(max_inflight=config.max_inflight)
    answers: List[Optional[bool]] = [None] * len(lines)
    flushed: Dict[int, float] = {}
    answered: Dict[int, float] = {}

    async def execute(key, pairs, meta):
        flush_at = time.perf_counter()
        for rid in meta["traces"]:
            flushed[int(rid)] = flush_at
        op, t1, t2, theta = key
        loop = asyncio.get_running_loop()
        root = int(meta["traces"][0])

        def run():
            started = time.perf_counter()
            tracer.record("executor.hop", flush_at, started, request=root)
            with tracer.span("engine", request=root):
                if op == "span":
                    got = engine.span_many(pairs, (t1, t2))
                else:
                    got = engine.theta_many(pairs, (t1, t2), theta)
            done_at = time.perf_counter()
            for rid in meta["traces"]:
                answered[int(rid)] = done_at
            return got

        return await loop.run_in_executor(executor, run)

    async def one(k: int, line: bytes):
        with tracer.span("protocol.parse", request=k):
            request = parse_request(line)
        with tracer.span("admission", request=k):
            admission.try_admit(request.tenant)
        submitted = time.perf_counter()
        future = batcher.submit(request.op, (request.u, request.v),
                                request.t1, request.t2, request.theta,
                                trace=str(k))
        answer = await future
        resumed = time.perf_counter()
        tracer.record("batcher.wait", submitted, flushed[k], request=k)
        tracer.record("loop.resume", answered[k], resumed, request=k)
        admission.release()
        with tracer.span("protocol.encode", request=k):
            encode_answer(request.id, answer)
        answers[k] = answer

    async def main():
        nonlocal batcher
        batcher = MicroBatcher(execute, max_batch=config.max_batch,
                               max_delay=config.batch_delay)
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.01
        tasks = []
        for k, line in enumerate(lines):
            delay = t0 + due[k] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(one(k, line)))
        await asyncio.gather(*tasks)
        await batcher.drain()

    batcher = None
    try:
        asyncio.run(main())
    finally:
        executor.shutdown(wait=True)
        restore()
        engine.close()
    return answers, engine.stats().as_dict()


def wrap_kernels(tracer: Tracer, index: TILLIndex) -> Callable[[], None]:
    """Open a ``kernel`` span around every batch-kernel call the engine
    makes on *index* (whichever backend it selected)."""
    kernels = index.flat_kernels
    if kernels is not None:
        cls = type(kernels)  # slotted: wrap the class's methods
        undo = [tracer.wrap(cls, "span_batch", "kernel"),
                tracer.wrap(cls, "theta_batch", "kernel")]
    else:
        undo = [tracer.wrap(queries, "flat_span_batch", "kernel"),
                tracer.wrap(queries, "flat_theta_batch", "kernel")]
    return lambda: [u() for u in undo]


def batcher_wait_ms(requests: Sequence[Tuple[str, tuple, int, int,
                                             Optional[int]]],
                    groups: Sequence[int]) -> float:
    """Median submit->flush wait (ms) of a ``MicroBatcher`` (server
    defaults) fed *requests* in *groups*: each group of consecutive
    requests arrives together, and the next group arrives once the
    previous one is answered (the in-process callers' closed loop)."""
    config = ServerConfig()
    waits: List[float] = []

    async def main():
        submitted: Dict[int, float] = {}

        async def execute(key, pairs, meta):
            now = time.perf_counter()
            waits.extend(now - submitted[int(r)] for r in meta["traces"])
            return [False] * len(pairs)

        batcher = MicroBatcher(execute, max_batch=config.max_batch,
                               max_delay=config.batch_delay)
        pos = 0
        for size in groups:
            futures = []
            for k in range(pos, pos + size):
                op, pair, t1, t2, theta = requests[k]
                submitted[k] = time.perf_counter()
                futures.append(batcher.submit(op, pair, t1, t2, theta,
                                              trace=str(k)))
            pos += size
            await asyncio.gather(*futures)
        await batcher.drain()

    asyncio.run(main())
    return median(waits) * 1e3


# ----------------------------------------------------------------------
# incremental index
# ----------------------------------------------------------------------


def incremental_probe(result: Result, graph: TemporalGraph,
                      stream_edges: int = 256, seed: int = 0) -> None:
    """Stream the last *stream_edges* edges of *graph* (by time) into an
    ``IncrementalTILLIndex`` over the rest — enough to trigger one
    rebuild at the default threshold — with one span point query per
    edge through a cached engine, and report the layer's timings.

    Workloads that do not write use this to give the incremental layer
    a figure on their own dataset; ``ingest`` measures it on its
    stream instead (see :func:`report_incremental`).
    """
    base, stream = split_by_time(graph, stream_edges)
    base_graph = base_graph_of(graph, base)
    inc = IncrementalTILLIndex(base_graph)
    engine = QueryEngine(inc)
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    adds, stalls, query_s = [], [], []
    for u, v, t in stream:
        before = inc.rebuilds
        t0 = time.perf_counter()
        inc.add_edge(u, v, t)
        took = time.perf_counter() - t0
        (stalls if inc.rebuilds != before else adds).append(took)
        a, b = rng.choice(vertices), rng.choice(vertices)
        t0 = time.perf_counter()
        engine.span_reachable(a, b, (max(graph.min_time, t - 40), t))
        query_s.append(time.perf_counter() - t0)
    engine.close()
    report_incremental(result, adds, stalls, stalls, query_s, inc.rebuilds)


def report_incremental(result: Result, adds, stalls, rebuilds_s, query_s,
                       rebuilds: int) -> None:
    result.set("incremental.add_edge_us", median(adds) * 1e6)
    result.set("incremental.update_stall_ms", median(stalls) * 1e3)
    result.set("incremental.rebuild_s", median(rebuilds_s))
    result.set("incremental.rebuilds", rebuilds)
    result.set("incremental.query_us", median(query_s) * 1e6)


def base_graph_of(graph: TemporalGraph, edges) -> TemporalGraph:
    """A frozen graph over all of *graph*'s vertices and *edges*."""
    base = TemporalGraph(directed=graph.directed)
    for label in graph.vertices():
        base.add_vertex(label)
    for u, v, t in edges:
        base.add_edge(u, v, t)
    return base.freeze()


def engine_layer(result: Result, engine_stats, engine_s: float,
                 kernel_s: float) -> None:
    """``engine.*`` and ``cache.*`` from an engine's ``stats()`` and the
    traced wall time spent in engine calls and in kernels."""
    s = engine_stats
    queries_n = max(1, s["queries"])
    outcomes = s["outcomes"]
    lookups = s["cache_hits"] + s["cache_misses"]
    result.set("engine.us_per_query", engine_s / queries_n * 1e6)
    result.set("engine.kernel_share", kernel_s / engine_s if engine_s else 0.0)
    result.set("engine.prefilter_ratio",
               outcomes.get("prefilter", 0) / queries_n)
    result.set("engine.dedup_ratio", 1.0 - lookups / queries_n)
    result.set("engine.batch_size_mean", s["queries"] / max(1, s["batches"]))
    result.set("cache.hit_ratio", s["cache_hits"] / max(1, lookups))
    result.set("cache.stale_drops", s["cache_stale_drops"])
