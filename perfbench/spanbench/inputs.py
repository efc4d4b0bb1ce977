"""Seeded input generation for the three workloads.

The benchmark's ``--seed`` is the only source of randomness: the same
seed gives byte-identical inputs (:func:`fingerprint`), and the program
under test only ever receives the generated queries and edges.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.workloads.queries import make_span_workload

#: Share of θ queries in the mixed streams (Section VI-C reuses the
#: Section VI-A pairs and windows with θ = 10-90% of the window).
THETA_SHARE = 0.2


@dataclass(frozen=True)
class Query:
    """One point query: ``theta is None`` means a span query."""

    u: object
    v: object
    t1: int
    t2: int
    theta: Optional[int] = None

    @property
    def op(self) -> str:
        return "span" if self.theta is None else "theta"

    def line(self, request_id: int, trace: Optional[str] = None) -> bytes:
        doc = {"op": self.op, "u": self.u, "v": self.v,
               "t1": self.t1, "t2": self.t2, "id": request_id}
        if self.theta is not None:
            doc["theta"] = self.theta
        if trace is not None:
            doc["trace"] = {"id": trace}
        return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _theta_for(rng: random.Random, t1: int, t2: int) -> int:
    length = t2 - t1 + 1
    return max(1, min(length, round(rng.uniform(0.1, 0.9) * length)))


def paper_stream(graph: TemporalGraph, n: int, seed: int,
                 exclude: Sequence[Query] = ()) -> List[Query]:
    """*n* distinct Section VI-A queries (Lemma 9/10-filtered pairs and
    windows, 10 windows per pair), 20% of them θ queries, shuffled.

    Queries equal to one in *exclude* are skipped, so a warm-up stream
    never repeats a measured ``(u, v, window, θ)``.
    """
    rng = random.Random(seed)
    banned = set(exclude)
    out: List[Query] = []
    seen = set()
    rounds = 0
    while len(out) < n:
        rounds += 1
        pairs = max(10, (n - len(out)) // 10 + 10)
        workload = make_span_workload(graph, num_pairs=pairs,
                                      seed=rng.randrange(1 << 30))
        for q in workload.queries:
            t1, t2 = q.interval.start, q.interval.end
            theta = (_theta_for(rng, t1, t2)
                     if rng.random() < THETA_SHARE else None)
            query = Query(q.u, q.v, t1, t2, theta)
            if query in seen or query in banned:
                continue
            seen.add(query)
            out.append(query)
        if rounds > 50:
            raise RuntimeError("could not draw enough distinct queries")
    rng.shuffle(out)
    return out[:n]


@dataclass(frozen=True)
class Batch:
    """One engine call: ``pairs`` over one window (θ for theta_many)."""

    pairs: Tuple[Tuple[object, object], ...]
    t1: int
    t2: int
    theta: Optional[int] = None


def bulk_batches(graph: TemporalGraph, n: int, seed: int,
                 batch_size: int = 2000, hot_sources: int = 24
                 ) -> List[Batch]:
    """*n* analytic batches of *batch_size* pairs per window.

    Every batch asks about the same small hot source set — one source
    at every ``1/hot_sources`` step of the out-degree ranking — in long
    runs (one run per source, in a seeded order) to uniform targets;
    exactly one batch in five is a θ batch.  The seed draws the order,
    the targets and the windows, whose lengths are spread evenly over
    the graph's lifetime, so every seed asks for about the same work.
    """
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    by_degree = sorted(vertices, key=lambda x: (-graph.out_degree(x), x))
    step = len(by_degree) // hot_sources
    hot = by_degree[::step][:hot_sources]
    lo, hi = graph.min_time, graph.max_time
    span = hi - lo
    theta_at = set(rng.sample(range(n), n // 5))
    batches: List[Batch] = []
    for i in range(n):
        length = int(span * (i + rng.random()) / n)
        t1 = rng.randint(lo, hi - length)
        t2 = t1 + length
        order = rng.sample(hot, len(hot))
        pairs = [(order[k * len(order) // batch_size], rng.choice(vertices))
                 for k in range(batch_size)]
        theta = _theta_for(rng, t1, t2) if i in theta_at else None
        batches.append(Batch(tuple(pairs), t1, t2, theta))
    rng.shuffle(batches)
    return batches


def split_by_time(graph: TemporalGraph, stream_edges: int
                  ) -> Tuple[List[tuple], List[tuple]]:
    """Edges in time order (ties broken by endpoints), split into the
    base prefix and the last *stream_edges* edges, which are streamed."""
    edges = sorted(graph.edges(), key=lambda e: (e[2], str(e[0]), str(e[1])))
    cut = len(edges) - stream_edges
    return edges[:cut], edges[cut:]


def ingest_queries(graph: TemporalGraph, stream: Sequence[tuple],
                   per_edge: int, seed: int,
                   lookback: Tuple[int, int] = (10, 80)
                   ) -> List[List[Query]]:
    """*per_edge* span point queries after each streamed edge.

    Windows end at the just-added edge's timestamp and look back
    10-80 time units, so the streamed edges decide many of the answers.
    The mix is stratified so every seed asks for about the same work:
    query 0 of an edge starts from the edge's own source ("what did
    this edge make reachable?"), other even-numbered queries from a
    recently active vertex and odd-numbered ones from a uniform vertex;
    query *k* takes its look-back from the *k*-th of *per_edge* equal
    slices of the look-back range.
    """
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    short, long_ = lookback
    step = (long_ - short) / per_edge
    recent: List[object] = []
    out: List[List[Query]] = []
    for u, _v, t in stream:
        recent.append(u)
        recent = recent[-64:]
        batch = []
        for k in range(per_edge):
            if k == 0:
                src = u
            elif k % 2 == 0:
                src = rng.choice(recent)
            else:
                src = rng.choice(vertices)
            back = int(short + step * (k + rng.random()))
            batch.append(Query(src, rng.choice(vertices),
                               max(graph.min_time, t - back), t))
        out.append(batch)
    return out


def fingerprint(*parts) -> str:
    """SHA-256 over the canonical JSON of the generated inputs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(json.dumps(part, sort_keys=True, default=_plain)
                      .encode())
    return digest.hexdigest()


def _plain(obj):
    if isinstance(obj, (Query, Batch)):
        return obj.__dict__
    raise TypeError(type(obj).__name__)
