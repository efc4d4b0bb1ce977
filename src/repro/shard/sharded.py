"""A TILL-Index partitioned across contiguous time slices.

:class:`ShardedTILLIndex` builds one capped TILL index per slice of a
:class:`~repro.shard.partition.TimePartition` — **in parallel** across
worker processes when ``jobs >= 2`` — and answers span/θ queries
through the :class:`~repro.shard.planner.CrossShardPlanner`:

* windows inside one slice go straight to that shard;
* windows straddling slice boundaries are answered by a contracted
  BFS over the slice-boundary vertices, each hop certified by a single
  shard (the soundness/completeness argument is in the planner module
  docstring);
* straddling windows with an oversized boundary set fall back to the
  verified online BFS over the full graph.

Why shard at all?  TILL construction cost grows superlinearly with the
slice lifetime (longer lifetimes mean more skyline intervals per hub),
so K slices build *much* faster than one monolithic index even on one
core, and independently of each other — which is what
``ProcessPoolExecutor`` exploits.  Memory behaves the same way: the
peak is one slice's working set, not the whole graph's.

Each shard is built with its ϑ cap clamped to the slice span (further
clamped by a user ``vartheta``): no routed query ever needs a longer
window inside a slice, and the cap is precisely what keeps per-slice
label sets small.  The *query contract* cap is the user-level
``vartheta``, mirroring :class:`~repro.core.index.TILLIndex` exactly —
over-cap windows raise :class:`UnsupportedIntervalError` unless
``fallback="online"``.

Persistence uses a shard directory: ``manifest.json`` plus one
standard ``.till`` binary file per slice (the
:mod:`repro.core.serialization` format, unchanged) — see
``docs/file_format.md``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core import online, queries
from repro.core.index import IndexStats, TILLIndex
from repro.core.intervals import (
    Interval,
    IntervalLike,
    as_interval,
    check_vartheta,
    validate_theta_window,
)
from repro.errors import (
    IndexBuildError,
    IndexFormatError,
)
from repro.graph.temporal_graph import TemporalGraph, Vertex
from repro.shard.partition import TimePartition, TimePartitioner, TimeSlice
from repro.shard.planner import CrossShardPlanner, QueryPlan

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro-shard/1"
SHARD_FILE_FORMAT = "shard-{:04d}.till"

Pair = Tuple[Any, Any]


def _slice_subgraph(
    vertex_labels: Sequence[Vertex],
    edges: Sequence[Tuple[Vertex, Vertex, int]],
    directed: bool,
) -> TemporalGraph:
    """A frozen subgraph holding every vertex (same insertion order as
    the parent, so internal ids coincide) and one slice's edges."""
    sub = TemporalGraph(directed=directed)
    for label in vertex_labels:
        sub.add_vertex(label)
    for u, v, t in edges:
        sub.add_edge(u, v, t)
    return sub.freeze()


def _build_shard(payload) -> TILLIndex:
    """Build one shard from a picklable payload.

    Module-level so :class:`ProcessPoolExecutor` can ship it to worker
    processes; also the ``jobs=1`` sequential path, which guarantees
    bit-identical results regardless of parallelism.
    """
    vertex_labels, edges, directed, vartheta, method, ordering = payload
    sub = _slice_subgraph(vertex_labels, edges, directed)
    return TILLIndex.build(sub, vartheta=vartheta, method=method,
                           ordering=ordering)


@dataclass
class ShardedIndexStats:
    """Aggregate statistics of a sharded index."""

    num_vertices: int
    num_edges: int
    directed: bool
    num_shards: int
    policy: str
    jobs: int
    vartheta: Optional[int]
    stitch_limit: int
    #: Wall-clock seconds of the whole (possibly parallel) build.
    build_seconds: float
    #: Slowest single shard — the parallel critical path.
    max_shard_build_seconds: float
    total_entries: int
    estimated_bytes: int
    shards: List[IndexStats] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["shards"] = [s.as_dict() for s in self.shards]
        return out


class ShardedTILLIndex:
    """Time-sharded TILL index with a cross-shard query planner.

    Examples
    --------
    >>> from repro import TemporalGraph
    >>> g = TemporalGraph.from_edges(
    ...     [("a", "b", 1), ("b", "c", 2), ("c", "d", 8), ("d", "e", 9)]
    ... )
    >>> sharded = ShardedTILLIndex.build(g, num_shards=2)
    >>> sharded.partition.num_shards
    2
    >>> sharded.span_reachable("a", "c", (1, 2))    # contained in slice 0
    True
    >>> sharded.span_reachable("a", "e", (1, 9))    # stitched across both
    True
    >>> sharded.span_reachable("a", "e", (2, 9))
    False
    """

    def __init__(
        self,
        graph: TemporalGraph,
        partition: TimePartition,
        shards: Sequence[TILLIndex],
        vartheta: Optional[int] = None,
        method: str = "optimized",
        ordering_name: str = "degree-product",
        stitch_limit: int = 64,
        jobs: int = 1,
        build_seconds: float = 0.0,
        telemetry=None,
    ):
        if len(shards) != partition.num_shards:
            raise IndexBuildError(
                f"partition has {partition.num_shards} slices but "
                f"{len(shards)} shard indexes were supplied"
            )
        if not graph.frozen:
            graph.freeze()
        self.graph = graph
        self.partition = partition
        self.shards = list(shards)
        self.vartheta = vartheta
        self.method = method
        self.ordering_name = ordering_name
        self.jobs = jobs
        self.build_seconds = build_seconds
        self.planner = CrossShardPlanner(
            partition, [s.graph for s in self.shards], stitch_limit
        )
        #: Observability: how many queries each route answered
        #: (``contained``/``stitch``/``fallback``/``empty``, θ routes
        #: prefixed ``theta-``, plus ``online-cap-fallback``).
        self.route_counts: Dict[str, int] = {}
        self._telemetry = telemetry
        self._obs_routes = None
        if telemetry is not None:
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            m = telemetry.metrics
            self._obs_routes = m.counter(
                "shard_route_total",
                "Queries answered per planner route "
                "(mirrors ShardedTILLIndex.route_counts)",
            )
            self._obs_boundary = m.histogram(
                "shard_boundary_size", DEFAULT_SIZE_BUCKETS,
                "Boundary-vertex set size of planned stitch routes",
            )
            m.gauge("shard_count", "Time slices in the partition").set(
                partition.num_shards
            )
            m.gauge(
                "shard_stitch_limit",
                "Largest boundary set stitched before online fallback",
            ).set(stitch_limit)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: TemporalGraph,
        num_shards: int = 4,
        policy: str = "equal-edges",
        jobs: int = 1,
        vartheta: Optional[int] = None,
        method: str = "optimized",
        ordering: str = "degree-product",
        stitch_limit: int = 64,
        progress=None,
        telemetry=None,
    ) -> "ShardedTILLIndex":
        """Partition *graph*'s timeline and build one index per slice.

        Parameters
        ----------
        num_shards:
            Requested slice count (the partitioner may produce fewer
            when the graph has fewer distinct timestamps).
        policy:
            ``"equal-edges"`` (default) or ``"equal-span"``.
        jobs:
            ``1`` builds shards sequentially in-process (deterministic
            fallback); ``>= 2`` builds them in parallel worker
            processes.  Results are identical either way — each shard
            build is a pure function of its slice.
        vartheta:
            User-level query cap, mirroring
            :meth:`TILLIndex.build`; each shard is additionally capped
            at its slice span (routed queries never need more).
        stitch_limit:
            Largest boundary-vertex set the cross-shard stitch will
            take on before degrading to the online-BFS fallback.
        progress:
            Optional hook called ``progress(done_shards, total_shards)``
            as shard builds complete (both sequential and parallel).
        telemetry:
            Optional :class:`repro.obs.Telemetry`: a ``shard-build``
            tracer span containing one ``shard-build.shard`` event per
            completed slice, a per-shard build-time histogram, and
            route counters on the returned index.  Worker processes
            never see the telemetry object — per-shard timings are
            taken from each shard's own build clock.
        """
        if jobs < 1:
            raise IndexBuildError(f"jobs must be >= 1, got {jobs}")
        if not graph.frozen:
            graph.freeze()
        partition = TimePartitioner(num_shards, policy).partition(graph)
        buckets = partition.assign_edges(graph.edges())
        vertex_labels = list(graph.vertices())
        payloads = []
        for s, edges in zip(partition.slices, buckets):
            cap = s.span if vartheta is None else min(vartheta, s.span)
            payloads.append(
                (vertex_labels, edges, graph.directed, cap, method, ordering)
            )
        total = len(payloads)
        build_span = None
        obs_shard_seconds = None
        if telemetry is not None:
            from repro.obs.metrics import DEFAULT_TIME_BUCKETS

            obs_shard_seconds = telemetry.metrics.histogram(
                "shard_build_seconds", DEFAULT_TIME_BUCKETS,
                "Per-shard index construction seconds",
            )
            build_span = telemetry.tracer.span(
                "shard-build", shards=total, policy=policy, jobs=jobs,
            )

        def completed(k: int, shard: TILLIndex) -> None:
            if telemetry is not None:
                obs_shard_seconds.observe(shard.build_seconds)
                if telemetry.tracer:
                    telemetry.tracer.event(
                        "shard-build.shard", shard=k,
                        seconds=shard.build_seconds,
                        edges=partition.slices[k].num_edges,
                        entries=shard.labels.total_entries(),
                    )
            if progress is not None:
                progress(k + 1, total)

        started = time.perf_counter()
        try:
            if jobs > 1 and total > 1:
                try:
                    with ProcessPoolExecutor(
                        max_workers=min(jobs, total)
                    ) as pool:
                        shards = []
                        for k, shard in enumerate(
                            pool.map(_build_shard, payloads)
                        ):
                            shards.append(shard)
                            completed(k, shard)
                except (BrokenProcessPool, OSError) as exc:
                    raise IndexBuildError(
                        f"parallel shard build failed ({exc!r}); retry with "
                        "jobs=1 for the sequential fallback"
                    ) from exc
            else:
                shards = []
                for k, payload in enumerate(payloads):
                    shard = _build_shard(payload)
                    shards.append(shard)
                    completed(k, shard)
        finally:
            if build_span is not None:
                build_span.__exit__(None, None, None)
        elapsed = time.perf_counter() - started
        if telemetry is not None:
            telemetry.metrics.gauge(
                "shard_build_total_seconds",
                "Wall-clock seconds of the whole (possibly parallel) "
                "shard build",
            ).set(elapsed)
        return cls(
            graph,
            partition,
            shards,
            vartheta=vartheta,
            method=method,
            ordering_name=ordering,
            stitch_limit=stitch_limit,
            jobs=jobs,
            build_seconds=elapsed,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # routing internals
    # ------------------------------------------------------------------

    @property
    def stitch_limit(self) -> int:
        return self.planner.stitch_limit

    @stitch_limit.setter
    def stitch_limit(self, value: int) -> None:
        self.planner.stitch_limit = value

    def _tally(self, route: str, n: int = 1) -> None:
        self.route_counts[route] = self.route_counts.get(route, 0) + n
        if self._obs_routes is not None:
            self._obs_routes.inc(n, route=route)

    def _observe_plan(self, plan: QueryPlan, queries: int,
                      event: bool = True) -> None:
        """Record one routing decision (telemetry enabled only).

        ``event=False`` skips the tracer event — used by the θ
        decomposition loop, which plans one span route per subwindow
        and would otherwise flood the trace.
        """
        if plan.route == "stitch":
            self._obs_boundary.observe(len(plan.boundary))
        if event:
            tracer = self._telemetry.tracer
            if tracer:
                tracer.event(
                    "shard.plan", route=plan.route, queries=queries,
                    shards=len(plan.shards), boundary=len(plan.boundary),
                    window=(None if plan.window is None
                            else [plan.window.start, plan.window.end]),
                )

    def _shard_span(self, shard_id: int, ui: int, vi: int,
                    window: Interval, prefilter: bool = True) -> bool:
        shard = self.shards[shard_id]
        return queries.span_reachable(
            shard.graph, shard.flat, shard.order.rank, ui, vi, window,
            prefilter=prefilter,
        )

    def _stitch_span(self, ui: int, vi: int, plan: QueryPlan) -> bool:
        """Contracted-graph BFS over ``{u, v} ∪ boundary`` (see
        :mod:`repro.shard.planner` for the soundness argument)."""
        subwindows = {
            k: self.planner.subwindow(k, plan.window) for k in plan.shards
        }

        def hop(xi: int, yi: int) -> bool:
            for k in plan.shards:
                if self._shard_span(k, xi, yi, subwindows[k]):
                    return True
            return False

        nodes = [x for x in plan.boundary if x != ui and x != vi]
        nodes.append(vi)
        seen = {ui}
        queue = deque([ui])
        while queue:
            xi = queue.popleft()
            for yi in nodes:
                if yi in seen or not hop(xi, yi):
                    continue
                if yi == vi:
                    return True
                seen.add(yi)
                queue.append(yi)
        return False

    def _answer_planned(self, ui: int, vi: int, plan: QueryPlan,
                        prefilter: bool = True) -> bool:
        """One span answer under an already-computed plan."""
        if ui == vi:
            return True
        if plan.route == "empty":
            return False
        if plan.route == "contained":
            return self._shard_span(plan.shards[0], ui, vi, plan.window,
                                    prefilter=prefilter)
        if plan.route == "fallback":
            return online.online_span_reachable(self.graph, ui, vi,
                                                plan.window)
        return self._stitch_span(ui, vi, plan)

    def _span_routed(self, ui: int, vi: int, window: Interval,
                     prefilter: bool = True, event: bool = True) -> bool:
        plan = self.planner.plan_span(window)
        self._tally(plan.route)
        if self._telemetry is not None:
            self._observe_plan(plan, 1, event=event)
        return self._answer_planned(ui, vi, plan, prefilter=prefilter)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def plan_span(self, interval: IntervalLike) -> QueryPlan:
        """The routing decision for a span window (observability)."""
        return self.planner.plan_span(as_interval(interval))

    def span_reachable(
        self,
        u: Vertex,
        v: Vertex,
        interval: IntervalLike,
        prefilter: bool = True,
        fallback: Optional[str] = None,
    ) -> bool:
        """Does *u* span-reach *v* within *interval*?

        Answer-identical to :meth:`TILLIndex.span_reachable` on the
        same graph and ``vartheta`` (the differential fuzzer enforces
        this), including ``fallback="online"`` for over-cap windows.
        ``prefilter`` only affects the contained route; the stitch and
        fallback routes always use their own pruning.
        """
        window = as_interval(interval)
        ui = self.graph.index_of(u)
        vi = self.graph.index_of(v)
        if self.vartheta is not None and window.length > self.vartheta:
            if fallback == "online":
                self._tally("online-cap-fallback")
                return online.online_span_reachable(self.graph, ui, vi,
                                                    window)
            check_vartheta(self.vartheta, window.length)
        return self._span_routed(ui, vi, window, prefilter=prefilter)

    def theta_reachable(
        self,
        u: Vertex,
        v: Vertex,
        interval: IntervalLike,
        theta: int,
        prefilter: bool = True,
    ) -> bool:
        """Does *u* θ-reach *v* within *interval*?

        Windows inside one slice run the shard's sliding ES-Reach*;
        straddling windows decompose into one routed span query per
        θ-length subwindow (subwindows outside the lifetime are skipped
        — they cannot contain an edge).
        """
        window = validate_theta_window(interval, theta)
        check_vartheta(self.vartheta, theta)
        ui = self.graph.index_of(u)
        vi = self.graph.index_of(v)
        if ui == vi:
            return True
        plan = self.planner.plan_theta(window, theta)
        self._tally("theta-" + plan.route)
        if self._telemetry is not None:
            self._observe_plan(plan, 1)
        if plan.route == "empty":
            return False
        if plan.route == "contained":
            shard = self.shards[plan.shards[0]]
            return queries.theta_reachable(
                shard.graph, shard.flat, shard.order.rank, ui, vi,
                window, theta, prefilter=prefilter,
            )
        lo = max(window.start, self.partition.t_min - theta + 1)
        hi = min(window.end - theta + 1, self.partition.t_max)
        for start in range(lo, hi + 1):
            if self._span_routed(ui, vi, Interval(start, start + theta - 1),
                                 prefilter=prefilter, event=False):
                return True
        return False

    def span_reachable_many(
        self,
        pairs: Iterable[Pair],
        interval: IntervalLike,
        prefilter: bool = True,
        fallback: Optional[str] = None,
    ) -> List[bool]:
        """Batch span queries over one window, planned once.

        A contained window delegates the whole batch to its shard's
        amortized batch path; stitch/fallback windows answer each
        distinct pair once.  Answers are in input order and identical
        to per-pair :meth:`span_reachable` calls.
        """
        batch = list(pairs)
        window = as_interval(interval)
        if self.vartheta is not None and window.length > self.vartheta:
            if fallback != "online":
                check_vartheta(self.vartheta, window.length)
            self._tally("online-cap-fallback", len(batch))
            memo: Dict[Pair, bool] = {}
            out = []
            for u, v in batch:
                if (u, v) not in memo:
                    memo[(u, v)] = online.online_span_reachable(
                        self.graph, self.graph.index_of(u),
                        self.graph.index_of(v), window,
                    )
                out.append(memo[(u, v)])
            return out
        plan = self.planner.plan_span(window)
        self._tally(plan.route, len(batch))
        if self._telemetry is not None:
            self._observe_plan(plan, len(batch))
        if plan.route == "contained":
            shard = self.shards[plan.shards[0]]
            return shard.span_reachable_many(batch, plan.window,
                                             prefilter=prefilter)
        memo = {}
        out = []
        for u, v in batch:
            key = (u, v)
            if key not in memo:
                memo[key] = self._answer_planned(
                    self.graph.index_of(u), self.graph.index_of(v), plan,
                    prefilter=prefilter,
                )
            out.append(memo[key])
        return out

    def theta_reachable_many(
        self,
        pairs: Iterable[Pair],
        interval: IntervalLike,
        theta: int,
        prefilter: bool = True,
    ) -> List[bool]:
        """Batch θ queries over one window (validated once)."""
        batch = list(pairs)
        window = validate_theta_window(interval, theta)
        check_vartheta(self.vartheta, theta)
        plan = self.planner.plan_theta(window, theta)
        if plan.route == "contained":
            self._tally("theta-contained", len(batch))
            shard = self.shards[plan.shards[0]]
            return shard.theta_reachable_many(batch, window, theta,
                                              prefilter=prefilter)
        memo: Dict[Pair, bool] = {}
        out = []
        for u, v in batch:
            key = (u, v)
            if key not in memo:
                memo[key] = self.theta_reachable(u, v, window, theta,
                                                 prefilter=prefilter)
            out.append(memo[key])
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> ShardedIndexStats:
        """Aggregate statistics (per-shard stats included)."""
        shard_stats = [s.stats() for s in self.shards]
        return ShardedIndexStats(
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            directed=self.graph.directed,
            num_shards=self.partition.num_shards,
            policy=self.partition.policy,
            jobs=self.jobs,
            vartheta=self.vartheta,
            stitch_limit=self.stitch_limit,
            build_seconds=self.build_seconds,
            max_shard_build_seconds=max(
                (s.build_seconds for s in shard_stats), default=0.0
            ),
            total_entries=sum(s.total_entries for s in shard_stats),
            estimated_bytes=sum(s.estimated_bytes for s in shard_stats),
            shards=shard_stats,
        )

    def verify(self, samples: int = 100, seed: int = 0) -> None:
        """Differential self-check against a freshly built monolithic
        index (all routing paths); raises ``AssertionError`` on the
        first disagreement.  Debug/test aid, not a production path."""
        from repro.fuzz.differential import check_sharded_index

        reference = TILLIndex.build(self.graph, vartheta=self.vartheta,
                                    method=self.method)
        mismatches = check_sharded_index(self, reference, samples=samples,
                                         seed=seed)
        if mismatches:
            raise AssertionError(
                f"sharded index disagrees with the monolithic reference: "
                f"{mismatches[0]}"
            )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> None:
        """Write a shard directory: ``manifest.json`` plus one standard
        ``.till`` file per slice (the :meth:`TILLIndex.save` format —
        format 3, so shard workers can later ``mmap`` the files and
        share the OS page cache)."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        slices = []
        for k, (s, shard) in enumerate(zip(self.partition.slices,
                                           self.shards)):
            filename = SHARD_FILE_FORMAT.format(k)
            shard.save(path / filename)
            entry = s.as_dict()
            entry["file"] = filename
            slices.append(entry)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "policy": self.partition.policy,
            "num_shards": self.partition.num_shards,
            "t_min": self.partition.t_min,
            "t_max": self.partition.t_max,
            "directed": self.graph.directed,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "vartheta": self.vartheta,
            "stitch_limit": self.stitch_limit,
            "slices": slices,
            "meta": {
                "method": self.method,
                "ordering": self.ordering_name,
                "jobs": self.jobs,
                "build_seconds": self.build_seconds,
            },
        }
        with open(path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(
        cls, directory: Union[str, Path], graph: TemporalGraph,
        telemetry=None, mmap: bool = False,
    ) -> "ShardedTILLIndex":
        """Read a shard directory written by :meth:`save`, rebinding it
        to *graph* (which must match: vertex/edge counts, directedness,
        per-slice edge counts, and every per-shard fingerprint checked
        by :meth:`TILLIndex.load`).  ``telemetry`` attaches a metrics
        registry to the loaded index, exactly as in :meth:`build`.
        ``mmap=True`` maps each format-3 shard file zero-copy — opening
        a directory of shards costs O(1) per shard, and worker
        processes mapping the same files share one copy of the label
        arrays in the OS page cache."""
        path = Path(directory)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise IndexFormatError(
                f"{path} is not a shard directory: missing {MANIFEST_NAME}"
            )
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexFormatError(
                f"corrupt shard manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise IndexFormatError(
                f"unsupported shard manifest schema "
                f"{manifest.get('schema')!r} (expected {MANIFEST_SCHEMA!r})"
            )
        if not graph.frozen:
            graph.freeze()
        if manifest["directed"] != graph.directed:
            raise IndexBuildError("shard index/graph directedness mismatch")
        if manifest["num_vertices"] != graph.num_vertices:
            raise IndexBuildError(
                f"shard index has {manifest['num_vertices']} vertices but "
                f"the graph has {graph.num_vertices}"
            )
        if manifest["num_edges"] != graph.num_edges:
            raise IndexBuildError(
                f"shard index/graph edge-count mismatch: manifest says "
                f"{manifest['num_edges']} temporal edges but the graph has "
                f"{graph.num_edges}"
            )
        bounds = [(s["t_start"], s["t_end"]) for s in manifest["slices"]]
        partition = TimePartition.from_bounds(bounds, graph,
                                              policy=manifest["policy"])
        for computed, stored in zip(partition.slices, manifest["slices"]):
            if computed.num_edges != stored["num_edges"]:
                raise IndexBuildError(
                    f"slice {computed.shard} [{computed.t_start}, "
                    f"{computed.t_end}] holds {computed.num_edges} edges in "
                    f"the graph but the manifest recorded "
                    f"{stored['num_edges']}; was the index built from a "
                    "different graph?"
                )
        buckets = partition.assign_edges(graph.edges())
        vertex_labels = list(graph.vertices())
        shards = []
        for k, stored in enumerate(manifest["slices"]):
            shard_path = path / stored["file"]
            if not shard_path.exists():
                raise IndexFormatError(
                    f"shard directory is missing {stored['file']} "
                    f"(slice {k})"
                )
            sub = _slice_subgraph(vertex_labels, buckets[k], graph.directed)
            shards.append(TILLIndex.load(shard_path, sub, mmap=mmap))
        meta = manifest.get("meta", {})
        return cls(
            graph,
            partition,
            shards,
            vartheta=manifest["vartheta"],
            method=meta.get("method", "optimized"),
            ordering_name=meta.get("ordering", "unknown"),
            stitch_limit=manifest.get("stitch_limit", 64),
            jobs=meta.get("jobs", 1),
            build_seconds=meta.get("build_seconds", 0.0),
            telemetry=telemetry,
        )

    def __repr__(self) -> str:
        cap = "inf" if self.vartheta is None else str(self.vartheta)
        return (
            f"ShardedTILLIndex(n={self.graph.num_vertices}, "
            f"shards={self.partition.num_shards}, "
            f"policy={self.partition.policy}, vartheta={cap})"
        )
