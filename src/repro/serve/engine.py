"""High-throughput batched query execution (the serving hot path).

A scalar :meth:`repro.core.index.TILLIndex.span_reachable` call pays,
per query: window validation, two vertex-id resolutions, two Lemma 9/10
prefilter probes, and the label merge.  On a service answering batches
of queries most of that overhead repeats — the same window, the same
sources fanned out to many targets, the same (u, v) pair asked again a
moment later.  :class:`QueryEngine` amortizes it:

* the window is validated (and the ϑ-cap capability checked) **once per
  batch**;
* vertex ids are resolved **once per distinct vertex** and the Lemma
  9/10 prefilter probes are computed **once per distinct endpoint**,
  not once per query;
* the batch is deduplicated and grouped by source vertex so each
  ``L_out(u)`` is walked for all its targets consecutively (cache
  locality on the label arrays);
* answers land in a bounded LRU cache keyed ``(u, v, window, θ)`` with
  **generation-based invalidation**: wrapping an
  :class:`~repro.core.incremental.IncrementalTILLIndex`, the engine
  subscribes to its mutation hook, so an edge insert or removal bumps
  the generation and every cached answer computed before it is ignored.

Observability: :meth:`QueryEngine.stats` exposes queries served, cache
hit rate, and per-outcome tallies; :meth:`QueryEngine.profile_many`
delegates to :mod:`repro.core.profiling` for the deep per-condition
work counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import online, queries
from repro.core.incremental import IncrementalTILLIndex
from repro.core.index import TILLIndex
from repro.core.intervals import (
    IntervalLike,
    as_interval,
    check_vartheta,
    validate_theta_window,
)
from repro.errors import InvalidIntervalError
from repro.serve.cache import MISS, GenerationalLRUCache
from repro.shard.sharded import ShardedTILLIndex

Pair = Tuple[Any, Any]

#: Outcome labels used by the fast-path tallies.  ``same-vertex``,
#: ``prefilter`` and ``unreachable`` match the names used by
#: :mod:`repro.core.profiling`; the engine adds ``cache-hit``,
#: ``reachable`` (a positive answered by the label merge, condition not
#: attributed) and ``online-fallback``.
OUTCOMES = (
    "cache-hit", "same-vertex", "prefilter", "reachable", "unreachable",
    "online-fallback",
)

@dataclass
class EngineStats:
    """A point-in-time snapshot of the engine's counters."""

    queries: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_stale_drops: int = 0
    cache_entries: int = 0
    cache_capacity: int = 0
    generation: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of served queries answered straight from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["outcomes"] = dict(self.outcomes)
        out["hit_rate"] = self.hit_rate
        return out


class QueryEngine:
    """Batched span-/θ-reachability execution with result caching.

    Parameters
    ----------
    index:
        A :class:`~repro.core.index.TILLIndex`, an
        :class:`~repro.core.incremental.IncrementalTILLIndex`, or a
        :class:`~repro.shard.ShardedTILLIndex`.  For the incremental
        backend the engine subscribes to the index's invalidation hook:
        every edge insert/removal bumps the cache generation so stale
        answers are never served.  For the sharded backend, cache
        misses are routed in one bulk call so the window is planned
        once and the batch runs grouped by shard; cache keys are
        identical across all backends.
    cache_size:
        Capacity of the LRU result cache; ``0`` disables cross-call
        caching (batch-level dedup and amortization still apply).
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When set, every
        outcome tally also lands in the shared metrics registry
        (``engine_outcomes_total{outcome=...}`` — the unified
        counterpart of :meth:`stats`, which keeps working unchanged),
        per-batch latency/size histograms are recorded, and each batch
        runs under an ``engine.span-batch`` / ``engine.theta-batch``
        tracer span.  ``None`` (default) records nothing; the hot path
        pays one attribute check.
    thread_safe:
        The engine's default concurrency contract is *per-worker
        isolation*: one thread (or process) owns the engine, so stat
        tallies and the cache stay lock-free.  ``thread_safe=True``
        guards the result cache and every stat/telemetry mutation with
        locks so multiple threads may call :meth:`span_many` /
        :meth:`theta_many` concurrently.  Each in-flight batch binds
        the backing index once at entry, so :meth:`swap_index` (hot
        swap) never mixes two indexes within one batch.
    kernel_threads:
        Kept for callers that pass it: only ``1`` is accepted (every
        miss batch runs as one sequential kernel call); anything else
        raises :class:`ValueError`.

    Examples
    --------
    >>> from repro import TemporalGraph, TILLIndex
    >>> g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
    >>> engine = QueryEngine(TILLIndex.build(g))
    >>> engine.span_many([("a", "b"), ("a", "c"), ("c", "a")], (1, 2))
    [True, True, False]
    >>> engine.stats().queries
    3
    """

    def __init__(
        self,
        index: Any,
        cache_size: int = 4096,
        telemetry=None,
        thread_safe: bool = False,
        kernel_threads: int = 1,
    ):
        if kernel_threads != 1:
            raise ValueError(
                f"kernel_threads must be 1, got {kernel_threads!r}"
            )
        self._incremental = isinstance(index, IncrementalTILLIndex)
        self._sharded = isinstance(index, ShardedTILLIndex)
        self.index = index
        self._cache = GenerationalLRUCache(cache_size,
                                           thread_safe=thread_safe)
        self._lock = threading.Lock() if thread_safe else None
        self._queries = 0
        self._batches = 0
        self._outcomes: Dict[str, int] = {}
        self._telemetry = telemetry
        self._obs_outcomes = None
        # Outcome totals already pushed to the registry counter; the
        # delta is flushed once per batch (per-query labeled inc()s on
        # the hot path would cost more than the queries themselves).
        self._obs_flushed: Dict[str, int] = {}
        if telemetry is not None:
            from repro.obs.metrics import (
                DEFAULT_SIZE_BUCKETS,
                DEFAULT_TIME_BUCKETS,
            )

            m = telemetry.metrics
            self._obs_outcomes = m.counter(
                "engine_outcomes_total",
                "Queries by answering outcome (unifies EngineStats)",
            )
            self._obs_queries = m.counter(
                "engine_queries_total", "Queries served, by query kind"
            )
            self._obs_batches = m.counter(
                "engine_batches_total", "Batches served, by query kind"
            )
            self._obs_batch_seconds = m.histogram(
                "engine_batch_seconds", DEFAULT_TIME_BUCKETS,
                "Wall-clock seconds per served batch",
            )
            self._obs_batch_size = m.histogram(
                "engine_batch_size", DEFAULT_SIZE_BUCKETS,
                "Queries per served batch",
            )
            self._obs_cache_entries = m.gauge(
                "engine_cache_entries", "Live entries in the result cache"
            )
            self._obs_generation = m.gauge(
                "engine_cache_generation",
                "Result-cache invalidation generation",
            )
        if self._incremental:
            index.subscribe_invalidation(
                lambda _gen: self._cache.bump_generation()
            )

    # ------------------------------------------------------------------
    # public query API
    # ------------------------------------------------------------------

    def span_reachable(
        self,
        u: Any,
        v: Any,
        interval: IntervalLike,
        prefilter: bool = True,
        fallback: Optional[str] = None,
    ) -> bool:
        """One span query through the batch machinery (and the cache)."""
        return self.span_many(
            [(u, v)], interval, prefilter=prefilter, fallback=fallback
        )[0]

    def theta_reachable(
        self, u: Any, v: Any, interval: IntervalLike, theta: int,
        prefilter: bool = True,
    ) -> bool:
        """One θ query through the batch machinery (and the cache)."""
        return self.theta_many([(u, v)], interval, theta,
                               prefilter=prefilter)[0]

    def span_many(
        self,
        pairs: Iterable[Pair],
        interval: IntervalLike,
        prefilter: bool = True,
        fallback: Optional[str] = None,
    ) -> List[bool]:
        """Answer a batch of span queries over one window.

        Semantics match :meth:`TILLIndex.span_reachable` per pair
        (including ``fallback="online"`` for windows wider than a
        build-time ϑ cap); overhead is amortized as described in the
        module docstring.  Returns answers in input order.
        """
        batch = list(pairs)
        obs = self._telemetry
        if obs is None:
            return self._span_many(batch, interval, prefilter, fallback)
        started = time.perf_counter()
        with obs.tracer.span("engine.span-batch", size=len(batch)):
            results = self._span_many(batch, interval, prefilter, fallback)
        self._record_batch("span", len(batch),
                           time.perf_counter() - started)
        return results

    def _span_many(self, batch, interval, prefilter, fallback) -> List[bool]:
        window = as_interval(interval)
        # Bind the backing index ONCE: a concurrent hot swap
        # (:meth:`swap_index`) must never mix two indexes in one batch.
        index = self.index
        self._note_batch(len(batch))
        if isinstance(index, IncrementalTILLIndex):
            return self._bulk_batch(batch, window, None, lambda pairs: [
                index.span_reachable(u, v, window, fallback=fallback)
                for u, v in pairs
            ])
        if index.vartheta is not None and window.length > index.vartheta:
            if fallback != "online":
                # Same contract as the facade: an over-cap window
                # without an explicit escape hatch is an error.
                check_vartheta(index.vartheta, window.length)
            return self._span_batch_online(index, batch, window)
        if isinstance(index, ShardedTILLIndex):
            return self._bulk_batch(
                batch, window, None,
                lambda pairs: index.span_reachable_many(
                    pairs, window, prefilter=prefilter
                ),
            )
        flat, rank = index.flat, index.order.rank
        ws, we = window.start, window.end
        return self._indexed_batch(
            index, batch, window, None, prefilter,
            lambda pairs: queries.flat_span_batch(flat, rank, pairs, ws, we),
        )

    def theta_many(
        self,
        pairs: Iterable[Pair],
        interval: IntervalLike,
        theta: int,
        algorithm: str = "sliding",
        prefilter: bool = True,
    ) -> List[bool]:
        """Answer a batch of θ queries over one window.

        Per-pair semantics match :meth:`TILLIndex.theta_reachable`;
        validation, capability checks and prefilter probes are
        amortized across the batch.
        """
        batch = list(pairs)
        obs = self._telemetry
        if obs is None:
            return self._theta_many(batch, interval, theta, algorithm,
                                    prefilter)
        started = time.perf_counter()
        with obs.tracer.span("engine.theta-batch", size=len(batch),
                             theta=theta):
            results = self._theta_many(batch, interval, theta, algorithm,
                                       prefilter)
        self._record_batch("theta", len(batch),
                           time.perf_counter() - started)
        return results

    def _theta_many(self, batch, interval, theta, algorithm,
                    prefilter) -> List[bool]:
        window = validate_theta_window(interval, theta)
        if algorithm not in ("sliding", "naive"):
            raise InvalidIntervalError(
                f"unknown theta algorithm {algorithm!r}; use 'sliding' or "
                "'naive'"
            )
        index = self.index  # bound once; see _span_many
        if algorithm == "naive" and not isinstance(index, TILLIndex):
            backend = "sharded" if isinstance(index, ShardedTILLIndex) \
                else "incremental"
            raise InvalidIntervalError(
                f"the {backend} backend only implements the 'sliding' "
                "theta algorithm"
            )
        self._note_batch(len(batch))
        if isinstance(index, IncrementalTILLIndex):
            return self._bulk_batch(batch, window, theta, lambda pairs: [
                index.theta_reachable(u, v, window, theta) for u, v in pairs
            ])
        check_vartheta(index.vartheta, theta)
        if isinstance(index, ShardedTILLIndex):
            return self._bulk_batch(
                batch, window, theta,
                lambda pairs: index.theta_reachable_many(
                    pairs, window, theta, prefilter=prefilter
                ),
            )
        graph, flat, rank = index.graph, index.flat, index.order.rank
        ws, we = window.start, window.end
        if algorithm == "sliding":
            kernel = lambda pairs: queries.flat_theta_batch(
                flat, rank, pairs, ws, we, theta
            )
        else:
            kernel = lambda pairs: [
                queries.theta_reachable_naive(
                    graph, flat, rank, ui, vi, window, theta, prefilter=False
                )
                for ui, vi in pairs
            ]
        return self._indexed_batch(index, batch, window, theta, prefilter,
                                   kernel)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> EngineStats:
        """Current counters (queries, batches, cache, outcome tallies)."""
        cache = self._cache
        return EngineStats(
            queries=self._queries,
            batches=self._batches,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
            cache_stale_drops=cache.stale_drops,
            cache_entries=len(cache),
            cache_capacity=cache.capacity,
            generation=cache.generation,
            outcomes=dict(self._outcomes),
        )

    def reset_stats(self) -> None:
        """Zero the tallies; cached *state* deliberately survives.

        Only the observational counters are cleared: queries, batches,
        outcome tallies, and the cache's hit/miss/eviction/stale-drop
        counts.  Cached answers are **kept** (the next identical query
        is still a cache hit) and the invalidation ``generation`` is
        **not** reset — it tracks index mutations, not statistics, so
        zeroing it would resurrect answers cached before an edge
        insert/removal.  Call :meth:`invalidate` to actually drop
        cached answers.  (Telemetry registry counters, being cumulative
        by design, are also unaffected.)
        """
        cache = self._cache
        cache.hits = cache.misses = cache.evictions = cache.stale_drops = 0
        self._queries = self._batches = 0
        self._outcomes = {}
        # The registry counter stays cumulative; restart delta tracking
        # so the next flush doesn't compute against pre-reset totals.
        self._obs_flushed = {}

    def invalidate(self) -> None:
        """Manually drop every cached answer (bumps the generation)."""
        self._cache.bump_generation()

    def close(self) -> None:
        """Nothing to release; kept so callers may pair an engine's
        lifetime with ``close()``."""

    def swap_index(self, index: Any) -> Any:
        """Hot-swap the backing index; returns the one replaced.

        The serving tier uses this to roll a rebuilt ``.till`` file in
        under live traffic: the reference swap is atomic, the cache
        generation is bumped so every answer computed against the old
        index is invalidated, and in-flight batches — which bound the
        old index at entry — complete against it untouched (an
        mmap-backed flat store stays mapped for exactly as long as
        someone still references it).  The caller is responsible for
        the new index answering the same query population (same graph
        semantics); nothing here checks graph equality.
        """
        old = self.index
        self._incremental = isinstance(index, IncrementalTILLIndex)
        self._sharded = isinstance(index, ShardedTILLIndex)
        self.index = index
        if self._incremental:
            index.subscribe_invalidation(
                lambda _gen: self._cache.bump_generation()
            )
        self._cache.bump_generation()
        return old

    def profile_many(self, span_queries: Iterable[Tuple[Any, Any, IntervalLike]],
                     prefilter: bool = True, theta: Optional[int] = None):
        """Deep per-condition work counters for a span (or θ) workload.

        Delegates to :func:`repro.core.profiling.profile_workload` (the
        instrumented, slower path); only meaningful over a plain
        :class:`TILLIndex`.  With ``theta`` set, every query profiles
        through Algorithm 5's θ path instead of the span path.
        """
        from repro.core.profiling import profile_workload

        if self._incremental or self._sharded:
            raise TypeError(
                "profile_many requires a plain TILLIndex backend"
            )
        return profile_workload(self.index, span_queries,
                                prefilter=prefilter, theta=theta)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _note_batch(self, n: int) -> None:
        """Count one batch of *n* queries (locked when thread-safe)."""
        lock = self._lock
        if lock is None:
            self._batches += 1
            self._queries += n
        else:
            with lock:
                self._batches += 1
                self._queries += n

    def _tally(self, outcome: str, n: int = 1) -> None:
        lock = self._lock
        if lock is None:
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + n
        else:
            with lock:
                self._outcomes[outcome] = self._outcomes.get(outcome, 0) + n

    def _record_batch(self, kind: str, size: int, seconds: float) -> None:
        """Registry-side per-batch recording (telemetry enabled only)."""
        lock = self._lock
        if lock is None:
            self._record_batch_inner(kind, size, seconds)
        else:
            with lock:
                self._record_batch_inner(kind, size, seconds)

    def _record_batch_inner(self, kind: str, size: int,
                            seconds: float) -> None:
        flushed = self._obs_flushed
        for outcome, total in self._outcomes.items():
            delta = total - flushed.get(outcome, 0)
            if delta:
                self._obs_outcomes.inc(delta, outcome=outcome)
                flushed[outcome] = total
        self._obs_queries.inc(size, kind=kind)
        self._obs_batches.inc(kind=kind)
        self._obs_batch_seconds.observe(seconds, kind=kind)
        self._obs_batch_size.observe(size, kind=kind)
        cache = self._cache
        self._obs_cache_entries.set(len(cache))
        self._obs_generation.set(cache.generation)

    def _bulk_batch(self, batch, window, theta, bulk) -> List[bool]:
        """Cache-and-dedup driver for backends that answer whole pairs:
        the incremental and sharded indexes and the online fallback.

        Duplicates within the batch are folded before the cache is
        consulted, and the misses are answered by ONE *bulk* call (a
        list of distinct ``(u, v)`` → answers in order) — which lets a
        :class:`~repro.shard.ShardedTILLIndex` plan the window once and
        group the whole batch by shard.  Cache keys stay
        ``(u, v, ws, we, θ)`` on every backend, so a cache warmed by
        one backend is valid for another.
        """
        cache = self._cache
        ws, we = window.start, window.end
        results: List[Optional[bool]] = [None] * len(batch)
        pending: Dict[Tuple, List[int]] = {}
        order: List[Tuple] = []
        for k, (u, v) in enumerate(batch):
            key = (u, v, ws, we, theta)
            slots = pending.get(key)
            if slots is not None:  # duplicate within this batch
                slots.append(k)
                continue
            hit = cache.get(key)
            if hit is not MISS:
                results[k] = hit
                self._tally("cache-hit")
                continue
            pending[key] = [k]
            order.append(key)
        if order:
            answers = bulk([(key[0], key[1]) for key in order])
            for key, answer in zip(order, answers):
                cache.put(key, answer)
                if theta is None and key[0] == key[1]:
                    outcome = "same-vertex"
                else:
                    outcome = "reachable" if answer else "unreachable"
                slots = pending[key]
                self._tally(outcome, len(slots))
                for k in slots:
                    results[k] = answer
        return results  # type: ignore[return-value]

    def _span_batch_online(self, index, batch, window) -> List[bool]:
        """Over-cap windows answered per distinct pair by Algorithm 1."""
        graph = index.graph

        def bulk(pairs):
            self._tally("online-fallback", len(pairs))
            return [
                online.online_span_reachable(
                    graph, graph.index_of(u), graph.index_of(v), window
                )
                for u, v in pairs
            ]

        return self._bulk_batch(batch, window, None, bulk)

    def _indexed_batch(self, index, batch, window, theta, prefilter,
                       kernel) -> List[bool]:
        """The amortized fast path over a plain TILLIndex, for span
        (*theta* ``None``) and θ queries alike.

        Three passes: (1) resolve ids / serve cache hits / dedup, (2)
        same-vertex + prefilter decisions grouped by source so each
        probe runs once per distinct endpoint, (3) one *kernel* call
        (``pairs -> answers`` over resolved ids) for every surviving
        miss.  With the cache disabled the per-query key shrinks to
        ``(u, v)`` and the get/put calls are skipped entirely (the miss
        counter is bumped in bulk); outcome tallies accumulate in
        locals and flush once per batch.
        """
        graph = index.graph
        cache = self._cache
        caching = cache.capacity > 0
        ws, we = window.start, window.end
        resolve: Dict[Any, int] = {}
        out_ok: Dict[int, bool] = {}
        in_ok: Dict[int, bool] = {}
        results: List[Optional[bool]] = [None] * len(batch)
        n_hit = n_same = n_pre = n_reach = n_unreach = lookups = 0
        # Pass 1 — dedup on the bare pair, serve cache hits, then
        # resolve ids (only misses pay the id lookups) and group the
        # misses by (resolved) source vertex.
        by_source: Dict[int, List[Tuple[Tuple, int, List[int]]]] = {}
        pending: Dict[Tuple, List[int]] = {}
        if batch and type(batch[0]) is not tuple:
            # ``Pair`` is declared a tuple; tolerate list-like pairs by
            # normalizing once instead of rebuilding a key per element.
            batch = [tuple(p) for p in batch]
        for k, pair in enumerate(batch):
            slots = pending.get(pair)
            if slots is not None:  # duplicate within this batch
                slots.append(k)
                continue
            u, v = pair
            if caching:
                key = (u, v, ws, we, theta)
                hit = cache.get(key)
                if hit is not MISS:
                    results[k] = hit
                    n_hit += 1
                    continue
            else:
                key = pair
                lookups += 1
            ui = resolve.get(u)
            if ui is None:
                ui = resolve[u] = graph.index_of(u)
            vi = resolve.get(v)
            if vi is None:
                vi = resolve[v] = graph.index_of(v)
            slots = [k]
            pending[pair] = slots
            group = by_source.get(ui)
            if group is None:
                group = by_source[ui] = []
            group.append((key, vi, slots))
        # Pass 2 — one source group at a time: the source-side Lemma
        # 9/10 probe and L_out(u) are shared by every target in the
        # group.  Kernel-bound misses are deferred to one kernel call.
        deferred: List[Tuple[Tuple, List[int]]] = []
        miss_pairs: List[Tuple[int, int]] = []
        for ui, group in by_source.items():
            if prefilter:
                src_ok = out_ok.get(ui)
                if src_ok is None:
                    src_ok = out_ok[ui] = graph.has_out_edge_in(ui, ws, we)
            for key, vi, slots in group:
                if ui == vi:
                    answer = True
                    n_same += len(slots)
                elif prefilter:
                    if not src_ok:
                        answer = False
                        n_pre += len(slots)
                    else:
                        dst_ok = in_ok.get(vi)
                        if dst_ok is None:
                            dst_ok = in_ok[vi] = graph.has_in_edge_in(
                                vi, ws, we
                            )
                        if not dst_ok:
                            answer = False
                            n_pre += len(slots)
                        else:
                            deferred.append((key, slots))
                            miss_pairs.append((ui, vi))
                            continue
                else:
                    deferred.append((key, slots))
                    miss_pairs.append((ui, vi))
                    continue
                if caching:
                    cache.put(key, answer)
                for k in slots:
                    results[k] = answer
        # Pass 3 — every surviving miss through one kernel call
        # (miss_pairs is emitted in by-source runs, which the flat
        # batch kernels walk with one slice lookup per source).
        if miss_pairs:
            for (key, slots), answer in zip(deferred, kernel(miss_pairs)):
                if answer:
                    n_reach += len(slots)
                else:
                    n_unreach += len(slots)
                if caching:
                    cache.put(key, answer)
                for k in slots:
                    results[k] = answer
        if not caching:
            # Every non-duplicate lookup would have missed the (empty)
            # cache; keep the stats surface identical in bulk.
            cache.note_misses(lookups)
        tally = self._tally
        if n_hit:
            tally("cache-hit", n_hit)
        if n_same:
            tally("same-vertex", n_same)
        if n_pre:
            tally("prefilter", n_pre)
        if n_reach:
            tally("reachable", n_reach)
        if n_unreach:
            tally("unreachable", n_unreach)
        return results  # type: ignore[return-value]
