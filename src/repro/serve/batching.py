"""Micro-batching: coalesce concurrent point queries into batch calls.

The :class:`~repro.serve.QueryEngine` batch path amortizes window
validation, id resolution, prefilter probes and the kernel call across
a whole batch — but a network front end receives *point* queries, one
line at a time, from many connections.  The coalescer bridges the two:
every admitted query parks a future in a pending batch keyed by
``(op, window, θ)`` (the unit over which the engine amortizes), and
the batch is flushed to one ``span_many``/``theta_many`` call when it
reaches ``max_batch`` entries **or** at the end of the event-loop
tick in which it started, whichever comes first — there is no timer,
so a lone query is answered in the loop pass that read it.  Every line
read in one loop wake-up (a pipelined burst, or many connections
readable at once) still shares a batch, and while a batch runs the
next one forms from whatever arrives meanwhile.  The ``execute``
coroutine runs the engine on the loop, so the engine needs no locks.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

#: Batch key: (op, t1, t2, theta) — exactly the engine's amortization
#: unit.  Span ops carry ``theta=None`` (normalized at submit: a span
#: answer never depends on θ, so θ must never fragment span batches).
BatchKey = Tuple[str, int, int, Optional[int]]

#: ``execute(key, pairs) -> answers`` — provided by the server; runs
#: the engine batch call.  An executor accepting a third parameter
#: additionally receives the batch's trace metadata (``{"batch": label,
#: "traces": [...]}``) so the engine-side span can be linked back to
#: the batch that spawned it.
Executor = Callable[[BatchKey, List[Tuple[Any, Any]]], Awaitable[List[bool]]]


class _Pending:
    __slots__ = ("key", "pairs", "futures", "traces", "metas")

    def __init__(self, key: BatchKey):
        self.key = key
        self.pairs: List[Tuple[Any, Any]] = []
        self.futures: List[asyncio.Future] = []
        #: Trace ids of the member queries that carried one.
        self.traces: List[str] = []
        #: Caller-owned per-query dicts to fill with batch metadata.
        self.metas: List[Optional[Dict[str, Any]]] = []


class MicroBatcher:
    """Tick/size-windowed coalescing of point queries into batches.

    ``max_delay`` is ignored (batches flush at the end of the loop
    tick, never on a timer); it is kept so callers passing it work.
    """

    def __init__(
        self,
        execute: Executor,
        max_batch: int = 512,
        max_delay: float = 0.002,
        telemetry=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        # Executors predating trace propagation take (key, pairs);
        # newer ones take (key, pairs, meta).  Sniff once at
        # construction so both keep working.
        try:
            params = inspect.signature(execute).parameters
            self._execute_takes_meta = len(params) >= 3
        except (TypeError, ValueError):
            self._execute_takes_meta = False
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._pending: Dict[BatchKey, _Pending] = {}
        self._tasks: "set[asyncio.Task]" = set()
        self.flushed_batches = 0
        self.flushed_queries = 0
        self._batch_seq = 0
        self._tracer = (
            telemetry.tracer if telemetry is not None
            and telemetry.tracer else None
        )
        self._obs_batch_size = None
        self._obs_flush = None
        if telemetry is not None:
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            m = telemetry.metrics
            self._obs_batch_size = m.histogram(
                "server_batch_size", DEFAULT_SIZE_BUCKETS,
                "Coalesced queries per micro-batch flush",
            )
            self._obs_flush = m.counter(
                "server_batch_flush_total",
                "Micro-batch flushes by trigger (size, tick or drain)",
            )

    def submit(self, op: str, pair: Tuple[Any, Any], t1: int, t2: int,
               theta: Optional[int], trace: Optional[str] = None,
               meta: Optional[Dict[str, Any]] = None,
               ) -> "asyncio.Future[bool]":
        """Park one query; the returned future resolves with its answer
        (or the batch's exception) when its micro-batch flushes.

        *trace* is the query's distributed-trace id (recorded on the
        batch span); *meta*, when given, is a caller-owned dict the
        flush fills with ``{"batch": label, "size": N, "cause": ...}``
        — how the server learns, after the fact, which batch answered
        a request (for the slow-query log and the request span).
        """
        loop = asyncio.get_running_loop()
        # Span answers never depend on θ, so span keys must not either:
        # clients that send an incidental θ default on span requests
        # would otherwise split one coalescible population into
        # per-θ micro-batches, shrinking every batch under mixed
        # traffic.  θ stays in the key only for ops that consume it.
        key: BatchKey = (op, t1, t2, theta if op == "theta" else None)
        batch = self._pending.get(key)
        if batch is None:
            if not self._pending:  # first batch of this tick
                loop.call_soon(self._flush_tick)
            batch = self._pending[key] = _Pending(key)
        future: "asyncio.Future[bool]" = loop.create_future()
        batch.pairs.append(pair)
        batch.futures.append(future)
        if trace is not None:
            batch.traces.append(trace)
        batch.metas.append(meta)
        if len(batch.pairs) >= self.max_batch:
            self._flush(key, "size")
        return future

    def _flush_tick(self) -> None:
        for key in list(self._pending):
            self._flush(key, "tick")

    def _flush(self, key: BatchKey, cause: str) -> None:
        batch = self._pending.pop(key)
        self.flushed_batches += 1
        self.flushed_queries += len(batch.pairs)
        self._batch_seq += 1
        label = f"b{self._batch_seq}"
        for meta in batch.metas:
            if meta is not None:
                meta["batch"] = label
                meta["size"] = len(batch.pairs)
                meta["cause"] = cause
        if self._obs_flush is not None:
            self._obs_flush.inc(cause=cause)
            self._obs_batch_size.observe(len(batch.pairs))
        task = asyncio.get_running_loop().create_task(
            self._run(batch, label, cause)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, batch: _Pending, label: str, cause: str) -> None:
        tracer = self._tracer if batch.traces else None
        started = tracer.now() if tracer else 0.0
        meta = {"batch": label, "traces": list(batch.traces)}
        try:
            if self._execute_takes_meta:
                answers = await self._execute(batch.key, batch.pairs, meta)
            else:
                answers = await self._execute(batch.key, batch.pairs)
        except Exception as exc:  # delivered per future, not raised here
            for future in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            if tracer:
                # Closed-form span (no nesting stack — batches overlap
                # freely on the loop): one batch span records the N
                # member trace ids it coalesced.
                tracer.record_span(
                    "server.batch", started, tracer.now() - started,
                    batch=label, op=batch.key[0], cause=cause,
                    size=len(batch.pairs), traces=list(batch.traces),
                )
        for future, answer in zip(batch.futures, answers):
            if not future.done():
                future.set_result(answer)

    @property
    def pending_queries(self) -> int:
        return sum(len(b.pairs) for b in self._pending.values())

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches —
        graceful shutdown never drops an admitted query."""
        for key in list(self._pending):
            self._flush(key, "drain")
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
