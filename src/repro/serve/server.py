"""The network serving tier: asyncio front end + pre-fork worker pool.

This is the "millions of users" layer: it turns one machine's TILL
index into a service.  The pieces, and why each exists:

* **One physical index copy.**  Every worker process opens the same
  ``.till`` with ``mmap=True``, so the flat label arrays live once in
  the OS page cache no matter how many workers serve them — the
  disk-resident posture that makes worker count a CPU knob, not a
  memory knob.
* **Micro-batching** (:mod:`repro.serve.batching`).  Point queries
  read in one loop tick coalesce into ``(op, window, θ)`` batches that
  run through the :class:`~repro.serve.QueryEngine` batch-kernel path
  on the event loop itself: a lone query is answered in one loop pass.
* **Admission control** (:mod:`repro.serve.admission`).  A bounded
  in-flight queue and per-tenant token buckets reject overload
  explicitly (``overloaded`` / ``quota-exceeded``) instead of letting
  queue latency grow without bound.
* **Hot swap.**  ``SIGHUP`` (or the ``reload`` op) re-opens the index
  file, atomically swaps it into the engine, and generation-bumps the
  result cache.  In-flight batches bound the old index at entry and
  complete against it; the old mapping is dropped when the last
  reference dies.  Zero in-flight queries fail.
* **Pre-fork workers.**  The parent binds the listening socket, forks
  N children, and forwards ``SIGHUP``/``SIGTERM``; each child runs its
  own event loop and engine, so workers share nothing but the socket
  and the page cache, and the engine (only ever called from its loop)
  needs no locks.

Protocol: newline-delimited JSON (:mod:`repro.serve.protocol`) over a
Unix socket or TCP.  Telemetry: ``server_*`` metrics in
:mod:`repro.obs` (see docs/usage.md, "Serving over the network").
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket as socket_module
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.index import TILLIndex
from repro.errors import (
    InvalidIntervalError,
    ReproError,
    UnknownVertexError,
    UnsupportedIntervalError,
)
from repro.serve.admission import AdmissionController, Quota
from repro.serve.batching import BatchKey, MicroBatcher
from repro.serve.engine import QueryEngine
from repro.serve.protocol import (
    BAD_REQUEST,
    BAD_WINDOW,
    INTERNAL,
    SHUTTING_DOWN,
    UNKNOWN_VERTEX,
    UNSUPPORTED,
    ProtocolError,
    Request,
    encode_answer,
    encode_error,
    encode_result,
    parse_request,
)


#: Answers one connection may queue unwritten; past it the connection
#: is not read until its client reads, so memory stays bounded.
RESPONSE_QUEUE_LIMIT = 1024
#: Seconds a graceful stop lets a non-reading client hold it up.
CLOSE_GRACE_SECONDS = 5.0


def _code_for(exc: BaseException) -> str:
    """Map an engine/graph exception to a wire error code."""
    if isinstance(exc, UnknownVertexError):
        return UNKNOWN_VERTEX
    if isinstance(exc, UnsupportedIntervalError):
        return UNSUPPORTED
    if isinstance(exc, InvalidIntervalError):
        return BAD_WINDOW
    return INTERNAL


@dataclass
class ServerConfig:
    """Tuning knobs for one worker (shared by all workers of a pool)."""

    #: Flush a micro-batch at this many queries before the tick ends.
    max_batch: int = 512
    #: Ignored (batches flush at the end of the loop tick, never on a
    #: timer); kept so configs that set it keep loading.
    batch_delay: float = 0.002
    #: Global bound on admitted-but-unanswered queries (0 = unbounded).
    max_inflight: int = 4096
    #: Per-tenant ``{tenant: (rate/s, burst)}`` token-bucket overrides.
    quotas: Dict[str, Quota] = field(default_factory=dict)
    #: Quota for tenants not listed in ``quotas`` (None = unmetered).
    default_quota: Optional[Quota] = None
    #: Engine result-cache capacity (per worker).
    cache_size: int = 4096
    #: Only ``1`` is accepted for either (batches run on the event loop
    #: as one kernel call); kept so configs that set them keep loading.
    executor_threads: int = 1
    kernel_threads: int = 1
    #: Fleet spool directory: when set, every worker builds its own
    #: telemetry, streams its trace to ``trace-{pid}.jsonl`` in here,
    #: and publishes metrics snapshots to ``metrics-{pid}.json`` every
    #: ``metrics_interval`` seconds (plus on shutdown and on every
    #: ``metrics`` op).  The ``metrics`` wire op and the Prometheus
    #: endpoint aggregate this directory.
    obs_dir: Optional[str] = None
    #: Seconds between periodic spool flushes.
    metrics_interval: float = 2.0
    #: Per-worker metrics snapshot written at shutdown; ``{pid}`` /
    #: ``{worker}`` placeholders are expanded (required when shared by
    #: a pre-fork pool).
    metrics_out: Optional[str] = None
    #: Per-worker trace stream (JSON lines, appended live); same
    #: placeholder rules as ``metrics_out``.
    trace_out: Optional[str] = None
    #: Slow-query threshold in milliseconds (None disables the log;
    #: 0 logs every request, useful for smoke runs).
    slow_query_ms: Optional[float] = None
    #: Slow-query log path template (defaults to ``slow-{pid}.jsonl``
    #: inside ``obs_dir`` when that is set).
    slow_query_log: Optional[str] = None
    #: Max slow-query lines written per second (token bucket; beyond
    #: it lines are counted as suppressed, never written).
    slow_query_rate: float = 10.0

    def __post_init__(self) -> None:
        for name in ("kernel_threads", "executor_threads"):
            if getattr(self, name) != 1:
                raise ValueError(
                    f"{name} must be 1, got {getattr(self, name)!r}"
                )


class IndexProvider:
    """Opens — and re-opens, for hot swap — one worker's index.

    ``index_path`` set: loads the saved ``.till``; with ``mmap=True``
    (the serving default) the flat section is mapped zero-copy.
    ``index_path`` unset: builds the index from the graph in-process
    (small datasets, tests).
    """

    def __init__(
        self,
        graph,
        index_path: Optional[str] = None,
        mmap: bool = True,
        vartheta: Optional[int] = None,
    ):
        self.graph = graph
        self.index_path = index_path
        self.mmap = mmap
        self.vartheta = vartheta

    def open(self) -> TILLIndex:
        if self.index_path is not None:
            return TILLIndex.load(self.index_path, self.graph,
                                  mmap=self.mmap)
        return TILLIndex.build(self.graph, vartheta=self.vartheta)


class ReachabilityServer:
    """One worker: an asyncio acceptor that runs its engine on the loop."""

    def __init__(
        self,
        provider: IndexProvider,
        config: Optional[ServerConfig] = None,
        telemetry=None,
        worker_id: int = 0,
    ):
        self.provider = provider
        self.config = config or ServerConfig()
        self.worker_id = worker_id
        self.engine: Optional[QueryEngine] = None
        self.generation = 0
        self.hot_swaps = 0
        self._started = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._batcher: Optional[MicroBatcher] = None
        self._draining = False
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            quotas=self.config.quotas,
            default_quota=self.config.default_quota,
        )
        # --- fleet observability (spool reporter, trace stream,
        # slow-query log); builds this worker's telemetry when the
        # config asks for observability and none was injected ---
        self.telemetry = telemetry
        self._fleet = None
        self._trace_sink = None
        self._slowlog = None
        self._metrics_out_path: Optional[str] = None
        self._init_fleet_obs()
        telemetry = self.telemetry
        # --- telemetry instruments (None when telemetry is off) ---
        self._obs = None
        if telemetry is not None:
            from repro.obs.metrics import DEFAULT_TIME_BUCKETS

            m = telemetry.metrics
            self._obs = {
                "requests": m.counter(
                    "server_requests_total",
                    "Requests by op and outcome (ok or error code)",
                ),
                "rejections": m.counter(
                    "server_rejections_total",
                    "Admission rejections by reason",
                ),
                "tenants": m.counter(
                    "server_tenant_requests_total",
                    "Admitted queries per tenant",
                ),
                "latency": m.histogram(
                    "server_request_seconds", DEFAULT_TIME_BUCKETS,
                    "Admission-to-response latency per query op",
                ),
                "inflight": m.gauge(
                    "server_inflight",
                    "Admitted queries currently queued or executing",
                ),
                "connections": m.counter(
                    "server_connections_total", "Accepted connections"
                ),
                "open_connections": m.gauge(
                    "server_connections_open", "Currently open connections"
                ),
                "swaps": m.counter(
                    "server_hot_swaps_total", "Completed index hot swaps"
                ),
                "generation": m.gauge(
                    "server_index_generation",
                    "Index generation (bumped by each hot swap)",
                ),
            }

    # ------------------------------------------------------------------
    # fleet observability plumbing
    # ------------------------------------------------------------------

    def _expand(self, template: str) -> str:
        return template.replace("{pid}", str(os.getpid())).replace(
            "{worker}", str(self.worker_id)
        )

    def _init_fleet_obs(self) -> None:
        """Build per-worker telemetry/spool/trace/slowlog from config.

        Runs in the worker process (post-fork), so ``{pid}`` paths and
        the spool filenames are per-worker by construction.
        """
        config = self.config
        wants_obs = bool(
            config.obs_dir or config.trace_out or config.metrics_out
            or config.slow_query_ms is not None
        )
        if self.telemetry is None and not wants_obs:
            return
        from repro.obs import Telemetry
        from repro.obs.fleet import FleetReporter, spool_trace_path
        from repro.obs.trace import AppendSink, SpanTracer

        trace_path = None
        if config.trace_out:
            trace_path = self._expand(config.trace_out)
        elif config.obs_dir:
            os.makedirs(config.obs_dir, exist_ok=True)
            trace_path = spool_trace_path(config.obs_dir)
        if self.telemetry is None:
            # Servers run indefinitely: never retain events in memory.
            self.telemetry = Telemetry(tracer=SpanTracer(keep=False))
        tracer = self.telemetry.tracer
        if trace_path is not None and tracer:
            self._trace_sink = AppendSink(
                trace_path, wall_epoch=tracer.wall_epoch,
                extra={"pid": os.getpid(), "worker": self.worker_id},
            )
            tracer.set_sink(self._trace_sink)
        if config.obs_dir:
            self._fleet = FleetReporter(
                self.telemetry, config.obs_dir,
                worker_id=self.worker_id,
            )
        if config.metrics_out:
            self._metrics_out_path = self._expand(config.metrics_out)
        if config.slow_query_ms is not None:
            from repro.obs.slowlog import SlowQueryLog

            log_path = (
                self._expand(config.slow_query_log)
                if config.slow_query_log
                else (os.path.join(config.obs_dir,
                                   f"slow-{os.getpid()}.jsonl")
                      if config.obs_dir else None)
            )
            if log_path is not None:
                self._slowlog = SlowQueryLog(
                    log_path,
                    threshold_s=config.slow_query_ms / 1000.0,
                    max_per_sec=config.slow_query_rate,
                    telemetry=self.telemetry,
                    worker=self.worker_id,
                )

    async def _flush_metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.metrics_interval)
            try:
                self._fleet.flush()
            except OSError:
                pass  # spool momentarily unwritable; next tick retries

    def fleet_metrics(self) -> Dict[str, Any]:
        """The ``metrics`` op payload: the fleet-aggregated view.

        Flushes *this* worker's snapshot first (so the answering
        worker is always current), then merges every snapshot in the
        spool.  Without a spool the single-worker registry is merged
        alone — same document shape either way.
        """
        from repro.obs.fleet import aggregate_spool, merge_metrics_docs

        if self._fleet is not None:
            self._fleet.flush()
            merged, problems = aggregate_spool(self._fleet.spool)
        elif self.telemetry is not None:
            doc = self.telemetry.metrics.snapshot()
            doc["worker"] = {"pid": os.getpid(), "id": self.worker_id}
            merged, problems = merge_metrics_docs([doc])
        else:
            raise ReproError(
                "metrics op needs telemetry; start the server with "
                "--obs-dir (or --metrics-out)"
            )
        merged["problems"] = problems
        return merged

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open_engine(self) -> None:
        """Open the index and build this worker's engine (idempotent)."""
        if self.engine is None:
            self.engine = QueryEngine(
                self.provider.open(),
                cache_size=self.config.cache_size,
                telemetry=self.telemetry,
            )

    async def serve(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        sock: Optional[socket_module.socket] = None,
        ready=None,
        install_signals: bool = False,
    ) -> None:
        """Accept and serve until :meth:`stop` (or SIGTERM/SIGINT).

        Exactly one of ``socket_path``, ``host``/``port``, or an
        already-bound listening ``sock`` (the pre-fork case) selects
        the transport.  ``ready`` (a ``threading.Event``) is set once
        accepting — test harnesses block on it.  ``install_signals``
        wires SIGHUP→hot swap and SIGTERM/SIGINT→graceful stop (only
        possible on a main-thread loop).
        """
        self.open_engine()
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = asyncio.Event()
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch=self.config.max_batch,
            telemetry=self.telemetry,
        )
        if install_signals:
            try:
                loop.add_signal_handler(signal.SIGHUP, self.request_hot_swap)
                loop.add_signal_handler(signal.SIGTERM, self.stop)
                loop.add_signal_handler(signal.SIGINT, self.stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        if sock is not None:
            if sock.family == getattr(socket_module, "AF_UNIX", None):
                server = await asyncio.start_unix_server(
                    self._serve_connection, sock=sock
                )
            else:
                server = await asyncio.start_server(
                    self._serve_connection, sock=sock
                )
        elif socket_path is not None:
            server = await asyncio.start_unix_server(
                self._serve_connection, path=socket_path
            )
        else:
            server = await asyncio.start_server(
                self._serve_connection, host=host or "127.0.0.1",
                port=0 if port is None else port,
            )
        flush_task = (
            loop.create_task(self._flush_metrics_loop())
            if self._fleet is not None else None
        )
        try:
            if ready is not None:
                ready.set()
            await self._stop.wait()
        finally:
            self._draining = True
            server.close()
            # Graceful: every admitted query gets its response.
            await self._batcher.drain()
            await self._close_connections()
            await server.wait_closed()
            if flush_task is not None:
                flush_task.cancel()
            if self._fleet is not None:
                with contextlib.suppress(OSError):
                    self._fleet.flush()  # final snapshot incl. drain
            if self._metrics_out_path is not None:
                self.telemetry.write_metrics(self._metrics_out_path)
            if self._slowlog is not None:
                self._slowlog.close()
            if self._trace_sink is not None:
                self.telemetry.tracer.set_sink(None)
                self._trace_sink.close()

    def stop(self) -> None:
        """Request a graceful stop (thread-safe and signal-safe)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------

    def request_hot_swap(self) -> None:
        """Schedule a hot swap on the loop (SIGHUP handler)."""
        if self._loop is not None:
            self._loop.create_task(self.hot_swap())

    async def hot_swap(self) -> Dict[str, Any]:
        """Open the index anew and swap it in under live traffic.

        The (slow) open runs on the loop's default executor so serving
        continues; the swap itself is one reference assignment plus a
        cache generation bump.  Queries batched before the swap finish
        against the old mapping; queries batched after it answer from
        the new one; none fail.
        """
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        new_index = await loop.run_in_executor(None, self.provider.open)
        self.engine.swap_index(new_index)
        self.generation += 1
        self.hot_swaps += 1
        seconds = time.perf_counter() - started
        if self._obs is not None:
            self._obs["swaps"].inc()
            self._obs["generation"].set(self.generation)
        return {
            "generation": self.generation,
            "swap_seconds": seconds,
            "cache_generation": self.engine.stats().generation,
        }

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        obs = self._obs
        if obs is not None:
            obs["connections"].inc()
            obs["open_connections"].add(1)
        self._connections[asyncio.current_task()] = writer
        # Responses go back in request order even though batches
        # complete out of order: each request contributes one slot to a
        # bounded FIFO the writer coroutine drains (a full one parks
        # this reader).  Pipelined clients may also match on "id".
        queue: "asyncio.Queue[Optional[Any]]" = asyncio.Queue(
            RESPONSE_QUEUE_LIMIT
        )
        writer_task = asyncio.get_running_loop().create_task(
            self._write_responses(queue, writer)
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line outgrew the stream's buffer limit; the
                    # rest of the stream cannot be re-synchronised, so
                    # answer with a typed error and hang up.
                    self._count("?", BAD_REQUEST)
                    await queue.put(encode_error(
                        None, BAD_REQUEST,
                        "request line too long; closing the connection",
                    ))
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                await queue.put(self._dispatch(line))
        finally:
            await queue.put(None)
            await writer_task
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            del self._connections[asyncio.current_task()]
            if obs is not None:
                obs["open_connections"].add(-1)

    async def _write_responses(self, queue, writer) -> None:
        connected = True
        while True:
            item = await queue.get()
            if item is None:
                return
            payload = await item if asyncio.isfuture(item) else item
            if not connected:
                continue  # keep consuming so the reader never parks
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                connected = False  # client went away

    async def _close_connections(self) -> None:
        """Shut every connection's read side: its handler sees EOF,
        writes the answers it owes, and closes.  Clients that stop
        reading are aborted after :data:`CLOSE_GRACE_SECONDS`."""
        if not self._connections:
            return
        for writer in self._connections.values():
            with contextlib.suppress(OSError):  # already disconnected
                writer.get_extra_info("socket").shutdown(
                    socket_module.SHUT_RD)
        _, stuck = await asyncio.wait(list(self._connections),
                                      timeout=CLOSE_GRACE_SECONDS)
        for task in stuck:
            self._connections[task].transport.abort()
        await asyncio.gather(*stuck, return_exceptions=True)

    def _dispatch(self, line: bytes):
        """One request line → response bytes, or a future of them."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self._count("?", exc.code)
            return encode_error(None, exc.code, str(exc))
        if request.op == "ping":
            self._count("ping", "ok")
            return encode_result(request.id, {
                "pong": True, "worker": self.worker_id,
                "generation": self.generation,
            })
        if request.op == "stats":
            self._count("stats", "ok")
            return encode_result(request.id, self.describe())
        if request.op == "metrics":
            try:
                payload = self.fleet_metrics()
            except ReproError as exc:
                self._count("metrics", UNSUPPORTED)
                return encode_error(request.id, UNSUPPORTED, str(exc))
            self._count("metrics", "ok")
            return encode_result(request.id, payload)
        if request.op == "reload":
            future = asyncio.get_running_loop().create_task(
                self._reload_response(request)
            )
            return future
        return self._dispatch_query(request)

    async def _reload_response(self, request: Request) -> bytes:
        try:
            info = await self.hot_swap()
        except Exception as exc:  # e.g. the file was replaced corrupt
            self._count("reload", INTERNAL)
            return encode_error(request.id, INTERNAL,
                               f"hot swap failed: {exc}")
        self._count("reload", "ok")
        return encode_result(request.id, info)

    def _dispatch_query(self, request: Request):
        op = request.op
        if self._draining:
            self._count(op, SHUTTING_DOWN)
            return encode_error(request.id, SHUTTING_DOWN,
                               "server is draining")
        graph = self.provider.graph
        # Pre-resolve vertices so one bad id rejects THIS request, not
        # the whole micro-batch it would have been coalesced into.
        try:
            graph.index_of(request.u)
            graph.index_of(request.v)
        except UnknownVertexError as exc:
            self._count(op, UNKNOWN_VERTEX)
            return encode_error(request.id, UNKNOWN_VERTEX, str(exc))
        rejection = self.admission.try_admit(request.tenant)
        if rejection is not None:
            self._count(op, rejection)
            if self._obs is not None:
                self._obs["rejections"].inc(reason=rejection)
            return encode_error(
                request.id, rejection,
                f"request rejected ({rejection}); retry with backoff",
            )
        obs = self._obs
        if obs is not None:
            obs["inflight"].set(self.admission.inflight)
            obs["tenants"].inc(tenant=request.tenant)
        admitted_at = time.perf_counter()
        # The batcher fills this with {batch, size, cause} at flush —
        # the request's route, for the slow-query log and its span.
        meta: Optional[Dict[str, Any]] = (
            {} if (self._slowlog is not None or request.trace_id)
            else None
        )
        answer_future = self._batcher.submit(
            op, (request.u, request.v), request.t1, request.t2,
            request.theta, trace=request.trace_id, meta=meta,
        )
        return asyncio.get_running_loop().create_task(
            self._finish_query(request, answer_future, admitted_at, meta)
        )

    async def _finish_query(self, request: Request, answer_future,
                            admitted_at: float,
                            meta: Optional[Dict[str, Any]] = None) -> bytes:
        op = request.op
        outcome = "ok"
        try:
            answer = await answer_future
        except ReproError as exc:
            code = outcome = _code_for(exc)
            self._count(op, code)
            return encode_error(request.id, code, str(exc))
        except Exception as exc:
            outcome = INTERNAL
            self._count(op, INTERNAL)
            return encode_error(request.id, INTERNAL,
                               f"internal error: {exc}")
        finally:
            self.admission.release()
            elapsed = time.perf_counter() - admitted_at
            obs = self._obs
            if obs is not None:
                obs["inflight"].set(self.admission.inflight)
                obs["latency"].observe(elapsed, op=op)
            tracer = (self.telemetry.tracer
                      if self.telemetry is not None else None)
            if request.trace_id and tracer:
                now = tracer.now()
                tracer.record_span(
                    "server.request", now - elapsed, elapsed,
                    trace=request.trace_id,
                    parent_span=request.parent_span,
                    op=op, tenant=request.tenant, outcome=outcome,
                    batch=(meta or {}).get("batch"),
                )
            if self._slowlog is not None:
                self._slowlog.maybe_record(
                    elapsed, op=op,
                    u=request.u, v=request.v,
                    t1=request.t1, t2=request.t2, theta=request.theta,
                    tenant=request.tenant,
                    trace=request.trace_id,
                    batch=(meta or {}).get("batch"),
                    batch_size=(meta or {}).get("size"),
                    route=(meta or {}).get("cause"),
                    outcome=outcome,
                )
        self._count(op, "ok")
        return encode_answer(request.id, answer)

    async def _execute_batch(self, key: BatchKey,
                             pairs: List[Tuple[Any, Any]],
                             meta: Optional[Dict[str, Any]] = None,
                             ) -> List[bool]:
        """Run one coalesced batch on the loop."""
        op, t1, t2, theta = key
        tracer = (self.telemetry.tracer
                  if self.telemetry is not None else None)
        traced = bool(tracer) and bool(meta and meta.get("traces"))
        started = tracer.now() if traced else 0.0
        try:
            if op == "span":
                return self.engine.span_many(pairs, (t1, t2))
            return self.engine.theta_many(pairs, (t1, t2), theta)
        finally:
            if traced:
                # Engine-layer span, linked to the batch span by the
                # shared batch label (same worker, same pid).
                tracer.record_span(
                    "engine.execute", started, tracer.now() - started,
                    batch=meta["batch"], op=op, size=len(pairs),
                )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _count(self, op: str, outcome: str) -> None:
        if self._obs is not None:
            self._obs["requests"].inc(op=op, outcome=outcome)

    def describe(self) -> Dict[str, Any]:
        """The ``stats`` op payload: engine + admission + batcher."""
        batcher = self._batcher
        return {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started,
            "generation": self.generation,
            "hot_swaps": self.hot_swaps,
            "engine": self.engine.stats().as_dict()
            if self.engine is not None else None,
            "admission": self.admission.stats(),
            "batcher": {
                "max_batch": self.config.max_batch,
                "flushed_batches": batcher.flushed_batches
                if batcher is not None else 0,
                "flushed_queries": batcher.flushed_queries
                if batcher is not None else 0,
            },
            "obs": {
                "spool": self._fleet.spool
                if self._fleet is not None else None,
                "trace_stream": self._trace_sink.path
                if self._trace_sink is not None else None,
                "slow_query_log": self._slowlog.path
                if self._slowlog is not None else None,
            },
        }


# ----------------------------------------------------------------------
# sockets + pre-fork pool
# ----------------------------------------------------------------------


def bind_socket(socket_path: Optional[str] = None,
                host: Optional[str] = None,
                port: Optional[int] = None,
                backlog: int = 128) -> socket_module.socket:
    """Bind the listening socket the parent hands to every worker."""
    if socket_path is not None:
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        sock = socket_module.socket(socket_module.AF_UNIX,
                                    socket_module.SOCK_STREAM)
        sock.bind(socket_path)
    else:
        sock = socket_module.socket(socket_module.AF_INET,
                                    socket_module.SOCK_STREAM)
        sock.setsockopt(socket_module.SOL_SOCKET,
                        socket_module.SO_REUSEADDR, 1)
        sock.bind((host or "127.0.0.1", port or 0))
    sock.listen(backlog)
    sock.setblocking(False)
    return sock


def _run_worker(provider: IndexProvider, config: ServerConfig,
                sock: socket_module.socket, worker_id: int,
                telemetry=None) -> None:
    server = ReachabilityServer(provider, config, telemetry=telemetry,
                                worker_id=worker_id)
    asyncio.run(server.serve(sock=sock, install_signals=True))


def serve_prefork(
    provider: IndexProvider,
    config: ServerConfig,
    sock: socket_module.socket,
    workers: int,
    telemetry=None,
    log=None,
) -> int:
    """Fork *workers* children accepting on *sock*; parent supervises.

    Every child opens its own engine — the same ``.till`` mapped
    read-only, one physical copy in the page cache — and runs an
    independent event loop.  The parent forwards ``SIGHUP`` (hot swap
    every worker), ``SIGTERM`` and ``SIGINT`` (graceful stop), then
    reaps.  Returns the worst child exit status.
    """
    if not hasattr(os, "fork"):
        raise ReproError(
            "pre-fork serving needs os.fork(); run with --workers 1 "
            "on this platform"
        )
    if workers > 1:
        # A shared output path across workers would interleave or
        # clobber; demand a per-process template up front.
        for option, template in (("--trace-out", config.trace_out),
                                 ("--metrics-out", config.metrics_out),
                                 ("--slow-query-log",
                                  config.slow_query_log)):
            if template and "{pid}" not in template \
                    and "{worker}" not in template:
                kind = ("trace-{pid}.jsonl" if option == "--trace-out"
                        else "metrics-{pid}.json"
                        if option == "--metrics-out"
                        else "slow-{pid}.jsonl")
                raise ReproError(
                    f"{option} {template!r} is shared by {workers} "
                    f"pre-fork workers; use a per-worker template like "
                    f"{kind!r} (or --obs-dir, which spools per-pid "
                    "files automatically)"
                )
    pids: List[int] = []
    for worker_id in range(workers):
        pid = os.fork()
        if pid == 0:  # child
            status = 0
            try:
                _run_worker(provider, config, sock, worker_id,
                            telemetry=telemetry)
            except BaseException:
                status = 1
                # os._exit skips the interpreter's own report, and the
                # pool's exit status cannot say which worker raised.
                sys.stderr.write(f"repro serve: worker {worker_id} "
                                 f"(pid {os.getpid()}) failed:\n")
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
        pids.append(pid)
    if log is not None:
        log(f"forked {workers} worker(s): {pids}")

    def forward(signum, _frame):
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    previous = {}
    for signum in (signal.SIGHUP, signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, forward)
    worst = 0
    try:
        for pid in pids:
            while True:
                try:
                    _, status = os.waitpid(pid, 0)
                    break
                except InterruptedError:
                    continue  # signal arrived; keep waiting for exit
            code = os.waitstatus_to_exitcode(status)
            worst = max(worst, abs(code))
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return worst
