"""End-to-end serving smoke: ``python -m repro.serve.smoke``.

The ``make serve-smoke`` entry point.  In one process tree it:

1. builds a small dataset's index and saves it as a format-3 ``.till``
   in a scratch directory,
2. forks a pre-fork server pool accepting on a Unix socket (every
   worker mmaps the same file) with fleet observability on: a metrics
   spool, per-worker trace streams, and a slow-query log,
3. drives a few hundred pipelined span/theta queries through the load
   generator (the second wave stamps every request with a trace id),
4. triggers an index hot swap mid-traffic (both via the ``reload`` op
   and via ``SIGHUP`` to the whole pool) and drives a second wave,
5. asserts the ``metrics`` wire op (answered by whichever worker
   accepts) aggregates ``server_requests_total`` across **all**
   workers to exactly the client-side total,
6. asserts **zero** failed queries, then SIGTERMs the pool, asserts a
   clean exit, and writes the fleet artifacts: the merged metrics
   document and the merged cross-process trace — after checking that
   at least one request reassembles across all three layers (server
   request span → batch span linking >= 2 trace ids → engine span).

Exit status 0 means the serving tier works on this machine; anything
else prints the failure and exits 1.  Only the two fleet artifacts
(default: under ``.scratch/``) outlive the run — the index, socket,
and spool live in a ``tempfile`` scratch dir.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import time

from repro.core.index import TILLIndex
from repro.datasets import load_dataset
from repro.serve.client import ServeClient, run_loadgen
from repro.serve.server import (
    IndexProvider,
    ServerConfig,
    bind_socket,
    serve_prefork,
)


def wait_for_server(socket_path: str, timeout: float = 15.0) -> None:
    """Block until the server answers a ping (or raise on timeout)."""
    deadline = time.monotonic() + timeout
    last: Exception = RuntimeError("server never came up")
    while time.monotonic() < deadline:
        try:
            with ServeClient(socket_path=socket_path, timeout=2.0) as client:
                response = client.ping()
            if response.get("ok"):
                return
        except (OSError, ConnectionError) as exc:
            last = exc
        time.sleep(0.05)
    raise TimeoutError(f"server on {socket_path} not ready: {last}")


def make_queries(graph, count: int, seed: int = 8):
    """A mixed span/theta workload over real vertices of *graph*."""
    import random

    rng = random.Random(seed)
    vertices = list(graph.vertices())
    t1, t2 = graph.min_time, graph.max_time
    theta = max(1, graph.lifetime // 3)
    queries = []
    for i in range(count):
        u, v = rng.choice(vertices), rng.choice(vertices)
        if i % 3 == 2:
            queries.append((u, v, t1, t2, theta))
        else:
            queries.append((u, v, t1, t2, None))
    return queries


def _query_request_total(metrics_doc) -> int:
    """Sum of ``server_requests_total`` over the span/theta ops."""
    entry = (metrics_doc.get("metrics") or {}).get(
        "server_requests_total") or {}
    return int(sum(
        series.get("value", 0)
        for series in entry.get("series") or []
        if (series.get("labels") or {}).get("op") in ("span", "theta")
    ))


def _poll_fleet_total(socket_path: str, expected: int,
                      timeout: float = 10.0):
    """Poll the ``metrics`` op until the fleet total reaches *expected*.

    Workers flush their snapshots on an interval; the answering worker
    flushes synchronously but its peers may lag one tick — hence the
    poll.  Returns the final merged document (or None on timeout).
    """
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        with ServeClient(socket_path=socket_path) as client:
            response = client.metrics()
        if response.get("ok"):
            doc = response["result"]
            if _query_request_total(doc) >= expected:
                return doc
        time.sleep(0.1)
    return doc


def _write_fleet_artifacts(obs_dir, metrics_out, trace_out, trace_ids):
    """Merge the spool into the two fleet artifacts; returns failures.

    Runs after pool shutdown (every worker has written its final
    snapshot and closed its trace stream), and asserts the acceptance
    shape: at least one batch span linking >= 2 request trace ids, and
    at least one request reassembling across server → batch → engine.
    """
    import json

    from repro.obs.fleet import (
        aggregate_spool,
        merge_trace_files,
        reassemble_request,
        trace_files,
    )

    failures = []
    merged, problems = aggregate_spool(obs_dir)
    for problem in problems:
        failures.append(f"fleet metrics merge: {problem}")
    for path in (metrics_out, trace_out):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    with open(metrics_out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")

    streams = trace_files(obs_dir)
    events = merge_trace_files(streams, out_path=trace_out)
    batches = [
        e for e in events
        if e.get("name") == "server.batch"
        and len((e.get("attrs") or {}).get("traces") or []) >= 2
    ]
    if not batches:
        failures.append(
            "no batch span coalesced >= 2 traced requests "
            f"({len(events)} events from {len(streams)} stream(s))"
        )
    full = None
    for trace_id in trace_ids:
        story = reassemble_request(events, trace_id)
        if story["layers"] >= 3:
            full = story
            break
    if full is None:
        failures.append(
            f"no trace id (of {len(trace_ids)}) reassembled across "
            "server/batch/engine layers"
        )
    else:
        print(
            f"serve-smoke: trace {full['trace']!r} reassembled across "
            f"{full['layers']} layers (batch "
            f"{(full['batch'][0]['attrs'] or {}).get('batch')} linked "
            f"{len((full['batch'][0]['attrs'] or {}).get('traces') or [])} "
            f"traces); artifacts: {metrics_out}, {trace_out}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="end-to-end smoke test of the network serving tier",
    )
    parser.add_argument("--dataset", default="chess")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--pipeline", type=int, default=8)
    parser.add_argument(
        "--fleet-metrics-out", default=".scratch/serve_fleet_metrics.json",
        help="merged fleet metrics artifact ('' disables the fleet stage)",
    )
    parser.add_argument(
        "--fleet-trace-out", default=".scratch/serve_fleet_trace.jsonl",
        help="merged cross-process trace artifact",
    )
    args = parser.parse_args(argv)

    if not hasattr(os, "fork"):
        print("serve-smoke: skipped (no os.fork on this platform)")
        return 0

    fleet = bool(args.fleet_metrics_out)
    graph = load_dataset(args.dataset)
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as scratch:
        index_path = os.path.join(scratch, "smoke.till")
        TILLIndex.build(graph).save(index_path, format=3)
        socket_path = os.path.join(scratch, "serve.sock")
        sock = bind_socket(socket_path=socket_path)
        provider = IndexProvider(graph, index_path, mmap=True)
        obs_dir = os.path.join(scratch, "obs") if fleet else None
        config = ServerConfig(
            max_batch=64,
            obs_dir=obs_dir,
            metrics_interval=0.25,
            # Threshold 0 logs (rate-limited) every request — the smoke
            # exercises the slow-log format, not a latency judgement.
            slow_query_ms=0.0 if fleet else None,
            slow_query_rate=25.0,
        )

        pool_pid = os.fork()
        if pool_pid == 0:  # pool supervisor process
            status = 1
            try:
                status = serve_prefork(provider, config, sock, args.workers)
            finally:
                os._exit(status)
        sock.close()  # driver keeps only the client side

        try:
            wait_for_server(socket_path)
            print(f"serve-smoke: pool up ({args.workers} worker(s), "
                  f"pid {pool_pid}) on {socket_path}")
            queries = make_queries(graph, args.queries)

            wave1 = run_loadgen(
                queries, socket_path=socket_path,
                concurrency=args.concurrency, pipeline=args.pipeline,
            )
            if wave1["errors"] or wave1["failures"]:
                failures.append(f"wave 1 had failures: {wave1}")
            print(f"serve-smoke: wave 1 ok={wave1['ok']} "
                  f"qps={wave1['qps']:.0f} "
                  f"p95={wave1['latency_p95_ms']:.2f}ms")

            # Hot swap both ways: the wire op (one worker) and SIGHUP
            # (every worker), then prove traffic still flows cleanly.
            with ServeClient(socket_path=socket_path) as client:
                reloaded = client.reload()
                if not reloaded.get("ok"):
                    failures.append(f"reload op failed: {reloaded}")
            os.kill(pool_pid, signal.SIGHUP)
            time.sleep(0.2)

            # Second wave: every request carries a trace id, so the
            # coalescer's batch spans link multiple member traces.
            wave2 = run_loadgen(
                queries, socket_path=socket_path,
                concurrency=args.concurrency, pipeline=args.pipeline,
                trace_every=1 if fleet else 0, trace_prefix="sm",
            )
            if wave2["errors"] or wave2["failures"]:
                failures.append(f"post-swap wave had failures: {wave2}")
            print(f"serve-smoke: post-swap wave ok={wave2['ok']} "
                  f"qps={wave2['qps']:.0f}")

            with ServeClient(socket_path=socket_path) as client:
                stats = client.stats()
            if not stats.get("ok"):
                failures.append(f"stats op failed: {stats}")

            if fleet:
                # The fleet view, answered by whichever worker accepts
                # the connection, must equal the client-side total.
                expected = sum(w["ok"] + w["errors"]
                               for w in (wave1, wave2))
                merged = _poll_fleet_total(socket_path, expected)
                got = _query_request_total(merged) if merged else 0
                if got != expected:
                    failures.append(
                        f"fleet metrics op saw {got} span/theta requests, "
                        f"client sent {expected}"
                    )
                else:
                    workers_seen = len(
                        (merged.get("fleet") or {}).get("workers") or []
                    )
                    print(f"serve-smoke: fleet metrics ok "
                          f"({got} requests across {workers_seen} "
                          "worker snapshot(s))")
        except Exception as exc:
            failures.append(f"smoke driver crashed: {exc!r}")
        finally:
            try:
                os.kill(pool_pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            _, status = os.waitpid(pool_pid, 0)
            exit_code = os.waitstatus_to_exitcode(status)
            if exit_code != 0:
                failures.append(
                    f"pool did not shut down cleanly (exit {exit_code})"
                )

        if fleet and not failures:
            failures.extend(_write_fleet_artifacts(
                obs_dir, args.fleet_metrics_out, args.fleet_trace_out,
                wave2.get("trace_ids") or [],
            ))

    if failures:
        for failure in failures:
            print(f"serve-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve-smoke: OK (zero errors, clean shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
