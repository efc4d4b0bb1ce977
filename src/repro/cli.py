"""Command line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------

``repro datasets``
    List the Table II stand-in corpus with its statistics.

``repro build SOURCE [-o FILE] [--format 3] [--vartheta N] [--method M]``
    Build a TILL-Index for a dataset name or a graph file and report
    its statistics; optionally persist it (``--format 3``, the
    default and only format written: the flat columnar layout, each
    array at its narrowest width, that loads zero-copy with
    ``--mmap``).  With ``--shards K`` (and optionally
    ``--jobs N``) this builds a time-sharded index instead.

``repro query SOURCE U V T1 T2 [--theta N] [--index FILE] [--mmap]``
    Answer one span- (or θ-) reachability query (``--online`` forces
    the index-free Algorithm 1; ``--mmap`` maps a format-3 saved
    index zero-copy).

``repro shard-build SOURCE [-o DIR] [--shards K] [--policy P] [--jobs N]``
    Build a time-sharded TILL index — one capped index per time slice,
    in parallel worker processes when ``--jobs >= 2`` — and optionally
    persist it as a shard directory (see ``docs/file_format.md``).

``repro shard-query SOURCE U V T1 T2 [--theta N] [--index DIR]``
    Answer one query through the cross-shard planner and print the
    routing decision (contained / stitch / fallback).

``repro experiment NAME [--datasets a,b,c]``
    Run one of the paper's experiments and print its table
    (``repro experiment list`` enumerates them).

``repro fuzz [--seeds N] [--profile small|wide|theta|sharded|flat|incremental]``
    Differential fuzzing: random graphs across the configuration
    space, every answer path cross-checked, failures shrunk to pytest
    repros (see :mod:`repro.fuzz`).

``repro bench [--smoke] [-o FILE] [--compare BASELINE --max-regression P]``
    Seeded perf suite (build time, label size, scalar/batch/cached
    query throughput, online fallback); writes a ``BENCH_*.json``
    results document and optionally gates on a recorded baseline
    (see :mod:`repro.serve.bench`).

``repro stats SOURCE [--shards K] [--queries N] [--format F]``
    Build an index with telemetry enabled, run a seeded query
    workload through the serving engine, and print the resulting
    metrics snapshot as text, JSON, or Prometheus exposition.

``repro serve SOURCE [--index FILE --mmap] [--socket P | --port N]``
    Serve span/θ queries over newline-delimited JSON on a Unix or TCP
    socket: micro-batch coalescing into the engine's batch kernels,
    per-tenant quotas (``--quota tenant=rate[:burst]``), bounded
    in-flight admission, SIGHUP-triggered index hot swap, and a
    pre-fork worker pool (``--workers N``) sharing one mmap'd index
    (see :mod:`repro.serve.server` and docs/usage.md).

``repro loadgen SOURCE [--socket P | --port N] [-n N] [-c N]``
    Drive a running ``repro serve`` with a seeded span/θ workload and
    report QPS and p50/p95/p99 latency (:mod:`repro.serve.client`).

Observability flags
-------------------

``build``, ``shard-build``, ``query``, ``shard-query``, ``bench``,
and ``stats`` all accept ``--metrics-out FILE`` (JSON metrics
snapshot, schema ``repro-metrics/1``) and ``--trace-out FILE``
(JSON-lines span trace, schema ``repro-trace/1``); ``build`` and
``shard-build`` also accept ``--progress`` for periodic progress
lines on stderr.  See the Observability section of docs/usage.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.core.index import TILLIndex
from repro.core.online import online_span_reachable, online_theta_reachable
from repro.datasets import REGISTRY, dataset_names, load_dataset
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.report import fmt_bytes, fmt_time, format_table, render
from repro.graph.io import read_graph
from repro.graph.statistics import graph_stats
from repro.graph.temporal_graph import TemporalGraph


def _load_source(source: str, directed: bool = True) -> TemporalGraph:
    """A dataset name from the registry, or a path to a graph file."""
    if source in REGISTRY:
        return load_dataset(source)
    path = Path(source)
    if not path.exists():
        known = ", ".join(dataset_names())
        raise ReproError(
            f"{source!r} is neither a known dataset ({known}) nor an "
            "existing file"
        )
    return read_graph(path, directed=directed)


def _parse_vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "progress", False)
    )


def _make_telemetry(args: argparse.Namespace):
    """A live :class:`repro.obs.Telemetry`, or None when no flag asks
    for one — callees treat None as telemetry-off and skip all
    instrument lookups."""
    if not _wants_telemetry(args):
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _make_progress(args: argparse.Namespace, telemetry, label: str,
                   unit: str = "roots"):
    if not getattr(args, "progress", False):
        return None
    from repro.obs import ProgressPrinter

    tracer = telemetry.tracer if telemetry is not None else None
    return ProgressPrinter(label, unit=unit, tracer=tracer)


def _finish_telemetry(args: argparse.Namespace, telemetry) -> None:
    if telemetry is None:
        return
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if metrics_out:
        telemetry.write_metrics(metrics_out)
        print(f"wrote metrics to {metrics_out}")
    if trace_out:
        telemetry.write_trace(trace_out)
        print(f"wrote trace to {trace_out}")


def cmd_datasets(args: argparse.Namespace) -> int:
    if args.export:
        from repro.datasets.export import export_datasets

        written = export_datasets(args.export)
        for name, path in written.items():
            print(f"wrote {name} -> {path}")
        print(f"exported {len(written)} datasets to {args.export}")
        return 0
    rows = []
    for name in dataset_names():
        stats = graph_stats(load_dataset(name), name=name)
        row = stats.as_row()
        row["category"] = REGISTRY[name].category
        rows.append(row)
    print(format_table(rows))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    if getattr(args, "shards", None):
        return _build_sharded(
            args,
            num_shards=args.shards,
            policy="equal-edges",
            jobs=args.jobs,
            stitch_limit=64,
        )
    graph = _load_source(args.source, directed=not args.undirected)
    telemetry = _make_telemetry(args)
    index = TILLIndex.build(
        graph,
        vartheta=args.vartheta,
        method=args.method,
        ordering=args.ordering,
        progress=_make_progress(args, telemetry, "build"),
        telemetry=telemetry,
    )
    stats = index.stats()
    print(f"built TILL-Index for {args.source}")
    print(f"  vertices        {stats.num_vertices}")
    print(f"  temporal edges  {stats.num_edges}")
    print(f"  label entries   {stats.total_entries}")
    print(f"  index size      {fmt_bytes(stats.estimated_bytes)}")
    print(f"  build time      {fmt_time(stats.build_seconds)}")
    if args.output:
        index.save(args.output, format=args.format)
        print(f"  saved to        {args.output} (format {args.format})")
    _finish_telemetry(args, telemetry)
    return 0


def _build_sharded(
    args: argparse.Namespace,
    num_shards: int,
    policy: str,
    jobs: int,
    stitch_limit: int,
) -> int:
    from repro.shard import ShardedTILLIndex

    graph = _load_source(args.source, directed=not args.undirected)
    telemetry = _make_telemetry(args)
    index = ShardedTILLIndex.build(
        graph,
        num_shards=num_shards,
        policy=policy,
        jobs=jobs,
        vartheta=args.vartheta,
        method=args.method,
        ordering=args.ordering,
        stitch_limit=stitch_limit,
        progress=_make_progress(args, telemetry, "shard-build",
                                unit="shards"),
        telemetry=telemetry,
    )
    stats = index.stats()
    print(f"built sharded TILL-Index for {args.source}")
    print(f"  vertices        {stats.num_vertices}")
    print(f"  temporal edges  {stats.num_edges}")
    print(f"  shards          {stats.num_shards} ({stats.policy})")
    for shard_stats, s in zip(stats.shards, index.partition.slices):
        print(
            f"    slice {s.shard}  [{s.t_start}, {s.t_end}]  "
            f"{s.num_edges} edges  {shard_stats.total_entries} entries  "
            f"{fmt_time(shard_stats.build_seconds)}"
        )
    print(f"  label entries   {stats.total_entries}")
    print(f"  index size      {fmt_bytes(stats.estimated_bytes)}")
    print(f"  build time      {fmt_time(stats.build_seconds)} "
          f"(jobs={stats.jobs})")
    if args.output:
        index.save(args.output)
        print(f"  saved to        {args.output}")
    _finish_telemetry(args, telemetry)
    return 0


def cmd_shard_build(args: argparse.Namespace) -> int:
    return _build_sharded(
        args,
        num_shards=args.shards,
        policy=args.policy,
        jobs=args.jobs,
        stitch_limit=args.stitch_limit,
    )


def cmd_shard_query(args: argparse.Namespace) -> int:
    from repro.shard import ShardedTILLIndex

    graph = _load_source(args.source, directed=not args.undirected)
    u, v = _parse_vertex(args.u), _parse_vertex(args.v)
    window = (args.t1, args.t2)
    telemetry = _make_telemetry(args)
    if args.index:
        index = ShardedTILLIndex.load(args.index, graph, mmap=args.mmap,
                                      telemetry=telemetry)
    else:
        index = ShardedTILLIndex.build(
            graph, num_shards=args.shards, policy=args.policy,
            jobs=args.jobs, telemetry=telemetry,
        )
    if args.theta is None:
        plan = index.plan_span(window)
        answer = index.span_reachable(u, v, window)
    else:
        plan = index.planner.plan_theta(window, args.theta)
        answer = index.theta_reachable(u, v, window, args.theta)
    kind = "span-reaches" if args.theta is None else f"{args.theta}-reaches"
    print(f"{u!r} {kind} {v!r} in [{args.t1}, {args.t2}]: {answer}")
    print(f"  plan: {plan.describe()}")
    _finish_telemetry(args, telemetry)
    return 0 if answer else 1


def cmd_query(args: argparse.Namespace) -> int:
    graph = _load_source(args.source, directed=not args.undirected)
    u, v = _parse_vertex(args.u), _parse_vertex(args.v)
    window = (args.t1, args.t2)
    telemetry = _make_telemetry(args)
    if args.online:
        if telemetry is not None:
            span = telemetry.tracer.span(
                "query.online", theta=args.theta
            )
        else:
            span = None
        try:
            if args.theta is None:
                answer = online_span_reachable(
                    graph, graph.index_of(u), graph.index_of(v), window
                )
            else:
                answer = online_theta_reachable(
                    graph, graph.index_of(u), graph.index_of(v), window,
                    args.theta,
                )
        finally:
            if span is not None:
                span.__exit__(None, None, None)
    else:
        if args.index:
            index = TILLIndex.load(args.index, graph, mmap=args.mmap)
        else:
            index = TILLIndex.build(graph, telemetry=telemetry)
        if telemetry is not None:
            # Route the scalar query through the serving engine so the
            # snapshot carries the full outcome/latency instrument set.
            from repro.serve.engine import QueryEngine

            engine = QueryEngine(index, telemetry=telemetry)
            if args.theta is None:
                answer = engine.span_reachable(u, v, window)
            else:
                answer = engine.theta_reachable(u, v, window, args.theta)
        elif args.theta is None:
            answer = index.span_reachable(u, v, window)
        else:
            answer = index.theta_reachable(u, v, window, args.theta)
    kind = "span-reaches" if args.theta is None else f"{args.theta}-reaches"
    print(f"{u!r} {kind} {v!r} in [{args.t1}, {args.t2}]: {answer}")
    _finish_telemetry(args, telemetry)
    return 0 if answer else 1


def cmd_anatomy(args: argparse.Namespace) -> int:
    from repro.core.label_stats import anatomy_report

    graph = _load_source(args.source, directed=not args.undirected)
    if args.index:
        index = TILLIndex.load(args.index, graph, mmap=args.mmap)
    else:
        index = TILLIndex.build(graph)
    print(anatomy_report(index, top_k=args.top))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_source(args.source, directed=not args.undirected)
    if args.index:
        index = TILLIndex.load(args.index, graph, mmap=args.mmap)
    else:
        index = TILLIndex.build(graph)
    try:
        index.verify(samples=args.samples, seed=args.seed)
    except AssertionError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"verified label invariants and {args.samples} random queries "
        "across every answer path (index, online, brute force): all agree"
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import PROFILES, run_fuzz

    if args.profile not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        print(f"error: unknown fuzz profile {args.profile!r}; known "
              f"profiles: {known}", file=sys.stderr)
        return 2
    log = (lambda msg: print(msg)) if args.verbose else None
    report = run_fuzz(
        profile=args.profile,
        seeds=args.seeds,
        base_seed=args.base_seed,
        shrink=not args.no_shrink,
        fail_fast=args.fail_fast,
        log=log,
    )
    print(report.summary())
    if report.ok:
        return 0
    for failure in report.failures:
        print()
        print(failure.report(), file=sys.stderr)
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import (
        compare_results,
        format_results,
        read_results,
        run_suite,
        write_results,
    )

    if args.input:
        results = read_results(args.input)
        wrote = None
        telemetry = None
    else:
        datasets = args.datasets.split(",") if args.datasets else None
        telemetry = _make_telemetry(args)
        results = run_suite(
            smoke=args.smoke,
            seed=args.seed,
            datasets=datasets,
            label=args.label,
            batch_size=args.batch_size,
            repeats=args.repeats,
            telemetry=telemetry,
        )
        wrote = args.output
        write_results(results, wrote)
    print(format_results(results))
    if wrote:
        print(f"wrote {wrote}")
    _finish_telemetry(args, telemetry)
    if args.compare:
        baseline = read_results(args.compare)
        problems = compare_results(
            results, baseline, max_regression_pct=args.max_regression
        )
        if problems:
            print(
                f"PERF REGRESSION vs {args.compare} "
                f"({len(problems)} metric(s)):",
                file=sys.stderr,
            )
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.compare} "
              f"(tolerance {args.max_regression:g}%)")
    return 0


def _render_metrics_text(snapshot) -> str:
    """A terminal-friendly rendering of a ``repro-metrics/1`` doc."""
    lines: List[str] = []
    for name, metric in snapshot["metrics"].items():
        head = f"{metric['kind']:<9} {name}"
        if metric.get("help"):
            head += f"  — {metric['help']}"
        lines.append(head)
        for series in metric["series"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(series["labels"].items())
            )
            tag = "{%s}" % labels if labels else "(no labels)"
            if metric["kind"] == "histogram":
                count = series["count"]
                mean = series["sum"] / count if count else 0.0
                lines.append(
                    f"    {tag}  count={count}  mean={mean:.6g}  "
                    f"max={series['max']:.6g}"
                )
            else:
                lines.append(f"    {tag}  {series['value']:g}")
    return "\n".join(lines)


def _print_metrics_doc(doc, fmt: str, heading: str = "") -> None:
    """Render a ``repro-metrics/1`` document in the requested format."""
    if fmt == "json":
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
    elif fmt == "prometheus":
        from repro.obs.fleet import render_prometheus

        print(render_prometheus(doc), end="")
    else:
        if heading:
            print(heading)
        print(_render_metrics_text(doc))


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry
    from repro.serve.bench import make_serving_batch
    from repro.serve.engine import QueryEngine

    if args.live:
        # Live mode: ask a running server for the fleet-aggregated
        # view (the ``metrics`` wire op) instead of running a local
        # workload.  Any worker answers for the whole pool.
        from repro.serve.client import ServeClient

        with ServeClient(socket_path=args.live) as client:
            response = client.metrics()
        if not response.get("ok"):
            raise ReproError(
                f"metrics op failed: {response.get('error')} "
                f"(code {response.get('code')})"
            )
        doc = response["result"]
        fleet = doc.get("fleet") or {}
        heading = (f"fleet metrics from {args.live} "
                   f"({len(fleet.get('workers') or [])} worker "
                   "snapshot(s))")
        _print_metrics_doc(doc, args.format, heading)
        for problem in doc.get("problems") or []:
            print(f"warning: {problem}", file=sys.stderr)
        return 0
    if not args.source:
        raise ReproError("stats needs a source (or --live SOCKET)")

    telemetry = Telemetry()
    graph = _load_source(args.source, directed=not args.undirected)
    if args.shards:
        from repro.shard import ShardedTILLIndex

        index = ShardedTILLIndex.build(
            graph, num_shards=args.shards, vartheta=args.vartheta,
            telemetry=telemetry,
        )
    else:
        index = TILLIndex.build(graph, vartheta=args.vartheta,
                                telemetry=telemetry)
    window = (graph.min_time, graph.max_time)
    if args.vartheta is not None and not args.shards:
        # Keep the demo workload inside the build-time ϑ cap.
        window = (graph.min_time,
                  min(graph.max_time, graph.min_time + args.vartheta))
    engine = QueryEngine(index, telemetry=telemetry)
    batch = make_serving_batch(graph, args.queries, hot_sources=12,
                               target_pool=60, seed=args.seed)
    engine.span_many(batch, window)
    engine.span_many(batch, window)  # a second pass exercises the cache
    theta = args.theta
    if theta is None:
        theta = max(1, (window[1] - window[0]) // 3 or 1)
    engine.theta_many(batch, window, theta)

    snapshot = telemetry.metrics.snapshot()
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prometheus":
        print(telemetry.metrics.to_prometheus(), end="")
    else:
        print(f"telemetry for {args.source}: {args.queries} queries x 2 "
              f"span passes + 1 theta pass (theta={theta})")
        print(_render_metrics_text(snapshot))
    _finish_telemetry(args, telemetry)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.admission import parse_quota
    from repro.serve.server import (
        IndexProvider,
        ReachabilityServer,
        ServerConfig,
        bind_socket,
        serve_prefork,
    )

    graph = _load_source(args.source, directed=not args.undirected)
    quotas = {}
    default_quota = None
    for spec in args.quota or []:
        try:
            tenant, quota = parse_quota(spec)
        except ValueError as exc:
            raise ReproError(str(exc))
        if tenant == "*":
            default_quota = quota
        else:
            quotas[tenant] = quota
    provider = IndexProvider(
        graph,
        index_path=args.index,
        mmap=args.mmap,
        vartheta=args.vartheta,
    )
    if args.metrics_port is not None and not args.obs_dir:
        raise ReproError(
            "--metrics-port aggregates a fleet spool; add --obs-dir DIR"
        )
    config = ServerConfig(
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        quotas=quotas,
        default_quota=default_quota,
        cache_size=args.cache_size,
        obs_dir=args.obs_dir,
        metrics_interval=args.metrics_interval,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
        slow_query_rate=args.slow_query_rate,
    )
    if args.index:
        # Fail fast (an unreadable index file, bad path) in the parent,
        # before binding the socket or forking anything; a format-3 mmap
        # open is cheap, so the duplicate load costs microseconds.
        provider.open()
    sock = bind_socket(socket_path=args.socket, host=args.host,
                       port=args.port)
    where = args.socket or "%s:%d" % sock.getsockname()[:2]
    print(f"serving {args.source} on {where} "
          f"({args.workers} worker(s); SIGHUP reloads the index, "
          "SIGTERM stops)")
    metrics_server = None
    if args.metrics_port is not None:
        # Parent-side Prometheus endpoint: aggregates the spool on
        # every scrape, so it reflects all workers without touching
        # any of them.
        import os

        from repro.obs.fleet import serve_metrics_http

        os.makedirs(args.obs_dir, exist_ok=True)
        metrics_server = serve_metrics_http(
            args.obs_dir, port=args.metrics_port, host=args.host
        )
        print(f"fleet metrics on http://{args.host}:"
              f"{metrics_server.server_address[1]}/metrics")
    try:
        if args.workers <= 1:
            # ReachabilityServer builds its own telemetry from the
            # config (spool reporter, trace stream, slow-query log)
            # and writes --metrics-out at shutdown.
            server = ReachabilityServer(provider, config)
            asyncio.run(server.serve(sock=sock, install_signals=True))
            status = 0
        else:
            status = serve_prefork(provider, config, sock, args.workers,
                                   log=lambda msg: print(msg))
    except KeyboardInterrupt:
        status = 0
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
        sock.close()
        if args.socket:
            import os

            try:
                os.unlink(args.socket)
            except OSError:
                pass
    return status


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import run_loadgen
    from repro.serve.smoke import make_queries

    graph = _load_source(args.source, directed=not args.undirected)
    queries = make_queries(graph, args.queries, seed=args.seed)
    result = run_loadgen(
        queries,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        pipeline=args.pipeline,
        tenant=args.tenant,
        trace_every=args.trace_every,
        with_metrics=bool(args.metrics_out),
    )
    metrics_doc = result.pop("metrics_doc", None)
    trace_ids = result.pop("trace_ids", None)
    if trace_ids is not None:
        result["trace_ids_sampled"] = len(trace_ids)
    print(json.dumps(result, indent=2, sort_keys=True))
    if metrics_doc is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote client metrics to {args.metrics_out}",
              file=sys.stderr)
    ok = not result["errors"] and not result["failures"]
    return 0 if ok else 1


def cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slowlog import check_slo

    if bool(args.metrics) == bool(args.live):
        raise ReproError(
            "slo needs exactly one of --metrics FILE or --live SOCKET"
        )
    if args.live:
        from repro.serve.client import ServeClient

        with ServeClient(socket_path=args.live) as client:
            response = client.metrics()
        if not response.get("ok"):
            raise ReproError(
                f"metrics op failed: {response.get('error')} "
                f"(code {response.get('code')})"
            )
        metrics_doc = response["result"]
    else:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            metrics_doc = json.load(fh)
    with open(args.baseline, "r", encoding="utf-8") as fh:
        bench_doc = json.load(fh)
    ok, report = check_slo(
        metrics_doc, bench_doc, max_burn_pct=args.max_burn
    )
    for line in report:
        print(line)
    if ok:
        print(f"SLO OK (burn tolerance {args.max_burn:g}%)")
        return 0
    print(f"SLO BURN exceeds {args.max_burn:g}% vs {args.baseline}",
          file=sys.stderr)
    return 1


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    kwargs = {}
    if args.datasets:
        kwargs["datasets"] = args.datasets.split(",")
    result = run_experiment(args.name, **kwargs)
    print(render(result))
    if args.chart:
        from repro.experiments.charts import chart_for

        chart = chart_for(args.name, result)
        if chart is not None:
            print()
            print(chart)
        else:
            print("\n(no chart renderer for this experiment)")
    return 0


def _add_obs_args(p: argparse.ArgumentParser,
                  progress: bool = False) -> None:
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write a repro-metrics/1 JSON snapshot here")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a repro-trace/1 JSON-lines span trace here")
    if progress:
        p.add_argument("--progress", action="store_true",
                       help="print periodic progress lines to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "TILL-Index reproduction: span-reachability queries in temporal "
            "graphs (Wen et al., ICDE 2020)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the Table II stand-in corpus")
    p.add_argument("--export", metavar="DIR",
                   help="write all datasets as edge lists + manifest")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("build", help="build (and optionally save) an index")
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("-o", "--output", help="write the index to this file")
    p.add_argument("--format", type=int, choices=(3,), default=3,
                   help="file format for -o: 3 = flat columnar, each array "
                        "at its narrowest width (loads zero-copy with "
                        "--mmap); the only format, and the flag stays so "
                        "scripts that pass --format 3 keep working")
    p.add_argument("--vartheta", type=int, default=None,
                   help="largest supported query-interval length")
    p.add_argument("--method", choices=("optimized", "basic"),
                   default="optimized")
    p.add_argument("--ordering", default="degree-product")
    p.add_argument("--undirected", action="store_true",
                   help="treat an input file as undirected")
    p.add_argument("--shards", type=int, default=None,
                   help="build a time-sharded index with this many slices")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel shard-build workers (with --shards)")
    _add_obs_args(p, progress=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer one reachability query")
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("u", help="source vertex")
    p.add_argument("v", help="target vertex")
    p.add_argument("t1", type=int, help="interval start")
    p.add_argument("t2", type=int, help="interval end")
    p.add_argument("--theta", type=int, default=None,
                   help="answer theta-reachability instead of span")
    p.add_argument("--index", help="load a saved index instead of building")
    p.add_argument("--mmap", action="store_true",
                   help="map a format-3 --index file zero-copy")
    p.add_argument("--online", action="store_true",
                   help="use the index-free Algorithm 1")
    p.add_argument("--undirected", action="store_true")
    _add_obs_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "shard-build",
        help="build a time-sharded index (one capped index per slice)",
    )
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("-o", "--output", metavar="DIR",
                   help="write the index as a shard directory")
    p.add_argument("--shards", type=int, default=4,
                   help="number of time slices (default 4)")
    p.add_argument("--policy", choices=("equal-edges", "equal-span"),
                   default="equal-edges",
                   help="slice-boundary policy (default equal-edges)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel build workers; 1 = sequential (default)")
    p.add_argument("--vartheta", type=int, default=None,
                   help="largest supported query-interval length")
    p.add_argument("--stitch-limit", type=int, default=64,
                   help="largest boundary set stitched before falling back "
                        "to online BFS (default 64)")
    p.add_argument("--method", choices=("optimized", "basic"),
                   default="optimized")
    p.add_argument("--ordering", default="degree-product")
    p.add_argument("--undirected", action="store_true",
                   help="treat an input file as undirected")
    _add_obs_args(p, progress=True)
    p.set_defaults(func=cmd_shard_build)

    p = sub.add_parser(
        "shard-query",
        help="answer one query through the cross-shard planner",
    )
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("u", help="source vertex")
    p.add_argument("v", help="target vertex")
    p.add_argument("t1", type=int, help="interval start")
    p.add_argument("t2", type=int, help="interval end")
    p.add_argument("--theta", type=int, default=None,
                   help="answer theta-reachability instead of span")
    p.add_argument("--index", metavar="DIR",
                   help="load a saved shard directory instead of building")
    p.add_argument("--mmap", action="store_true",
                   help="map format-3 shard files zero-copy")
    p.add_argument("--shards", type=int, default=4,
                   help="slices when building in-process (default 4)")
    p.add_argument("--policy", choices=("equal-edges", "equal-span"),
                   default="equal-edges")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--undirected", action="store_true")
    _add_obs_args(p)
    p.set_defaults(func=cmd_shard_query)

    p = sub.add_parser(
        "anatomy", help="distributional statistics of a built index"
    )
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("--index", help="inspect a saved index instead of building")
    p.add_argument("--mmap", action="store_true",
                   help="map a format-3 --index file zero-copy")
    p.add_argument("--top", type=int, default=10,
                   help="how many top hubs to list")
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=cmd_anatomy)

    p = sub.add_parser(
        "verify", help="spot-check an index against the brute-force oracle"
    )
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("--index", help="verify a saved index instead of building")
    p.add_argument("--mmap", action="store_true",
                   help="map a format-3 --index file zero-copy")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: cross-check every answer path on "
             "random graphs",
        # No prefix matching: `--seed 3` would otherwise read as
        # `--seeds 3` and silently run cases 0-2 instead of case 3.
        allow_abbrev=False,
    )
    p.add_argument("--seeds", type=int, default=25,
                   help="number of random cases to draw (default 25)")
    p.add_argument("--profile", default="small",
                   help="fuzz profile: small (default), wide, theta, "
                        "sharded, flat, or incremental")
    p.add_argument("--base-seed", type=int, default=0,
                   help="first case seed (campaigns are deterministic)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip failure minimization")
    p.add_argument("--fail-fast", action="store_true",
                   help="stop at the first failing case")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log each case as it runs")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "bench",
        help="seeded perf suite; writes BENCH json, gates on a baseline",
    )
    p.add_argument("--smoke", action="store_true",
                   help="small fixed suite (<60 s), suitable for CI")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default 0)")
    p.add_argument("-o", "--output", default="BENCH_PR10.json",
                   help="results file (default BENCH_PR10.json)")
    p.add_argument("--label", default="PR10",
                   help="label recorded in the results document")
    p.add_argument("--datasets", help="comma-separated dataset override")
    p.add_argument("--batch-size", type=int, default=2000,
                   help="queries per serving batch (default 2000)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repetitions, best-of (default 3)")
    p.add_argument("--compare", metavar="BASELINE.json",
                   help="compare against a recorded baseline")
    p.add_argument("--max-regression", type=float, default=10.0,
                   help="tolerated per-metric regression in percent "
                        "(default 10)")
    p.add_argument("--input", metavar="RESULTS.json",
                   help="compare an existing results file instead of "
                        "running the suite")
    _add_obs_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "stats",
        help="run a seeded workload with telemetry on and print the "
             "metrics snapshot",
    )
    p.add_argument("source", nargs="?", default=None,
                   help="dataset name or graph file (omit with --live)")
    p.add_argument("--live", metavar="SOCKET",
                   help="fetch the fleet-aggregated snapshot from a "
                        "running server's Unix socket instead of "
                        "running a workload")
    p.add_argument("--shards", type=int, default=None,
                   help="use a time-sharded index with this many slices")
    p.add_argument("--vartheta", type=int, default=None,
                   help="largest supported query-interval length")
    p.add_argument("--queries", type=int, default=500,
                   help="queries per workload pass (default 500)")
    p.add_argument("--theta", type=int, default=None,
                   help="theta for the theta-query pass (default: a third "
                        "of the window)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default 0)")
    p.add_argument("--format", choices=("text", "json", "prometheus"),
                   default="text",
                   help="snapshot rendering (default text)")
    p.add_argument("--undirected", action="store_true")
    _add_obs_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve reachability queries over NDJSON (Unix/TCP socket)",
    )
    p.add_argument("source", help="dataset name or graph file")
    p.add_argument("--index", help="saved .till to serve (default: build "
                                   "in-process at startup)")
    p.add_argument("--mmap", action="store_true",
                   help="map --index zero-copy, so every worker shares "
                        "one physical copy via the page cache")
    p.add_argument("--socket", metavar="PATH",
                   help="serve on a Unix domain socket at PATH")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default: an ephemeral port, printed)")
    p.add_argument("--workers", type=int, default=1,
                   help="pre-fork worker processes (default 1)")
    p.add_argument("--max-batch", type=int, default=512,
                   help="flush a micro-batch at this size; otherwise it "
                        "flushes at the end of the event-loop pass that "
                        "read it, never on a timer (default 512)")
    p.add_argument("--max-inflight", type=int, default=4096,
                   help="admitted-but-unanswered bound per worker; beyond "
                        "it requests are rejected 'overloaded' "
                        "(default 4096, 0 = unbounded)")
    p.add_argument("--quota", action="append", metavar="TENANT=RATE[:BURST]",
                   help="per-tenant token-bucket quota in queries/second "
                        "(repeatable; tenant '*' sets the default quota)")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="engine result-cache entries per worker")
    p.add_argument("--vartheta", type=int, default=None,
                   help="length cap when building in-process (no --index)")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--obs-dir", metavar="DIR",
                   help="fleet spool directory: every worker publishes "
                        "metrics-{pid}.json snapshots and streams "
                        "trace-{pid}.jsonl here; enables the 'metrics' "
                        "wire op and 'repro stats --live'")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="serve the fleet-aggregated Prometheus view on "
                        "http://HOST:PORT/metrics from the parent "
                        "(0 = ephemeral, printed; needs --obs-dir)")
    p.add_argument("--metrics-interval", type=float, default=2.0,
                   help="seconds between spool snapshot flushes "
                        "(default 2)")
    p.add_argument("--slow-query-ms", type=float, default=None,
                   metavar="MS",
                   help="log queries slower than MS milliseconds as "
                        "structured JSON (0 logs everything)")
    p.add_argument("--slow-query-log", metavar="FILE",
                   help="slow-query log path; {pid}/{worker} expand "
                        "per worker (default: slow-{pid}.jsonl in "
                        "--obs-dir)")
    p.add_argument("--slow-query-rate", type=float, default=10.0,
                   help="max slow-query lines per second; the excess "
                        "is counted, not written (default 10)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running 'repro serve' and report QPS + latency",
    )
    p.add_argument("source", help="dataset name or graph file (for the "
                                  "query workload's vertex universe)")
    p.add_argument("--socket", metavar="PATH",
                   help="connect to a Unix domain socket at PATH")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("-n", "--queries", type=int, default=1000,
                   help="total queries to issue (default 1000)")
    p.add_argument("-c", "--concurrency", type=int, default=4,
                   help="concurrent connections (default 4)")
    p.add_argument("--pipeline", type=int, default=16,
                   help="requests in flight per connection (default 16; "
                        "1 measures true per-query latency)")
    p.add_argument("--tenant", default=None,
                   help="tenant id stamped on every request")
    p.add_argument("--seed", type=int, default=8,
                   help="workload seed (default 8)")
    p.add_argument("--trace-every", type=int, default=0, metavar="K",
                   help="stamp every K-th request per connection with "
                        "a distributed-trace id (0 = off)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the client-side view (latency histogram, "
                        "per-code error counts) as repro-metrics/1 JSON")
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "slo",
        help="compare live/recorded serving latency against a bench "
             "baseline; non-zero exit on burn",
    )
    p.add_argument("--metrics", metavar="FILE",
                   help="a repro-metrics/1 document (e.g. the merged "
                        "fleet artifact) to judge")
    p.add_argument("--live", metavar="SOCKET",
                   help="fetch the fleet snapshot from a running "
                        "server's Unix socket instead")
    p.add_argument("--baseline", required=True, metavar="BENCH.json",
                   help="bench results file holding the "
                        "serve_latency_p95/p99_ms baseline")
    p.add_argument("--max-burn", type=float, default=50.0, metavar="PCT",
                   help="tolerated p95/p99 increase over the baseline "
                        "in percent (default 50)")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", help="experiment id, or 'list'")
    p.add_argument("--datasets", help="comma-separated dataset subset")
    p.add_argument("--chart", action="store_true",
                   help="also draw the figure as an ASCII chart")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
