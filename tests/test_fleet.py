"""Tests for fleet-wide observability (:mod:`repro.obs.fleet`,
:mod:`repro.obs.slowlog`, and the serving tier's wiring of both).

Covers the metrics merge rules (counters sum, gauges get worker
labels, histograms merge bucket-wise or report a bound mismatch), the
atomic spool reporter, the Prometheus scrape endpoint, cross-process
trace merge + request reassembly, the O_APPEND interleave contract of
``AppendSink`` under fork, the rate-limited slow-query log, the SLO
quantile arithmetic and watchdog, the pre-fork shared-template guard,
the ``metrics`` wire op, and — end to end over a real forked pool —
that any single worker's ``metrics`` answer aggregates every worker's
``server_requests_total`` to the exact client-side total.
"""

import asyncio
import contextlib
import json
import os
import signal
import socket as socket_module
import sys
import tempfile
import threading
import urllib.request

import pytest

from repro import TILLIndex
from repro.errors import ReproError
from repro.obs import Telemetry
from repro.obs.fleet import (
    FleetReporter,
    aggregate_spool,
    merge_metrics_docs,
    merge_trace_files,
    read_spool,
    reassemble_request,
    render_prometheus,
    serve_metrics_http,
    spool_metrics_path,
    spool_trace_path,
    trace_files,
)
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.slowlog import (
    SlowQueryLog,
    baseline_latencies,
    check_slo,
    extract_latency_quantiles,
    histogram_quantile,
    read_slowlog,
)
from repro.obs.trace import AppendSink
from repro.obs.validate import validate_metrics_doc, validate_trace_file
from repro.serve.client import ServeClient, run_loadgen
from repro.serve.server import (
    IndexProvider,
    ReachabilityServer,
    ServerConfig,
    bind_socket,
    serve_prefork,
)

from tests.conftest import random_graph

HAVE_FORK = hasattr(os, "fork")
HAVE_AF_UNIX = hasattr(socket_module, "AF_UNIX")


# ----------------------------------------------------------------------
# document builders
# ----------------------------------------------------------------------


def _counter(value, **labels):
    return {"labels": labels, "value": value}


def _doc(metrics, pid=None, worker_id=None):
    doc = {"schema": METRICS_SCHEMA, "metrics": metrics}
    if pid is not None or worker_id is not None:
        doc["worker"] = {"pid": pid, "id": worker_id,
                         "written_at": 1000.0 + (worker_id or 0)}
    return doc


def _series(doc, name):
    return (doc["metrics"][name])["series"]


# ----------------------------------------------------------------------
# metrics merge rules
# ----------------------------------------------------------------------


class TestMergeMetricsDocs:
    def test_counters_sum_per_label_set(self):
        a = _doc({"server_requests_total": {
            "kind": "counter", "help": "h",
            "series": [_counter(7, op="span"), _counter(1, op="theta")],
        }}, pid=11, worker_id=0)
        b = _doc({"server_requests_total": {
            "kind": "counter", "help": "h",
            "series": [_counter(5, op="span")],
        }}, pid=22, worker_id=1)
        merged, problems = merge_metrics_docs([a, b])
        assert problems == []
        by_op = {s["labels"]["op"]: s["value"]
                 for s in _series(merged, "server_requests_total")}
        assert by_op == {"span": 12, "theta": 1}

    def test_gauges_keep_one_series_per_worker(self):
        docs = [
            _doc({"server_inflight": {
                "kind": "gauge", "help": "",
                "series": [{"labels": {}, "value": 3}],
            }}, pid=11, worker_id=0),
            _doc({"server_inflight": {
                "kind": "gauge", "help": "",
                "series": [{"labels": {}, "value": 5}],
            }}, pid=22, worker_id=1),
        ]
        merged, problems = merge_metrics_docs(docs)
        assert problems == []
        series = _series(merged, "server_inflight")
        assert {s["labels"]["worker"]: s["value"] for s in series} == {
            "w0": 3, "w1": 5
        }

    def test_histograms_merge_bucketwise(self):
        def hist(counts, total, maximum):
            return {"kind": "histogram", "help": "", "buckets": [0.1, 1.0],
                    "series": [{"labels": {"op": "span"}, "counts": counts,
                                "sum": 1.0, "count": total,
                                "max": maximum}]}
        merged, problems = merge_metrics_docs([
            _doc({"lat": hist([1, 2, 0], 3, 0.5)}, pid=1, worker_id=0),
            _doc({"lat": hist([4, 0, 1], 5, 2.5)}, pid=2, worker_id=1),
        ])
        assert problems == []
        (series,) = _series(merged, "lat")
        assert series["counts"] == [5, 2, 1]
        assert series["count"] == 8
        assert series["max"] == 2.5
        assert merged["metrics"]["lat"]["buckets"] == [0.1, 1.0]

    def test_histogram_bucket_mismatch_is_reported_not_mangled(self):
        def hist(buckets):
            return {"kind": "histogram", "help": "", "buckets": buckets,
                    "series": [{"labels": {}, "counts": [1] * (len(buckets)
                                                               + 1),
                                "sum": 0.0, "count": len(buckets) + 1,
                                "max": 0.0}]}
        merged, problems = merge_metrics_docs([
            _doc({"lat": hist([0.1, 1.0])}, pid=1, worker_id=0),
            _doc({"lat": hist([0.2, 2.0])}, pid=2, worker_id=1),
        ])
        assert len(problems) == 1 and "bucket bounds differ" in problems[0]
        # first writer's series survives untouched
        (series,) = _series(merged, "lat")
        assert series["counts"] == [1, 1, 1]

    def test_kind_conflict_is_reported(self):
        merged, problems = merge_metrics_docs([
            _doc({"x": {"kind": "counter", "help": "",
                        "series": [_counter(1)]}}, pid=1, worker_id=0),
            _doc({"x": {"kind": "gauge", "help": "",
                        "series": [{"labels": {}, "value": 9}]}},
                 pid=2, worker_id=1),
        ])
        assert len(problems) == 1 and "'x'" in problems[0]
        assert _series(merged, "x") == [{"labels": {}, "value": 1}]

    def test_merged_doc_is_schema_valid_with_fleet_block(self):
        merged, problems = merge_metrics_docs([
            _doc({"server_requests_total": {
                "kind": "counter", "help": "h",
                "series": [_counter(2, op="span")],
            }}, pid=11, worker_id=0),
            _doc({}, pid=22, worker_id=1),
        ])
        assert problems == []
        assert validate_metrics_doc(merged) == []
        assert merged["fleet"]["merged"] is True
        assert len(merged["fleet"]["workers"]) == 2
        (workers,) = _series(merged, "fleet_workers")
        assert workers["value"] == 2
        stamps = _series(merged, "fleet_snapshot_unix_seconds")
        assert [s["labels"]["worker"] for s in stamps] == ["w0", "w1"]


# ----------------------------------------------------------------------
# spool reporter + scrape endpoint
# ----------------------------------------------------------------------


class TestSpool:
    def test_flush_is_atomic_and_roundtrips(self, tmp_path):
        spool = str(tmp_path / "spool")
        telemetry = Telemetry()
        telemetry.metrics.counter("server_requests_total", "h").inc(
            3, op="span")
        reporter = FleetReporter(telemetry, spool, worker_id=4)
        path = reporter.flush()
        assert path == spool_metrics_path(spool)
        path = reporter.flush()  # idempotent target, bumped seq
        assert not [f for f in os.listdir(spool) if ".tmp" in f]
        docs = read_spool(spool)
        assert len(docs) == 1
        assert docs[0]["worker"]["id"] == 4
        assert docs[0]["worker"]["seq"] == 2
        merged, problems = aggregate_spool(spool)
        assert problems == []
        by_op = {s["labels"]["op"]: s["value"]
                 for s in _series(merged, "server_requests_total")}
        assert by_op == {"span": 3}

    def test_read_spool_skips_unparseable_snapshots(self, tmp_path):
        spool = str(tmp_path)
        with open(os.path.join(spool, "metrics-999.json"), "w") as fh:
            fh.write('{"torn":')  # a writer mid-crash
        telemetry = Telemetry()
        FleetReporter(telemetry, spool, worker_id=0).flush()
        assert len(read_spool(spool)) == 1

    def test_http_endpoint_scrapes_fresh_aggregate(self, tmp_path):
        spool = str(tmp_path)
        telemetry = Telemetry()
        telemetry.metrics.counter("server_requests_total", "h").inc(
            6, op="span")
        FleetReporter(telemetry, spool, worker_id=0).flush()
        server = serve_metrics_http(spool, port=0)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics") as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert 'server_requests_total{op="span"} 6' in body
            assert "fleet_workers 1" in body
            # a second worker flushes; the next scrape sees it
            other = Telemetry()
            other.metrics.counter("server_requests_total", "h").inc(
                4, op="span")
            FleetReporter(other, spool, worker_id=1, pid=424242).flush()
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics") as response:
                body = response.read().decode("utf-8")
            assert 'server_requests_total{op="span"} 10' in body
            assert "fleet_workers 2" in body
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# trace merge + reassembly
# ----------------------------------------------------------------------


def _write_trace(path, wall_epoch, events):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", "schema": "repro-trace/1",
                             "streaming": True,
                             "wall_epoch": wall_epoch}) + "\n")
        for event in events:
            fh.write(json.dumps(event) + "\n")


class TestTraceMerge:
    def test_merge_orders_on_absolute_timeline(self, tmp_path):
        a = str(tmp_path / "trace-1.jsonl")
        b = str(tmp_path / "trace-2.jsonl")
        # Process A booted later (epoch 100) than B (epoch 50): A's
        # relative 0.5 is *after* B's relative 1.0 on the wall clock.
        _write_trace(a, 100.0, [
            {"type": "span", "id": 1, "name": "x", "pid": 1, "start": 0.5,
             "dur": 0.1, "depth": 0, "parent": None, "attrs": {}},
        ])
        _write_trace(b, 50.0, [
            {"type": "span", "id": 1, "name": "y", "pid": 2, "start": 1.0,
             "dur": 0.1, "depth": 0, "parent": None, "attrs": {}},
        ])
        out = str(tmp_path / "merged.jsonl")
        events = merge_trace_files([a, b], out_path=out)
        assert [e["name"] for e in events] == ["y", "x"]
        assert [e["wall"] for e in events] == [51.0, 100.5]
        assert validate_trace_file(out) == []
        with open(out) as fh:
            header = json.loads(fh.readline())
        assert header["events"] == 2
        assert header["merged_from"] == 2
        assert header["wall_epoch"] == 50.0

    def test_merge_tolerates_missing_and_torn_files(self, tmp_path):
        a = str(tmp_path / "trace-1.jsonl")
        _write_trace(a, 10.0, [
            {"type": "event", "name": "e", "at": 0.25, "attrs": {}},
        ])
        with open(a, "a") as fh:
            fh.write('{"type": "event", "na')  # torn tail
        events = merge_trace_files([a, str(tmp_path / "nope.jsonl")])
        assert len(events) == 1 and events[0]["wall"] == 10.25

    def test_reassemble_links_three_layers_without_span_parents(self):
        def span(name, pid, wall, **attrs):
            return {"type": "span", "name": name, "pid": pid,
                    "start": wall, "dur": 0.001, "wall": wall,
                    "attrs": attrs}

        events = [
            span("server.request", 1, 100.2, trace="t1", batch="b3",
                 op="span", outcome="ok"),
            span("server.batch", 1, 100.3, batch="b3",
                 traces=["t1", "t2"], size=5),
            span("engine.execute", 1, 100.25, batch="b3", size=5),
            # same batch label in ANOTHER worker: must not be linked
            span("engine.execute", 2, 100.26, batch="b3", size=9),
            # unrelated request riding the same batch
            span("server.request", 1, 100.21, trace="t2", batch="b3",
                 op="span", outcome="ok"),
        ]
        story = reassemble_request(events, "t1")
        assert story["layers"] == 3
        assert [e["name"] for e in story["request"]] == ["server.request"]
        assert story["request"][0]["attrs"]["trace"] == "t1"
        assert [e["attrs"]["traces"] for e in story["batch"]] == [
            ["t1", "t2"]
        ]
        # the engine group holds only worker 1's execution — not the
        # other pid's batch "b3", not t2's request span
        assert [(e["name"], e["pid"]) for e in story["engine"]] == [
            ("engine.execute", 1)
        ]
        unknown = reassemble_request(events, "missing")
        assert unknown["layers"] == 0


# ----------------------------------------------------------------------
# AppendSink interleave contract under fork (satellite: multi-process
# trace safety)
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_FORK, reason="needs os.fork")
class TestAppendInterleave:
    def test_forked_writers_never_tear_lines(self, tmp_path):
        """Two processes appending concurrently produce only complete
        JSON lines (one os.write per line over O_APPEND)."""
        path = str(tmp_path / "shared.jsonl")
        per_writer = 250
        # a long attr pushes each line well past typical pipe chunks
        payload = "x" * 512
        pids = []
        for writer in range(2):
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    sink = AppendSink(path, wall_epoch=0.0,
                                      extra={"who": writer}, header=False)
                    for i in range(per_writer):
                        sink({"type": "event", "name": "e", "at": float(i),
                              "attrs": {"i": i, "pad": payload}})
                    sink.close()
                except BaseException:
                    status = 1
                finally:
                    os._exit(status)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        counts = {0: 0, 1: 0}
        with open(path) as fh:
            for line in fh:
                event = json.loads(line)  # torn writes would blow up here
                counts[event["who"]] += 1
        assert counts == {0: per_writer, 1: per_writer}


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _counter_value(telemetry, name, **labels):
    entry = telemetry.metrics.snapshot()["metrics"].get(name) or {}
    for series in entry.get("series") or []:
        if series.get("labels") == labels:
            return series.get("value", 0)
    return 0


class TestSlowQueryLog:
    def test_threshold_gates_and_records_query_shape(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(path, threshold_s=0.010, worker=2)
        try:
            assert not log.maybe_record(0.005, op="span")
            assert log.maybe_record(0.020, op="span", trace="t9",
                                    batch="b4", tenant="acme")
        finally:
            log.close()
        (record,) = read_slowlog(path)
        assert record["op"] == "span"
        assert record["trace"] == "t9"
        assert record["batch"] == "b4"
        assert record["tenant"] == "acme"
        assert record["worker"] == 2
        assert record["pid"] == os.getpid()
        assert record["duration_ms"] == pytest.approx(20.0)
        assert record["threshold_ms"] == pytest.approx(10.0)

    def test_rate_limit_suppresses_but_counts(self, tmp_path):
        clock = FakeClock()
        telemetry = Telemetry()
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(path, threshold_s=0.0, max_per_sec=2.0,
                           telemetry=telemetry, clock=clock)
        try:
            written = [log.maybe_record(0.001, op="span")
                       for _ in range(5)]
            assert written == [True, True, False, False, False]
            assert _counter_value(
                telemetry, "server_slow_queries_total", op="span") == 5
            assert _counter_value(
                telemetry, "server_slow_queries_suppressed_total") == 3
            clock.advance(1.0)  # 2 tokens refill at 2/s
            assert log.maybe_record(0.001, op="span")
            assert log.maybe_record(0.001, op="span")
            assert not log.maybe_record(0.001, op="span")
        finally:
            log.close()
        assert len(read_slowlog(path)) == 4

    def test_read_slowlog_skips_torn_tail(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(path, threshold_s=0.0)
        try:
            log.maybe_record(0.001, op="span")
        finally:
            log.close()
        with open(path, "a") as fh:
            fh.write('{"type": "slow_query", "unterm')
        assert len(read_slowlog(path)) == 1


# ----------------------------------------------------------------------
# SLO arithmetic + watchdog
# ----------------------------------------------------------------------


def _latency_doc(buckets, counts, maximum=0.0, metric="server_request_seconds"):
    return {"schema": METRICS_SCHEMA, "metrics": {metric: {
        "kind": "histogram", "help": "", "buckets": list(buckets),
        "series": [{"labels": {"op": "span"}, "counts": list(counts),
                    "sum": 1.0, "count": sum(counts), "max": maximum}],
    }}}


class TestSloMath:
    def test_histogram_quantile_interpolates_linearly(self):
        buckets, counts = [0.1, 0.2, 0.4], [0, 10, 0, 0]
        assert histogram_quantile(buckets, counts, 0.5) == pytest.approx(
            0.15)
        assert histogram_quantile(buckets, counts, 1.0) == pytest.approx(
            0.2)
        assert histogram_quantile(buckets, [0, 0, 0, 0], 0.5) is None

    def test_quantile_in_inf_bucket_uses_observed_max(self):
        buckets, counts = [0.1, 0.2], [0, 0, 5]
        assert histogram_quantile(buckets, counts, 0.99,
                                  observed_max=0.9) == 0.9
        # no max recorded: clamp to the largest finite bound
        assert histogram_quantile(buckets, counts, 0.99) == 0.2

    def test_extract_latency_quantiles_sums_all_series(self):
        doc = _latency_doc([0.001, 0.01], [90, 10, 0], maximum=0.008)
        doc["metrics"]["server_request_seconds"]["series"].append(
            {"labels": {"op": "theta"}, "counts": [100, 0, 0],
             "sum": 0.05, "count": 100, "max": 0.0005})
        out = extract_latency_quantiles(doc)
        assert out["count"] == 200
        assert set(out) >= {"p50", "p95", "p99"}
        assert 0.0 < out["p50"] <= 0.001
        assert out["p99"] > out["p50"]

    def test_extract_handles_absent_metric(self):
        out = extract_latency_quantiles({"metrics": {}})
        assert out["count"] == 0
        assert out["p50"] is None and out["p99"] is None

    def test_baseline_latencies_reads_serving_block(self):
        bench = {"serving": {"serve_latency_p95_ms": 1.5,
                             "serve_latency_p99_ms": 4.0,
                             "serve_latency_p50_ms": 0.0}}
        assert baseline_latencies(bench) == {"p95": 1.5, "p99": 4.0}
        assert baseline_latencies({}) == {}

    def test_check_slo_passes_within_budget(self):
        live = _latency_doc([0.001, 0.01], [100, 0, 0], maximum=0.0009)
        bench = {"serving": {"serve_latency_p95_ms": 1.0,
                             "serve_latency_p99_ms": 1.0}}
        ok, report = check_slo(live, bench, max_burn_pct=50.0)
        assert ok, report
        assert any("ok" in line for line in report)

    def test_check_slo_fails_on_burn(self):
        live = _latency_doc([0.001, 0.01], [0, 100, 0], maximum=0.0099)
        bench = {"serving": {"serve_latency_p95_ms": 1.0,
                             "serve_latency_p99_ms": 1.0}}
        ok, report = check_slo(live, bench, max_burn_pct=50.0)
        assert not ok
        assert any("BURN" in line for line in report)

    def test_check_slo_fails_on_no_data_and_no_baseline(self):
        bench = {"serving": {"serve_latency_p95_ms": 1.0}}
        ok, report = check_slo({"metrics": {}}, bench)
        assert not ok and "no observations" in report[0]
        live = _latency_doc([0.001, 0.01], [100, 0, 0])
        ok, report = check_slo(live, {"serving": {}})
        assert not ok
        assert any("no serve_latency" in line for line in report)


# ----------------------------------------------------------------------
# pre-fork guards
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_FORK, reason="needs os.fork")
class TestPreforkGuards:
    @pytest.mark.parametrize("field, template", [
        ("trace_out", "shared-trace.jsonl"),
        ("metrics_out", "shared-metrics.json"),
        ("slow_query_log", "shared-slow.jsonl"),
    ])
    def test_shared_output_templates_are_refused(self, field, template):
        config = ServerConfig(**{field: template})
        if field == "slow_query_log":
            config.slow_query_ms = 1.0
        with pytest.raises(ReproError) as info:
            serve_prefork(None, config, None, workers=2)
        message = str(info.value)
        assert "{pid}" in message and "--obs-dir" in message

    def test_a_failing_worker_reports_its_traceback(self, monkeypatch,
                                                    capfd):
        import repro.serve.server as server

        def boom(provider, config, sock, worker_id, telemetry=None):
            raise RuntimeError(f"worker {worker_id} cannot start")

        monkeypatch.setattr(server, "_run_worker", boom)
        assert serve_prefork(None, ServerConfig(), None, workers=1) == 1
        err = capfd.readouterr().err
        assert "repro serve: worker 0 (pid " in err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: worker 0 cannot start" in err


# ----------------------------------------------------------------------
# metrics wire op + trace propagation (single worker, in-thread)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_graph():
    return random_graph(21, num_vertices=10, num_edges=45)


@pytest.fixture(scope="module")
def fleet_index(fleet_graph):
    return TILLIndex.build(fleet_graph)


@contextlib.contextmanager
def running_server(provider, config):
    with tempfile.TemporaryDirectory(prefix="repro-fleet-test-") as scratch:
        socket_path = os.path.join(scratch, "serve.sock")
        server = ReachabilityServer(provider, config)
        ready = threading.Event()
        failure = []

        def run():
            try:
                asyncio.run(server.serve(socket_path=socket_path,
                                         ready=ready))
            except Exception as exc:
                failure.append(exc)
                ready.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(20), "server never became ready"
        if failure:
            raise failure[0]
        try:
            yield server, socket_path
        finally:
            server.stop()
            thread.join(20)
            assert not thread.is_alive()
            if failure:
                raise failure[0]


class TestMetricsWireOp:
    def _provider(self, fleet_graph, fleet_index):
        provider = IndexProvider(fleet_graph)
        provider.open = lambda: fleet_index
        return provider

    def test_metrics_op_aggregates_own_spool(self, fleet_graph, fleet_index,
                                             tmp_path):
        provider = self._provider(fleet_graph, fleet_index)
        config = ServerConfig(max_batch=32,
                              obs_dir=str(tmp_path / "spool"))
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                for u in range(9):
                    assert client.span(u, (u + 1) % 9, 1, 10)["ok"]
                response = client.metrics()
        assert response["ok"], response
        doc = response["result"]
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["problems"] == []
        assert doc["fleet"]["merged"] is True
        by_op = {tuple(sorted(s["labels"].items())): s["value"]
                 for s in _series(doc, "server_requests_total")}
        assert by_op[(("op", "span"), ("outcome", "ok"))] == 9

    def test_metrics_op_without_telemetry_is_unsupported(
            self, fleet_graph, fleet_index):
        provider = self._provider(fleet_graph, fleet_index)
        config = ServerConfig(max_batch=32)
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                response = client.metrics()
        assert not response["ok"]
        assert response["code"] == "unsupported"
        assert "--obs-dir" in response["error"]

    def test_traced_requests_reassemble_three_layers(
            self, fleet_graph, fleet_index, tmp_path):
        provider = self._provider(fleet_graph, fleet_index)
        spool = str(tmp_path / "spool")
        config = ServerConfig(max_batch=32,
                              obs_dir=spool)
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                sent = []
                for u in range(8):
                    sent.append(client.send(
                        {"op": "span", "u": u, "v": (u + 1) % 8,
                         "t1": 1, "t2": 10,
                         "trace": {"id": f"tp-{u}", "span": "client"}}
                    ))
                client.flush()
                for _ in sent:
                    assert client.recv()["ok"]
        # after shutdown the worker's trace stream is closed/complete
        streams = trace_files(spool)
        assert streams == [spool_trace_path(spool)]
        events = merge_trace_files(streams)
        stories = [reassemble_request(events, f"tp-{u}") for u in range(8)]
        assert any(s["layers"] == 3 for s in stories), [
            s["layers"] for s in stories
        ]
        full = next(s for s in stories if s["layers"] == 3)
        assert full["request"][0]["name"] == "server.request"
        assert full["batch"][0]["name"] == "server.batch"
        assert full["engine"][0]["name"] == "engine.execute"
        # the coalescer linked multiple traced members into one batch
        assert any(
            len(e["attrs"]["traces"]) >= 2
            for s in stories for e in s["batch"]
        )

    def test_untraced_requests_record_no_request_spans(self, fleet_graph,
                                                       fleet_index,
                                                       tmp_path):
        provider = self._provider(fleet_graph, fleet_index)
        spool = str(tmp_path / "spool")
        config = ServerConfig(max_batch=32,
                              obs_dir=spool)
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                for u in range(6):
                    assert client.span(u, (u + 1) % 6, 1, 10)["ok"]
        events = merge_trace_files(trace_files(spool))
        # the engine's own engine.*-batch spans always stream; the
        # per-request layers must stay silent without a trace id
        request_layers = {"server.request", "server.batch",
                          "engine.execute"}
        assert [e for e in events
                if e.get("name") in request_layers] == []

    def test_slow_query_log_routes_through_server(self, fleet_graph,
                                                  fleet_index, tmp_path):
        provider = self._provider(fleet_graph, fleet_index)
        spool = str(tmp_path / "spool")
        config = ServerConfig(max_batch=32,
                              obs_dir=spool,
                              slow_query_ms=0.0,  # log every request
                              slow_query_rate=1000.0)
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                assert client.span(0, 1, 1, 10, trace="slow-1")["ok"]
        (log_path,) = [os.path.join(spool, f) for f in os.listdir(spool)
                       if f.startswith("slow-")]
        records = read_slowlog(log_path)
        assert records, "threshold 0 must log the request"
        assert records[0]["op"] == "span"
        assert records[0]["duration_ms"] >= 0.0
        assert any(r.get("trace") == "slow-1" for r in records)

    def test_loadgen_metrics_doc_is_schema_valid(self, fleet_graph,
                                                 fleet_index):
        provider = self._provider(fleet_graph, fleet_index)
        config = ServerConfig(max_batch=32)
        queries = [(u % 10, (u * 3 + 1) % 10, 1, 10, None)
                   for u in range(60)]
        with running_server(provider, config) as (_server, socket_path):
            result = run_loadgen(queries, socket_path=socket_path,
                                 concurrency=2, pipeline=4,
                                 trace_every=3, with_metrics=True)
        assert result["ok"] == 60
        assert result["trace_ids"]
        doc = result["metrics_doc"]
        assert validate_metrics_doc(doc) == []
        (requests,) = _series(doc, "client_requests_total")
        assert requests["labels"] == {"outcome": "ok"}
        assert requests["value"] == 60
        # pipelined windows record per-window means, so the sample
        # count is positive but may be below the request count
        (latency,) = _series(doc, "client_latency_seconds")
        assert 0 < latency["count"] <= 60
        assert sum(latency["counts"]) == latency["count"]


# ----------------------------------------------------------------------
# end to end: pre-fork pool, fleet aggregation equals client total
# ----------------------------------------------------------------------


@pytest.mark.skipif(not (HAVE_FORK and HAVE_AF_UNIX),
                    reason="needs os.fork and AF_UNIX")
class TestPreforkFleetEndToEnd:
    def test_any_worker_answers_for_the_whole_fleet(self, fleet_graph,
                                                    tmp_path):
        from repro.serve.smoke import (
            _poll_fleet_total,
            _query_request_total,
            wait_for_server,
        )

        index_path = str(tmp_path / "fleet.till")
        TILLIndex.build(fleet_graph).save(index_path, format=3)
        socket_path = str(tmp_path / "serve.sock")
        spool = str(tmp_path / "obs")
        sock = bind_socket(socket_path=socket_path)
        provider = IndexProvider(fleet_graph, index_path, mmap=True)
        config = ServerConfig(max_batch=64,
                              obs_dir=spool, metrics_interval=0.2)
        # The pool and its workers write stderr to a file, so a nonzero
        # exit status names the worker that raised and its traceback.
        stderr_path = tmp_path / "pool.stderr"
        pool_pid = os.fork()
        if pool_pid == 0:
            status = 1
            try:
                sys.stderr = open(stderr_path, "w", buffering=1)
                os.dup2(sys.stderr.fileno(), 2)
                status = serve_prefork(provider, config, sock, workers=2)
            finally:
                sys.stderr.flush()
                os._exit(status)
        sock.close()
        try:
            wait_for_server(socket_path)
            queries = [(u % 10, (u * 3 + 1) % 10, 1, 10,
                        None if u % 2 else 3) for u in range(150)]
            result = run_loadgen(queries, socket_path=socket_path,
                                 concurrency=3, pipeline=5)
            assert result["errors"] == 0 and not result["failures"]
            assert result["ok"] == 150
            merged = _poll_fleet_total(socket_path, expected=150,
                                       timeout=15.0)
            assert merged is not None
            # the acceptance bar: one worker's answer covers them all
            assert _query_request_total(merged) == 150
            assert merged["fleet"]["merged"] is True
            assert validate_metrics_doc(merged) == []
        finally:
            try:
                os.kill(pool_pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            _, status = os.waitpid(pool_pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, (
            stderr_path.read_text() if stderr_path.exists() else "")
        # post-shutdown spool holds both workers' final snapshots
        docs = read_spool(spool)
        assert len(docs) == 2
        assert sorted(d["worker"]["id"] for d in docs) == [0, 1]


# ----------------------------------------------------------------------
# CLI: repro slo
# ----------------------------------------------------------------------


class TestSloCli:
    def _write(self, path, doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return str(path)

    def test_slo_ok_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        metrics = self._write(
            tmp_path / "m.json",
            _latency_doc([0.001, 0.01], [100, 0, 0], maximum=0.0009))
        baseline = self._write(
            tmp_path / "b.json",
            {"serving": {"serve_latency_p95_ms": 1.0,
                         "serve_latency_p99_ms": 1.0}})
        code = main(["slo", "--metrics", metrics, "--baseline", baseline])
        assert code == 0
        assert "SLO OK" in capsys.readouterr().out

    def test_slo_burn_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        metrics = self._write(
            tmp_path / "m.json",
            _latency_doc([0.001, 0.01], [0, 100, 0], maximum=0.0099))
        baseline = self._write(
            tmp_path / "b.json",
            {"serving": {"serve_latency_p95_ms": 1.0,
                         "serve_latency_p99_ms": 1.0}})
        code = main(["slo", "--metrics", metrics, "--baseline", baseline])
        assert code == 1
        captured = capsys.readouterr()
        assert "BURN" in captured.out
        assert "SLO BURN" in captured.err

    def test_slo_requires_exactly_one_source(self, tmp_path, capsys):
        from repro.cli import main

        baseline = self._write(tmp_path / "b.json", {"serving": {}})
        assert main(["slo", "--baseline", baseline]) == 2
        assert "exactly one" in capsys.readouterr().err
