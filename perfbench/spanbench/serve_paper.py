"""``serve-paper``: open-loop Section VI-A traffic against ``repro serve``.

Set-up builds the ``enron`` index, saves it as format 3 and starts one
``repro serve --index FILE --mmap --workers 1`` worker with a fleet
spool (``--obs-dir``), as an operator runs it; no tuning flags.  The
stream is the paper's query protocol — every query has its own window,
so every micro-batch holds one query and the per-request path
(protocol, admission, batcher timer, executor hop, per-call kernel) is
what gets measured.  Nothing repeats within a run, so the result cache
never answers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from repro.datasets.registry import load_dataset
from repro.obs.fleet import merge_trace_files, trace_files

from . import layers, openloop
from .common import (
    OUT, SRC, WORK, Result, Stopwatch, median, percentile, proc_cpu_seconds,
    proc_peak_rss_mb, tail_percentile,
)
from .inputs import Query, paper_stream
from .tracing import Tracer

DATASET = "enron"
#: Reference rate (queries/s), below the served knee on a 2-core host:
#: latency_p50_ms is read here.
REF_RATE = 100.0
#: Rates tried above the reference, in order; the ladder stops at the
#: first rung that misses the limit.
LADDER = (200.0, 300.0, 600.0, 1200.0, 2400.0, 4000.0)
#: A rung passes when its p99 latency is within this limit and every
#: request was answered without an error frame.  A host scheduling
#: stall of ~0.2 s already lifts the p99 of a short rung to ~250 ms
#: below the knee; a rung past the knee builds a backlog of seconds.
LIMIT_P99_MS = 500.0
SETUP_REPS = 3
WARMUP_S = 2.0


class Server:
    """One ``repro serve`` worker on a Unix socket under ``WORK``."""

    def __init__(self, index_path: str, tag: str):
        self.sock = os.path.relpath(WORK / f"{tag}.sock")
        self.obs = str(WORK / f"{tag}-obs")
        self.log = open(WORK / f"{tag}.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", DATASET,
             "--index", index_path, "--mmap", "--workers", "1",
             "--socket", self.sock, "--obs-dir", self.obs],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                if openloop.call(self.sock, {"op": "ping"}, 2.0).get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.02)

    def stats(self) -> Dict:
        return openloop.call(self.sock, {"op": "stats"})["result"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _rung(server: Server, qs: Sequence[Query], want: Sequence[bool],
          rate: float, first_id: int, result: Result,
          trace: bool = False) -> openloop.RungResult:
    ids = list(range(first_id, first_id + len(qs)))
    lines = [q.line(i, trace=f"r{i}" if trace else None)
             for q, i in zip(qs, ids)]
    rung = openloop.run_rung(server.sock, lines, ids, rate, grace_s=30.0)
    slots = sorted(rung.answers)
    result.check([rung.answers[k] for k in slots], [want[k] for k in slots],
                 f"{rate:g}q/s")
    for code, n in rung.errors.items():
        result.fail(n, f"error frame {code}")
    result.fail(rung.timeouts, "timeout")
    return rung


def _passes(rung: openloop.RungResult) -> bool:
    return (not rung.errors and not rung.timeouts
            and percentile(rung.latencies_ms, 99) <= LIMIT_P99_MS)


def run(seed: int, seconds: float, traced: bool) -> None:
    result = Result("serve-paper", seed, traced)
    graph = load_dataset(DATASET)
    ref_s = 0.6 * seconds
    rung_s = 0.1 * seconds
    n_ref = int(REF_RATE * ref_s)
    rung_sizes = [int(rate * rung_s) for rate in LADDER]
    n_phase = n_ref * (3 if traced else 1)
    measured = paper_stream(graph, n_phase + (0 if traced else
                                              sum(rung_sizes)), seed)
    warm = paper_stream(graph, int(REF_RATE * WARMUP_S), seed + 7919,
                        exclude=measured)

    sw = Stopwatch()
    path = str(WORK / "enron.till")
    server = None
    setups: List[float] = []
    try:
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            _g, built, mapped = layers.index_setup(
                sw, lambda: load_dataset(DATASET, cache=False), path)
            server = Server(path, f"serve{rep}")
            server.wait_ready()
            setups.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                server.stop()
        index_mb = os.path.getsize(path) / 2**20
        # The worker resolves --flat-backend auto exactly like this.
        server_backend = mapped.flatten("auto").flat_backend
        want = layers.reference_answers(mapped, measured)
        layers.oracle_check(result, graph, measured, want, seed)
        warm_want = layers.reference_answers(mapped, warm)
        _rung(server, warm, warm_want, REF_RATE, 10**7, result)

        pid = server.proc.pid
        cpu0, wall0 = proc_cpu_seconds(pid), time.perf_counter()
        ref = _rung(server, measured[:n_ref], want[:n_ref], REF_RATE, 0,
                    result)
        cpu1, wall1 = proc_cpu_seconds(pid), time.perf_counter()
        # Read before the ladder: overload rungs queue requests and
        # would make the high-water mark depend on where it stopped.
        peak_rss = proc_peak_rss_mb(pid)
        details = {"setup_s_reps": setups, "index_mb": index_mb,
                   "ref": _summary(ref)}
        result.facts.update({"dataset": _dataset_facts(graph, built),
                             "server_backend": server_backend,
                             "kernel_threads": 1, "workers": 1})
        if not traced:
            sustained = REF_RATE if _passes(ref) else 0.0
            ladder = []
            pos = n_ref
            for rate, n in zip(LADDER, rung_sizes):
                rung = _rung(server, measured[pos:pos + n],
                             want[pos:pos + n], rate, pos, result)
                pos += n
                ladder.append(_summary(rung))
                if not _passes(rung):
                    break
                sustained = rate
            details["ladder"] = ladder
            result.set("setup_s", median(setups))
            result.set("throughput_qps", sustained)
            result.set("latency_p50_ms", percentile(ref.latencies_ms, 50))
            result.set("peak_rss_mb", peak_rss)
            result.set("index_mb", index_mb)
        else:
            _traced_layers(result, details, server, graph, mapped, built,
                           measured, want, n_ref, ref, sw, seed)
            stats = server.stats()
            result.set("admission.rejected",
                       sum(stats["admission"]["rejected"].values()))
            result.set("worker.cpu_us_per_request",
                       (cpu1 - cpu0) / n_ref * 1e6)
            result.set("worker.cpu_util", (cpu1 - cpu0) / (wall1 - wall0))
        details["server_stats"] = server.stats()
    finally:
        if server is not None:
            server.stop()
    result.emit(details)


def _traced_layers(result, details, server, graph, mapped, built, measured,
                   want, n_ref, ref, sw, seed) -> None:
    """Per-layer figures for the traced run (see the module docs)."""
    # The same rate with every request carrying a trace id: the
    # difference to the untraced reference phase is the tracing cost.
    traced = _rung(server, measured[n_ref:2 * n_ref],
                   want[n_ref:2 * n_ref], REF_RATE, n_ref, result,
                   trace=True)
    p50 = percentile(ref.latencies_ms, 50)
    result.set("trace.overhead_pct",
               (percentile(traced.latencies_ms, 50) / p50 - 1) * 100)
    pct = tail_percentile(len(ref.latencies_ms))
    result.set("e2e.latency_p99_ms", percentile(ref.latencies_ms, pct))
    details["tail_percentile"] = pct

    # Transport: socket + asyncio connection loop + client, no engine.
    pings = [(json.dumps({"op": "ping", "id": 2 * 10**7 + k}) + "\n")
             .encode() for k in range(int(REF_RATE * 3))]
    ping = openloop.run_rung(server.sock, pings,
                             [2 * 10**7 + k for k in range(len(pings))],
                             REF_RATE)
    transport_us = percentile(ping.latencies_ms, 50) * 1e3

    # In-process replay of the reference stream's exact lines.
    tracer = Tracer()
    replay_qs = measured[2 * n_ref:3 * n_ref]
    lines = [q.line(k) for k, q in enumerate(replay_qs)]
    mapped.flatten("auto")
    got, engine_stats = layers.pipeline_replay(
        mapped, lines, [k / REF_RATE for k in range(len(lines))], tracer)
    result.check(got, want[2 * n_ref:3 * n_ref], "replay")
    per = tracer.per_request_self_us()
    budget = {"transport (ping round trip)": transport_us, **per}
    attributed = sum(budget.values())
    result.set("trace.unattributed_us", p50 * 1e3 - attributed)
    result.set("batcher.wait_ms", per.get("batcher.wait", 0.0) / 1e3)
    details["budget_us_per_request"] = budget
    details["reconcile"] = {
        "latency_p50_us": p50 * 1e3, "attributed_us": attributed,
        "unattributed_us": p50 * 1e3 - attributed,
        "tolerance": "|unattributed| <= 25% of latency_p50",
        "within_tolerance": abs(p50 * 1e3 - attributed) <= 0.25 * p50 * 1e3,
    }
    engine_s = sum(s.end - s.start for s in tracer.spans
                   if s.name == "engine")
    kernel_s = sum(s.end - s.start for s in tracer.spans
                   if s.name == "kernel")
    layers.engine_layer(result, engine_stats, engine_s, kernel_s)
    tracer.write(OUT / "serve-paper-spans.jsonl")

    # The worker's own spans for the traced requests.
    details["server_spans_us"] = _server_spans(server, traced, n_ref)

    resolved = layers.kernel_probe(
        result, mapped, replay_qs, layers.bulk_shape(mapped.graph, replay_qs),
        "auto")
    result.facts["kernel_backend"] = {"default": resolved}
    layers.protocol_probe(result, lines, got)
    layers.report_index(result, sw, built)
    layers.incremental_probe(result, graph, seed=seed)
    client_cpu = ref.client_cpu_s / max(1, ref.sent) * 1e6
    details["client"] = {
        "generator_late_p99_ms": percentile(ref.late_ms, 99),
        "cpu_us_per_request": client_cpu,
    }


def _server_spans(server: Server, rung: openloop.RungResult,
                  first_id: int) -> Dict[str, float]:
    """Median duration (µs) of the worker's own spans for the traced
    requests, read from its trace stream in the fleet spool, plus the
    median per request of client latency minus the worker's
    ``server.request`` span, matched by trace id: the time spent
    outside the worker's admit-to-answer interval."""
    by: Dict[str, List[float]] = {}
    outside: List[float] = []
    for event in merge_trace_files(trace_files(server.obs)):
        if event.get("type") != "span":
            continue
        by.setdefault(event["name"], []).append(event.get("dur", 0.0))
        trace = (event.get("attrs") or {}).get("trace")
        if event["name"] == "server.request" and trace:
            slot = int(trace[1:]) - first_id
            if slot in rung.latency_by_slot:
                outside.append(rung.latency_by_slot[slot] / 1e3
                               - event["dur"])
    out = {name: median(v) * 1e6 for name, v in by.items()}
    out["client latency - server.request"] = median(outside) * 1e6
    return out


def _summary(rung: openloop.RungResult) -> Dict[str, object]:
    lat = rung.latencies_ms
    pct = tail_percentile(len(lat))
    return {
        "rate": rung.rate, "sent": rung.sent, "answered": len(lat),
        "p50_ms": percentile(lat, 50),
        "tail_pct": pct, "tail_ms": percentile(lat, pct or 99),
        "p99_ms": percentile(lat, 99),
        "late_p99_ms": percentile(rung.late_ms, 99),
        "drain_s": rung.drain_s, "errors": rung.errors,
        "timeouts": rung.timeouts, "passed": _passes(rung),
        "client_cpu_us_per_request":
            rung.client_cpu_s / max(1, rung.sent) * 1e6,
    }


def _dataset_facts(graph, index) -> Dict[str, int]:
    return {"name": DATASET, "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "label_entries": index.labels.total_entries()}
