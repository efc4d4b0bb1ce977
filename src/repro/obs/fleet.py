"""Fleet-wide aggregation over per-worker telemetry.

PR 8's pre-fork serving tier gave every worker a private
:class:`~repro.obs.metrics.MetricsRegistry` and (optionally) a private
trace stream — which means a ``stats`` op only ever showed the worker
that happened to accept the connection.  This module is the fleet
layer on top:

* **Spool snapshots** — each worker periodically writes its registry
  snapshot to ``metrics-{pid}.json`` inside a spool directory
  (:class:`FleetReporter`), atomically (write temp + ``os.rename``) so
  readers never see a torn document.
* **Merge** — :func:`merge_metrics_docs` folds any number of
  ``repro-metrics/1`` documents into one: counters are summed per
  label set, gauges keep one series per worker (a synthesized
  ``worker`` label; last write wins within a worker, which is free
  because each worker owns exactly one spool file), and fixed-bucket
  histograms merge bucket-wise (identical bucket bounds are required —
  a mismatch is reported, not silently mangled).
* **Exposure** — :func:`aggregate_spool` powers the ``metrics`` wire
  op (any worker answers for the whole fleet), ``repro stats --live``
  and the parent-process Prometheus endpoint
  (:func:`serve_metrics_http`, rendered by :func:`render_prometheus`
  straight from the merged document).
* **Trace reassembly** — :func:`merge_trace_files` zips per-worker
  ``repro-trace/1`` streams onto one absolute timeline using each
  header's ``wall_epoch``; :func:`reassemble_request` extracts a
  single request's cross-process story (server span → batch span that
  coalesced it → engine execution of that batch).

The merged document stays schema-valid ``repro-metrics/1`` (with an
extra top-level ``"fleet"`` block describing the member snapshots), so
``python -m repro.obs.validate`` and every existing consumer keep
working.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import METRICS_SCHEMA, render_prometheus
from repro.obs.trace import TRACE_SCHEMA

#: Spool file pattern; one file per live worker process.
METRICS_GLOB = "metrics-*.json"
TRACE_GLOB = "trace-*.jsonl"


def spool_metrics_path(spool: str, pid: Optional[int] = None) -> str:
    """The per-process metrics snapshot path inside *spool*."""
    return os.path.join(spool, f"metrics-{pid or os.getpid()}.json")


def spool_trace_path(spool: str, pid: Optional[int] = None) -> str:
    """The per-process trace stream path inside *spool*."""
    return os.path.join(spool, f"trace-{pid or os.getpid()}.jsonl")


class FleetReporter:
    """Periodically publishes one worker's registry into the spool.

    ``flush()`` snapshots the registry, stamps it with worker identity
    (``{"worker": {"pid", "id", "seq", "written_at"}}``) and renames a
    temp file over ``metrics-{pid}.json`` — readers always see either
    the previous complete document or the new one, never a torn write.
    """

    def __init__(self, telemetry, spool: str,
                 worker_id: Optional[int] = None,
                 pid: Optional[int] = None):
        self.telemetry = telemetry
        self.spool = str(spool)
        self.pid = pid or os.getpid()
        self.worker_id = worker_id
        self.path = spool_metrics_path(self.spool, self.pid)
        self._seq = 0
        os.makedirs(self.spool, exist_ok=True)

    def flush(self) -> str:
        """Write the current snapshot atomically; returns the path."""
        self._seq += 1
        doc = self.telemetry.metrics.snapshot()
        doc["worker"] = {
            "pid": self.pid,
            "id": self.worker_id,
            "seq": self._seq,
            "written_at": time.time(),
        }
        tmp = f"{self.path}.tmp.{self.pid}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.rename(tmp, self.path)
        return self.path


# ----------------------------------------------------------------------
# metrics merge
# ----------------------------------------------------------------------


def _worker_label(doc: Dict[str, Any], index: int) -> str:
    meta = doc.get("worker") or {}
    if meta.get("id") is not None:
        return f"w{meta['id']}"
    if meta.get("pid") is not None:
        return str(meta["pid"])
    return f"doc{index}"


def merge_metrics_docs(
    docs: Sequence[Dict[str, Any]],
) -> Tuple[Dict[str, Any], List[str]]:
    """Fold ``repro-metrics/1`` documents into one fleet document.

    Returns ``(merged_doc, problems)``.  Merge rules: counters sum per
    label set; gauges gain a ``worker`` label and keep one series per
    worker (point-in-time values from different processes are not
    addable); histograms merge bucket-wise and require identical
    bucket bounds.  Kind or bucket conflicts land in *problems* and the
    conflicting document's entry is skipped, never silently coerced.
    """
    problems: List[str] = []
    merged: Dict[str, Dict[str, Any]] = {}
    workers_meta: List[Dict[str, Any]] = []

    for index, doc in enumerate(docs):
        worker = _worker_label(doc, index)
        meta = dict(doc.get("worker") or {})
        meta["label"] = worker
        workers_meta.append(meta)
        for name, entry in (doc.get("metrics") or {}).items():
            kind = entry.get("kind")
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    "kind": kind,
                    "help": entry.get("help", ""),
                    "series": {},
                }
                if kind == "histogram":
                    target["buckets"] = list(entry.get("buckets") or [])
            elif target["kind"] != kind:
                problems.append(
                    f"{worker}: metric {name!r} is {kind!r} here but "
                    f"{target['kind']!r} elsewhere — skipped"
                )
                continue
            if kind == "histogram" and \
                    target["buckets"] != list(entry.get("buckets") or []):
                problems.append(
                    f"{worker}: histogram {name!r} bucket bounds differ "
                    "across workers — skipped"
                )
                continue
            for series in entry.get("series") or []:
                labels = dict(series.get("labels") or {})
                if kind == "gauge":
                    labels["worker"] = worker
                key = tuple(sorted(labels.items()))
                slot = target["series"].get(key)
                if kind == "counter":
                    value = series.get("value", 0)
                    if slot is None:
                        target["series"][key] = {"labels": labels,
                                                 "value": value}
                    else:
                        slot["value"] += value
                elif kind == "gauge":
                    # One file per worker makes this last-write-wins
                    # *within* a worker by construction.
                    target["series"][key] = {"labels": labels,
                                             "value": series.get("value", 0)}
                else:
                    counts = list(series.get("counts") or [])
                    if slot is None:
                        target["series"][key] = {
                            "labels": labels,
                            "counts": counts,
                            "sum": series.get("sum", 0.0),
                            "count": series.get("count", 0),
                            "max": series.get("max", float("-inf")),
                        }
                    elif len(counts) != len(slot["counts"]):
                        problems.append(
                            f"{worker}: histogram {name!r} count width "
                            "differs — series skipped"
                        )
                    else:
                        slot["counts"] = [a + b for a, b
                                          in zip(slot["counts"], counts)]
                        slot["sum"] += series.get("sum", 0.0)
                        slot["count"] += series.get("count", 0)
                        slot["max"] = max(slot["max"],
                                          series.get("max", float("-inf")))

    metrics: Dict[str, Any] = {}
    for name in sorted(merged):
        entry = merged[name]
        out: Dict[str, Any] = {
            "kind": entry["kind"],
            "help": entry["help"],
            "series": [entry["series"][k] for k in sorted(entry["series"])],
        }
        if entry["kind"] == "histogram":
            out["buckets"] = entry["buckets"]
        metrics[name] = out

    # Synthesized fleet-level gauges: how many snapshots went into the
    # merge and how stale each one is (dashboards watch these live).
    metrics["fleet_workers"] = {
        "kind": "gauge",
        "help": "Worker snapshots merged into this fleet document",
        "series": [{"labels": {}, "value": len(workers_meta)}],
    }
    snapshot_series = [
        {"labels": {"worker": meta["label"]},
         "value": meta.get("written_at", 0.0)}
        for meta in sorted(workers_meta, key=lambda m: m["label"])
        if meta.get("written_at") is not None
    ]
    if snapshot_series:
        metrics["fleet_snapshot_unix_seconds"] = {
            "kind": "gauge",
            "help": "Wall-clock time each worker last flushed its snapshot",
            "series": snapshot_series,
        }

    doc = {
        "schema": METRICS_SCHEMA,
        "metrics": metrics,
        "fleet": {"workers": workers_meta, "merged": True},
    }
    return doc, problems


def read_spool(spool: str) -> List[Dict[str, Any]]:
    """All parseable snapshot documents in *spool*, ordered by path."""
    docs = []
    for path in sorted(glob.glob(os.path.join(spool, METRICS_GLOB))):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            # A worker may be mid-rename or already gone; skip, the
            # next scrape sees it.
            continue
    return docs


def aggregate_spool(spool: str) -> Tuple[Dict[str, Any], List[str]]:
    """Merge every snapshot currently in *spool* (see merge rules)."""
    return merge_metrics_docs(read_spool(spool))


def serve_metrics_http(spool: str, port: int = 0, host: str = "127.0.0.1"):
    """A daemon-threaded Prometheus scrape endpoint over the spool.

    Every GET re-aggregates the spool, so the scrape always reflects
    the latest worker flushes.  Returns the ``ThreadingHTTPServer``;
    its bound port is ``server.server_address[1]`` (useful with
    ``port=0``) and ``server.shutdown()`` stops it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            merged, _problems = aggregate_spool(spool)
            body = render_prometheus(merged).encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # silence per-request stderr noise
            return None

    server = ThreadingHTTPServer((host, port), Handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics-http", daemon=True
    )
    thread.start()
    return server


# ----------------------------------------------------------------------
# trace merge + reassembly
# ----------------------------------------------------------------------


def merge_trace_files(
    paths: Iterable[str],
    out_path: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Merge per-process trace streams onto one absolute timeline.

    Each file's streaming header supplies ``wall_epoch`` (the wall
    clock at its tracer's relative zero); every event gains a ``wall``
    key — absolute seconds — and the merged list is sorted by it.
    When *out_path* is given the merged stream is also written as a
    valid ``repro-trace/1`` file (header with a real event count).
    """
    events: List[Dict[str, Any]] = []
    epochs: List[float] = []
    for path in paths:
        wall_epoch = 0.0
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError:
            continue
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if obj.get("type") == "header":
                    wall_epoch = obj.get("wall_epoch", 0.0) or 0.0
                    epochs.append(wall_epoch)
                    continue
                rel = obj.get("start", obj.get("at", 0.0)) or 0.0
                obj["wall"] = wall_epoch + rel
                events.append(obj)
    events.sort(key=lambda e: e.get("wall", 0.0))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "type": "header", "schema": TRACE_SCHEMA,
                "events": len(events),
                "wall_epoch": min(epochs) if epochs else 0.0,
                "merged_from": len(epochs),
            }, sort_keys=True) + "\n")
            for event in events:
                out.write(json.dumps(event, sort_keys=True, default=str)
                          + "\n")
    return events


def trace_files(spool: str) -> List[str]:
    """The per-process trace streams currently in *spool*."""
    return sorted(glob.glob(os.path.join(spool, TRACE_GLOB)))


def reassemble_request(
    events: Sequence[Dict[str, Any]], trace_id: str,
) -> Dict[str, Any]:
    """One request's cross-layer timeline from merged trace events.

    Layer linkage is by shared attrs, not span parents (the layers run
    on different tasks/threads/processes): the server's request span
    carries ``trace``; the batch span that coalesced it lists the
    member ids under ``traces`` plus a per-worker ``batch`` id; the
    engine execution span carries the same ``batch`` id.  Returns
    ``{"trace", "request", "batch", "engine", "layers"}`` with each
    group sorted on the absolute timeline.
    """
    request: List[Dict[str, Any]] = []
    batch: List[Dict[str, Any]] = []
    for event in events:
        attrs = event.get("attrs") or {}
        if attrs.get("trace") == trace_id:
            request.append(event)
        traces = attrs.get("traces")
        if isinstance(traces, (list, tuple)) and trace_id in traces:
            batch.append(event)
    batch_keys = {
        (event.get("pid"), (event.get("attrs") or {}).get("batch"))
        for event in batch
        if (event.get("attrs") or {}).get("batch") is not None
    }
    # Engine events carry the batch id but neither a request's
    # ``trace`` nor a coalescer's ``traces`` — excluding those keeps
    # sibling requests riding the same batch out of this story.
    engine = [
        event for event in events
        if (event.get("attrs") or {}).get("trace") is None
        and (event.get("attrs") or {}).get("traces") is None
        and (event.get("pid"),
             (event.get("attrs") or {}).get("batch")) in batch_keys
    ]
    order = lambda e: e.get("wall", e.get("start", e.get("at", 0.0)))
    request.sort(key=order)
    batch.sort(key=order)
    engine.sort(key=order)
    return {
        "trace": trace_id,
        "request": request,
        "batch": batch,
        "engine": engine,
        "layers": sum(1 for group in (request, batch, engine) if group),
    }
