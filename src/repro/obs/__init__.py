"""Unified telemetry: metrics registry, span tracing, exports.

One observability layer for all three execution layers:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry`, exported as a
  schema-validated JSON document or Prometheus text exposition;
* **tracing** (:mod:`repro.obs.trace`) — nested timed spans and
  instant events as JSON lines, with a strict no-op
  :data:`NULL_TRACER` so disabled hot paths pay one truthy check;
* **bundling** (:mod:`repro.obs.telemetry`) — the single
  ``telemetry=`` argument accepted by :meth:`TILLIndex.build`,
  :class:`~repro.serve.QueryEngine`,
  :class:`~repro.shard.ShardedTILLIndex` and
  :func:`repro.fuzz.run_fuzz`;
* **validation** (:mod:`repro.obs.validate`) — the schema checkers
  behind ``python -m repro.obs.validate`` and ``make obs-smoke``;
* **progress** (:mod:`repro.obs.progress`) — the throttled
  ``--progress`` printer built on tracer events.

See the "Observability" section of ``docs/usage.md`` for metric names
and the trace event schema.
"""

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.fleet import (
    FleetReporter,
    aggregate_spool,
    merge_metrics_docs,
    merge_trace_files,
    reassemble_request,
    serve_metrics_http,
)
from repro.obs.progress import ProgressPrinter
from repro.obs.slowlog import SlowQueryLog, check_slo, histogram_quantile
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    AppendSink,
    NullTracer,
    SpanTracer,
    open_stream_tracer,
    read_trace,
)
# NOTE: repro.obs.validate is deliberately NOT imported here — it is
# runnable as ``python -m repro.obs.validate`` and importing it from
# the package init would trip runpy's double-import warning.  Import
# the checkers from the submodule directly.

__all__ = [
    "AppendSink",
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "FleetReporter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProgressPrinter",
    "SlowQueryLog",
    "SpanTracer",
    "Telemetry",
    "TRACE_SCHEMA",
    "aggregate_spool",
    "check_slo",
    "histogram_quantile",
    "merge_metrics_docs",
    "merge_trace_files",
    "open_stream_tracer",
    "read_trace",
    "reassemble_request",
    "render_prometheus",
    "serve_metrics_http",
]
