"""The metrics registry: counters, gauges, fixed-bucket histograms.

The paper's evaluation attributes cost to *where the work happens* —
construction cost per root (Fig. 6), label-entry counts (Figs. 5/7/8),
per-query merge work (Figs. 4/9).  This module is the runtime
counterpart: one :class:`MetricsRegistry` shared by the build, serve
and shard layers, exportable both as a machine-readable JSON document
(schema ``repro-metrics/1``) and in the Prometheus text exposition
format for scraping.

Design constraints, in order:

* **Hot-path cheapness.**  Instruments are plain dict updates; an
  unlabeled ``Counter.inc()`` is one dict ``get`` + one store.  Code
  that may run without telemetry holds ``telemetry=None`` and pays a
  single truthy check (see :mod:`repro.obs.telemetry`).
* **Fixed buckets.**  Histograms take their upper bounds at creation
  (cumulative ``le`` semantics, implicit ``+Inf``), so a snapshot is
  mergeable and the Prometheus rendering is exact, never estimated.
* **Determinism.**  ``snapshot()`` orders metrics and series
  lexicographically, so two identical runs export identical documents
  (the test suite relies on this).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

METRICS_SCHEMA = "repro-metrics/1"

#: Prometheus-compatible metric / label-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 100 µs .. 30 s, roughly 1-3-10.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0
)

#: Default magnitude buckets for size-like quantities (batch sizes,
#: boundary-set sizes, label entries per root).
DEFAULT_SIZE_BUCKETS = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: str = "") -> str:
    """``{a="x",b="y"}`` with Prometheus escaping (empty string when
    there is nothing to render)."""
    parts = [
        '%s="%s"' % (k, v.replace("\\", r"\\").replace('"', r"\"")
                     .replace("\n", r"\n"))
        for k, v in key
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Metric:
    """Base: a named instrument holding one series per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    # Subclasses provide: series_dicts() -> List[Dict[str, Any]]
    # (deterministically ordered).


class Counter(Metric):
    """A monotonically increasing count (events, queries, prunes)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels) if labels else ()
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels) if labels else (), 0)

    def series_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Gauge(Metric):
    """A value that goes up and down (rates, sizes, ratios)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._series[_label_key(labels) if labels else ()] = value

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels) if labels else ()
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> Optional[float]:
        return self._series.get(_label_key(labels) if labels else ())

    def series_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class _HistSeries:
    __slots__ = ("counts", "sum", "count", "max")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # + the implicit +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.max = float("-inf")


class Histogram(Metric):
    """Fixed cumulative buckets (Prometheus ``le`` semantics).

    ``buckets`` are the finite upper bounds, strictly increasing; every
    observation lands in the first bucket whose bound is ``>= value``
    (or the implicit ``+Inf`` bucket).  The exact ``max`` is tracked
    alongside, since tail latency is the point of the exercise.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help: str = ""):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels) if labels else ()
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.buckets))
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1
        if value > series.max:
            series.max = value

    def series_dicts(self) -> List[Dict[str, Any]]:
        out = []
        for key, s in sorted(self._series.items()):
            out.append({
                "labels": dict(key),
                "counts": list(s.counts),
                "sum": s.sum,
                "count": s.count,
                "max": s.max,
            })
        return out


def _quote(text: str) -> str:
    return '"%s"' % text


def _fmt(value: float) -> str:
    """Render ints without a trailing ``.0`` (stable, compact)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(doc: Dict[str, Any]) -> str:
    """Prometheus text exposition of a ``repro-metrics/1`` document.

    Works on the JSON form, so one renderer serves both a live registry
    (:meth:`MetricsRegistry.to_prometheus` renders its snapshot) and a
    fleet-merged document, which no live registry holds.
    """
    lines: List[str] = []
    metrics = doc.get("metrics") or {}
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("kind", "untyped")
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in entry.get("series") or []:
            key = tuple(sorted(
                (k, str(v)) for k, v in (series.get("labels") or {}).items()
            ))
            if kind == "histogram":
                cumulative = 0
                for bound, n in zip(entry.get("buckets") or [],
                                    series.get("counts") or []):
                    cumulative += n
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(key, 'le=%s' % _quote(_fmt(bound)))}"
                        f" {cumulative}"
                    )
                count = series.get("count", 0)
                lines.append(
                    f"{name}_bucket"
                    f"{_render_labels(key, 'le=%s' % _quote('+Inf'))} {count}"
                )
                lines.append(f"{name}_sum{_render_labels(key)} "
                             f"{_fmt(series.get('sum', 0.0))}")
                lines.append(f"{name}_count{_render_labels(key)} {count}")
            else:
                lines.append(
                    f"{name}{_render_labels(key)} "
                    f"{_fmt(series.get('value', 0))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsRegistry:
    """A namespace of instruments; create-or-get semantics by name.

    Registration is idempotent: asking twice for the same name returns
    the same instrument, and asking with a conflicting kind (or, for
    histograms, conflicting buckets) raises ``ValueError`` — two call
    sites silently writing different shapes into one series is exactly
    the bug a registry exists to prevent.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, buckets: Sequence[float],
                  help: str = "") -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not histogram"
                )
            if existing.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} already registered with different "
                    "buckets"
                )
            return existing
        metric = Histogram(name, buckets, help)
        self._metrics[name] = metric
        return metric

    def _register(self, cls, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full registry as a ``repro-metrics/1`` JSON document."""
        metrics: Dict[str, Any] = {}
        for metric in self:
            entry: Dict[str, Any] = {
                "kind": metric.kind,
                "help": metric.help,
                "series": metric.series_dicts(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            metrics[metric.name] = entry
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        return render_prometheus(self.snapshot())
