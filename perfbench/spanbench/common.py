"""Shared helpers: statistics, process accounting, host facts, results.

Everything the three workloads report goes through :class:`Result`, so
the printed metric names and units always come from one table
(:data:`END_TO_END` / :data:`PER_LAYER`), which the benchmark's own
tests compare against ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (``perfbench/spanbench/common.py`` -> root).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for this run's indexes, sockets and spools (one
#: directory per process); git-ignored, and removed when the run ends.
WORK = ROOT / ".perfbench_work" / str(os.getpid())
#: Span files of traced runs, written when the run ends; git-ignored.
OUT = ROOT / ".perfbench_out"

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_qps": "ops/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "index_mb": "MiB",
}

#: Per-layer metrics (traced run): name -> unit.  Every workload
#: measures every one of them on its own inputs and dataset.
PER_LAYER: Dict[str, str] = {
    "datasets.load_s": "s",
    "index.build_s": "s",
    "index.label_entries": "count",
    "index.flatten_s": "s",
    "index.save_s": "s",
    "index.load_mmap_s": "s",
    "kernel.default.span_us_b1": "us",
    "kernel.default.theta_us_b1": "us",
    "kernel.default.span_us_bulk": "us",
    "kernel.default.theta_us_bulk": "us",
    "kernel.python.span_us_b1": "us",
    "kernel.python.theta_us_b1": "us",
    "kernel.python.span_us_bulk": "us",
    "kernel.python.theta_us_bulk": "us",
    "engine.us_per_query": "us",
    "engine.kernel_share": "ratio",
    "engine.prefilter_ratio": "ratio",
    "engine.dedup_ratio": "ratio",
    "engine.batch_size_mean": "count",
    "cache.hit_ratio": "ratio",
    "cache.stale_drops": "count",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "batcher.wait_ms": "ms",
    "admission.rejected": "count",
    "worker.cpu_us_per_request": "us",
    "worker.cpu_util": "ratio",
    "incremental.add_edge_us": "us",
    "incremental.update_stall_ms": "ms",
    "incremental.rebuild_s": "s",
    "incremental.rebuilds": "count",
    "incremental.query_us": "us",
    "e2e.latency_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_us": "us",
}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-pct * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_percentile(n: int) -> Optional[float]:
    """Highest of the usual tail percentiles that leaves at least ten
    samples beyond it in *n* samples (``None`` below 20 samples)."""
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of *pid* from ``/proc`` (seconds)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_facts() -> Dict[str, object]:
    """What the ``auto`` backend ladder and the timings depend on."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Stopwatch:
    """Collects wall times per name: ``with sw("name"): ...``."""

    def __init__(self):
        self.totals: Dict[str, List[float]] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.totals.setdefault(name, []).append(time.perf_counter() - t0)

    def median(self, name: str) -> float:
        return median(self.totals.get(name, []))


class Result:
    """Collects one run's metrics, checks and facts, then prints them."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.facts: Dict[str, object] = {"host": host_facts()}
        self.mismatches: List[str] = []

    def set(self, name: str, value: float) -> None:
        table = PER_LAYER if self.traced else END_TO_END
        if name not in table:
            raise KeyError(f"{name!r} is not a declared metric")
        self.metrics[name] = float(value)

    def check(self, got: Iterable[bool], want: Iterable[bool],
              what: str) -> None:
        """Count every answer as one op and every mismatch as failed."""
        for k, (g, w) in enumerate(zip(got, want)):
            self.attempted += 1
            if bool(g) != bool(w):
                self.failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(f"{what}[{k}]: got {g}, want {w}")

    def fail(self, n: int, why: str) -> None:
        """Count *n* ops that never produced an answer (errors,
        timeouts) as attempted and failed."""
        self.attempted += n
        self.failed += n
        if n and len(self.mismatches) < 5:
            self.mismatches.append(f"{n} x {why}")

    def document(self) -> Dict[str, object]:
        table = PER_LAYER if self.traced else END_TO_END
        missing = sorted(set(table) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": table[name]}
                for name in table
            },
        }

    def emit(self, details: Dict[str, object]) -> None:
        """Print the human-readable details, then the result line last."""
        doc = self.document()
        detail = {
            "workload": self.workload, "seed": self.seed,
            "traced": self.traced,
            "error_rate": self.failed / max(1, self.attempted),
            "mismatches": self.mismatches,
            "facts": self.facts, **details,
        }
        print(json.dumps(detail, sort_keys=True, default=str))
        print(json.dumps(doc, sort_keys=True))
        sys.stdout.flush()
