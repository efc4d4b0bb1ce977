"""Query serving: batched execution, result caching, the network tier.

The :mod:`repro.core` layer answers one query at a time; this package
is the throughput layer above it:

* :class:`QueryEngine` — batched span/θ execution with amortized
  per-query overhead and an LRU result cache invalidated by the
  incremental index's mutation generation;
* :class:`EngineStats` — the engine's observability counters;
* :mod:`repro.serve.server` — the network front end: NDJSON over
  TCP/Unix sockets, micro-batch coalescing, admission control, index
  hot swap, and a pre-fork worker pool sharing one mmap'd index;
* :mod:`repro.serve.client` — the blocking reference client and the
  ``repro loadgen`` load generator;
* :mod:`repro.serve.bench` — the seeded perf suite behind the
  ``repro bench`` CLI and the ``BENCH_*.json`` regression trajectory.

The server/client modules import lazily (PEP 562) so that embedding
the engine never pays for asyncio.
"""

from repro.serve.cache import MISS, GenerationalLRUCache
from repro.serve.engine import OUTCOMES, EngineStats, QueryEngine

__all__ = [
    "QueryEngine",
    "EngineStats",
    "GenerationalLRUCache",
    "MISS",
    "OUTCOMES",
    "ReachabilityServer",
    "ServerConfig",
    "IndexProvider",
    "ServeClient",
    "run_loadgen",
]

_LAZY = {
    "ReachabilityServer": "repro.serve.server",
    "ServerConfig": "repro.serve.server",
    "IndexProvider": "repro.serve.server",
    "ServeClient": "repro.serve.client",
    "run_loadgen": "repro.serve.client",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
