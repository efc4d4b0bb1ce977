"""In-memory spans recorded around calls into the program's layers.

The benchmark, not the program, opens each span: a span is the wall
interval of one public call (``parse_request``, ``span_many``, a batch
kernel, ...), tagged with its layer name, its parent span and the
request it served.  Spans stay in memory while the run measures and
are written out once, when the run ends.  A layer's *self* time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from .common import median


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, start, end, parent, request):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.request = parent, request

    def as_dict(self) -> Dict[str, object]:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class Tracer:
    """Thread-safe span recorder with per-thread parent stacks."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None,
               request: Optional[object] = None) -> int:
        """Record a closed span (for intervals that cross threads or
        coroutines, where a ``with`` block cannot bracket them)."""
        sid = self._new_id()
        span = Span(sid, name, start, end, parent, request)
        with self._lock:
            self.spans.append(span)
        return sid

    def span(self, name: str, request: Optional[object] = None,
             parent: Optional[int] = None):
        return _Open(self, name, request, parent)

    def wrap(self, obj, attr: str, name: str):
        """Replace ``obj.attr`` with a timed wrapper opening span *name*
        (nested under whatever span is open on the calling thread);
        returns a callable restoring the original."""
        original = getattr(obj, attr)
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(obj, attr, timed)
        return lambda: setattr(obj, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), default=str) + "\n")

    # -- analysis -----------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Self time (seconds) of every span, by span id."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return {
            span.sid: max(0.0, span.end - span.start - _union(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.sid, ())]
            ))
            for span in self.spans
        }

    def per_request_self_us(self) -> Dict[str, float]:
        """Median per-request self time of each layer, in µs: self
        times are first summed per request, then the median is taken
        over the requests that touched the layer."""
        own = self.self_times()
        by_layer: Dict[str, Dict[object, float]] = {}
        for span in self.spans:
            acc = by_layer.setdefault(span.name, {})
            acc[span.request] = acc.get(span.request, 0.0) + own[span.sid]
        return {name: median(list(acc.values())) * 1e6
                for name, acc in by_layer.items()}


class _Open:
    __slots__ = ("tracer", "name", "request", "parent", "start", "sid")

    def __init__(self, tracer, name, request, parent):
        self.tracer, self.name = tracer, name
        self.request, self.parent = request, parent

    def __enter__(self):
        local = self.tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if self.parent is None and stack:
            self.parent, inherited = stack[-1]
            if self.request is None:
                self.request = inherited
        self.sid = self.tracer._new_id()
        stack.append((self.sid, self.request))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._local.stack.pop()
        span = Span(self.sid, self.name, self.start, end, self.parent,
                    self.request)
        with self.tracer._lock:
            self.tracer.spans.append(span)
        return False


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    last_end = float("-inf")
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total
