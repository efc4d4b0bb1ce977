"""The public face of the library: :class:`TILLIndex`.

Wraps the raw label family with vertex-label translation, interval
validation, capability checks for the ϑ length cap, persistence, and
statistics.  Typical use::

    from repro import TemporalGraph, TILLIndex

    g = TemporalGraph.from_edges([("a", "b", 3), ("b", "c", 5)])
    index = TILLIndex.build(g)
    index.span_reachable("a", "c", (3, 5))      # True
    index.theta_reachable("a", "c", (1, 8), 3)  # True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core import construction, flatkernels, online, queries
from repro.core.flatstore import FlatTILLLabels, FlatTILLStore
from repro.core.intervals import (
    Interval,
    IntervalLike,
    as_interval,
    check_vartheta,
    validate_theta_window,
)
from repro.core.labels import TILLLabels
from repro.core.ordering import VertexOrder, make_order
from repro.core.serialization import dump_index_v3, load_flat_store
from repro.errors import (
    IndexBuildError,
    IndexFormatError,
    InvalidIntervalError,
)
from repro.graph.temporal_graph import TemporalGraph, Vertex


def _build_lemma7_only(graph, order, **kwargs):
    """Algorithm 3 with the Lemma 8 subtree pruning disabled.

    Ablation-only builder isolating the priority queue's contribution
    (experiment A4); produces identical labels to the others.
    """
    return construction.build_labels_optimized(
        graph, order, prune_covered_subtrees=False, **kwargs
    )


#: Builder registry: paper names on the left, callables on the right.
BUILDERS = {
    "optimized": construction.build_labels_optimized,  # TILL-Construct*
    "basic": construction.build_labels_basic,  # TILL-Construct
    "lemma7-only": _build_lemma7_only,  # ablation A4
}


@dataclass
class IndexStats:
    """Summary statistics of a built index (feeds Figures 5-8)."""

    num_vertices: int
    num_edges: int
    directed: bool
    vartheta: Optional[int]
    method: str
    ordering: str
    total_entries: int
    estimated_bytes: int
    build_seconds: float
    max_label_entries: int = 0
    avg_label_entries: float = 0.0
    #: Whether the label arrays are packed typed buffers — always true:
    #: every index holds its labels in the flat store.
    compacted: bool = True

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


class TILLIndex:
    """A built Time Interval Labeling index over a temporal graph.

    Construct with :meth:`build` (or :meth:`load`); the originating
    graph is retained for the Lemma 9/10 query prefilters and the
    online fallback.

    The constructor flattens object labels (a
    :class:`~repro.core.labels.TILLLabels` from construction) into a
    :class:`~repro.core.flatstore.FlatTILLStore` once, so a built index
    has the same shape as a loaded one: ``flat`` is the store every
    query runs on and ``labels`` its
    :class:`~repro.core.flatstore.FlatTILLLabels` read surface.
    """

    #: Name of the batch kernels answering engine misses: always the
    #: pure-python flat kernels of :mod:`repro.core.queries`.
    flat_backend = "python"
    #: Kernels object bound to the flat store; always ``None`` (the
    #: module-level python kernels need no binding).
    flat_kernels = None

    def __init__(
        self,
        graph: TemporalGraph,
        order: VertexOrder,
        labels: Union[TILLLabels, FlatTILLLabels],
        vartheta: Optional[int],
        method: str = "optimized",
        ordering_name: str = "degree-product",
        build_seconds: float = 0.0,
    ):
        if not isinstance(labels, FlatTILLLabels):
            labels.finalize()
            labels = FlatTILLLabels(FlatTILLStore.from_labels(labels))
        self.graph = graph
        self.order = order
        self.labels = labels
        self.flat: FlatTILLStore = labels.store
        self.vartheta = vartheta
        self.method = method
        self.ordering_name = ordering_name
        self.build_seconds = build_seconds

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: TemporalGraph,
        vartheta: Optional[int] = None,
        ordering: Union[str, VertexOrder] = "degree-product",
        method: str = "optimized",
        budget_seconds: Optional[float] = None,
        progress=None,
        telemetry=None,
    ) -> "TILLIndex":
        """Build a TILL-Index.

        Parameters
        ----------
        graph:
            The temporal graph; frozen automatically if needed.
        vartheta:
            The ϑ length cap: largest span-reachability window length
            the index will support (``None`` = unbounded, paper default).
        ordering:
            A strategy name from :data:`repro.core.ordering.ORDERINGS`
            or a prebuilt :class:`VertexOrder`.
        method:
            ``"optimized"`` (Algorithm 3, TILL-Construct*) or
            ``"basic"`` (Algorithm 2, TILL-Construct).
        budget_seconds:
            Wall-clock cutoff; raises
            :class:`~repro.core.construction.BuildBudgetExceeded`.
        telemetry:
            Optional :class:`repro.obs.Telemetry`: phase timings
            (ordering / labels), per-root work counters and
            ``build.root-batch`` tracer spans (see ``docs/usage.md``,
            "Observability").
        """
        if not graph.frozen:
            graph.freeze()
        phase_gauge = None
        if telemetry is not None:
            phase_gauge = telemetry.metrics.gauge(
                "build_phase_seconds", "Wall-clock seconds per build phase"
            )
        ordering_started = time.perf_counter()
        if isinstance(ordering, VertexOrder):
            order, ordering_name = ordering, "custom"
        else:
            order, ordering_name = make_order(graph, ordering), ordering
        if phase_gauge is not None:
            phase_gauge.set(
                time.perf_counter() - ordering_started, phase="ordering"
            )
        try:
            builder = BUILDERS[method]
        except KeyError:
            known = ", ".join(sorted(BUILDERS))
            raise IndexBuildError(
                f"unknown build method {method!r}; known methods: {known}"
            ) from None
        started = time.perf_counter()
        if telemetry is not None:
            with telemetry.tracer.span(
                "build", method=method, ordering=ordering_name,
                vertices=graph.num_vertices, edges=graph.num_edges,
            ):
                labels = builder(
                    graph,
                    order,
                    vartheta=vartheta,
                    budget_seconds=budget_seconds,
                    progress=progress,
                    telemetry=telemetry,
                )
        else:
            labels = builder(
                graph,
                order,
                vartheta=vartheta,
                budget_seconds=budget_seconds,
                progress=progress,
            )
        elapsed = time.perf_counter() - started
        if phase_gauge is not None:
            phase_gauge.set(elapsed, phase="labels")
            telemetry.metrics.gauge(
                "build_seconds", "Wall-clock seconds of the whole build"
            ).set(time.perf_counter() - ordering_started)
        return cls(
            graph,
            order,
            labels,
            vartheta,
            method=method,
            ordering_name=ordering_name,
            build_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _window(self, interval: IntervalLike) -> Interval:
        return as_interval(interval)

    def span_reachable(
        self,
        u: Vertex,
        v: Vertex,
        interval: IntervalLike,
        prefilter: bool = True,
        fallback: Optional[str] = None,
    ) -> bool:
        """Does *u* span-reach *v* within *interval* (Definition 1)?

        ``fallback="online"`` answers windows wider than the build-time
        ϑ cap with the index-free Algorithm 1 instead of raising
        :class:`UnsupportedIntervalError`.
        """
        window = self._window(interval)
        ui = self.graph.index_of(u)
        vi = self.graph.index_of(v)
        if self.vartheta is not None and window.length > self.vartheta:
            if fallback == "online":
                return online.online_span_reachable(self.graph, ui, vi, window)
            check_vartheta(self.vartheta, window.length)
        return queries.span_reachable(
            self.graph, self.flat, self.order.rank, ui, vi, window,
            prefilter=prefilter,
        )

    def theta_reachable(
        self,
        u: Vertex,
        v: Vertex,
        interval: IntervalLike,
        theta: int,
        algorithm: str = "sliding",
        prefilter: bool = True,
    ) -> bool:
        """Does *u* θ-reach *v* within *interval* (Definition 2)?

        ``algorithm`` selects ``"sliding"`` (Algorithm 5, ES-Reach*) or
        ``"naive"`` (ES-Reach: one span query per window position).
        """
        window = validate_theta_window(interval, theta)
        check_vartheta(self.vartheta, theta)
        ui = self.graph.index_of(u)
        vi = self.graph.index_of(v)
        if algorithm == "sliding":
            kernel = queries.theta_reachable
        elif algorithm == "naive":
            kernel = queries.theta_reachable_naive
        else:
            raise InvalidIntervalError(
                f"unknown theta algorithm {algorithm!r}; use 'sliding' or "
                "'naive'"
            )
        return kernel(self.graph, self.flat, self.order.rank, ui, vi, window,
                      theta, prefilter=prefilter)

    def _batch_engine(self):
        """The uncached :class:`repro.serve.QueryEngine` backing the
        batch APIs (created lazily; caching stays opt-in — construct an
        engine directly to memoize answers across calls)."""
        engine = getattr(self, "_engine", None)
        if engine is None:
            from repro.serve.engine import QueryEngine

            engine = self._engine = QueryEngine(self, cache_size=0)
        return engine

    def span_reachable_many(
        self,
        pairs,
        interval: IntervalLike,
        prefilter: bool = True,
        fallback: Optional[str] = None,
    ) -> List[bool]:
        """Batch span queries over one window.

        Delegates to :class:`repro.serve.QueryEngine`: the window is
        validated once, vertex ids are resolved and prefilter probes
        computed once per distinct endpoint, and duplicate pairs are
        answered once.  ``pairs`` is an iterable of ``(u, v)``.

        ``fallback="online"`` answers a window wider than the build-time
        ϑ cap with the index-free Algorithm 1 per pair — the same escape
        hatch as :meth:`span_reachable` — instead of raising
        :class:`UnsupportedIntervalError`.
        """
        return self._batch_engine().span_many(
            pairs, interval, prefilter=prefilter, fallback=fallback
        )

    def theta_reachable_many(
        self,
        pairs,
        interval: IntervalLike,
        theta: int,
        algorithm: str = "sliding",
        prefilter: bool = True,
    ) -> List[bool]:
        """Batch θ queries over one window (validated once; delegates
        to :class:`repro.serve.QueryEngine` like
        :meth:`span_reachable_many`)."""
        return self._batch_engine().theta_many(
            pairs, interval, theta, algorithm=algorithm, prefilter=prefilter
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def explain(self, u: Vertex, v: Vertex, interval: IntervalLike) -> Dict[str, Any]:
        """Answer a span query *with evidence* (see :mod:`repro.core.explain`).

        Returns a dict with ``reachable``, ``kind`` and — for positive
        answers through a hub — the hub's vertex label and the
        witnessing label intervals on each side.
        """
        from repro.core.explain import span_certificate

        window = self._window(interval)
        check_vartheta(self.vartheta, window.length)
        cert = span_certificate(
            self.graph, self.labels, self.order.rank, self.order.order,
            self.graph.index_of(u), self.graph.index_of(v), window,
        )
        return {
            "reachable": cert.reachable,
            "kind": cert.kind,
            "hub": None if cert.hub is None else self.graph.label_of(cert.hub),
            "out_interval": cert.out_interval,
            "in_interval": cert.in_interval,
        }

    def explain_theta(
        self, u: Vertex, v: Vertex, interval: IntervalLike, theta: int
    ) -> Dict[str, Any]:
        """θ-reachability with evidence: the answering condition, hub,
        label intervals, and the earliest θ-length witnessing window."""
        from repro.core.explain import theta_certificate

        window = validate_theta_window(interval, theta)
        check_vartheta(self.vartheta, theta)
        cert = theta_certificate(
            self.graph, self.labels, self.order.rank, self.order.order,
            self.graph.index_of(u), self.graph.index_of(v), window, theta,
        )
        return {
            "reachable": cert.reachable,
            "kind": cert.kind,
            "hub": None if cert.hub is None else self.graph.label_of(cert.hub),
            "out_interval": cert.out_interval,
            "in_interval": cert.in_interval,
            "window": cert.window,
        }

    def witness_path(self, u: Vertex, v: Vertex, interval: IntervalLike):
        """A hop-minimal temporal-edge path proving the positive answer,
        or ``None`` (see :func:`repro.graph.paths.span_path`)."""
        from repro.graph.paths import span_path

        return span_path(self.graph, u, v, self._window(interval))

    def label_entries(self, u: Vertex) -> Dict[str, List[Tuple[Vertex, int, int]]]:
        """Human-readable labels of *u*: hub ranks resolved to labels.

        Returns ``{"out": [(hub, ts, te), ...], "in": [...]}`` — the
        paper's Table I view of a vertex.
        """
        ui = self.graph.index_of(u)
        out = [
            (self.graph.label_of(self.order.order[hub]), ts, te)
            for hub, ts, te in self.labels.out_labels[ui].entries()
        ]
        if not self.graph.directed:
            return {"out": out, "in": list(out)}
        in_ = [
            (self.graph.label_of(self.order.order[hub]), ts, te)
            for hub, ts, te in self.labels.in_labels[ui].entries()
        ]
        return {"out": out, "in": in_}

    def stats(self) -> IndexStats:
        """Aggregate index statistics (size experiments, Fig. 5/7/8)."""
        # Per-vertex counts straight off the CSR offsets — no LabelSet
        # materialisation.
        flat = self.flat
        per_vertex = [
            flat.out.vertex_entry_count(ui) for ui in range(flat.num_vertices)
        ]
        if self.graph.directed:
            per_vertex += [
                flat.inn.vertex_entry_count(ui)
                for ui in range(flat.num_vertices)
            ]
        total = self.labels.total_entries()
        return IndexStats(
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            directed=self.graph.directed,
            vartheta=self.vartheta,
            method=self.method,
            ordering=self.ordering_name,
            total_entries=total,
            estimated_bytes=self.labels.estimated_bytes(),
            build_seconds=self.build_seconds,
            max_label_entries=max(per_vertex) if per_vertex else 0,
            avg_label_entries=(total / len(per_vertex)) if per_vertex else 0.0,
        )

    def verify(self, samples: int = 100, seed: int = 0) -> None:
        """Check the index against every independent answer path.

        Delegates to the :mod:`repro.fuzz` harness: the structural label
        invariants are validated first, then random queries (span with
        prefilter on/off, θ sliding/naive/online, explain consistency,
        batch, minimal windows) are cross-checked against the
        brute-force oracle.  Window sampling deliberately exceeds a
        build-time ϑ cap so the raise/``fallback="online"`` paths are
        exercised too.  Raises ``AssertionError`` on the first
        disagreement.  Intended for debugging and tests, not production
        paths.
        """
        from repro.fuzz.differential import check_index
        from repro.fuzz.invariants import label_invariant_violations

        violations = label_invariant_violations(self)
        if violations:
            raise AssertionError(
                f"label invariant violated: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1
                   else "")
            )
        mismatches = check_index(
            self, samples=samples, seed=seed, first_failure=True
        )
        if mismatches:
            raise AssertionError(
                f"index disagrees with oracle: {mismatches[0]}"
            )

    def flatten(self, backend: Optional[str] = None) -> "TILLIndex":
        """Check the batch-kernel *backend* name; returns ``self``.

        Every index is flat from construction on, so there is nothing
        left to build.  The python kernels in :mod:`repro.core.queries`
        are the only ones: ``None``, ``"python"`` and ``"auto"`` are
        accepted and any other name raises
        :class:`~repro.errors.IndexBuildError` (see
        :func:`repro.core.flatkernels.select`).
        """
        flatkernels.select(self.flat, self.order.rank, backend)
        return self

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path], format: int = 3) -> None:
        """Write the index (labels + order + metadata) to *path*.

        ``format=3`` (the default, and the only format written) is the
        flat columnar layout — the file :meth:`load` can map zero-copy
        with ``mmap=True``.  The graph itself is not stored; :meth:`load`
        needs the same graph again (an edge-count fingerprint is
        verified).
        """
        if format != 3:
            raise IndexFormatError(
                f"unknown .till format {format!r}; the supported format is 3"
            )
        meta = {
            "method": self.method,
            "ordering": self.ordering_name,
            "build_seconds": self.build_seconds,
            "num_edges": self.graph.num_edges,
        }
        vertex_labels = list(self.graph.vertices())
        with open(path, "wb") as fh:
            dump_index_v3(
                fh, self.flat, self.order.order, vertex_labels,
                self.vartheta, meta,
                (self.graph.min_time, self.graph.max_time),
            )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        graph: TemporalGraph,
        mmap: bool = False,
    ) -> "TILLIndex":
        """Read an index written by :meth:`save`, rebinding it to *graph*.

        The graph must match the one the index was built from; vertex
        labels, vertex count, edge count and directedness are checked.

        ``mmap=True`` maps the file's label arrays zero-copy
        (near-instant open; the OS page cache is shared across
        processes).  A format-2 file raises
        :class:`~repro.errors.IndexFormatError` naming the rebuild
        command, on either path.
        """
        store, header = load_flat_store(path, use_mmap=mmap)
        if not graph.frozen:
            graph.freeze()
        if header["directed"] != graph.directed:
            raise IndexBuildError("index/graph directedness mismatch")
        if header["num_vertices"] != graph.num_vertices:
            raise IndexBuildError(
                f"index has {header['num_vertices']} vertices but the graph "
                f"has {graph.num_vertices}"
            )
        stored_edges = header["meta"].get("num_edges")
        if stored_edges is None:
            # save() always writes the fingerprint; a header without it
            # is malformed, not merely from an older writer.
            raise IndexFormatError(
                "index header is missing the num_edges fingerprint"
            )
        if stored_edges != graph.num_edges:
            raise IndexBuildError(
                f"index/graph edge-count mismatch: the index was built from "
                f"a graph with {stored_edges} temporal edges but this graph "
                f"has {graph.num_edges}"
            )
        stored = header["vertex_labels"]
        current = list(graph.vertices())
        if stored != current:
            raise IndexBuildError(
                "index/graph vertex label mismatch; was the graph rebuilt in a "
                "different insertion order?"
            )
        order = VertexOrder(header["order"])
        return cls(
            graph,
            order,
            FlatTILLLabels(store),
            header["vartheta"],
            method=header["meta"].get("method", "optimized"),
            ordering_name=header["meta"].get("ordering", "unknown"),
            build_seconds=header["meta"].get("build_seconds", 0.0),
        )

    def __repr__(self) -> str:
        cap = "inf" if self.vartheta is None else str(self.vartheta)
        return (
            f"TILLIndex(n={self.graph.num_vertices}, entries="
            f"{self.labels.total_entries()}, vartheta={cap}, method={self.method})"
        )
