"""Incremental maintenance under streaming edge arrivals.

The paper closes by noting that *"the edges in temporal graphs often
come in streaming.  An incremental algorithm is required for index
construction."*  This module supplies that extension with a
delta-buffer design:

* the **base index** answers everything expressible over the edges it
  was built on;
* newly appended edges accumulate in a **delta buffer**;
* a query builds a tiny *contracted graph* whose nodes are the two
  query endpoints plus the endpoints of the in-window delta edges, with
  an arc ``a → b`` whenever a delta edge connects them directly or the
  base index certifies ``a`` span-reaches ``b`` in the window.  Any
  path in the full (base + delta) projected graph decomposes into base
  segments and delta edges, so BFS over the contracted graph is sound
  and complete;
* once the buffer exceeds ``rebuild_threshold`` edges it is folded into
  the base index (:meth:`IncrementalTILLIndex.rebuild`).  The fold
  keeps the base's vertex order and every label entry that ends before
  the buffer's first timestamp, and searches only later tuples
  (:func:`repro.core.construction.extend_labels`); the result equals a
  from-scratch build under that order.  Pending tombstones, a buffer
  reaching back to the base's first timestamp, or folded edges
  reaching half the edges the order was made on take a full build
  with a fresh order instead.

The base index is never mutated between rebuilds — mutations only touch
the delta buffer and the tombstones — so its flat label store (see
:mod:`repro.core.flatstore`) can never go stale, and an mmap-loaded
base index may be mutated like any other.

A query asks the base index first: one Algorithm 4 probe for
``(u, v)``.  Adding edges never removes reachability, so a hit in a
window without tombstones is the answer and the delta buffer is never
read.  A miss then checks Lemmas 9/10 on the live graph: the index
keeps, per vertex, the sorted timestamps of its buffered out- and
in-edges (both ways on an undirected graph), updated by every
insert, buffered removal and rebuild, so whether ``u`` can leave and
``v`` can be entered in the window by a base or buffered edge costs
one bisect per side.  If either cannot, the answer is ``False`` and
the buffer is never read; tombstones are ignored there, which is
sound because a removal never creates an edge.  Only a miss that
passes builds the contracted graph, and its search tries a base
segment only from ``u`` and from nodes first entered by a delta
edge.  Span-reachability in a window is transitive, so a node first
entered by a base segment can base-reach nothing that the node before
it could not, and that node's probe already tried every target still
unseen; such a node follows only its own delta edges.  A base segment
is worth ending only at ``v`` or at the tail of an in-window delta edge
(two segments in a row merge into one; on an undirected graph every
endpoint is a tail), so each expansion makes one batched call
(:func:`repro.core.queries.flat_span_batch`) over those targets, each
resolved and Lemma 10-prefiltered once.  For ``d`` in-window delta
edges with ``h`` distinct heads a query makes at most ``h + 2`` kernel
calls (the probe, ``u``'s expansion, one per head entered) over
``O(h·d)`` pairs; with the default threshold of a few hundred edges
this stays far below a full online BFS on large graphs.  The
live-graph check before it costs two bisects and settles, without a
kernel call, every miss whose ``u`` or ``v`` has no edge in the
window, where that search would otherwise run to exhaustion.

Removals (decremental maintenance)
----------------------------------

:meth:`IncrementalTILLIndex.remove_edge` tombstones one instance of a
base edge (removing a still-buffered delta edge just drops it from the
buffer).  Removals are harder than insertions because the base index
may certify reachability *through* a tombstoned edge, so:

* a **negative** contracted-graph answer stays trusted — deleting edges
  can never create reachability, and the contracted graph still
  over-approximates the live graph;
* a **positive** answer inside a window touched by tombstones is
  re-verified with a BFS over the *live* adjacency view (base minus
  tombstones plus delta) before being returned.

Tombstones count toward the rebuild threshold, so heavy churn degrades
gracefully into periodic rebuilds rather than unbounded re-verification.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from collections import Counter, deque
from itertools import chain
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core import construction, queries
from repro.core.flatstore import FlatTILLLabels
from repro.core.index import TILLIndex
from repro.core.intervals import (
    Interval,
    IntervalLike,
    as_interval,
    check_vartheta,
    validate_theta_window,
)
from repro.core.ordering import VertexOrder
from repro.errors import GraphError, InvalidIntervalError
from repro.graph.temporal_graph import TemporalGraph, Vertex


class IncrementalTILLIndex:
    """A TILL-Index that stays correct while edges stream in.

    Examples
    --------
    >>> g = TemporalGraph.from_edges([("a", "b", 1)])
    >>> inc = IncrementalTILLIndex(g)
    >>> inc.span_reachable("a", "b", (1, 1))
    True
    >>> inc.add_edge("b", "c", 2)
    >>> inc.span_reachable("a", "c", (1, 2))
    True
    """

    def __init__(
        self,
        graph: TemporalGraph,
        rebuild_threshold: int = 256,
        vartheta: Optional[int] = None,
        **build_kwargs,
    ):
        if rebuild_threshold < 1:
            raise InvalidIntervalError(
                f"rebuild_threshold must be >= 1, got {rebuild_threshold}"
            )
        self.rebuild_threshold = rebuild_threshold
        self.vartheta = vartheta
        self._build_kwargs = build_kwargs
        self._generation = 0
        self._invalidation_hooks: List[Callable[[int], None]] = []
        self._delta: List[Tuple[Vertex, Vertex, int]] = []
        #: sorted timestamps of the buffered edges leaving / entering
        #: each vertex (both ways on an undirected graph)
        self._delta_out: Dict[Vertex, List[int]] = {}
        self._delta_in: Dict[Vertex, List[int]] = {}
        self._removed: Counter = Counter()  # tombstoned base edges
        self._rebuilds = 0
        self._folds = 0
        #: full builds by reason (see :attr:`full_build_reasons`)
        self._full_builds = dict.fromkeys(
            ("tombstones", "early-delta", "reorder"), 0)
        self._base_graph = graph.copy()
        #: edges of the graph the vertex order was made on, and edges
        #: folded under that order since (see :meth:`rebuild`)
        self._order_edges = self._base_graph.num_edges
        self._folded_edges = 0
        self._base_edge_counts = Counter(self._base_graph.edges())
        self._index = TILLIndex.build(
            self._base_graph, vartheta=vartheta, **build_kwargs
        )

    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotone counter bumped on every mutation (insert, remove,
        rebuild).  Result caches key their entries on this value:
        an answer computed at generation *g* is valid only while
        ``generation == g`` (see :class:`repro.serve.QueryEngine`).
        """
        return self._generation

    def subscribe_invalidation(self, hook: Callable[[int], None]) -> None:
        """Register *hook* to be called (with the new generation) after
        every mutation.  Used by caching layers to drop stale answers."""
        self._invalidation_hooks.append(hook)

    def _notify_mutation(self) -> None:
        self._generation += 1
        for hook in self._invalidation_hooks:
            hook(self._generation)

    @property
    def delta_size(self) -> int:
        """Number of buffered edges not yet folded into the base index."""
        return len(self._delta)

    @property
    def rebuilds(self) -> int:
        """How many rebuilds (folds or full builds) have run so far."""
        return self._rebuilds

    @property
    def folds(self) -> int:
        """How many of the :attr:`rebuilds` were folds (the rest were
        full builds with a fresh order)."""
        return self._folds

    @property
    def full_build_reasons(self) -> Dict[str, int]:
        """Why each full build of :attr:`rebuilds` ran, counted by the
        first reason that held: ``"tombstones"`` (removals pending),
        ``"early-delta"`` (the delta starts at or before the base's
        first timestamp) and ``"reorder"`` (folded edges reached half
        the edges of the order's graph).  The counts sum to
        ``rebuilds - folds``; the dict is a fresh copy."""
        return dict(self._full_builds)

    @property
    def removed_size(self) -> int:
        """Number of tombstoned base edges pending a rebuild."""
        return sum(self._removed.values())

    @property
    def num_edges(self) -> int:
        return (
            self._base_graph.num_edges + len(self._delta) - self.removed_size
        )

    def add_edge(self, u: Vertex, v: Vertex, t: int) -> None:
        """Append a streamed temporal edge; may trigger a rebuild."""
        self._delta.append((u, v, t))
        for a, b in self._orientations(u, v):
            insort(self._delta_out.setdefault(a, []), t)
            insort(self._delta_in.setdefault(b, []), t)
        self._notify_mutation()
        if len(self._delta) + self.removed_size >= self.rebuild_threshold:
            self.rebuild()

    def _orientations(self, u: Vertex, v: Vertex):
        """The ways an edge ``u - v`` can be travelled."""
        if self._base_graph.directed:
            return ((u, v),)
        return ((u, v), (v, u))

    def _drop_buffered(self, u: Vertex, v: Vertex, t: int) -> None:
        """Remove the buffered edge ``(u, v, t)`` and its timestamps."""
        self._delta.remove((u, v, t))
        for a, b in self._orientations(u, v):
            self._delta_out[a].remove(t)
            self._delta_in[b].remove(t)
        self._notify_mutation()

    def _base_key(self, u: Vertex, v: Vertex, t: int):
        """The key under which a base edge is counted, or ``None``.

        Undirected base graphs store each edge once in an arbitrary
        orientation, so both orientations are tried.
        """
        key = (u, v, t)
        if self._base_edge_counts[key] - self._removed[key] > 0:
            return key
        if not self._base_graph.directed:
            key = (v, u, t)
            if self._base_edge_counts[key] - self._removed[key] > 0:
                return key
        return None

    def remove_edge(self, u: Vertex, v: Vertex, t: int) -> None:
        """Delete one instance of the temporal edge ``(u, v, t)``.

        A still-buffered streamed edge is simply dropped from the
        buffer; a base edge is tombstoned (see the module docstring).
        Raises :class:`GraphError` when no live instance exists.  May
        trigger a rebuild.
        """
        if (u, v, t) in self._delta:
            self._drop_buffered(u, v, t)
            return
        if not self._base_graph.directed and (v, u, t) in self._delta:
            self._drop_buffered(v, u, t)
            return
        key = self._base_key(u, v, t)
        if key is None:
            raise GraphError(
                f"cannot remove ({u!r}, {v!r}, {t}): no live instance of "
                "that temporal edge"
            )
        self._removed[key] += 1
        self._notify_mutation()
        if len(self._delta) + self.removed_size >= self.rebuild_threshold:
            self.rebuild()

    def rebuild(self) -> None:
        """Fold the delta buffer and tombstones into a new base index.

        Without tombstones the delta is folded into the base label
        under the base's frozen vertex order, new vertices ranked last
        in id order (:func:`repro.core.construction.extend_labels`):
        every base entry ending before the delta's first timestamp is
        kept, read in place from the base's flat store, and only later
        tuples are searched.  The fold writes the new flat store
        itself, which the new base index takes as it is; it equals a
        from-scratch build under that order, byte for byte.  A full
        build with a fresh order runs instead when tombstones are
        pending (a removal can change an entry of any age), when the
        delta starts at or before the base's first timestamp (nothing
        would be kept), or when the edges folded since the order was
        made reach half the edges it was made on (a frozen order's
        label grows as degrees drift).  Either way :attr:`rebuilds`
        counts it; :attr:`full_build_reasons` counts why each full
        build ran, by the first of those reasons that held.
        """
        if not self._delta and not self._removed:
            return
        # A new Counter when tombstones are pending; the counts change
        # only once the new index is built, so a failed build can rerun.
        counts = (self._base_edge_counts - self._removed if self._removed
                  else self._base_edge_counts)
        merged = TemporalGraph(directed=self._base_graph.directed)
        for label in self._base_graph.vertices():
            merged.add_vertex(label)
        for edge in chain(counts.elements(), self._delta):
            merged.add_edge(*edge)
        merged.freeze()
        tmin = min((t for _, _, t in self._delta), default=None)
        first = self._base_graph.min_time
        folded = self._folded_edges + len(self._delta)
        reason = ("tombstones" if self._removed
                  else "early-delta" if first is None or tmin <= first
                  else "reorder" if 2 * folded >= self._order_edges
                  else None)
        if reason is not None:
            self._index = TILLIndex.build(
                merged, vartheta=self.vartheta, **self._build_kwargs
            )
            self._full_builds[reason] += 1
            self._order_edges = merged.num_edges
            self._folded_edges = 0
        else:
            base = self._index
            order = VertexOrder(
                base.order.order
                + list(range(base.graph.num_vertices, merged.num_vertices))
            )
            started = time.perf_counter()
            store = construction.extend_labels(
                merged, order, base.flat, tmin, self.vartheta
            )
            self._index = TILLIndex(
                merged, order, FlatTILLLabels(store), self.vartheta,
                method=base.method, ordering_name=base.ordering_name,
                build_seconds=time.perf_counter() - started,
            )
            self._folded_edges = folded
            self._folds += 1
        # Count the buffered edges under the keys merged.edges() yields:
        # an undirected edge runs from its smaller vertex id.
        ids = merged.vertex_ids
        for u, v, t in self._delta:
            if not merged.directed and ids[u] > ids[v]:
                u, v = v, u
            counts[(u, v, t)] += 1
        self._base_edge_counts = counts
        self._base_graph = merged
        self._delta.clear()
        self._delta_out.clear()
        self._delta_in.clear()
        self._removed.clear()
        self._rebuilds += 1
        self._notify_mutation()

    # ------------------------------------------------------------------

    def _live_span(self, u: Vertex, v: Vertex, window) -> bool:
        """BFS over the *live* adjacency: base minus tombstones plus delta.

        The slow-but-exact path used to confirm positive answers in
        windows touched by removals.
        """
        direct: Dict[Vertex, List[Tuple[Vertex, int]]] = {}
        for a, b, t in self._delta:
            if window.start <= t <= window.end:
                direct.setdefault(a, []).append((b, t))
                if not self._base_graph.directed:
                    direct.setdefault(b, []).append((a, t))
        remaining = Counter(self._removed)
        base = self._base_graph
        seen = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            hops: List[Tuple[Vertex, int]] = list(direct.get(x, ()))
            if x in base:
                xi = base.index_of(x)
                for yi, t in base.out_adj_window(xi, window.start, window.end):
                    y = base.label_of(yi)
                    key = (x, y, t)
                    if remaining[key] > 0:
                        remaining[key] -= 1
                        continue
                    if not base.directed and remaining[(y, x, t)] > 0:
                        remaining[(y, x, t)] -= 1
                        continue
                    hops.append((y, t))
            for y, _t in hops:
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    def span_reachable(
        self,
        u: Vertex,
        v: Vertex,
        interval: IntervalLike,
        fallback: Optional[str] = None,
    ) -> bool:
        """Span-reachability over base + streamed edges and removals.

        The base index answers first; only a miss reads the delta
        buffer and searches the contracted graph described in the
        module docstring.  Positive answers in removal-touched windows
        are confirmed against the live adjacency.  A window wider than
        the ϑ cap raises :class:`UnsupportedIntervalError` unless
        ``fallback="online"``, which answers it by BFS over the live
        adjacency instead.
        """
        window = as_interval(interval)
        if u == v:
            return True
        if self.vartheta is not None and window.length > self.vartheta:
            if fallback == "online":
                return self._live_span(u, v, window)
            check_vartheta(self.vartheta, window.length)
        ws, we = window.start, window.end
        dirty = any(ws <= t <= we for _, _, t in self._removed)
        return self._delta_span(u, v, window, self._delta, dirty)

    def _base_ends(self, u: Vertex, v: Vertex, ws: int, we: int):
        """``(ui, vi, leaves, entered)``: the base ids of *u* and *v*
        (``None`` off the base graph), whether *u* has a base out-edge
        in ``[ws, we]`` (Lemma 9) and whether *v* has a base in-edge
        there (Lemma 10)."""
        base = self._index.graph
        ids = base.vertex_ids
        ui, vi = ids.get(u), ids.get(v)
        return (ui, vi,
                ui is not None and base.has_out_edge_in(ui, ws, we),
                vi is not None and base.has_in_edge_in(vi, ws, we))

    def _live_ends(self, u: Vertex, v: Vertex, ws: int, we: int,
                   leaves: bool, entered: bool) -> bool:
        """Lemmas 9/10 on the live graph: can *u* leave and *v* be
        entered in ``[ws, we]`` by a base (*leaves*, *entered*) or a
        buffered edge?  Tombstones are ignored, which is sound for a
        ``False``: a removal never creates an edge."""
        return ((leaves or _has_time_in(self._delta_out.get(u), ws, we))
                and (entered or _has_time_in(self._delta_in.get(v), ws, we)))

    def _delta_span(self, u: Vertex, v: Vertex, window, edges, dirty) -> bool:
        """Span-reachability in *window* over the base index plus those
        of the buffered *edges* that fall inside it.

        Base first: one Algorithm 4 probe for ``(u, v)``, made only when
        both endpoints are base vertices that pass the Lemma 9/10
        checks.  A hit is the answer unless the window holds tombstones
        (*dirty*), where the live adjacency confirms it.  On a miss the
        same lemmas are checked on the live graph: ``u`` needs a base or
        buffered out-edge in the window and ``v`` a base or buffered
        in-edge, one bisect each (:attr:`_delta_out`/:attr:`_delta_in`);
        a removal never creates an edge, so a failed check is ``False``
        even under tombstones, and *edges* is never read.  Then BFS over
        the contracted graph: ``u`` and every node first entered by a
        delta edge make one batched Algorithm 4 call over their unseen
        targets (``v`` and the delta tails, each resolved and Lemma
        10-prefiltered once; ``u``'s call leaves out ``v``, already
        known to miss).  A node first entered by a base segment follows
        only its own delta edges: its base reach in the window lies
        inside the reach of the node that reached it, whose call
        already tried every target then unseen.
        """
        base, ws, we = self._index.graph, window.start, window.end
        store, rank = self._index.flat, self._index.order.rank
        ids = base.vertex_ids
        ui, vi, leaves, entered = self._base_ends(u, v, ws, we)
        if leaves and entered and queries.flat_span_batch(
                store, rank, [(ui, vi)], ws, we)[0]:
            # Adding edges never removes reachability; a tombstone may.
            return not dirty or self._live_span(u, v, window)
        if not self._live_ends(u, v, ws, we, leaves, entered):
            return False
        delta = [e for e in edges if ws <= e[2] <= we]
        if not delta:
            return False
        direct: Dict[Vertex, Set[Vertex]] = {}
        for a, b, _t in delta:
            direct.setdefault(a, set()).add(b)
            if not base.directed:
                direct.setdefault(b, set()).add(a)
        targets = {}
        for y in {v, *direct}:
            yi = ids.get(y)
            if yi is not None and base.has_in_edge_in(yi, ws, we):
                targets[y] = yi
        seen = {u}
        queue = deque([(u, True)])  # (node, entered by a delta edge)
        found = False
        while queue and not found:
            x, expand = queue.popleft()
            heads = direct.get(x, ())
            reached = []
            xi = ids.get(x) if expand and v not in heads else None
            if xi is not None:
                todo = [y for y in targets
                        if y not in seen and (y != v or x != u)]
                if todo and base.has_out_edge_in(xi, ws, we):
                    hits = queries.flat_span_batch(
                        store, rank, [(xi, targets[y]) for y in todo], ws, we)
                    reached = [(y, False) for y, hit in zip(todo, hits) if hit]
            reached += [(y, True) for y in heads]
            for y, by_delta in reached:
                if y == v:
                    found = True
                elif y not in seen:
                    seen.add(y)
                    queue.append((y, by_delta))
        if found and dirty:
            # The contracted path may lean on a tombstoned base edge.
            return self._live_span(u, v, window)
        return found

    def theta_reachable(
        self, u: Vertex, v: Vertex, interval: IntervalLike, theta: int
    ) -> bool:
        """θ-reachability over base + streamed edges.

        A window between base vertices that no delta edge or tombstone
        touches is one ES-Reach* call on the base index.  Otherwise
        every θ-long position is a span query in that position
        (:meth:`_delta_span`) over its slice of the time-sorted delta,
        so a position the base answers searches no delta edge.  Before
        that loop, the live-graph Lemma 9/10 check of
        :meth:`_delta_span` runs once over the whole window.
        """
        window = validate_theta_window(interval, theta)
        if u == v:
            return True
        check_vartheta(self.vartheta, theta)
        ws, we = window.start, window.end
        ui, vi, leaves, entered = self._base_ends(u, v, ws, we)
        if not self._live_ends(u, v, ws, we, leaves, entered):
            return False
        delta = sorted((e for e in self._delta if ws <= e[2] <= we),
                       key=lambda e: e[2])
        times = [t for _, _, t in delta]
        removed = sorted(t for _, _, t in self._removed if ws <= t <= we)
        if not times and not removed and ui is not None and vi is not None:
            return self._index.theta_reachable(u, v, window, theta)
        for start in range(ws, we - theta + 2):
            sub = Interval(start, start + theta - 1)
            lo = bisect_left(times, sub.start)
            hi = bisect_right(times, sub.end)
            dirty = bisect_left(removed, sub.start) \
                < bisect_right(removed, sub.end)
            if self._delta_span(u, v, sub, delta[lo:hi], dirty):
                return True
        return False


def _has_time_in(times: Optional[List[int]], start: int, end: int) -> bool:
    """Does the sorted list *times* (or ``None``) hold a value in
    ``[start, end]``?"""
    if not times:
        return False
    i = bisect_left(times, start)
    return i < len(times) and times[i] <= end
