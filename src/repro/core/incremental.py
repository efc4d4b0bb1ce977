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
* once the buffer exceeds ``rebuild_threshold`` edges the base index is
  rebuilt — classic amortization.

The base index is never mutated between rebuilds — mutations only touch
the delta buffer and the tombstones — so its flat label store (see
:mod:`repro.core.flatstore`) can never go stale, and an mmap-loaded
base index may be mutated like any other.

A query asks the base index first: one Algorithm 4 probe for
``(u, v)``.  Adding edges never removes reachability, so a hit in a
window without tombstones is the answer and the delta buffer is never
read.  Only a miss builds the contracted graph, and its search tries a
base segment only from ``u`` and from nodes first entered by a delta
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
this stays far below a full online BFS on large graphs.

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

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core import queries
from repro.core.index import TILLIndex
from repro.core.intervals import (
    Interval,
    IntervalLike,
    as_interval,
    check_vartheta,
    validate_theta_window,
)
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
        self._removed: Counter = Counter()  # tombstoned base edges
        self._rebuilds = 0
        self._base_graph = graph.copy()
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
        """How many full rebuilds amortization has triggered so far."""
        return self._rebuilds

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
        self._notify_mutation()
        if len(self._delta) + self.removed_size >= self.rebuild_threshold:
            self.rebuild()

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
        probe = (u, v, t)
        if probe in self._delta:
            self._delta.remove(probe)
            self._notify_mutation()
            return
        if not self._base_graph.directed and (v, u, t) in self._delta:
            self._delta.remove((v, u, t))
            self._notify_mutation()
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
        """Fold the delta buffer and tombstones into a fresh base index."""
        if not self._delta and not self._removed:
            return
        merged = TemporalGraph(directed=self._base_graph.directed)
        for label in self._base_graph.vertices():
            merged.add_vertex(label)
        pending_removals = Counter(self._removed)
        for u, v, t in self._base_graph.edges():
            if pending_removals[(u, v, t)] > 0:
                pending_removals[(u, v, t)] -= 1
                continue
            merged.add_edge(u, v, t)
        for u, v, t in self._delta:
            merged.add_edge(u, v, t)
        merged.freeze()
        self._base_graph = merged
        self._base_edge_counts = Counter(merged.edges())
        self._index = TILLIndex.build(
            merged, vartheta=self.vartheta, **self._build_kwargs
        )
        self._delta.clear()
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

    def _delta_span(self, u: Vertex, v: Vertex, window, edges, dirty) -> bool:
        """Span-reachability in *window* over the base index plus those
        of the buffered *edges* that fall inside it.

        Base first: one Algorithm 4 probe for ``(u, v)``, made only when
        both endpoints are base vertices that pass the Lemma 9/10
        checks.  A hit is the answer unless the window holds tombstones
        (*dirty*), where the live adjacency confirms it; *edges* is read
        only on a miss.  Then BFS over the contracted graph: ``u`` and
        every node first entered by a delta edge make one batched
        Algorithm 4 call over their unseen targets (``v`` and the delta
        tails, each resolved and Lemma 10-prefiltered once; ``u``'s
        call leaves out ``v``, already known to miss).  A node first
        entered by a base segment follows only its own delta edges: its
        base reach in the window lies inside the reach of the node that
        reached it, whose call already tried every target then unseen.
        """
        base, ws, we = self._index.graph, window.start, window.end
        store, rank = self._index.flat, self._index.order.rank
        if u in base and v in base:
            ui, vi = base.index_of(u), base.index_of(v)
            if (base.has_out_edge_in(ui, ws, we)
                    and base.has_in_edge_in(vi, ws, we)
                    and queries.flat_span_batch(
                        store, rank, [(ui, vi)], ws, we)[0]):
                # Adding edges never removes reachability; a tombstone may.
                return not dirty or self._live_span(u, v, window)
        delta = [e for e in edges if ws <= e[2] <= we]
        if not delta:
            return False
        direct: Dict[Vertex, Set[Vertex]] = {}
        for a, b, _t in delta:
            direct.setdefault(a, set()).add(b)
            if not base.directed:
                direct.setdefault(b, set()).add(a)
        ids = {y: base.index_of(y) for y in {v, *direct} if y in base}
        targets = {y: yi for y, yi in ids.items()
                   if base.has_in_edge_in(yi, ws, we)}
        seen = {u}
        queue = deque([(u, True)])  # (node, entered by a delta edge)
        found = False
        while queue and not found:
            x, expand = queue.popleft()
            heads = direct.get(x, ())
            reached = []
            if expand and v not in heads and x in base:
                xi = base.index_of(x)
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
        so a position the base answers searches no delta edge.
        """
        window = validate_theta_window(interval, theta)
        if u == v:
            return True
        check_vartheta(self.vartheta, theta)
        ws, we = window.start, window.end
        delta = sorted((e for e in self._delta if ws <= e[2] <= we),
                       key=lambda e: e[2])
        times = [t for _, _, t in delta]
        removed = sorted(t for _, _, t in self._removed if ws <= t <= we)
        in_base = u in self._base_graph and v in self._base_graph
        if not times and not removed and in_base:
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
