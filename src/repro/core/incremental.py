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

Each contracted node is expanded at most once, and an expansion makes
one batched Algorithm 4 call (:func:`repro.core.queries.flat_span_batch`)
over its unseen targets: ``v`` and the tails of the in-window delta
edges.  No other vertex need end a base segment, since span-reachability
in a window is transitive and two segments in a row merge into one (on
an undirected graph every endpoint is a tail).  The Lemma 9/10 prefilter
runs once per node, not per pair.  For ``d`` in-window delta edges a
query makes at most one kernel call per contracted node (``2d + 2`` at
most) over ``O(d²)`` pairs in all; with the default threshold of a few
hundred edges this stays far below a full online BFS on large graphs.

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
from repro.core.intervals import Interval, IntervalLike, as_interval
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

    def _base_reaches(self, a: Vertex, b: Vertex, window) -> bool:
        """Base-index span query, treating unknown vertices as isolated."""
        if a not in self._base_graph or b not in self._base_graph:
            return a == b
        return self._index.span_reachable(a, b, window)

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

        BFS over the contracted graph described in the module
        docstring; positive answers in removal-touched windows are
        confirmed against the live adjacency.  A window wider than the
        ϑ cap raises :class:`UnsupportedIntervalError` unless
        ``fallback="online"``, which answers it by BFS over the live
        adjacency instead.
        """
        window = as_interval(interval)
        if u == v:
            return True
        if self.vartheta is not None and window.length > self.vartheta:
            if fallback == "online":
                return self._live_span(u, v, window)
            self._index._check_support(window.length)
        ws, we = window.start, window.end
        delta = [e for e in self._delta if ws <= e[2] <= we]
        dirty = any(ws <= t <= we for _, _, t in self._removed)
        if not delta:
            answer = self._base_reaches(u, v, window)
            if answer and dirty:
                return self._live_span(u, v, window)
            return answer
        return self._delta_span(u, v, window, delta, dirty)

    def _delta_span(self, u: Vertex, v: Vertex, window, delta, dirty) -> bool:
        """BFS over the contracted graph of the in-window *delta* edges.

        Expanding a node makes one batched Algorithm 4 call over its
        unseen base-segment targets.  A segment is worth ending only at
        ``v`` or at a delta tail (segments in a row merge), so those are
        the targets, each resolved and Lemma 10-prefiltered once.  A
        positive answer in a window with tombstones (*dirty*) is
        confirmed against the live adjacency.
        """
        base, ws, we = self._index.graph, window.start, window.end
        direct: Dict[Vertex, Set[Vertex]] = {}
        for a, b, _t in delta:
            direct.setdefault(a, set()).add(b)
            if not base.directed:
                direct.setdefault(b, set()).add(a)
        ids = {y: base.index_of(y) for y in {v, *direct} if y in base}
        targets = {y: yi for y, yi in ids.items()
                   if base.has_in_edge_in(yi, ws, we)}
        store, rank = self._index.flat, self._index.order.rank
        seen = {u}
        queue = deque([u])
        found = False
        while queue and not found:
            x = queue.popleft()
            reached = list(direct.get(x, ()))
            if v not in reached and x in base:
                xi = base.index_of(x)
                todo = [y for y in targets if y not in seen]
                if todo and base.has_out_edge_in(xi, ws, we):
                    hits = queries.flat_span_batch(
                        store, rank, [(xi, targets[y]) for y in todo], ws, we)
                    reached += [y for y, hit in zip(todo, hits) if hit]
            for y in reached:
                if y == v:
                    found = True
                elif y not in seen:
                    seen.add(y)
                    queue.append(y)
        if found and dirty:
            # The contracted path may lean on a tombstoned base edge.
            return self._live_span(u, v, window)
        return found

    def theta_reachable(
        self, u: Vertex, v: Vertex, interval: IntervalLike, theta: int
    ) -> bool:
        """θ-reachability over base + streamed edges.

        Answered window-by-window: fast ES-Reach* on the base index when
        no delta edge or tombstone intersects a window, else the
        contracted-graph search over that window's slice of the
        time-sorted delta.
        """
        window = as_interval(interval)
        if theta < 1:
            raise InvalidIntervalError(
                f"theta must be a positive window length, got {theta}"
            )
        if window.length < theta:
            raise InvalidIntervalError(
                f"query interval {window} is shorter than theta={theta}"
            )
        if u == v:
            return True
        self._index._check_support(theta)
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
            if lo == hi and not dirty and in_base:
                if self._index.theta_reachable(u, v, sub, theta):
                    return True
            elif self._delta_span(u, v, sub, delta[lo:hi], dirty):
                return True
        return False
