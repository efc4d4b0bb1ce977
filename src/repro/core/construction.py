"""TILL-Index construction (paper Section IV).

Two builders are provided:

* :func:`build_labels_basic` — the framework of Algorithm 2
  (``TILL-Construct``): for each vertex in rank order, a FIFO search
  enumerates *all* skyline reachability tuples (SRTs), which are then
  filtered down to canonical tuples (CRTs) by querying the partial
  index.  This is the paper's baseline for the Fig. 6 experiment.

* :func:`build_labels_optimized` — Algorithm 3 (``TILL-Construct*``):
  a priority queue pops the tuple with the *shortest* interval first
  (Lemma 7 guarantees popped tuples are SRTs), and a covered tuple
  terminates its whole subtree (Lemma 8), skipping both the CRT check
  and the wasted exploration.  A length cap ``vartheta`` optionally
  bounds indexed interval lengths (the paper's ϑ knob, Fig. 7).

:func:`extend_labels` folds edges stamped at or after some ``tmin``
into a finished Algorithm 3 label under the same vertex order: it
keeps every entry ending before ``tmin`` and runs Algorithm 3's queue
loop only on later tuples (``docs/algorithms.md``, "Folding streamed
edges").  :class:`~repro.core.incremental.IncrementalTILLIndex` rebuilds
with it.

Both builders process, for every root ``u_i``, only vertices ranked
*below* ``u_i``: paths through higher-ranked vertices are covered by
those vertices because sub-path intervals are contained in path
intervals, so such tuples are never canonical.

Both builders decide whether a tuple is canonical with one shared
check, :func:`covered` (Algorithm 3 line 10): a span query against the
partially built index.  The root side is read once per search
(:func:`root_hub_groups`: the root's label is complete by then and is
closed to appends); per tuple, the check walks the target's hubs
against the root's.  Label groups stay chronological as they grow, so
every probe is one binary search.

The two builders provably produce identical labels; the test suite
asserts this on randomized graphs and pins the exact output
(``tests/test_build_digest.py``).
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from math import inf
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.flatstore import FlatDirection, FlatTILLStore
from repro.core.intervals import SkylineSet
from repro.core.labels import LabelSet, TILLLabels
from repro.core.ordering import VertexOrder
from repro.errors import IndexBuildError
from repro.graph.temporal_graph import TemporalGraph

ProgressHook = Callable[[int, int], None]

#: Work counters returned by one root/direction search:
#: (entries emitted, covered prunes/rejections, stale pops,
#:  ϑ-cap skips, queue/heap insertions).
SearchCounts = Tuple[int, int, int, int, int]


class _BuildObserver:
    """Per-root telemetry recording shared by both builders.

    Groups roots into ~32 tracer spans (``build.root-batch``) instead
    of one span per root, so the trace of a million-vertex build stays
    readable; counters and histograms are exact per root.
    """

    def __init__(self, telemetry, method: str, n: int):
        from repro.obs.metrics import (
            DEFAULT_SIZE_BUCKETS,
            DEFAULT_TIME_BUCKETS,
        )

        m = telemetry.metrics
        self.tracer = telemetry.tracer
        self.roots = m.counter(
            "build_roots_total", "Roots fully labeled (both directions)"
        )
        self.entries = m.counter(
            "build_label_entries_total", "Canonical label entries emitted"
        )
        self.covered = m.counter(
            "build_covered_prunes_total",
            "Tuples discarded as covered by a higher-ranked hub (Lemma 8)",
        )
        self.stale = m.counter(
            "build_stale_pops_total",
            "Queue entries dominated after being enqueued",
        )
        self.cap_skips = m.counter(
            "build_cap_skips_total",
            "Expansions dropped by the vartheta length cap",
        )
        self.expansions = m.counter(
            "build_expansions_total", "Skyline tuples enqueued for search"
        )
        self.root_seconds = m.histogram(
            "build_root_seconds", DEFAULT_TIME_BUCKETS,
            "Wall-clock seconds per root",
        )
        self.entries_per_root = m.histogram(
            "build_entries_per_root", DEFAULT_SIZE_BUCKETS,
            "Label entries emitted per root",
        )
        self.rate = m.gauge(
            "build_roots_per_second", "Roots processed per second"
        )
        m.gauge("build_total_roots", "Roots in the vertex order").set(n)
        self.method = method
        self.n = n
        self.batch = max(1, n // 32)
        self._span = None
        self._batch_entries = 0
        self._started = time.perf_counter()
        self._root_started = self._started

    def root_started(self, rank: int) -> None:
        if self.tracer and self._span is None:
            self._span = self.tracer.span(
                "build.root-batch", method=self.method, first=rank
            )
        self._root_started = time.perf_counter()

    def root_finished(self, rank: int, counts: SearchCounts) -> None:
        emitted, covered_n, stale, cap_skips, expansions = counts
        self.roots.inc(method=self.method)
        self.root_seconds.observe(
            time.perf_counter() - self._root_started, method=self.method
        )
        self.entries_per_root.observe(emitted)
        if emitted:
            self.entries.inc(emitted)
        if covered_n:
            self.covered.inc(covered_n)
        if stale:
            self.stale.inc(stale)
        if cap_skips:
            self.cap_skips.inc(cap_skips)
        if expansions:
            self.expansions.inc(expansions)
        self._batch_entries += emitted
        done = rank + 1
        if self._span is not None and (
            done % self.batch == 0 or done == self.n
        ):
            self._span.attrs.update(
                last=rank, entries=self._batch_entries
            )
            self._span.__exit__(None, None, None)
            self._span = None
            self._batch_entries = 0

    def finished(self) -> None:
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
        elapsed = time.perf_counter() - self._started
        if elapsed > 0:
            self.rate.set(self.n / elapsed)


class BuildBudgetExceeded(IndexBuildError):
    """Raised when construction overruns its wall-clock budget.

    Mirrors the paper's six-hour cutoff for ``TILL-Construct`` on large
    datasets ("cannot finish in six hours" — reported as DNF in Fig. 6).
    """

    def __init__(self, elapsed: float, budget: float):
        super().__init__(
            f"index construction exceeded its budget: {elapsed:.1f}s > {budget:.1f}s"
        )
        self.elapsed = elapsed
        self.budget = budget


class _Deadline:
    """Cheap cooperative wall-clock watchdog checked between roots."""

    __slots__ = ("_t0", "_budget")

    def __init__(self, budget: Optional[float]):
        self._t0 = time.perf_counter()
        self._budget = budget

    def check(self) -> None:
        if self._budget is None:
            return
        elapsed = time.perf_counter() - self._t0
        if elapsed > self._budget:
            raise BuildBudgetExceeded(elapsed, self._budget)


def _directions(graph: TemporalGraph) -> List[str]:
    """Search directions per root: directed graphs label both sides,
    undirected graphs need a single pass (single shared label set)."""
    return ["out", "in"] if graph.directed else ["out"]


def _labels_for(labels: TILLLabels, direction: str) -> Tuple[list, list]:
    """(root-side label list, target-side label list) for a direction.

    Searching *out* from the root discovers vertices the root reaches,
    so the root is recorded in the targets' **in**-labels and the
    covered check pairs the root's **out**-label with each target's
    **in**-label; the *in* direction is symmetric.
    """
    if direction == "out":
        return labels.out_labels, labels.in_labels
    return labels.in_labels, labels.out_labels


#: A root's label as ``hub rank -> (starts, ends)`` of that hub's
#: chronological group.
RootGroups = Dict[int, Tuple[List[int], List[int]]]


def root_hub_groups(root_label: LabelSet) -> RootGroups:
    """Close *root_label* and map each of its hubs to its group.

    A root's search labels only vertices ranked below the root, so the
    root's own label is complete when the search starts.  Finalizing it
    makes that a checked invariant: a later append raises.  The map
    lives for one search and is dropped with it.
    """
    root_label.finalize()
    offsets = root_label.offsets
    groups: RootGroups = {}
    for gi, hub in enumerate(root_label.hub_ranks):
        lo, hi = offsets[gi], offsets[gi + 1]
        groups[hub] = (root_label.starts[lo:hi], root_label.ends[lo:hi])
    return groups


def covered(
    root_groups: RootGroups,
    target_label: LabelSet,
    ts: int,
    te: int,
) -> bool:
    """Algorithm 3 line 10: is the tuple ``(root → target, [ts, te])``
    already answered by the partially built index?

    True when some hub of the target is a key of *root_groups* (from
    :func:`root_hub_groups`) and both groups hold an interval inside
    ``[ts, te]`` (two-hop cover through a higher-ranked vertex).  Every
    group is chronological as it grows, so each probe is the skyline
    binary search of :func:`~repro.core.intervals.first_contained`.

    The root itself as the target's hub (same-root dominance) needs no
    probe here: an interval of the root's group inside ``[ts, te]``
    came from a smaller tuple of the same search, which the optimized
    builder's per-target ``SkylineSet`` already holds (so this tuple
    was popped as stale) and which the basic builder's antichain of
    SRTs rules out.
    """
    hubs = target_label.hub_ranks
    offsets = target_label.offsets
    starts = target_label.starts
    ends = target_label.ends
    get = root_groups.get
    for gi, hub in enumerate(hubs):
        group = get(hub)
        if group is not None:
            r_starts, r_ends = group
            k = bisect_left(r_starts, ts)
            if k < len(r_starts) and r_ends[k] <= te:
                hi = offsets[gi + 1]
                k = bisect_left(starts, ts, offsets[gi], hi)
                if k < hi and ends[k] <= te:
                    return True
    return False


def build_labels_optimized(
    graph: TemporalGraph,
    order: VertexOrder,
    vartheta: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    progress: Optional[ProgressHook] = None,
    prune_covered_subtrees: bool = True,
    telemetry=None,
) -> TILLLabels:
    """Algorithm 3, ``TILL-Construct*``.

    Parameters
    ----------
    vartheta:
        Largest indexable interval length ϑ (``None`` = unbounded, the
        paper's default).  Queries wider than ϑ are not answerable by
        the resulting index.
    budget_seconds:
        Optional wall-clock cutoff; raises :class:`BuildBudgetExceeded`.
    progress:
        Called as ``progress(done_roots, total_roots)`` after each root.
    prune_covered_subtrees:
        ``False`` disables the Lemma 8 subtree termination while
        keeping the Lemma 7 priority queue — the covered check still
        filters labels (output unchanged) but exploration continues
        through covered tuples.  Exists solely for the optimization-
        attribution ablation (experiment A4); leave ``True`` otherwise.
    telemetry:
        Optional :class:`repro.obs.Telemetry`: per-root work counters,
        timing histograms and ``build.root-batch`` tracer spans.
        ``None`` (default) records nothing.
    """
    _validate_build_inputs(graph, order, vartheta)
    labels = TILLLabels(graph.num_vertices, graph.directed)
    deadline = _Deadline(budget_seconds)
    n = len(order)
    obs = (
        _BuildObserver(telemetry, "optimized", n)
        if telemetry is not None else None
    )
    for root_rank, root in enumerate(order.order):
        deadline.check()
        if obs is not None:
            obs.root_started(root_rank)
        emitted = covered_n = stale = cap_skips = expansions = 0
        for direction in _directions(graph):
            counts = _pruned_search(
                graph, labels, order, root_rank, root, direction, vartheta,
                prune_covered_subtrees=prune_covered_subtrees,
            )
            emitted += counts[0]
            covered_n += counts[1]
            stale += counts[2]
            cap_skips += counts[3]
            expansions += counts[4]
        if obs is not None:
            obs.root_finished(
                root_rank, (emitted, covered_n, stale, cap_skips, expansions)
            )
        if progress is not None:
            progress(root_rank + 1, n)
    if obs is not None:
        obs.finished()
    labels.finalize()
    return labels


def _pruned_search(
    graph: TemporalGraph,
    labels: TILLLabels,
    order: VertexOrder,
    root_rank: int,
    root: int,
    direction: str,
    vartheta: Optional[int],
    prune_covered_subtrees: bool = True,
) -> SearchCounts:
    """One root, one direction of Algorithm 3 (lines 4-16).

    Seeds the queue with the root's neighbours and runs
    :func:`_drain_queue`.  Returns :data:`SearchCounts` work tallies
    (cheap local increments, recorded unconditionally).
    """
    rank = order.rank
    root_side, target_side = _labels_for(labels, direction)
    adj = graph.out_adj if direction == "out" else graph.in_adj
    heap: List[Tuple[int, int, int, int, int]] = []  # (length, seq, v, ts, te)
    discovered: Dict[int, SkylineSet] = {}
    seq = 0
    # Seed with the root's direct neighbors — the expansion of the
    # paper's special tuple ⟨u_i, +inf, -inf⟩.
    for v, t in adj(root):
        if rank[v] <= root_rank:
            continue
        sky = discovered.get(v)
        if sky is None:
            sky = discovered[v] = SkylineSet()
        if sky.add((t, t)):
            heappush(heap, (1, seq, v, t, t))
            seq += 1
    return _drain_queue(
        heap, discovered, seq, adj, rank, root_rank, target_side,
        root_hub_groups(root_side[root]), vartheta, prune_covered_subtrees,
    )


def _drain_queue(
    heap: List[Tuple[int, int, int, int, int]],
    discovered: Dict[int, SkylineSet],
    seq: int,
    adj,
    rank: List[int],
    root_rank: int,
    target_side: list,
    root_groups: RootGroups,
    vartheta: Optional[int],
    prune_covered_subtrees: bool = True,
) -> SearchCounts:
    """The pop/covered/expand loop of Algorithm 3 over a seeded queue.

    Pops tuples by increasing interval length (Lemma 7: each pop is an
    SRT), prunes covered subtrees (Lemma 8), appends canonical tuples to
    the target-side labels.  *discovered* holds each vertex's skyline
    of tuples seen so far, *seq* the next heap sequence number.
    """
    emitted = covered_n = stale = cap_skips = 0
    while heap:
        _, _, v, ts, te = heappop(heap)
        sky = discovered[v]
        if (ts, te) not in sky:
            stale += 1
            continue  # dominated after being pushed: stale heap entry
        target = target_side[v]
        if covered(root_groups, target, ts, te):
            covered_n += 1
            if prune_covered_subtrees:
                continue  # Lemma 8: the entire subtree is covered — prune
        else:
            target.append(root_rank, ts, te)
            emitted += 1
        for w, t in adj(v):
            if rank[w] <= root_rank:
                continue
            ns = ts if ts <= t else t
            ne = te if te >= t else t
            if vartheta is not None and ne - ns + 1 > vartheta:
                cap_skips += 1
                continue
            wsky = discovered.get(w)
            if wsky is None:
                wsky = discovered[w] = SkylineSet()
            if wsky.add((ns, ne)):
                heappush(heap, (ne - ns, seq, w, ns, ne))
                seq += 1
    return emitted, covered_n, stale, cap_skips, seq


def extend_labels(
    graph: TemporalGraph,
    order: VertexOrder,
    base_store: FlatTILLStore,
    tmin: int,
    vartheta: Optional[int] = None,
) -> TILLLabels:
    """Fold edges stamped ``t >= tmin`` into a finished label.

    *base_store* holds the labels Algorithm 3 builds under *order* on
    a subgraph of *graph* that lacks only edges stamped ``t >= tmin``
    and has only the first ``base_store.num_vertices`` vertices; every
    other vertex ranks below all of them.  The result equals
    ``build_labels_optimized(graph, order, vartheta)`` entry for entry
    (``docs/algorithms.md``, "Folding streamed edges"):

    * a base entry with ``te < tmin`` is kept: its window holds no new
      edge, so neither its search nor its covered check changes;
    * only tuples with ``te >= tmin`` are searched.  A full build
      expands exactly the kept entries among its older tuples (the rest
      are covered), so each root's queue is seeded by expanding, along
      edges at ``t >= tmin``, the root's special tuple and, at every
      vertex holding kept entries of the root, the latest one
      ``[S, b]`` into ``[S, t]`` (an earlier kept start gives a wider
      tuple);
    * that latest entry also pre-seeds the vertex's skyline, so a new
      tuple containing a kept one is dominated as in a full build.  A
      new tuple containing a covered older one is covered itself, so
      the fold neither emits nor expands it either.

    Roots run in rank order, so the covered check reads the finished
    folded labels of every higher-ranked hub.
    """
    _validate_build_inputs(graph, order, vartheta)
    labels = TILLLabels(graph.num_vertices, graph.directed)
    rank = order.rank
    # A search out of the root records the root in its targets'
    # in-labels, so it keeps entries of the base in-direction.
    kept = {"out": _KeptByHub(base_store.inn, tmin)}
    if graph.directed:
        kept["in"] = _KeptByHub(base_store.out, tmin)
    # Each vertex's edges at t >= tmin, once per direction.
    window = {"out": graph.out_adj_window, "in": graph.in_adj_window}
    late = {
        direction: [window[direction](v, tmin, graph.max_time)
                    for v in range(graph.num_vertices)]
        for direction in kept
    }
    for root_rank, root in enumerate(order.order):
        for direction in _directions(graph):
            root_side, target_side = _labels_for(labels, direction)
            late_adj = late[direction]
            heap: List[Tuple[int, int, int, int, int]] = []
            discovered: Dict[int, SkylineSet] = {}
            seeds = [(root, inf)]  # the special tuple ⟨u_i, +inf, -inf⟩
            seeds += kept[direction].copy_into(
                root_rank, target_side, discovered, late_adj
            )
            seq = 0
            for v, s in seeds:
                for w, t in late_adj[v]:
                    if rank[w] <= root_rank:
                        continue
                    ns = s if s < t else t  # every seed ends before t
                    if vartheta is not None and t - ns + 1 > vartheta:
                        continue
                    wsky = discovered.get(w)
                    if wsky is None:
                        wsky = discovered[w] = SkylineSet()
                    if wsky.add((ns, t)):
                        heappush(heap, (t - ns, seq, w, ns, t))
                        seq += 1
            if heap:  # no seed, no tuple: about half the searches of a fold
                _drain_queue(
                    heap, discovered, seq,
                    graph.out_adj if direction == "out" else graph.in_adj,
                    rank, root_rank, target_side,
                    root_hub_groups(root_side[root]), vartheta,
                )
    labels.finalize()
    return labels


class _KeptByHub:
    """One base direction's entries with ``te < tmin``, read by hub.

    ``slots[first[h]:first[h + 1]]`` are the hub slots of hub rank
    ``h`` (``owners`` their vertices), a counting-sort inverse of
    ``hub_ranks`` held in machine-int arrays; the intervals stay in
    the base store.
    """

    __slots__ = ("base", "tmin", "first", "slots", "owners")

    def __init__(self, base: FlatDirection, tmin: int):
        self.base = base
        self.tmin = tmin
        n = base.num_vertices
        hub_ranks, voff = base.hub_ranks, base.vertex_offsets
        first = array("q", bytes(8 * (n + 1)))
        for h in hub_ranks:
            first[h + 1] += 1
        for h in range(n):
            first[h + 1] += first[h]
        fill = array("q", first)
        slots = array("i", bytes(4 * len(hub_ranks)))
        owners = array("i", bytes(4 * len(hub_ranks)))
        for v in range(n):
            for g in range(voff[v], voff[v + 1]):
                k = fill[hub_ranks[g]]
                slots[k] = g
                owners[k] = v
                fill[hub_ranks[g]] = k + 1
        self.first, self.slots, self.owners = first, slots, owners

    def copy_into(
        self,
        hub: int,
        target_side: list,
        discovered: Dict[int, SkylineSet],
        late_adj: list,
    ) -> List[Tuple[int, int]]:
        """Append *hub*'s kept entries to *target_side* and pre-seed
        *discovered* with each vertex's latest one; returns
        ``(v, latest start)`` for each such vertex ``v`` that has an
        edge in *late_adj*."""
        if hub >= self.base.num_vertices:
            return []  # a vertex new since the base: no base entries
        ioff, starts, ends = (
            self.base.interval_offsets, self.base.starts, self.base.ends
        )
        tmin, slots, owners = self.tmin, self.slots, self.owners
        latest = []
        for k in range(self.first[hub], self.first[hub + 1]):
            g = slots[k]
            lo = ioff[g]
            hi = bisect_left(ends, tmin, lo, ioff[g + 1])
            if hi == lo:
                continue
            v = owners[k]
            target_side[v].append_group(hub, starts[lo:hi], ends[lo:hi])
            s = starts[hi - 1]
            discovered[v] = SkylineSet.of(s, ends[hi - 1])
            if late_adj[v]:
                latest.append((v, s))
        return latest


def build_labels_basic(
    graph: TemporalGraph,
    order: VertexOrder,
    vartheta: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    progress: Optional[ProgressHook] = None,
    telemetry=None,
) -> TILLLabels:
    """Algorithm 2 framework, ``TILL-Construct`` (the Fig. 6 baseline).

    Phase one exhaustively enumerates all SRTs of the root with a FIFO
    queue and per-vertex skyline pruning only; phase two filters each
    SRT through a partial-index query and stores the survivors (the
    CRTs).  No covered-subtree termination, hence the large slowdown the
    paper reports.  ``telemetry`` matches
    :func:`build_labels_optimized` (covered prunes here count phase-two
    CRT-filter rejections).
    """
    _validate_build_inputs(graph, order, vartheta)
    labels = TILLLabels(graph.num_vertices, graph.directed)
    deadline = _Deadline(budget_seconds)
    n = len(order)
    obs = (
        _BuildObserver(telemetry, "basic", n)
        if telemetry is not None else None
    )
    for root_rank, root in enumerate(order.order):
        deadline.check()
        if obs is not None:
            obs.root_started(root_rank)
        totals = [0, 0, 0, 0, 0]
        for direction in _directions(graph):
            counts = _exhaustive_search(
                graph, labels, order, root_rank, root, direction, vartheta
            )
            for i in range(5):
                totals[i] += counts[i]
        if obs is not None:
            obs.root_finished(root_rank, tuple(totals))
        if progress is not None:
            progress(root_rank + 1, n)
    if obs is not None:
        obs.finished()
    labels.finalize()
    return labels


def _exhaustive_search(
    graph: TemporalGraph,
    labels: TILLLabels,
    order: VertexOrder,
    root_rank: int,
    root: int,
    direction: str,
    vartheta: Optional[int],
) -> SearchCounts:
    """One root, one direction of the basic framework."""
    rank = order.rank
    root_side, target_side = _labels_for(labels, direction)
    root_groups = root_hub_groups(root_side[root])
    adj = graph.out_adj if direction == "out" else graph.in_adj
    stale = cap_skips = 0

    queue: List[Tuple[int, int, int]] = []  # FIFO of (v, ts, te)
    discovered: Dict[int, SkylineSet] = {}
    for v, t in adj(root):
        if rank[v] <= root_rank:
            continue
        sky = discovered.setdefault(v, SkylineSet())
        if sky.add((t, t)):
            queue.append((v, t, t))

    head = 0
    while head < len(queue):
        v, ts, te = queue[head]
        head += 1
        if (ts, te) not in discovered[v]:
            stale += 1
            continue  # dominated since being queued
        for w, t in adj(v):
            if rank[w] <= root_rank:
                continue
            ns = ts if ts <= t else t
            ne = te if te >= t else t
            if vartheta is not None and ne - ns + 1 > vartheta:
                cap_skips += 1
                continue
            wsky = discovered.setdefault(w, SkylineSet())
            if wsky.add((ns, ne)):
                queue.append((w, ns, ne))

    # Phase two: keep exactly the SRTs not covered by higher-ranked hubs.
    # The check never reads the root's own group, so order is free.
    emitted = covered_n = 0
    for v, sky in discovered.items():
        target = target_side[v]
        for ts, te in sky:
            if not covered(root_groups, target, ts, te):
                target.append(root_rank, ts, te)
                emitted += 1
            else:
                covered_n += 1
    return emitted, covered_n, stale, cap_skips, len(queue)


def _validate_build_inputs(
    graph: TemporalGraph, order: VertexOrder, vartheta: Optional[int]
) -> None:
    if not graph.frozen:
        raise IndexBuildError("graph must be frozen before index construction")
    if len(order) != graph.num_vertices:
        raise IndexBuildError(
            f"vertex order covers {len(order)} vertices but the graph has "
            f"{graph.num_vertices}"
        )
    if vartheta is not None and vartheta < 1:
        raise IndexBuildError(f"vartheta must be >= 1, got {vartheta}")
