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
keeps every entry ending before ``tmin``, reading it in place from the
base's flat store, runs Algorithm 3's queue loop only on later tuples
and writes the folded flat store itself (``docs/algorithms.md``,
"Folding streamed edges").
:class:`~repro.core.incremental.IncrementalTILLIndex` rebuilds with it.

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
from collections import defaultdict
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
    root_side, target_side = _labels_for(labels, direction)
    adj = graph.out_adj if direction == "out" else graph.in_adj
    # the expansion of the paper's special tuple ⟨u_i, +inf, -inf⟩
    heap, discovered, seq = _seed_queue(
        [(inf, -inf, adj(root))], order.rank, root_rank, vartheta, {})
    return _drain_queue(
        heap, discovered, seq, adj, order.rank, root_rank, target_side,
        root_hub_groups(root_side[root]), vartheta, {},
        prune_covered_subtrees,
    )


def _seed_queue(seeds, rank, root_rank, vartheta, kept_starts):
    """``(heap, discovered, seq)`` for :func:`_drain_queue`: each seed
    ``(ts, te, edges)`` expanded along its *edges* (to vertices ranked
    below the root, within ϑ, past *kept_starts*).  A seed's heap key
    is one above the key the queue gives a tuple of its length, so pops
    still run by length."""
    heap: List[Tuple[int, int, int, int, int]] = []  # (key, seq, v, ts, te)
    discovered: Dict[int, SkylineSet] = defaultdict(SkylineSet)
    seq = 0
    for ts, te, edges in seeds:
        for w, t in edges:
            if rank[w] <= root_rank:
                continue
            ns = ts if ts <= t else t
            ne = te if te >= t else t
            if vartheta is not None and ne - ns + 1 > vartheta:
                continue
            if w in kept_starts and kept_starts[w] >= ns:
                continue
            if discovered[w].add((ns, ne)):
                heappush(heap, (ne - ns + 1, seq, w, ns, ne))
                seq += 1
    return heap, discovered, seq


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
    kept_starts: Dict[int, int],
    prune_covered_subtrees: bool = True,
    is_covered=covered,
) -> SearchCounts:
    """The pop/covered/expand loop of Algorithm 3 over a seeded queue.

    Pops tuples by increasing interval length (Lemma 7: each pop is an
    SRT), prunes covered subtrees (Lemma 8), appends canonical tuples to
    the target-side labels.  *discovered* maps each vertex to its
    skyline of tuples seen so far (a missing vertex gets a fresh one),
    *seq* is the next heap sequence number.  A full build passes an
    empty *kept_starts*.  A fold passes, for each vertex holding an
    entry of the root it keeps, that entry's start: a tuple starting no
    later contains it, so the vertex's skyline rejects it in a full
    build.  It also passes its own targets (:class:`_FoldTarget`) and
    their check as *target_side* and *is_covered*.
    """
    emitted = covered_n = stale = cap_skips = 0
    while heap:
        _, _, v, ts, te = heappop(heap)
        if (ts, te) not in discovered[v]:
            stale += 1
            continue  # dominated after being pushed: stale heap entry
        target = target_side[v]
        if is_covered(root_groups, target, ts, te):
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
            if w in kept_starts and kept_starts[w] >= ns:
                continue
            if discovered[w].add((ns, ne)):
                heappush(heap, (ne - ns, seq, w, ns, ne))
                seq += 1
    return emitted, covered_n, stale, cap_skips, seq


def extend_labels(
    graph: TemporalGraph,
    order: VertexOrder,
    base_store: FlatTILLStore,
    tmin: int,
    vartheta: Optional[int] = None,
) -> FlatTILLStore:
    """Fold edges stamped ``t >= tmin`` into a finished label.

    *base_store* holds the labels Algorithm 3 builds under *order* on
    a subgraph of *graph* that lacks only edges stamped ``t >= tmin``
    and has only the first ``base_store.num_vertices`` vertices; every
    other vertex ranks below all of them.  The returned store equals
    the flattened ``build_labels_optimized(graph, order, vartheta)``
    array for array (``docs/algorithms.md``, "Folding streamed edges"):

    * a base entry with ``te < tmin`` is kept: its window holds no new
      edge, so neither its search nor its covered check changes.  The
      kept entries of a group are a prefix of it in *base_store*, read
      there (:class:`_KeptDirection`) and copied only into the output;
    * only tuples with ``te >= tmin`` are searched.  A full build
      expands exactly the kept entries among its older tuples (the rest
      are covered), so each root's queue is seeded by expanding, along
      edges at ``t >= tmin``, the root's special tuple and, at every
      vertex holding kept entries of the root, the latest one
      ``[S, b]`` into ``[S, t]`` (an earlier kept start gives a wider
      tuple);
    * a new tuple containing that latest entry is not pushed, as a
      full build's skyline would reject it.  A new tuple containing a
      covered older one is covered itself, so the fold neither emits
      nor expands it either.

    Roots run in rank order, so the covered check reads the finished
    folded labels of every higher-ranked hub.  New entries end at
    ``te >= tmin``, so each goes after its group's kept prefix.
    """
    _validate_build_inputs(graph, order, vartheta)
    n, rank = graph.num_vertices, order.rank
    out = _KeptDirection(base_store.out, tmin, n)
    inn = _KeptDirection(base_store.inn, tmin, n) if graph.directed else out
    # A search out of the root reads the root's out-label and records
    # the root in its targets' in-labels; the in-search is symmetric.
    # Each carries every vertex's edges at t >= tmin.
    sides = [(out, inn, graph.out_adj, graph.out_adj_window)]
    if graph.directed:
        sides.append((inn, out, graph.in_adj, graph.in_adj_window))
    searches = [(root_side.targets, target_side, adj,
                 [window(v, tmin, graph.max_time) for v in range(n)])
                for root_side, target_side, adj, window in sides]
    for root_rank, root in enumerate(order.order):
        for roots, target_side, adj, late_adj in searches:
            kept_starts = target_side.kept_starts[root_rank]
            # the special tuple ⟨u_i, +inf, -inf⟩ and the latest kept
            # entries of the root at vertices with late edges
            seeds = [(inf, -inf, late_adj[root])]
            seeds += [(s, -inf, late_adj[v])
                      for v, s in kept_starts.items() if late_adj[v]]
            heap, discovered, seq = _seed_queue(seeds, rank, root_rank,
                                                vartheta, kept_starts)
            if heap:  # no seed, no tuple: about half the searches of a fold
                _drain_queue(
                    heap, discovered, seq, adj, rank, root_rank,
                    target_side.targets, roots[root].hub_groups(), vartheta,
                    kept_starts, is_covered=_FoldTarget.covered,
                )
    for side in (out, inn):  # the merge reads only the new entries
        side.kept_starts = None
        for target in side.targets:
            target.latest = None
    flat_out = out.flat()
    return FlatTILLStore(
        graph.directed, flat_out, inn.flat() if graph.directed else flat_out
    )


class _FoldTarget:
    """One vertex's label in one direction during a fold.

    ``latest`` lists ``(start, hub)`` of the last kept entry of each
    hub group, latest start first; ``new`` is ``None`` or a
    ``LabelSet`` of the entries the fold adds.  Every window a fold
    checks ends at or after ``tmin``, after every kept entry, so a kept
    group holds an interval inside ``[ts, te]`` iff its last entry
    starts at ``ts`` or later: that start stands in for the group.
    """

    __slots__ = ("latest", "new")

    def __init__(self, latest: List[Tuple[int, int]]):
        self.latest = latest
        self.new: Optional[LabelSet] = None

    def append(self, hub: int, ts: int, te: int) -> None:
        """Record the new entry ``(hub, ts, te)``."""
        if self.new is None:
            self.new = LabelSet()
        self.new.append(hub, ts, te)

    def hub_groups(self) -> RootGroups:
        """:func:`root_hub_groups` of the folded label: each hub's last
        kept entry, if any, then its new entries."""
        groups = {} if self.new is None else root_hub_groups(self.new)
        for s, hub in self.latest:
            added = groups.get(hub)
            groups[hub] = ([s], [s]) if added is None else (
                [s, *added[0]], [s, *added[1]])
        return groups

    @staticmethod
    def covered(root_groups: RootGroups, target: "_FoldTarget", ts: int,
                te: int) -> bool:
        """:func:`covered` against *target*'s folded label."""
        get = root_groups.get
        for s, hub in target.latest:
            if s < ts:
                break  # no later kept group fits either
            group = get(hub)
            if group is not None:
                r_starts, r_ends = group
                k = bisect_left(r_starts, ts)
                if k < len(r_starts) and r_ends[k] <= te:
                    return True
        return target.new is not None and covered(
            root_groups, target.new, ts, te)


class _KeptDirection:
    """One label direction during a fold: the base entries with
    ``te < tmin``, read in place, and the fold's targets.

    Base hub slot ``g`` keeps ``[interval_offsets[g], kept_end[g])``,
    a prefix of its group; ``cuts`` lists the slots kept less than
    whole.  ``kept_starts[h][v]`` is the start of the last kept entry
    of hub ``h`` at ``v``.
    """

    __slots__ = ("voff", "hubs", "ioff", "starts", "ends", "kept_end",
                 "cuts", "kept_starts", "targets")

    def __init__(self, base: FlatDirection, tmin: int, num_vertices: int):
        # Vertices new since the base have no base slots.
        self.voff = voff = list(base.vertex_offsets) + [base.num_hubs] * (
            num_vertices - base.num_vertices)
        self.ioff = ioff = base.interval_offsets
        # array.extend takes only arrays of its own type and other
        # iterables: a narrow eager-loaded array is read through a
        # memoryview.
        self.hubs, self.starts, self.ends = hubs, starts, ends = [
            memoryview(buf) if getattr(buf, "typecode", want) != want
            else buf for buf, want in ((base.hub_ranks, "i"),
                                       (base.starts, "q"), (base.ends, "q"))]
        self.cuts = [g for g, hi in enumerate(ioff[1:])
                     if ends[hi - 1] >= tmin]
        self.kept_end = kept_end = array("q", ioff[1:])
        for g in self.cuts:
            kept_end[g] = bisect_left(ends, tmin, ioff[g], kept_end[g])
        self.cuts.append(len(kept_end))
        self.kept_starts = [{} for _ in range(num_vertices)]
        self.targets = []
        for v in range(num_vertices):
            g, stop = voff[v], voff[v + 1]
            last = [(starts[k - 1], hub) for hub, lo, k in zip(
                hubs[g:stop], ioff[g:stop], kept_end[g:stop]) if k > lo]
            for s, hub in last:
                self.kept_starts[hub][v] = s
            self.targets.append(_FoldTarget(sorted(last, reverse=True)))

    def flat(self) -> FlatDirection:
        """The folded direction: per vertex and by hub rank, each base
        slot's kept prefix, then the new group of its hub, if any."""
        hubs, ioff, kept_end = self.hubs, self.ioff, self.kept_end
        out = FlatDirection(len(self.targets), array("q", [0]), array("i"),
                            array("q", [0]), array("q"), array("q"))
        for v, target in enumerate(self.targets):
            g, stop = self.voff[v], self.voff[v + 1]
            new = target.new
            for j, hub in enumerate(() if new is None else new.hub_ranks):
                p = bisect_left(hubs, hub, g, stop)
                shared = p < stop and hubs[p] == hub
                if g < p + shared:
                    self._copy(out, g, p + shared)
                lo, hi = new.offsets[j], new.offsets[j + 1]
                out.starts.extend(new.starts[lo:hi])
                out.ends.extend(new.ends[lo:hi])
                if shared and kept_end[p] > ioff[p]:  # after the prefix
                    out.interval_offsets[-1] = len(out.starts)
                else:
                    out.hub_ranks.append(hub)
                    out.interval_offsets.append(len(out.starts))
                g = p + shared
            self._copy(out, g, stop)
            out.vertex_offsets.append(len(out.hub_ranks))
        return out

    def _copy(self, out: FlatDirection, g: int, stop: int) -> None:
        """Append base slots ``[g, stop)`` cut to their kept prefixes,
        empty ones dropped.  The slots up to and including the next cut
        one are contiguous in the base, so each such run is one copy."""
        ioff, kept_end = self.ioff, self.kept_end
        while g < stop:
            c = self.cuts[bisect_left(self.cuts, g)]
            last = stop if c >= stop else c + (kept_end[c] > ioff[c])
            lo = ioff[g]
            hi = kept_end[last - 1] if last > g else lo
            shift = len(out.starts) - lo
            out.hub_ranks.extend(self.hubs[g:last])
            out.interval_offsets.extend([k + shift
                                         for k in kept_end[g:last]])
            out.starts.extend(self.starts[lo:hi])
            out.ends.extend(self.ends[lo:hi])
            g = c + 1


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
