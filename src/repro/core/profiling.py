"""Instrumented query execution: count the work, not just the time.

Wall-clock comparisons (Figs. 4, 9) conflate algorithmic work with
interpreter overhead.  The profiler re-runs Algorithms 4 and 5 with
counters over the index's per-vertex label sets (materialised from the
flat store on first touch), so ablations can report *operations*: hubs
compared during the merge, interval containment checks, prefilter
short-circuits, and which of the three answer conditions fired.  The profiled path is verified
against the production path by tests (identical answers always).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.index import TILLIndex
from repro.core.intervals import (
    Interval,
    IntervalLike,
    as_interval,
    check_vartheta,
    first_contained,
    validate_theta_window,
)
from repro.core.labels import LabelSet


@dataclass
class QueryProfile:
    """Work counters for one span (or θ) query."""

    answer: bool = False
    outcome: str = ""  # same-vertex / prefilter / target-hub / source-hub
    #                    / common-hub / unreachable
    hubs_compared: int = 0
    containment_checks: int = 0
    #: θ queries only: label intervals scanned inside contained runs
    #: (the while-loops of Algorithm 5's conditions (1)-(3)).
    intervals_scanned: int = 0
    out_label_entries: int = 0
    in_label_entries: int = 0

    @property
    def label_entries(self) -> int:
        return self.out_label_entries + self.in_label_entries


@dataclass
class WorkloadProfile:
    """Aggregate counters over a batch of profiled queries."""

    queries: int = 0
    positive: int = 0
    hubs_compared: int = 0
    containment_checks: int = 0
    intervals_scanned: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)

    def add(self, profile: QueryProfile) -> None:
        self.queries += 1
        self.positive += int(profile.answer)
        self.hubs_compared += profile.hubs_compared
        self.containment_checks += profile.containment_checks
        self.intervals_scanned += profile.intervals_scanned
        self.outcomes[profile.outcome] = self.outcomes.get(profile.outcome, 0) + 1

    @property
    def mean_hubs_compared(self) -> float:
        return self.hubs_compared / self.queries if self.queries else 0.0


def _group_index(label: LabelSet, hub_rank: int) -> int:
    """Position of *hub_rank* in the hub array, or ``-1`` when absent."""
    i = bisect_left(label.hub_ranks, hub_rank)
    if i < len(label.hub_ranks) and label.hub_ranks[i] == hub_rank:
        return i
    return -1


def _group_within_counted(
    label: LabelSet, gi: int, window: Interval, profile: QueryProfile
) -> bool:
    profile.containment_checks += 1
    lo, hi = label.offsets[gi], label.offsets[gi + 1]
    return first_contained(label.starts, label.ends, lo, hi, window) >= 0


def _hub_group_within_counted(
    label: LabelSet, hub_rank: int, window: Interval, profile: QueryProfile
) -> bool:
    bounds = label.group_bounds(hub_rank)
    if bounds is None:
        return False
    profile.containment_checks += 1
    lo, hi = bounds
    return first_contained(label.starts, label.ends, lo, hi, window) >= 0


def profile_span_query(
    index: TILLIndex,
    u,
    v,
    interval: IntervalLike,
    prefilter: bool = True,
) -> QueryProfile:
    """Algorithm 4 with work counters; answers match
    :meth:`TILLIndex.span_reachable` exactly (tested)."""
    window = as_interval(interval)
    graph = index.graph
    rank = index.order.rank
    ui = graph.index_of(u)
    vi = graph.index_of(v)
    profile = QueryProfile()
    out_label = index.labels.out_labels[ui]
    in_label = index.labels.in_labels[vi]
    profile.out_label_entries = out_label.num_entries
    profile.in_label_entries = in_label.num_entries

    if ui == vi:
        profile.answer, profile.outcome = True, "same-vertex"
        return profile
    if prefilter and not (
        graph.has_out_edge_in(ui, window.start, window.end)
        and graph.has_in_edge_in(vi, window.start, window.end)
    ):
        profile.answer, profile.outcome = False, "prefilter"
        return profile
    if _hub_group_within_counted(out_label, rank[vi], window, profile):
        profile.answer, profile.outcome = True, "target-hub"
        return profile
    if _hub_group_within_counted(in_label, rank[ui], window, profile):
        profile.answer, profile.outcome = True, "source-hub"
        return profile
    a_hubs, b_hubs = out_label.hub_ranks, in_label.hub_ranks
    i = j = 0
    while i < len(a_hubs) and j < len(b_hubs):
        profile.hubs_compared += 1
        ha, hb = a_hubs[i], b_hubs[j]
        if ha < hb:
            i += 1
        elif ha > hb:
            j += 1
        else:
            if _group_within_counted(out_label, i, window, profile) and \
                    _group_within_counted(in_label, j, window, profile):
                profile.answer, profile.outcome = True, "common-hub"
                return profile
            i += 1
            j += 1
    profile.answer, profile.outcome = False, "unreachable"
    return profile


def _group_within_theta_counted(
    label: LabelSet, gi: int, window: Interval, theta: int,
    profile: QueryProfile,
) -> bool:
    """θ-conditions (1)/(2) of Algorithm 5, counted: a window-contained
    interval of length ≤ θ inside one hub group."""
    profile.containment_checks += 1
    lo, hi = label.offsets[gi], label.offsets[gi + 1]
    starts, ends = label.starts, label.ends
    k = first_contained(starts, ends, lo, hi, window)
    if k < 0:
        return False
    we = window.end
    while k < hi and ends[k] <= we:
        profile.intervals_scanned += 1
        if ends[k] - starts[k] + 1 <= theta:
            return True
        k += 1
    return False


def _sliding_window_pair_counted(
    out_label: LabelSet, gi: int, in_label: LabelSet, gj: int,
    window: Interval, theta: int, profile: QueryProfile,
) -> bool:
    """θ-condition (3) of Algorithm 5 for one common hub, counted: the
    sliding two-pointer pass over both window-contained runs."""
    o_lo, o_hi = out_label.offsets[gi], out_label.offsets[gi + 1]
    i_lo, i_hi = in_label.offsets[gj], in_label.offsets[gj + 1]
    os_, oe = out_label.starts, out_label.ends
    is_, ie = in_label.starts, in_label.ends
    profile.containment_checks += 2
    k = first_contained(os_, oe, o_lo, o_hi, window)
    kp = first_contained(is_, ie, i_lo, i_hi, window)
    if k < 0 or kp < 0:
        return False
    we = window.end
    while k < o_hi and kp < i_hi and oe[k] <= we and ie[kp] <= we:
        profile.intervals_scanned += 1
        span = max(oe[k], ie[kp]) - min(os_[k], is_[kp]) + 1
        if span <= theta:
            return True
        if os_[k] <= is_[kp]:
            k += 1
        else:
            kp += 1
    return False


def profile_theta_query(
    index: TILLIndex,
    u,
    v,
    interval: IntervalLike,
    theta: int,
    prefilter: bool = True,
) -> QueryProfile:
    """Algorithm 5 (``ES-Reach*``) with work counters; answers match
    :meth:`TILLIndex.theta_reachable` exactly (tested).

    Validation mirrors the facade: ``theta`` must be positive, fit in
    the window, and respect a build-time ϑ cap.
    """
    window = validate_theta_window(as_interval(interval), theta)
    check_vartheta(index.vartheta, theta)
    graph = index.graph
    rank = index.order.rank
    ui = graph.index_of(u)
    vi = graph.index_of(v)
    profile = QueryProfile()
    out_label = index.labels.out_labels[ui]
    in_label = index.labels.in_labels[vi]
    profile.out_label_entries = out_label.num_entries
    profile.in_label_entries = in_label.num_entries

    if ui == vi:
        profile.answer, profile.outcome = True, "same-vertex"
        return profile
    if prefilter and not (
        graph.has_out_edge_in(ui, window.start, window.end)
        and graph.has_in_edge_in(vi, window.start, window.end)
    ):
        profile.answer, profile.outcome = False, "prefilter"
        return profile
    gi = _group_index(out_label, rank[vi])
    if gi >= 0 and _group_within_theta_counted(
        out_label, gi, window, theta, profile
    ):
        profile.answer, profile.outcome = True, "target-hub"
        return profile
    gj = _group_index(in_label, rank[ui])
    if gj >= 0 and _group_within_theta_counted(
        in_label, gj, window, theta, profile
    ):
        profile.answer, profile.outcome = True, "source-hub"
        return profile
    a_hubs, b_hubs = out_label.hub_ranks, in_label.hub_ranks
    i = j = 0
    while i < len(a_hubs) and j < len(b_hubs):
        profile.hubs_compared += 1
        ha, hb = a_hubs[i], b_hubs[j]
        if ha < hb:
            i += 1
        elif ha > hb:
            j += 1
        else:
            if _sliding_window_pair_counted(
                out_label, i, in_label, j, window, theta, profile
            ):
                profile.answer, profile.outcome = True, "common-hub"
                return profile
            i += 1
            j += 1
    profile.answer, profile.outcome = False, "unreachable"
    return profile


def profile_workload(
    index: TILLIndex,
    queries: Iterable[Tuple],
    prefilter: bool = True,
    theta: Optional[int] = None,
) -> WorkloadProfile:
    """Profile a batch of ``(u, v, interval)`` queries.

    With ``theta`` set, every query is profiled through the θ path
    (:func:`profile_theta_query`) instead of the span path.
    """
    aggregate = WorkloadProfile()
    for u, v, interval in queries:
        if theta is None:
            profile = profile_span_query(index, u, v, interval, prefilter)
        else:
            profile = profile_theta_query(
                index, u, v, interval, theta, prefilter
            )
        aggregate.add(profile)
    return aggregate
