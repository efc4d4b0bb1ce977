"""Differential checking: every answer path must agree, always.

The TILL-Index's correctness claim (Theorems 1-5) is *exact* agreement
between the label merge and BFS over the projected graph.  This module
enforces it by running every implementation of the same query and
comparing answers:

* span: :meth:`TILLIndex.span_reachable` (prefilter on **and** off),
  :func:`online_span_reachable`, :func:`span_reaches_bruteforce`,
  :func:`profile_span_query`, :meth:`TILLIndex.span_reachable_many`,
  :meth:`TILLIndex.explain` and :meth:`TILLIndex.witness_path`;
* θ: sliding (Algorithm 5) vs naive vs online vs brute force, plus
  :meth:`TILLIndex.explain_theta`;
* ϑ-capped indexes: over-cap windows must raise
  :class:`UnsupportedIntervalError` without a fallback and agree with
  brute force through ``fallback="online"`` (scalar and batch);
* :func:`minimal_windows`: an antichain whose every member answers
  ``True`` and whose one-timestamp shrinkings answer ``False`` (within
  the documented ϑ completeness guarantee);
* sharded: every :class:`~repro.shard.ShardedTILLIndex` answer —
  contained, stitched and fallback routes, scalar and batch — against
  the monolithic index, the online BFS and the brute-force oracle
  (:func:`check_sharded_index`);
* flat: every validated query entry point of :mod:`repro.core.queries`
  (span, θ sliding and naive, prefilter on and off) and the batch
  kernels, over the index's in-memory
  :class:`~repro.core.flatstore.FlatTILLStore` and over its format-3
  save → mmap-load round trip — the mapped store against the in-memory
  one on every window, both against the brute-force oracle within the
  ϑ cap (:func:`check_flat_index`);
* incremental: an :class:`~repro.core.incremental.IncrementalTILLIndex`
  under a stream of inserts and removals, span and θ against the
  oracle on the live edge set and a from-scratch build, and after each
  rebuild (a fold or a full build) its flat label arrays byte for byte
  against a from-scratch build under the same vertex order
  (:func:`check_incremental`).

Disagreements come back as :class:`Mismatch` records; :func:`replay`
re-runs exactly the family of checks that produced a mismatch (a flat
batch mismatch with its recorded batch), which is what lets the
shrinker test candidate subgraphs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.flatstore import ARRAY_FIELDS
from repro.core.intervals import Interval, as_interval
from repro.core.online import online_span_reachable, online_theta_reachable
from repro.errors import UnsupportedIntervalError
from repro.graph.projection import (
    span_reaches_bruteforce,
    theta_reaches_bruteforce,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import TILLIndex

_POSITIVE_KINDS = frozenset(
    {"same-vertex", "target-hub", "source-hub", "common-hub"}
)
_NEGATIVE_KINDS = frozenset({"prefilter", "unreachable"})


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between two answer paths for the same query."""

    check: str  # e.g. "span:online", "theta:naive", "windows:minimal"
    detail: str
    u: object = None
    v: object = None
    window: Optional[Tuple[int, int]] = None
    theta: Optional[int] = None
    #: ``(num_shards, policy, stitch_limit)`` for ``shard:*`` checks —
    #: what :func:`replay` needs to rebuild the sharded index.
    shard_config: Optional[Tuple[int, str, int]] = None
    #: The ``(u, v)`` label pairs of the batch for ``*-batch`` checks
    #: over more than one pair — what :func:`replay` re-runs, since a
    #: fault in per-source run reuse does not show in a one-pair batch.
    batch: Optional[Tuple[Tuple[object, object], ...]] = None

    def __str__(self) -> str:
        query = ""
        if self.u is not None or self.v is not None:
            query = f" for {self.u!r} -> {self.v!r}"
        if self.window is not None:
            query += f" in [{self.window[0]}, {self.window[1]}]"
        if self.theta is not None:
            query += f" theta={self.theta}"
        return f"[{self.check}]{query}: {self.detail}"


def _mismatch(found, check, detail, u=None, v=None, window=None, theta=None,
              shard_config=None, batch=None):
    w = None if window is None else (window[0], window[1])
    found.append(Mismatch(check, detail, u=u, v=v, window=w, theta=theta,
                          shard_config=shard_config, batch=batch))


# ----------------------------------------------------------------------
# span queries
# ----------------------------------------------------------------------


def check_span_query(
    index: "TILLIndex", u, v, window: Tuple[int, int]
) -> List[Mismatch]:
    """Every span-query answer path for ``u -> v`` in *window*."""
    win = as_interval(window)
    graph = index.graph
    found: List[Mismatch] = []
    want = span_reaches_bruteforce(graph, u, v, win)
    ui, vi = graph.index_of(u), graph.index_of(v)

    got_online = online_span_reachable(graph, ui, vi, win)
    if got_online != want:
        _mismatch(found, "span:online",
                  f"online={got_online}, oracle={want}", u, v, win)

    over_cap = index.vartheta is not None and win.length > index.vartheta
    if over_cap:
        try:
            index.span_reachable(u, v, win)
            _mismatch(found, "span:cap-raise",
                      f"window length {win.length} exceeds vartheta="
                      f"{index.vartheta} but no UnsupportedIntervalError "
                      "was raised", u, v, win)
        except UnsupportedIntervalError:
            pass
        got = index.span_reachable(u, v, win, fallback="online")
        if got != want:
            _mismatch(found, "span:online-fallback",
                      f"fallback={got}, oracle={want}", u, v, win)
        batch = index.span_reachable_many([(u, v)], win, fallback="online")
        if batch != [want]:
            _mismatch(found, "span:batch-fallback",
                      f"batch={batch[0]}, oracle={want}", u, v, win)
        return found

    got = index.span_reachable(u, v, win)
    if got != want:
        _mismatch(found, "span:index",
                  f"index={got}, oracle={want}", u, v, win)
    got_nopre = index.span_reachable(u, v, win, prefilter=False)
    if got_nopre != want:
        _mismatch(found, "span:prefilter-off",
                  f"prefilter-off={got_nopre}, oracle={want}", u, v, win)
    batch = index.span_reachable_many([(u, v)], win)
    if batch != [want]:
        _mismatch(found, "span:batch",
                  f"batch={batch[0]}, oracle={want}", u, v, win)

    from repro.core.profiling import profile_span_query

    prof = profile_span_query(index, u, v, win)
    if prof.answer != want:
        _mismatch(found, "span:profiled",
                  f"profiled={prof.answer} (outcome={prof.outcome}), "
                  f"oracle={want}", u, v, win)

    explanation = index.explain(u, v, win)
    if explanation["reachable"] != want:
        _mismatch(found, "span:explain",
                  f"explain={explanation['reachable']}, oracle={want}",
                  u, v, win)
    kind = explanation["kind"]
    expected_kinds = _POSITIVE_KINDS if explanation["reachable"] \
        else _NEGATIVE_KINDS
    if kind not in expected_kinds:
        _mismatch(found, "span:explain-kind",
                  f"kind {kind!r} inconsistent with "
                  f"reachable={explanation['reachable']}", u, v, win)
    for side in ("out_interval", "in_interval"):
        iv = explanation[side]
        if iv is not None and not win.contains(iv):
            _mismatch(found, "span:explain-interval",
                      f"{side} {iv} not contained in the query window",
                      u, v, win)

    path = index.witness_path(u, v, win)
    if (path is not None) != want:
        _mismatch(found, "span:witness-path",
                  f"witness path {'found' if path is not None else 'missing'}"
                  f" but oracle={want}", u, v, win)
    elif path:
        if any(not win.contains_time(t) for _a, _b, t in path):
            _mismatch(found, "span:witness-path",
                      f"witness path {path} uses an edge outside the window",
                      u, v, win)
        elif path[0][0] != u or path[-1][1] != v:
            _mismatch(found, "span:witness-path",
                      f"witness path {path} does not connect the endpoints",
                      u, v, win)
    return found


# ----------------------------------------------------------------------
# theta queries
# ----------------------------------------------------------------------


def check_theta_query(
    index: "TILLIndex", u, v, window: Tuple[int, int], theta: int
) -> List[Mismatch]:
    """Every θ-query answer path for ``u -> v`` in *window*."""
    win = as_interval(window)
    graph = index.graph
    found: List[Mismatch] = []
    want = theta_reaches_bruteforce(graph, u, v, win, theta)
    ui, vi = graph.index_of(u), graph.index_of(v)

    got_online = online_theta_reachable(graph, ui, vi, win, theta)
    if got_online != want:
        _mismatch(found, "theta:online",
                  f"online={got_online}, oracle={want}", u, v, win, theta)

    if index.vartheta is not None and theta > index.vartheta:
        try:
            index.theta_reachable(u, v, win, theta)
            _mismatch(found, "theta:cap-raise",
                      f"theta={theta} exceeds vartheta={index.vartheta} but "
                      "no UnsupportedIntervalError was raised",
                      u, v, win, theta)
        except UnsupportedIntervalError:
            pass
        return found

    sliding = index.theta_reachable(u, v, win, theta)
    if sliding != want:
        _mismatch(found, "theta:sliding",
                  f"sliding={sliding}, oracle={want}", u, v, win, theta)
    naive = index.theta_reachable(u, v, win, theta, algorithm="naive")
    if naive != want:
        _mismatch(found, "theta:naive",
                  f"naive={naive}, oracle={want}", u, v, win, theta)
    nopre = index.theta_reachable(u, v, win, theta, prefilter=False)
    if nopre != want:
        _mismatch(found, "theta:prefilter-off",
                  f"prefilter-off={nopre}, oracle={want}", u, v, win, theta)

    explanation = index.explain_theta(u, v, win, theta)
    if explanation["reachable"] != want:
        _mismatch(found, "theta:explain",
                  f"explain={explanation['reachable']}, oracle={want}",
                  u, v, win, theta)
    elif want and explanation["window"] is not None:
        ws, we = explanation["window"]
        if we - ws + 1 != theta or not win.contains((ws, we)):
            _mismatch(found, "theta:explain-window",
                      f"witness window [{ws}, {we}] is not a θ-length "
                      "subwindow of the query", u, v, win, theta)
        elif not span_reaches_bruteforce(graph, u, v, (ws, we)):
            _mismatch(found, "theta:explain-window",
                      f"witness window [{ws}, {we}] does not span-connect "
                      "the pair", u, v, win, theta)
    return found


# ----------------------------------------------------------------------
# minimal windows
# ----------------------------------------------------------------------


def check_pair_windows(index: "TILLIndex", u, v) -> List[Mismatch]:
    """The pair-skyline contract of :func:`minimal_windows` for one pair.

    Every member must be a true reachability window agreeing with both
    the index and the brute-force oracle, the members must form an
    antichain, and shrinking any member by one timestamp on either side
    must lose reachability — the minimality half.  With a build-time ϑ
    cap the minimality assertion only applies to shrunk windows of
    length ≤ ϑ (see the completeness caveat in :mod:`repro.core.windows`).
    """
    from repro.core.windows import minimal_windows

    graph = index.graph
    found: List[Mismatch] = []
    if graph.index_of(u) == graph.index_of(v):
        return found
    windows = minimal_windows(index, u, v)

    prev: Optional[Interval] = None
    for win in windows:
        if prev is not None and (win.start <= prev.start or win.end <= prev.end):
            _mismatch(found, "windows:antichain",
                      f"members {prev} and {win} are not a sorted antichain",
                      u, v)
        prev = win

    cap = index.vartheta
    for win in windows:
        if not span_reaches_bruteforce(graph, u, v, win):
            _mismatch(found, "windows:member",
                      f"member {win} is not a reachability window", u, v, win)
            continue
        if not index.span_reachable(u, v, win, fallback="online"):
            _mismatch(found, "windows:member-index",
                      f"index disagrees with its own minimal window {win}",
                      u, v, win)
        for shrunk in (
            Interval(win.start + 1, win.end),
            Interval(win.start, win.end - 1),
        ):
            if shrunk.start > shrunk.end:
                continue
            if cap is not None and shrunk.length > cap:
                # Minimality is only guaranteed within the cap: the
                # over-cap certificates that could witness the shrunk
                # window were never indexed.
                continue
            if span_reaches_bruteforce(graph, u, v, shrunk):
                _mismatch(found, "windows:minimal",
                          f"member {win} is not minimal: {shrunk} still "
                          "reaches", u, v, win)
    return found


# ----------------------------------------------------------------------
# sharded vs monolithic
# ----------------------------------------------------------------------


def _shard_cfg(sharded) -> Tuple[int, str, int]:
    return (
        sharded.partition.num_shards,
        sharded.partition.policy,
        sharded.stitch_limit,
    )


def check_sharded_span(
    sharded, reference: "TILLIndex", u, v, window: Tuple[int, int]
) -> List[Mismatch]:
    """One span query through the sharded router vs the monolithic
    index, the online BFS and the brute-force oracle (scalar + batch).

    *sharded* and *reference* must share the graph and ϑ cap.
    """
    win = as_interval(window)
    graph = reference.graph
    found: List[Mismatch] = []
    cfg = _shard_cfg(sharded)
    route = sharded.plan_span(win).route
    want = span_reaches_bruteforce(graph, u, v, win)

    if reference.vartheta is not None and win.length > reference.vartheta:
        try:
            sharded.span_reachable(u, v, win)
            _mismatch(found, "shard:cap-raise",
                      f"window length {win.length} exceeds vartheta="
                      f"{reference.vartheta} but no UnsupportedIntervalError "
                      "was raised", u, v, win, shard_config=cfg)
        except UnsupportedIntervalError:
            pass
        got = sharded.span_reachable(u, v, win, fallback="online")
        if got != want:
            _mismatch(found, "shard:span-fallback",
                      f"sharded fallback={got}, oracle={want}", u, v, win,
                      shard_config=cfg)
        batch = sharded.span_reachable_many([(u, v)], win, fallback="online")
        if batch != [want]:
            _mismatch(found, "shard:span-batch",
                      f"sharded batch fallback={batch[0]}, oracle={want}",
                      u, v, win, shard_config=cfg)
        return found

    mono = reference.span_reachable(u, v, win)
    got = sharded.span_reachable(u, v, win)
    if got != mono:
        _mismatch(found, "shard:span",
                  f"sharded={got} (route={route}), monolithic={mono}",
                  u, v, win, shard_config=cfg)
    if got != want:
        _mismatch(found, "shard:span-oracle",
                  f"sharded={got} (route={route}), oracle={want}",
                  u, v, win, shard_config=cfg)
    ui, vi = graph.index_of(u), graph.index_of(v)
    if got != online_span_reachable(graph, ui, vi, win):
        _mismatch(found, "shard:span-online",
                  f"sharded={got} (route={route}) disagrees with the online "
                  "BFS", u, v, win, shard_config=cfg)
    batch = sharded.span_reachable_many([(u, v)], win)
    if batch != [want]:
        _mismatch(found, "shard:span-batch",
                  f"sharded batch={batch[0]} (route={route}), oracle={want}",
                  u, v, win, shard_config=cfg)
    return found


def check_sharded_theta(
    sharded, reference: "TILLIndex", u, v, window: Tuple[int, int], theta: int
) -> List[Mismatch]:
    """One θ query through the sharded router vs the monolithic index
    and the brute-force oracle (scalar + batch)."""
    win = as_interval(window)
    graph = reference.graph
    found: List[Mismatch] = []
    cfg = _shard_cfg(sharded)

    if reference.vartheta is not None and theta > reference.vartheta:
        try:
            sharded.theta_reachable(u, v, win, theta)
            _mismatch(found, "shard:theta-cap-raise",
                      f"theta={theta} exceeds vartheta={reference.vartheta} "
                      "but no UnsupportedIntervalError was raised",
                      u, v, win, theta, shard_config=cfg)
        except UnsupportedIntervalError:
            pass
        return found

    want = theta_reaches_bruteforce(graph, u, v, win, theta)
    mono = reference.theta_reachable(u, v, win, theta)
    got = sharded.theta_reachable(u, v, win, theta)
    route = sharded.planner.plan_theta(win, theta).route
    if got != mono:
        _mismatch(found, "shard:theta",
                  f"sharded={got} (route={route}), monolithic={mono}",
                  u, v, win, theta, shard_config=cfg)
    if got != want:
        _mismatch(found, "shard:theta-oracle",
                  f"sharded={got} (route={route}), oracle={want}",
                  u, v, win, theta, shard_config=cfg)
    batch = sharded.theta_reachable_many([(u, v)], win, theta)
    if batch != [want]:
        _mismatch(found, "shard:theta-batch",
                  f"sharded batch={batch[0]} (route={route}), oracle={want}",
                  u, v, win, theta, shard_config=cfg)
    return found


def check_sharded_index(
    sharded,
    reference: "TILLIndex",
    samples: int = 100,
    seed: int = 0,
    theta_samples: Optional[int] = None,
    first_failure: bool = False,
) -> List[Mismatch]:
    """Randomized sharded-vs-monolithic sweep.

    Window sampling is stratified so every routing path is exercised:
    contained (inside a random slice), straddling (across a random
    slice boundary), and unconstrained windows that overshoot the
    lifetime and any ϑ cap; a fraction of the straddling queries run
    with ``stitch_limit`` forced to 0 so the online-BFS fallback route
    is hit deterministically.  The limit is restored afterwards.
    """
    graph = reference.graph
    n = graph.num_vertices
    if n < 2 or graph.min_time is None:
        return []
    if theta_samples is None:
        theta_samples = max(1, samples // 3)
    rng = random.Random(seed)
    lo, hi = graph.min_time, graph.max_time
    lifetime = graph.lifetime
    part = sharded.partition
    found: List[Mismatch] = []

    def _contained_window() -> Interval:
        s = part.slices[rng.randrange(part.num_shards)]
        a = rng.randint(s.t_start, s.t_end)
        return Interval(a, rng.randint(a, s.t_end))

    def _straddling_window() -> Interval:
        if part.num_shards < 2:
            return _contained_window()
        boundary = part.slices[rng.randrange(part.num_shards - 1)].t_end
        return Interval(rng.randint(lo - 1, boundary),
                        rng.randint(boundary + 1, hi + 1))

    def _random_window() -> Interval:
        length = rng.randint(1, lifetime + 2)
        start = rng.randint(lo - 2, hi + 1)
        return Interval(start, start + length - 1)

    old_limit = sharded.stitch_limit
    try:
        for _ in range(samples):
            u = graph.label_of(rng.randrange(n))
            v = graph.label_of(rng.randrange(n))
            dice = rng.random()
            if dice < 0.35:
                win = _contained_window()
            elif dice < 0.70:
                win = _straddling_window()
            else:
                win = _random_window()
            sharded.stitch_limit = 0 if rng.random() < 0.25 else old_limit
            found.extend(check_sharded_span(sharded, reference, u, v, win))
            if found and first_failure:
                return found[:1]

        for _ in range(theta_samples):
            u = graph.label_of(rng.randrange(n))
            v = graph.label_of(rng.randrange(n))
            win = _contained_window() if rng.random() < 0.4 \
                else _straddling_window()
            theta = rng.randint(1, win.length)
            sharded.stitch_limit = 0 if rng.random() < 0.25 else old_limit
            found.extend(
                check_sharded_theta(sharded, reference, u, v, win, theta)
            )
            if found and first_failure:
                return found[:1]
    finally:
        sharded.stitch_limit = old_limit
    return found


def check_sharded_query(
    index: "TILLIndex",
    u,
    v,
    window: Tuple[int, int],
    theta: Optional[int] = None,
    num_shards: int = 2,
    policy: str = "equal-edges",
    stitch_limit: int = 64,
) -> List[Mismatch]:
    """Rebuild a sharded index over ``index.graph`` and check one query.

    The self-contained entry point used by :func:`replay` and the
    shrinker's emitted pytest repros — everything needed to reproduce a
    ``shard:*`` mismatch is in the arguments.
    """
    from repro.shard import ShardedTILLIndex

    sharded = ShardedTILLIndex.build(
        index.graph, num_shards=num_shards, policy=policy,
        vartheta=index.vartheta, stitch_limit=stitch_limit,
    )
    if theta is None:
        return check_sharded_span(sharded, index, u, v, window)
    return check_sharded_theta(sharded, index, u, v, window, theta)


# ----------------------------------------------------------------------
# flat store: the mmap round trip vs the in-memory store vs the oracle
# ----------------------------------------------------------------------


def _mapped_store(index: "TILLIndex"):
    """``index.flat`` round-tripped through a format-3 ``.till`` file
    and mmap-loaded, so the serialized layout and the zero-copy reader
    are part of the differential surface.  The temp file is unlinked
    immediately — on POSIX the mapping stays valid.
    """
    import os
    import tempfile

    from repro.core.serialization import load_flat_store

    fd, path = tempfile.mkstemp(suffix=".till", prefix="fuzz-flat-")
    os.close(fd)
    try:
        index.save(path, format=3)
        store, _header = load_flat_store(path, use_mmap=True)
    finally:
        os.unlink(path)
    return store


def _store_answers(graph, store, rank, ui, vi, win, theta) -> dict:
    """Every validated answer path for one query on one store, keyed by
    check family (``span`` / ``theta`` first, then its variants)."""
    from repro.core import queries

    if theta is None:
        return {
            "span": queries.span_reachable(graph, store, rank, ui, vi, win),
            "span-noprefilter": queries.span_reachable(
                graph, store, rank, ui, vi, win, prefilter=False
            ),
        }
    return {
        "theta": queries.theta_reachable(graph, store, rank, ui, vi, win,
                                         theta),
        "theta-naive": queries.theta_reachable_naive(
            graph, store, rank, ui, vi, win, theta
        ),
        "theta-noprefilter": queries.theta_reachable(
            graph, store, rank, ui, vi, win, theta, prefilter=False
        ),
    }


def _check_flat(index, mapped, u, v, win, theta, found) -> None:
    """One query on the in-memory store (``flat:*`` checks) and on the
    mmap round-trip store (``flatio:*`` checks).

    * ``flat:<variant>`` — a variant (naive θ, prefilter off) disagrees
      with the in-memory store's main answer; ``flat:span`` /
      ``flat:theta`` — the main answer disagrees with the profiler's
      label-set implementation of Algorithms 4/5 (span on every
      window: both read the same labels, so they agree even past the
      ϑ cap; θ within the cap, where the profiler accepts the query);
    * ``flatio:<family>`` — the mapped store disagrees with the
      in-memory store on that family, on every window;
    * ``<prefix>:<kind>-oracle`` — a store disagrees with the
      brute-force oracle within the ϑ cap (over-cap windows were never
      fully indexed).
    """
    from repro.core.profiling import profile_span_query, profile_theta_query

    graph = index.graph
    rank = index.order.rank
    ui, vi = graph.index_of(u), graph.index_of(v)
    kind = "span" if theta is None else "theta"
    mem = _store_answers(graph, index.flat, rank, ui, vi, win, theta)
    io = _store_answers(graph, mapped, rank, ui, vi, win, theta)
    got = mem[kind]
    for family, answer in mem.items():
        if family != kind and answer != got:
            _mismatch(found, "flat:" + family,
                      f"{family}={answer}, {kind}={got}", u, v, win, theta)
    for family, answer in io.items():
        if answer != mem[family]:
            _mismatch(found, "flatio:" + family,
                      f"mapped={answer}, in-memory={mem[family]}",
                      u, v, win, theta)
    needed = win.length if theta is None else theta
    within_cap = index.vartheta is None or needed <= index.vartheta
    if theta is None or within_cap:
        if theta is None:
            labels = profile_span_query(index, u, v, win).answer
        else:
            labels = profile_theta_query(index, u, v, win, theta).answer
        if labels != got:
            _mismatch(found, "flat:" + kind,
                      f"flat={got}, label sets={labels}", u, v, win, theta)
    if within_cap:
        if theta is None:
            want = span_reaches_bruteforce(graph, u, v, win)
        else:
            want = theta_reaches_bruteforce(graph, u, v, win, theta)
        for prefix, answer in (("flat:", got), ("flatio:", io[kind])):
            if answer != want:
                _mismatch(found, prefix + kind + "-oracle",
                          f"{prefix[:-1]}={answer}, oracle={want}",
                          u, v, win, theta)


def _interleaving(n: int) -> List[int]:
    """A seeded order of ``range(n)`` that keeps short runs and
    interleaves them: cut into chunks of one to three consecutive
    positions, shuffled.  Over by-source pairs, a source's run is split
    and re-entered after another's (``u, u, w, u, u``)."""
    rng = random.Random(f"interleave:{n}")
    chunks = []
    k = 0
    while k < n:
        step = rng.randint(1, 3)
        chunks.append(range(k, min(n, k + step)))
        k += step
    rng.shuffle(chunks)
    return [k for chunk in chunks for k in chunk]


def _check_flat_batch(index, mapped, pairs, win, theta, found) -> None:
    """A wide batch through the batch kernels: each in-memory answer
    must match the one-query entry point (``flat:<kind>-batch``) and
    the mapped store's batch must match the in-memory one
    (``flatio:<kind>-batch``).  Repeated sources exercise the kernels'
    per-source run reuse, which single-pair probes cannot, so a
    mismatch in a batch of several pairs records them all.  The batch
    runs as given and then in an :func:`_interleaving` of its pairs,
    so a per-source state must also survive a source re-entering; the
    first order that mismatches is the one recorded."""
    from repro.core import queries

    graph = index.graph
    rank = index.order.rank
    store = index.flat
    if theta is None:
        kind = "span"
        single = [queries.span_reachable(graph, store, rank, ui, vi, win)
                  for ui, vi in pairs]

        def run(s, batch_pairs):
            return queries.flat_span_batch(s, rank, batch_pairs,
                                           win.start, win.end)
    else:
        kind = "theta"
        single = [queries.theta_reachable(graph, store, rank, ui, vi, win,
                                          theta)
                  for ui, vi in pairs]

        def run(s, batch_pairs):
            return queries.flat_theta_batch(s, rank, batch_pairs,
                                            win.start, win.end, theta)
    orders = [range(len(pairs))]
    if len(pairs) > 2:
        orders.append(_interleaving(len(pairs)))
    before = len(found)
    for order in orders:
        ordered = [pairs[k] for k in order]
        mem = run(store, ordered)
        io = run(mapped, ordered)
        batch = None
        if len(ordered) > 1:
            batch = tuple((graph.label_of(ui), graph.label_of(vi))
                          for ui, vi in ordered)
        for prefix, answers, reference, what in (
            ("flat:", mem, [single[k] for k in order], "one-query"),
            ("flatio:", io, mem, "in-memory batch"),
        ):
            for (ui, vi), got, want in zip(ordered, answers, reference):
                if got != want:
                    _mismatch(found, prefix + kind + "-batch",
                              f"batch={got}, {what}={want} "
                              f"(in batch of {len(ordered)})",
                              graph.label_of(ui), graph.label_of(vi), win,
                              theta, batch=batch)
                    break
        if len(found) > before:
            return


def check_flat_query(
    index: "TILLIndex",
    u,
    v,
    window: Tuple[int, int],
    theta: Optional[int] = None,
    batch: Optional[Sequence[Tuple[object, object]]] = None,
) -> List[Mismatch]:
    """Check one query on the index's in-memory flat store and on its
    format-3 save → mmap-load round trip (see :func:`_check_flat`).

    The self-contained entry point used by :func:`replay` and the
    shrinker's emitted pytest repros: the mapped store is rebuilt on
    every call, so a mismatch reproduces from nothing but the graph and
    the query.  The batch kernels run over *batch* (label pairs; those
    naming a vertex missing from the graph, or a vertex twice, are
    skipped) or, without it, over the one pair ``(u, v)``.
    """
    graph = index.graph
    win = as_interval(window)
    mapped = _mapped_store(index)
    found: List[Mismatch] = []
    _check_flat(index, mapped, u, v, win, theta, found)
    if batch is None:
        batch = [(u, v)]
    pairs = [(graph.index_of(a), graph.index_of(b)) for a, b in batch
             if a in graph and b in graph and a != b]
    if pairs:
        _check_flat_batch(index, mapped, pairs, win, theta, found)
    return found


def check_flat_index(
    index: "TILLIndex",
    samples: int = 100,
    seed: int = 0,
    theta_samples: Optional[int] = None,
    first_failure: bool = False,
) -> List[Mismatch]:
    """Randomized sweep of the in-memory flat store against its mmap
    round trip and the oracles.

    Windows deliberately overshoot the lifetime and any ϑ cap — the
    mapped store must track the in-memory one bit-for-bit everywhere,
    while the oracle comparison only applies within the cap (over-cap
    windows were never fully indexed).  One mapped store is built up
    front and reused for the whole sweep, mirroring how the serving
    layer holds it.
    """
    graph = index.graph
    n = graph.num_vertices
    if n < 2 or graph.min_time is None:
        return []
    if theta_samples is None:
        theta_samples = max(1, samples // 3)
    rng = random.Random(f"flat:{seed}")
    lo, hi = graph.min_time, graph.max_time
    lifetime = graph.lifetime
    mapped = _mapped_store(index)
    found: List[Mismatch] = []

    for _ in range(samples):
        u = graph.label_of(rng.randrange(n))
        v = graph.label_of(rng.randrange(n))
        length = rng.randint(1, lifetime + 2)
        start = rng.randint(lo - 2, hi + 1)
        win = Interval(start, start + length - 1)
        _check_flat(index, mapped, u, v, win, None, found)
        if found and first_failure:
            return found[:1]

    for _ in range(theta_samples):
        u = graph.label_of(rng.randrange(n))
        v = graph.label_of(rng.randrange(n))
        length = rng.randint(1, max(1, lifetime))
        start = rng.randint(lo - 2, hi + 1)
        win = Interval(start, start + length - 1)
        theta = rng.randint(1, win.length)
        _check_flat(index, mapped, u, v, win, theta, found)
        if found and first_failure:
            return found[:1]

    pairs = []
    for _ in range(min(4 * samples, 8 * n)):
        ui, vi = rng.randrange(n), rng.randrange(n)
        if ui != vi:
            pairs.append((ui, vi))
    pairs.sort()  # adjacent duplicates share a source run
    if pairs:
        length = rng.randint(1, lifetime + 1)
        start = rng.randint(lo - 1, hi)
        win = Interval(start, start + length - 1)
        theta = rng.randint(1, win.length)
        _check_flat_batch(index, mapped, pairs, win, None, found)
        _check_flat_batch(index, mapped, pairs, win, theta, found)
    if found and first_failure:
        return found[:1]
    return found


# ----------------------------------------------------------------------
# incremental index under a mutation stream
# ----------------------------------------------------------------------


#: span and θ query draws after each mutation of :func:`check_incremental`
MUTATION_QUERIES = 4
#: every this many mutations, :func:`check_incremental` also compares
#: against a from-scratch build
_FRESH_EVERY = 3


def check_incremental(
    graph, vartheta: Optional[int], seed: int,
    rebuilds: Optional[Counter] = None,
) -> List[Mismatch]:
    """Stream *graph* into an :class:`IncrementalTILLIndex` and check it
    after every mutation.

    The index is built over a time-ordered prefix of the edges with a
    small rebuild threshold; the rest arrive in time order.  Seeds
    ≡ 0 (mod 3) interleave them with ``remove_edge`` of live edges,
    both base and still-buffered; seeds ≡ 1 stream inserts only and
    seeds ≡ 2 remove only still-buffered edges.  The last two leave no
    tombstone pending, so their rebuilds mostly fold.
    After each mutation, :data:`MUTATION_QUERIES` span and θ queries on
    seeded windows must match the brute-force oracle on the live edge
    set, and every few mutations a from-scratch :class:`TILLIndex` over
    that set must agree with the incremental index on the span queries.
    After every rebuild the base index's flat arrays must equal those
    of :meth:`TILLIndex.build` on its graph under its vertex order
    (``incremental:fold``): a fold keeps the order, so this is what
    shows a fold that differs from Algorithm 3.
    Span windows past the ϑ cap go through ``fallback="online"``.
    Deterministic in *seed*; the first mismatch ends the stream.  When
    given, *rebuilds* counts the stream's ``"folds"``, its
    ``"full_builds"`` and those by reason
    (``IncrementalTILLIndex.full_build_reasons``).
    """
    from repro.core.incremental import IncrementalTILLIndex
    from repro.core.index import TILLIndex
    from repro.fuzz.profiles import _rebuild

    edges = sorted(graph.edges(), key=lambda e: e[2])
    if len(edges) < 2:
        return []
    rng = random.Random(f"incremental:{seed}")
    directed = graph.directed
    mode = seed % 3  # 0: mixed removals, 1: inserts only, 2: buffered only
    # The fold-heavy modes start from a base of at least a third of the
    # edges and rebuild every 2-3 mutations, so that many small folds
    # run before the folded edges reach half the base (a re-order).
    first = max(1, len(edges) // 3) if mode else 1
    cut = rng.randint(first, len(edges) - 1)
    live, stream = edges[:cut], edges[cut:]
    seen = list(dict.fromkeys(x for e in live for x in e[:2]))
    inc = IncrementalTILLIndex(
        _rebuild(seen, live, directed),
        rebuild_threshold=rng.randint(2, 3 if mode else 8),
        vartheta=vartheta,
    )
    lo, hi = graph.min_time, graph.max_time
    found: List[Mismatch] = []
    step = 0
    buffered: List[tuple] = []  # edges added since the last rebuild

    def mutations():
        for edge in stream:
            yield "add", edge
            if mode != 1 and rng.random() < 0.4:
                if mode == 2:
                    pool = buffered
                else:  # recent edges are likely still buffered, old ones base
                    pool = live[-3:] if rng.random() < 0.5 else live[:-3]
                if pool:
                    yield "remove", rng.choice(pool)

    for kind, edge in mutations():
        step += 1
        before = inc.rebuilds
        if kind == "add":
            inc.add_edge(*edge)
            live.append(edge)
            buffered.append(edge)
            seen.extend(x for x in dict.fromkeys(edge[:2]) if x not in seen)
        else:
            inc.remove_edge(*edge)
            live.remove(edge)
            if edge in buffered:
                buffered.remove(edge)
        at = f"step {step} ({kind} {edge}, rebuilds={inc.rebuilds})"
        if inc.rebuilds != before:
            buffered.clear()
            # A fold must equal a from-scratch build under its order.
            base = inc._index
            rebuilt = TILLIndex.build(base.graph, vartheta=vartheta,
                                      ordering=base.order)
            differ = _differing_arrays(base.flat, rebuilt.flat)
            if differ:
                _mismatch(found, "incremental:fold",
                          f"{at}: flat arrays {', '.join(differ)} differ "
                          "from a from-scratch build under the same order")
                break
        current = _rebuild(seen, live, directed)
        fresh = (TILLIndex.build(current, vartheta=vartheta)
                 if step % _FRESH_EVERY == 0 else None)
        for _ in range(MUTATION_QUERIES):
            u, v = rng.choice(seen), rng.choice(seen)
            start = rng.randint(lo - 1, hi)
            win = Interval(start, start + rng.randint(0, hi - lo + 1))
            over_cap = vartheta is not None and win.length > vartheta
            want = span_reaches_bruteforce(current, u, v, win)
            got = inc.span_reachable(u, v, win,
                                     fallback="online" if over_cap else None)
            if got != want:
                _mismatch(found, "incremental:span",
                          f"{at}: incremental={got}, oracle={want}", u, v, win)
            elif fresh is not None and not over_cap:
                rebuilt = fresh.span_reachable(u, v, win)
                if rebuilt != got:
                    _mismatch(found, "incremental:fresh",
                              f"{at}: incremental={got}, fresh build="
                              f"{rebuilt}", u, v, win)
            theta = rng.randint(1, min(win.length, vartheta or win.length))
            want = theta_reaches_bruteforce(current, u, v, win, theta)
            got = inc.theta_reachable(u, v, win, theta)
            if got != want:
                _mismatch(found, "incremental:theta",
                          f"{at}: incremental={got}, oracle={want}",
                          u, v, win, theta)
            if found:
                break
        if found:
            break
    if rebuilds is not None:
        rebuilds["folds"] += inc.folds
        rebuilds["full_builds"] += inc.rebuilds - inc.folds
        rebuilds.update(inc.full_build_reasons)
    return found[:1]


def _differing_arrays(store, other) -> List[str]:
    """Names of the flat arrays in which two label stores differ."""
    directions = [("out", store.out, other.out)]
    if store.directed or other.directed:
        directions.append(("in", store.inn, other.inn))
    return [f"{side}.{name}" for side, mine, theirs in directions
            for name, _ in ARRAY_FIELDS
            if list(getattr(mine, name)) != list(getattr(theirs, name))]


# ----------------------------------------------------------------------
# whole-index sweep
# ----------------------------------------------------------------------


def check_index(
    index: "TILLIndex",
    samples: int = 100,
    seed: int = 0,
    theta_samples: Optional[int] = None,
    window_pairs: Optional[int] = None,
    first_failure: bool = False,
) -> List[Mismatch]:
    """Randomized differential sweep over *index*.

    Draws *samples* span queries (windows deliberately overshoot the
    graph lifetime and any ϑ cap so the raise/fallback paths are
    exercised), ``theta_samples`` θ queries and ``window_pairs``
    minimal-window enumerations; returns every :class:`Mismatch` found
    (or the first one when *first_failure* is set).
    """
    graph = index.graph
    n = graph.num_vertices
    if n < 2 or graph.min_time is None:
        return []
    if theta_samples is None:
        theta_samples = max(1, samples // 4)
    if window_pairs is None:
        window_pairs = max(1, samples // 10)
    rng = random.Random(seed)
    lo, hi = graph.min_time, graph.max_time
    lifetime = graph.lifetime
    found: List[Mismatch] = []

    def _sample_window(max_length: int) -> Interval:
        length = rng.randint(1, max(1, max_length))
        start = rng.randint(lo - 2, hi + 1)
        return Interval(start, start + length - 1)

    for _ in range(samples):
        u = graph.label_of(rng.randrange(n))
        v = graph.label_of(rng.randrange(n))
        found.extend(check_span_query(index, u, v, _sample_window(lifetime + 2)))
        if found and first_failure:
            return found[:1]

    for _ in range(theta_samples):
        u = graph.label_of(rng.randrange(n))
        v = graph.label_of(rng.randrange(n))
        window = _sample_window(lifetime)
        theta = rng.randint(1, window.length)
        found.extend(check_theta_query(index, u, v, window, theta))
        if found and first_failure:
            return found[:1]

    for _ in range(window_pairs):
        ui = rng.randrange(n)
        vi = rng.randrange(n)
        if ui == vi:
            continue
        found.extend(
            check_pair_windows(index, graph.label_of(ui), graph.label_of(vi))
        )
        if found and first_failure:
            return found[:1]
    return found


def replay(index: "TILLIndex", mismatch: Mismatch) -> bool:
    """Does *mismatch* still reproduce against *index*?

    Re-runs exactly the check family that produced the mismatch and
    reports whether the same check fails again — the predicate the
    shrinker minimizes against.
    """
    from repro.fuzz.invariants import label_invariant_violations

    if mismatch.check == "invariant":
        return bool(label_invariant_violations(index))
    graph = index.graph
    for vertex in (mismatch.u, mismatch.v):
        if vertex not in graph:
            return False
    if mismatch.check.startswith("shard:"):
        num_shards, policy, stitch_limit = (
            mismatch.shard_config or (2, "equal-edges", 64)
        )
        results = check_sharded_query(
            index, mismatch.u, mismatch.v, mismatch.window,
            theta=mismatch.theta, num_shards=num_shards, policy=policy,
            stitch_limit=stitch_limit,
        )
    elif mismatch.check.startswith(("flat:", "flatio:")):
        results = check_flat_query(
            index, mismatch.u, mismatch.v, mismatch.window,
            theta=mismatch.theta, batch=mismatch.batch,
        )
    elif mismatch.check.startswith("span:"):
        results = check_span_query(index, mismatch.u, mismatch.v, mismatch.window)
    elif mismatch.check.startswith("theta:"):
        results = check_theta_query(
            index, mismatch.u, mismatch.v, mismatch.window, mismatch.theta
        )
    elif mismatch.check.startswith("windows:"):
        results = check_pair_windows(index, mismatch.u, mismatch.v)
    else:  # unknown family: be conservative, nothing to minimize against
        return False
    return any(m.check == mismatch.check for m in results)
