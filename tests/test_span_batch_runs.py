"""Source runs in the flat batch kernels.

:func:`~repro.core.queries.flat_span_batch` and
:func:`~repro.core.queries.flat_theta_batch` answer the first pair of a
run of equal sources by the rank-ordered merge-join and build a
per-source hub set (map) on its second pair, reused until the source
changes.  These tests feed both kernels run patterns — length 1, 2 and
many, and a source re-entering after another (``u, u, w, u, u``) — on
the graphs whose builds ``tests/test_build_digest.py`` pins, on the
in-memory store and on its mmap round trip, and compare every answer
with one-pair calls of the validated entry points.
"""

import random
from bisect import bisect_left

import pytest

from repro import TemporalGraph
from repro.core import queries
from repro.core.index import TILLIndex
from repro.core.ordering import make_order

from tests.test_build_digest import CASES


def _stores(case, tmp_path):
    """``(graph, {"memory": index, "mmap": index})`` for a digest case."""
    _, make_graph, builder, kwargs, _, _ = case
    graph = make_graph()
    order = make_order(graph)
    built = TILLIndex(graph, order, builder(graph, order, **kwargs),
                      kwargs.get("vartheta"))
    path = tmp_path / "index.till"
    built.save(path)
    return graph, {"memory": built,
                   "mmap": TILLIndex.load(path, graph, mmap=True)}


def _windows(graph, vartheta, rng):
    """Three single-timestamp windows (where few or no groups fit), one
    a third of the longest and one the longest: the lifetime, or
    *vartheta* when the build is capped."""
    lo, hi = graph.min_time, graph.max_time
    cap = (hi - lo + 1) if vartheta is None else vartheta
    windows = [(t, t) for t in rng.sample(range(lo, hi + 1), 3)]
    for length in (cap // 3, cap):
        start = rng.randint(lo, max(lo, hi - length + 1))
        windows.append((start, start + max(length, 1) - 1))
    return windows


def _run_pattern(n, rng):
    """Pairs over internal ids in runs of 1, 2 and many, then a source
    re-entering after another: ``u, u, w, u, u`` (and ``w, w`` after)."""
    sources = rng.sample(range(n), min(n, 6))

    def targets(u, k):
        return [(u, v) for v in rng.sample(range(n), k + 1) if v != u][:k]

    u, w = sources[0], sources[1]
    pairs = []
    for src, length in zip(sources, (1, 2, n - 1, 1, 2, 7)):
        pairs += targets(src, length)
    for src, length in ((u, 2), (w, 1), (u, 2), (w, 2), (u, 1), (w, 3)):
        pairs += targets(src, length)
    return pairs


def _contained_hubs(store, ui, ws, we):
    """Hub ranks of ``L_out(ui)`` with an interval inside ``[ws, we]``."""
    out = store.out
    hubs = set()
    for g in range(out.vertex_offsets[ui], out.vertex_offsets[ui + 1]):
        lo, hi = out.interval_offsets[g], out.interval_offsets[g + 1]
        k = bisect_left(out.starts, ws, lo, hi)
        if k < hi and out.ends[k] <= we:
            hubs.add(out.hub_ranks[g])
    return hubs


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_batch_runs_match_one_pair_calls(case, tmp_path):
    graph, indexes = _stores(case, tmp_path)
    vartheta = case[3].get("vartheta")
    rng = random.Random(case[0])
    pairs = _run_pattern(graph.num_vertices, rng)
    windows = _windows(graph, vartheta, rng)
    only_source = 0  # later pairs of runs whose set is just {rank[u]}
    for name, index in indexes.items():
        store, rank = index.flat, index.order.rank
        for ws, we in windows:
            want = [queries.span_reachable(graph, store, rank, ui, vi,
                                           (ws, we), prefilter=False)
                    for ui, vi in pairs]
            got = queries.flat_span_batch(store, rank, pairs, ws, we)
            assert got == want, (name, ws, we)
            only_source += sum(
                1 for k in range(1, len(pairs))
                if pairs[k][0] == pairs[k - 1][0]
                and not _contained_hubs(store, pairs[k][0], ws, we)
            )
            theta = max(1, (we - ws + 1) // 2)
            want = [queries.theta_reachable(graph, store, rank, ui, vi,
                                            (ws, we), theta,
                                            prefilter=False)
                    for ui, vi in pairs]
            got = queries.flat_theta_batch(store, rank, pairs, ws, we,
                                           theta)
            assert got == want, (name, ws, we, theta)
    assert only_source > 0


def test_source_change_rebuilds_the_set():
    """Two sources with disjoint answers to the same targets: a set
    kept across the change of source would answer for the wrong one."""
    graph = TemporalGraph.from_edges(
        [("a", "x", 1), ("x", "t1", 2), ("b", "y", 1), ("y", "t2", 2)]
    )
    index = TILLIndex.build(graph)
    store, rank, ids = index.flat, index.order.rank, graph.index_of
    a, b, t1, t2 = ids("a"), ids("b"), ids("t1"), ids("t2")
    pairs = [(a, t1), (a, t2), (b, t1), (b, t2), (b, t1),
             (a, t2), (a, t1), (a, t2)]
    want = [True, False, False, True, False, False, True, False]
    assert queries.flat_span_batch(store, rank, pairs, 1, 2) == want
    assert queries.flat_theta_batch(store, rank, pairs, 1, 2, 2) == want
