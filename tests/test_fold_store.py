"""Folds over stored bases, and why ``rebuild`` takes a full build.

A fold reads the kept entries straight from the base's flat store, so
a base loaded from a format-3 file, whose arrays are stored at their
narrowest width, must fold to the same bytes as a from-scratch build
under the fold's vertex order.  The second half pins
``IncrementalTILLIndex.full_build_reasons``, one test per reason, and
checks that a rebuild whose build raises can run again.
"""

import random
from array import array
from collections import Counter

import pytest

from repro.core import construction
from repro.core.construction import BuildBudgetExceeded
from repro.core.flatstore import ARRAY_FIELDS
from repro.core.incremental import IncrementalTILLIndex
from repro.core.index import TILLIndex
from repro.graph.temporal_graph import TemporalGraph


def _arrays(store):
    directions = (store.out, store.inn) if store.directed else (store.out,)
    return [array("q", getattr(d, name)).tobytes()
            for d in directions for name, _ in ARRAY_FIELDS]


def _graph(vertices, edges, directed):
    graph = TemporalGraph(directed=directed)
    for x in vertices:
        graph.add_vertex(x)
    for edge in edges:
        graph.add_edge(*edge)
    return graph.freeze()


def _edges(seed, n, m, t0, span):
    rng = random.Random(seed)
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, t0 + rng.randrange(span)))
    return edges


def _groups_by_tmin(direction, tmin):
    """``(straddling, wholly late)``: how many of *direction*'s hub
    groups hold entries on both sides of *tmin*, and how many hold
    only entries ending at or after it."""
    straddle = late = 0
    ioff, ends = direction.interval_offsets, direction.ends
    for g in range(direction.num_hubs):
        lo, hi = ioff[g], ioff[g + 1]
        if ends[lo] >= tmin:
            late += 1
        elif ends[hi - 1] >= tmin:
            straddle += 1
    return straddle, late


def _stored_base(tmp_path, edges, directed, mmap):
    """An incremental index whose base is loaded back from format 3."""
    vertices = sorted({x for e in edges for x in e[:2]})
    inc = IncrementalTILLIndex(_graph(vertices, edges, directed),
                               rebuild_threshold=10_000)
    path = tmp_path / "base.till"
    inc._index.save(path, format=3)
    inc._index = TILLIndex.load(path, inc._base_graph, mmap=mmap)
    return inc


def _fold_equals_frozen_order_build(inc, stream):
    for edge in stream:
        inc.add_edge(*edge)
    inc.rebuild()
    assert inc.folds == 1
    index = inc._index
    want = TILLIndex.build(index.graph, ordering=index.order)
    assert _arrays(index.flat) == _arrays(want.flat)


class TestFoldOverStoredBase:
    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("directed", [True, False])
    def test_time_ordered_stream(self, tmp_path, mmap, directed):
        # Timestamps past 65535 store starts/ends as "I".
        edges = sorted(_edges(1, 12, 60, 70_000, 40), key=lambda e: e[2])
        inc = _stored_base(tmp_path, edges[:45], directed, mmap)
        flat = inc._index.flat
        assert flat.is_mmap == mmap
        widths = {name: getattr(flat.out, name).itemsize
                  for name, _ in ARRAY_FIELDS}
        assert widths["starts"] == widths["ends"] == 4  # "I"
        assert max(widths.values()) < 8  # all narrower than in memory
        stream = edges[45:] + [(0, "fresh", edges[-1][2]),
                               ("fresh", 5, edges[-1][2])]
        _fold_equals_frozen_order_build(inc, stream)

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("directed", [True, False])
    def test_delta_inside_the_base_timeline(self, tmp_path, mmap,
                                            directed):
        # The delta starts mid-timeline: some base groups straddle its
        # first timestamp and others end wholly at or after it.
        edges = _edges(2, 10, 50, 1_000, 30)
        inc = _stored_base(tmp_path, edges, directed, mmap)
        stream = _edges(3, 10, 8, 1_015, 15)
        tmin = min(t for _, _, t in stream)
        straddle, late = _groups_by_tmin(inc._index.flat.out, tmin)
        assert straddle > 0 and late > 0
        _fold_equals_frozen_order_build(inc, stream)


class TestFullBuildReasons:
    BASE = [(k % 7, (3 * k + 1) % 7, k) for k in range(1, 15)
            if k % 7 != (3 * k + 1) % 7]

    def _inc(self):
        return IncrementalTILLIndex(_graph(range(7), self.BASE, True),
                                    rebuild_threshold=100)

    @staticmethod
    def _reasons(inc):
        reasons = inc.full_build_reasons
        assert sum(reasons.values()) == inc.rebuilds - inc.folds
        return reasons

    def test_pending_tombstones(self):
        inc = self._inc()
        inc.add_edge(6, 0, 20)
        inc.remove_edge(*self.BASE[0])
        inc.rebuild()
        assert self._reasons(inc) == {"tombstones": 1, "early-delta": 0,
                                      "reorder": 0}

    def test_delta_at_the_base_first_timestamp(self):
        inc = self._inc()
        inc.add_edge(6, 0, 1)  # the base starts at t = 1
        inc.rebuild()
        assert self._reasons(inc) == {"tombstones": 0, "early-delta": 1,
                                      "reorder": 0}

    def test_folded_edges_reaching_half_the_order_edges(self):
        inc = self._inc()
        for j in range(6):  # half of the base's 12 edges
            inc.add_edge(6, j, 20 + j)
        inc.rebuild()
        assert self._reasons(inc) == {"tombstones": 0, "early-delta": 0,
                                      "reorder": 1}
        inc.add_edge(6, 0, 30)
        inc.rebuild()  # one folded edge under the fresh order: a fold
        assert inc.folds == 1
        assert self._reasons(inc)["reorder"] == 1

    def test_reasons_are_a_copy(self):
        inc = self._inc()
        inc.full_build_reasons["tombstones"] = 5
        assert inc.full_build_reasons["tombstones"] == 0


class TestFailedRebuild:
    """A build that raises leaves the buffer, the tombstones and the
    base edge counts as they were, so the next rebuild starts over."""

    BASE = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 4), (3, 1, 5)]

    def _inc(self, monkeypatch, target, name):
        real = getattr(target, name)
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise BuildBudgetExceeded(1.0, 0.5)
            return real(*args, **kwargs)

        inc = IncrementalTILLIndex(_graph(range(4), self.BASE, True),
                                   rebuild_threshold=100)
        monkeypatch.setattr(target, name, fail_once)
        return inc

    @staticmethod
    def _rebuild_twice(inc, live):
        with pytest.raises(BuildBudgetExceeded):
            inc.rebuild()
        inc.rebuild()
        assert Counter(inc._index.graph.edges()) == Counter(live)
        assert inc._base_edge_counts == Counter(live)
        assert inc.rebuilds == 1

    def test_full_build(self, monkeypatch):
        inc = self._inc(monkeypatch, TILLIndex, "build")
        inc.add_edge(3, 0, 6)
        inc.remove_edge(0, 1, 1)
        self._rebuild_twice(inc, self.BASE[1:] + [(3, 0, 6)])
        assert inc.full_build_reasons["tombstones"] == 1

    def test_fold(self, monkeypatch):
        inc = self._inc(monkeypatch, construction, "extend_labels")
        stream = [(3, 0, 6), (1, 3, 7)]
        for edge in stream:
            inc.add_edge(*edge)
        self._rebuild_twice(inc, self.BASE + stream)
        assert inc.folds == 1
        index = inc._index
        want = TILLIndex.build(index.graph, ordering=index.order)
        assert _arrays(index.flat) == _arrays(want.flat)
