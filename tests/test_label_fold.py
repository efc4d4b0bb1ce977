"""Folding streamed edges into a label (``IncrementalTILLIndex.rebuild``).

A fold keeps the base's vertex order, so its result must equal a
from-scratch build under that order byte for byte.  The graphs are the
eight of ``tests/test_build_digest.py``, each split by time at three
cuts (one inside a run of equal timestamps) and then folded three times
in a row.  The other tests pin when ``rebuild`` takes a full build with
a fresh order instead.
"""

from array import array

import pytest

from repro.core import construction
from repro.core.flatstore import ARRAY_FIELDS
from repro.core.incremental import IncrementalTILLIndex
from repro.core.index import TILLIndex
from repro.graph.temporal_graph import TemporalGraph

from tests.test_build_digest import CASES

#: ``TILLIndex.build`` method of each digest case not built by the
#: default optimized builder.
_METHODS = {
    "no-subtree-pruning": "lemma7-only",
    "undirected-vartheta-no-pruning": "lemma7-only",
    "basic-directed": "basic",
    "basic-undirected-vartheta": "basic",
}


def _arrays(store):
    directions = (store.out, store.inn) if store.directed else (store.out,)
    return [array("q", getattr(d, name)).tobytes()
            for d in directions for name, _ in ARRAY_FIELDS]


def _graph_of(vertices, edges, directed):
    graph = TemporalGraph(directed=directed)
    for x in vertices:
        graph.add_vertex(x)
    for edge in edges:
        graph.add_edge(*edge)
    return graph.freeze()


def _time_ordered(graph):
    return sorted(graph.edges(), key=lambda e: (e[2], str(e[0]), str(e[1])))


def _cuts(edges):
    """Three cut positions: at 75% and 85% of the edges, and one inside
    a run of equal timestamps near 80%."""
    m = len(edges)
    tie = next(k for k in range(int(m * 0.8), m)
               if edges[k - 1][2] == edges[k][2])
    return [int(m * 0.75), tie, int(m * 0.85)]


@pytest.fixture
def folds(monkeypatch):
    """Count calls of ``construction.extend_labels``."""
    calls = []
    real = construction.extend_labels

    def counting(*args, **kwargs):
        calls.append(args[3])  # tmin
        return real(*args, **kwargs)

    monkeypatch.setattr(construction, "extend_labels", counting)
    return calls


@pytest.mark.parametrize(
    "case_id, make_graph, kwargs",
    [(case[0], case[1], case[3]) for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_chained_folds_equal_the_frozen_order_build(
    case_id, make_graph, kwargs, folds
):
    graph = make_graph()
    vartheta = kwargs.get("vartheta")
    method = _METHODS.get(case_id, "optimized")
    edges = _time_ordered(graph)
    for cut in _cuts(edges):
        base, stream = edges[:cut], edges[cut:]
        # A vertex first seen in the stream, entered and left by late
        # edges, so some roots and targets have no base label.
        tail = stream[len(stream) // 3][2]
        fresh = ("fresh", cut)
        stream = stream + [(base[0][0], fresh, tail),
                           (fresh, stream[-1][1], stream[-1][2])]
        stream.sort(key=lambda e: e[2])
        vertices = list(dict.fromkeys(x for e in base for x in e[:2]))
        inc = IncrementalTILLIndex(
            _graph_of(vertices, base, graph.directed),
            rebuild_threshold=len(stream) + 1, vartheta=vartheta,
            method=method,
        )
        start = len(folds)
        chunk = -(-len(stream) // 3)
        for k in range(0, len(stream), chunk):
            for edge in stream[k:k + chunk]:
                inc.add_edge(*edge)
            inc.rebuild()
            index = inc._index
            want = TILLIndex.build(index.graph, vartheta=vartheta,
                                   ordering=index.order)
            assert _arrays(index.flat) == _arrays(want.flat)
        assert len(folds) - start == 3
        assert inc.rebuilds == 3
        assert index.graph.num_edges == len(edges) + 2


def test_a_pending_tombstone_takes_a_fresh_build(folds):
    graph = _graph_of(range(6), [(0, 1, 1), (1, 2, 2), (2, 3, 3),
                                 (3, 4, 4), (0, 2, 5), (4, 5, 6),
                                 (1, 3, 6), (2, 5, 7)], True)
    inc = IncrementalTILLIndex(graph, rebuild_threshold=100)
    inc.add_edge(5, 0, 8)
    inc.remove_edge(1, 2, 2)
    inc.rebuild()
    assert folds == []
    merged = _graph_of(range(6), [(0, 1, 1), (2, 3, 3), (3, 4, 4),
                                  (0, 2, 5), (4, 5, 6), (1, 3, 6),
                                  (2, 5, 7), (5, 0, 8)], True)
    want = TILLIndex.build(merged)
    assert _arrays(inc._index.flat) == _arrays(want.flat)
    assert inc._index.order.order == want.order.order
    assert inc.rebuilds == 1


def test_a_delta_at_the_first_timestamp_takes_a_fresh_build(folds):
    graph = _graph_of(range(4), [(0, 1, 3), (1, 2, 4), (2, 3, 5)], True)
    inc = IncrementalTILLIndex(graph, rebuild_threshold=100)
    inc.add_edge(3, 0, 3)  # nothing in the base ends before t = 3
    inc.rebuild()
    assert folds == []
    want = TILLIndex.build(inc._index.graph)
    assert _arrays(inc._index.flat) == _arrays(want.flat)


def test_folded_edges_reaching_half_the_order_edges_reorder(folds):
    base = [(k % 7, (3 * k + 1) % 7, k) for k in range(1, 15)]
    base = [e for e in base if e[0] != e[1]]
    # every streamed edge leaves vertex 6, which a fresh order ranks first
    stream = [(6, j % 6, 20 + j) for j in range(13)]
    inc = IncrementalTILLIndex(_graph_of(range(7), base, True),
                               rebuild_threshold=100)
    for edge in stream[:5]:
        inc.add_edge(*edge)
    inc.rebuild()  # 5 folded edges: under half of the base's 12
    assert len(folds) == 1
    frozen = inc._index.order.order
    assert frozen[0] != 6
    inc.add_edge(*stream[5])
    inc.rebuild()  # 6 folded edges: half of 12, so re-order
    assert len(folds) == 1
    want = TILLIndex.build(inc._index.graph)
    assert _arrays(inc._index.flat) == _arrays(want.flat)
    assert inc._index.order.order == want.order.order
    assert want.order.order[0] == 6
    # the fresh order was made on 18 edges: 7 more fold under it
    for edge in stream[6:]:
        inc.add_edge(*edge)
    inc.rebuild()
    assert len(folds) == 2
    assert inc.rebuilds == 3


def test_threshold_triggered_folds_count_as_rebuilds(folds):
    edges = [(k % 9, (5 * k + 2) % 9, k // 2) for k in range(2, 60)]
    edges = [e for e in edges if e[0] != e[1]]
    inc = IncrementalTILLIndex(_graph_of(range(9), edges[:40], True),
                               rebuild_threshold=4)
    stalls = 0
    for edge in edges[40:48]:
        before = inc.rebuilds
        inc.add_edge(*edge)
        stalls += inc.rebuilds != before
    assert len(folds) == 2
    assert stalls == inc.rebuilds == 2
    assert inc.delta_size == 0
