"""The flat-backend ladder after its vectorized and JIT rungs were
removed: ``"auto"`` resolves to the python batch kernels, and a request
for the removed ``"native"`` rung raises instead of silently changing
meaning.
"""

from __future__ import annotations

import random

import pytest

from repro import TILLIndex
from repro.core import queries
from repro.core.intervals import Interval
from repro.errors import IndexBuildError
from tests.conftest import random_graph


def _built_index(seed: int = 0, **kw):
    graph = random_graph(seed, num_vertices=12, num_edges=60, max_time=12,
                         **kw)
    return graph, TILLIndex.build(graph)


def _wide_batch(graph, size: int, seed: int = 0):
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    return [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(size)
    ]


class TestBackendLadder:
    def test_explicit_native_without_numba_raises(self):
        _, index = _built_index()
        with pytest.raises(IndexBuildError, match="unknown flat backend"):
            index.flatten(backend="native")

    def test_auto_resolves_fastest_available_rung(self):
        graph, index = _built_index(seed=3)
        index.flatten(backend="auto")
        assert index.flat_backend == "python"
        assert index.flat_kernels is None
        store, rank = index.flat, index.order.rank
        pairs = sorted(
            (graph.index_of(u), graph.index_of(v))
            for u, v in _wide_batch(graph, 300, seed=5) if u != v
        )
        ws, we = graph.min_time, graph.max_time
        span = queries.flat_span_batch(store, rank, pairs, ws, we)
        assert span == [
            queries.span_reachable(graph, store, rank, ui, vi,
                                   Interval(ws, we))
            for ui, vi in pairs
        ]
