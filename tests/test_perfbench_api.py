"""The benchmark harness under ``perfbench/`` drives the serving layers
through their public names; these tests keep that surface working.

``perfbench/`` is frozen and its own suite (``python -m pytest
perfbench``) does not run the in-process serving pipeline probe, so a
change to ``MicroBatcher``, ``ServerConfig`` or ``QueryEngine`` that
broke the harness would otherwise go unnoticed.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from repro import TILLIndex
from repro.core import queries
from repro.datasets import paper_example_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spanbench import layers as module
        from spanbench.tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return module, Tracer


#: Span (θ None) and θ requests on the paper's Fig. 1 graph, with
#: answers of both kinds (Example 2: v1 3-reaches v12 in [1, 5]).
REQUESTS = [
    ("v1", "v6", 1, 3, None), ("v1", "v12", 1, 5, None),
    ("v12", "v1", 1, 9, None), ("v6", "v12", 1, 3, None),
    ("v1", "v12", 1, 2, None), ("v9", "v11", 3, 3, None),
    ("v1", "v12", 1, 5, 3), ("v12", "v1", 1, 9, 3),
    ("v9", "v7", 3, 3, 1), ("v7", "v11", 1, 9, 4),
]


def test_pipeline_replay_answers_match_algorithms_4_and_5(layers):
    module, tracer_cls = layers
    graph = paper_example_graph()
    index = TILLIndex.build(graph)
    rank = index.order.rank
    expected = []
    lines = []
    for k, (u, v, t1, t2, theta) in enumerate(REQUESTS):
        ui, vi = graph.index_of(u), graph.index_of(v)
        doc = {"op": "span", "u": u, "v": v, "t1": t1, "t2": t2, "id": k}
        if theta is None:
            expected.append(queries.span_reachable(
                graph, index.flat, rank, ui, vi, (t1, t2)))
        else:
            doc.update(op="theta", theta=theta)
            expected.append(queries.theta_reachable(
                graph, index.flat, rank, ui, vi, (t1, t2), theta))
        lines.append((json.dumps(doc) + "\n").encode())
    assert set(expected) == {True, False}
    index.flatten()
    # Pairs of requests share an arrival time, so batches form.
    due = [0.001 * (k // 2) for k in range(len(lines))]
    answers, stats = module.pipeline_replay(index, lines, due,
                                            tracer_cls())
    assert answers == expected
    assert stats["queries"] == len(lines)


def test_batcher_wait_ms_is_finite(layers):
    module, _ = layers
    requests = [("span" if theta is None else "theta", (u, v), t1, t2, theta)
                for u, v, t1, t2, theta in REQUESTS]
    wait = module.batcher_wait_ms(requests, [1, 3, 2, 4])
    assert math.isfinite(wait) and wait >= 0.0
