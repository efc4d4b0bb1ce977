"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import TemporalGraph, TILLIndex
from repro.core.flatstore import FlatDirection
from repro.core.labels import LabelSet
from repro.datasets import paper_example_graph


@pytest.fixture
def triangle() -> TemporalGraph:
    """Three vertices in a timed directed cycle: a -3-> b -5-> c -4-> a."""
    return TemporalGraph.from_edges(
        [("a", "b", 3), ("b", "c", 5), ("c", "a", 4)]
    )


@pytest.fixture
def diamond() -> TemporalGraph:
    """Two parallel two-hop routes s -> {x, y} -> t with distinct times."""
    return TemporalGraph.from_edges(
        [
            ("s", "x", 1),
            ("x", "t", 5),
            ("s", "y", 3),
            ("y", "t", 4),
        ]
    )


@pytest.fixture
def paper_graph() -> TemporalGraph:
    """The reconstructed Fig. 1 running example."""
    return paper_example_graph()


@pytest.fixture
def paper_index(paper_graph) -> TILLIndex:
    return TILLIndex.build(paper_graph)


def random_temporal_edges(
    rng: random.Random,
    num_vertices: int,
    num_edges: int,
    max_time: int,
) -> List[Tuple[int, int, int]]:
    """Uniformly random edge triplets over int vertices ``0..n-1``."""
    return [
        (
            rng.randrange(num_vertices),
            rng.randrange(num_vertices),
            rng.randint(1, max_time),
        )
        for _ in range(num_edges)
    ]


def random_graph(
    seed: int,
    num_vertices: int = 10,
    num_edges: int = 30,
    max_time: int = 10,
    directed: bool = True,
) -> TemporalGraph:
    """A reproducible random temporal graph with all vertices present."""
    rng = random.Random(seed)
    graph = TemporalGraph(directed=directed)
    for v in range(num_vertices):
        graph.add_vertex(v)
    for u, v, t in random_temporal_edges(rng, num_vertices, num_edges, max_time):
        graph.add_edge(u, v, t)
    return graph.freeze()


def empty_out_labels(index: TILLIndex) -> None:
    """Sabotage *index*: replace every out-label in its flat store (the
    labels queries read) with an empty one."""
    empty = LabelSet()
    empty.finalize()
    index.flat.out = FlatDirection.from_label_sets(
        [empty] * index.graph.num_vertices
    )


#: The start of the rebuild message every format-2 rejection carries.
FORMAT2_REJECTION = "format-2 .till file, which is no longer read"


def write_format2(path) -> None:
    """Write a stand-in format-2 ``.till`` file at *path*: the
    ``TILLIDX1`` magic plus filler bytes, since the reader rejects the
    file on its magic alone."""
    with open(path, "wb") as fh:
        fh.write(b"TILLIDX1" + b"\x00" * 56)
