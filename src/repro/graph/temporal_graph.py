"""The temporal graph store.

A temporal graph :math:`\\mathcal{G}(\\mathcal{V}, \\mathcal{E})` is a
multigraph whose edges are triplets ``(u, v, t)`` with an integer
timestamp ``t`` (paper, Section II).  This module provides
:class:`TemporalGraph`, the substrate every algorithm in the library
runs on.

Design notes
------------

* **Dense internal ids.**  Vertices may be arbitrary hashable labels;
  internally they are remapped to ``0..n-1`` so the core algorithms can
  use flat lists instead of dictionaries.  Algorithms in
  :mod:`repro.core` operate on internal indices; the public facade
  (:class:`repro.core.index.TILLIndex`) translates at the boundary.
* **Freezing.**  Index construction needs per-vertex adjacency sorted by
  timestamp and per-vertex sorted timestamp arrays (for the Lemma 9/10
  query prefilters).  :meth:`TemporalGraph.freeze` computes these once;
  afterwards the graph rejects mutation.  All read paths work on both
  frozen and unfrozen graphs.
* **Multi-edges and self-loops** are allowed, exactly as in the paper's
  datasets; parallel edges with equal timestamps are kept (they count
  toward ``m`` just as repeated interactions do in KONECT dumps).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import FrozenGraphError, GraphError, UnknownVertexError

Vertex = Hashable
TemporalEdge = Tuple[Vertex, Vertex, int]


class TemporalGraph:
    """A directed or undirected temporal multigraph.

    Parameters
    ----------
    directed:
        When ``False`` every edge is stored in both directions and the
        in/out distinction collapses (``in_neighbors == out_neighbors``).

    Examples
    --------
    >>> g = TemporalGraph(directed=True)
    >>> g.add_edge("a", "b", 3)
    >>> g.add_edge("b", "c", 5)
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.out_neighbors("a"))
    [('b', 3)]
    """

    def __init__(self, directed: bool = True):
        self.directed = bool(directed)
        self._label_of: List[Vertex] = []
        self._index_of: Dict[Vertex, int] = {}
        self._out: List[List[Tuple[int, int]]] = []  # per-vertex [(nbr, t)]
        self._in: List[List[Tuple[int, int]]] = []
        self._num_edges = 0
        self._min_time: Optional[int] = None
        self._max_time: Optional[int] = None
        self._frozen = False
        # Populated by freeze(): per-vertex sorted timestamp arrays used
        # by the Lemma 9/10 prefilters.
        self._out_times: List[List[int]] = []
        self._in_times: List[List[int]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[TemporalEdge], directed: bool = True, freeze: bool = True
    ) -> "TemporalGraph":
        """Build a graph from an iterable of ``(u, v, t)`` triplets.

        The graph is frozen by default since the overwhelmingly common
        pattern is build-then-index.
        """
        graph = cls(directed=directed)
        for u, v, t in edges:
            graph.add_edge(u, v, t)
        if freeze:
            graph.freeze()
        return graph

    def add_vertex(self, label: Vertex) -> int:
        """Ensure *label* exists; return its internal index."""
        if self._frozen:
            raise FrozenGraphError("cannot add vertices to a frozen graph")
        idx = self._index_of.get(label)
        if idx is None:
            idx = len(self._label_of)
            self._index_of[label] = idx
            self._label_of.append(label)
            self._out.append([])
            self._in.append([])
        return idx

    def add_edge(self, u: Vertex, v: Vertex, t: int) -> None:
        """Add the temporal edge ``(u, v, t)``.

        For undirected graphs the edge is registered in both adjacency
        directions but counted once.
        """
        if self._frozen:
            raise FrozenGraphError("cannot add edges to a frozen graph")
        if not isinstance(t, int):
            raise GraphError(f"timestamp must be an integer, got {t!r}")
        ui = self.add_vertex(u)
        vi = self.add_vertex(v)
        self._out[ui].append((vi, t))
        self._in[vi].append((ui, t))
        if not self.directed and ui != vi:
            self._out[vi].append((ui, t))
            self._in[ui].append((vi, t))
        self._num_edges += 1
        if self._min_time is None or t < self._min_time:
            self._min_time = t
        if self._max_time is None or t > self._max_time:
            self._max_time = t

    def freeze(self) -> "TemporalGraph":
        """Sort adjacency by timestamp and build prefilter arrays.

        Idempotent.  Returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        for adj in (self._out, self._in):
            for lst in adj:
                lst.sort(key=lambda pair: pair[1])
        self._out_times = [[t for _, t in lst] for lst in self._out]
        self._in_times = [[t for _, t in lst] for lst in self._in]
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._label_of)

    @property
    def num_edges(self) -> int:
        """Number of temporal edges ``m`` (undirected edges count once)."""
        return self._num_edges

    @property
    def min_time(self) -> Optional[int]:
        """Smallest edge timestamp, ``None`` for an edgeless graph."""
        return self._min_time

    @property
    def max_time(self) -> Optional[int]:
        """Largest edge timestamp, ``None`` for an edgeless graph."""
        return self._max_time

    @property
    def lifetime(self) -> int:
        """The paper's :math:`\\vartheta_{\\mathcal{G}}`: number of atomic
        time units between the smallest and the largest timestamp."""
        if self._min_time is None:
            return 0
        return self._max_time - self._min_time + 1

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertex labels in insertion order."""
        return iter(self._label_of)

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate over temporal edges as ``(u, v, t)`` label triplets.

        For undirected graphs each edge is yielded once, oriented from
        the endpoint with the smaller internal index.
        """
        if self.directed:
            for ui, lst in enumerate(self._out):
                u = self._label_of[ui]
                for vi, t in lst:
                    yield (u, self._label_of[vi], t)
            return
        # Undirected: _out holds both orientations; emit each underlying
        # edge once by keeping (u <= v by index) plus all self-loops.
        for ui, lst in enumerate(self._out):
            u = self._label_of[ui]
            for vi, t in lst:
                if ui <= vi:
                    yield (u, self._label_of[vi], t)

    def __contains__(self, label: Vertex) -> bool:
        return label in self._index_of

    def __len__(self) -> int:
        return self.num_vertices

    @property
    def vertex_ids(self) -> Mapping[Vertex, int]:
        """Read-only ``label -> internal index`` map.

        A missing label raises :class:`KeyError` here;
        :meth:`index_of` is the checked lookup.  Batch loops that
        resolve many ids subscript this view directly.
        """
        return MappingProxyType(self._index_of)

    def index_of(self, label: Vertex) -> int:
        """Internal dense index of *label*; raises :class:`UnknownVertexError`."""
        try:
            return self._index_of[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def label_of(self, index: int) -> Vertex:
        """Vertex label for internal *index*."""
        try:
            return self._label_of[index]
        except IndexError:
            raise UnknownVertexError(index) from None

    # ------------------------------------------------------------------
    # neighborhoods (label-level API)
    # ------------------------------------------------------------------

    def out_neighbors(self, u: Vertex) -> List[Tuple[Vertex, int]]:
        """``N_out(u)``: list of ``(neighbor, t)`` pairs."""
        ui = self.index_of(u)
        return [(self._label_of[vi], t) for vi, t in self._out[ui]]

    def in_neighbors(self, u: Vertex) -> List[Tuple[Vertex, int]]:
        """``N_in(u)``: list of ``(neighbor, t)`` pairs."""
        ui = self.index_of(u)
        return [(self._label_of[vi], t) for vi, t in self._in[ui]]

    def out_degree(self, u: Vertex) -> int:
        """``deg_out(u)`` = number of outgoing temporal edges."""
        return len(self._out[self.index_of(u)])

    def in_degree(self, u: Vertex) -> int:
        """``deg_in(u)`` = number of incoming temporal edges."""
        return len(self._in[self.index_of(u)])

    # ------------------------------------------------------------------
    # index-level API used by the core algorithms
    # ------------------------------------------------------------------

    def out_adj(self, ui: int) -> Sequence[Tuple[int, int]]:
        """Outgoing adjacency of internal vertex *ui* as ``(vi, t)`` pairs."""
        return self._out[ui]

    def in_adj(self, ui: int) -> Sequence[Tuple[int, int]]:
        """Incoming adjacency of internal vertex *ui* as ``(vi, t)`` pairs."""
        return self._in[ui]

    def adj(self, ui: int, direction: str) -> Sequence[Tuple[int, int]]:
        """Adjacency of *ui* in ``"out"`` or ``"in"`` direction."""
        if direction == "out":
            return self._out[ui]
        if direction == "in":
            return self._in[ui]
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")

    def has_out_edge_in(self, ui: int, start: int, end: int) -> bool:
        """Lemma 9 prefilter: does *ui* have an outgoing edge whose
        timestamp falls in ``[start, end]``?  Requires a frozen graph."""
        times = self._out_times[ui]
        i = bisect_left(times, start)
        return i < len(times) and times[i] <= end

    def has_in_edge_in(self, ui: int, start: int, end: int) -> bool:
        """Lemma 10 prefilter: does *ui* have an incoming edge whose
        timestamp falls in ``[start, end]``?  Requires a frozen graph."""
        times = self._in_times[ui]
        i = bisect_left(times, start)
        return i < len(times) and times[i] <= end

    def out_adj_window(self, ui: int, start: int, end: int) -> Sequence[Tuple[int, int]]:
        """Outgoing edges of *ui* with timestamps in ``[start, end]``.

        On a frozen graph this is a slice of the time-sorted adjacency,
        located with two binary searches — the workhorse of the online
        BFS baseline.
        """
        adj = self._out[ui]
        if self._frozen:
            times = self._out_times[ui]
            return adj[bisect_left(times, start):bisect_right(times, end)]
        return [pair for pair in adj if start <= pair[1] <= end]

    def in_adj_window(self, ui: int, start: int, end: int) -> Sequence[Tuple[int, int]]:
        """Incoming edges of *ui* with timestamps in ``[start, end]``."""
        adj = self._in[ui]
        if self._frozen:
            times = self._in_times[ui]
            return adj[bisect_left(times, start):bisect_right(times, end)]
        return [pair for pair in adj if start <= pair[1] <= end]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def copy(self, directed: Optional[bool] = None, freeze: bool = True) -> "TemporalGraph":
        """A fresh graph with the same edges.

        ``directed`` may be overridden (e.g. to reinterpret an
        undirected graph as directed); edges are re-added under the new
        interpretation.
        """
        target = TemporalGraph(directed=self.directed if directed is None else directed)
        for u in self._label_of:  # preserve isolated vertices and id order
            target.add_vertex(u)
        for u, v, t in self.edges():
            target.add_edge(u, v, t)
        if freeze:
            target.freeze()
        return target

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"TemporalGraph({kind}, n={self.num_vertices}, m={self.num_edges}, "
            f"lifetime={self.lifetime})"
        )
