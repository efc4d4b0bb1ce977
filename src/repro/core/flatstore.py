"""Flat columnar label store: one global CSR hierarchy per direction.

The object-backed :class:`~repro.core.labels.LabelSet` representation is
ideal for construction (cheap appends, per-vertex ownership) but makes
a query chase ``TILLLabels.out_labels[ui]`` → ``LabelSet`` → four
attribute loads, and would force a full object deserialization on
every :meth:`TILLIndex.load`.  This module provides the representation
every query runs on instead — :class:`~repro.core.index.TILLIndex`
flattens construction's labels into it once, in its constructor — the
contiguous layout of the paper's C++ implementation (Fig. 3),
generalised to one struct-of-arrays per direction:

::

    vertex_offsets    q * (n + 1)   vertex ui's hubs live at
                                    [vertex_offsets[ui], vertex_offsets[ui+1])
    hub_ranks         i * H         hub ranks, ascending within a vertex slice
    interval_offsets  q * (H + 1)   hub slot g's intervals live at
                                    [interval_offsets[g], interval_offsets[g+1])
    starts            q * E         interval starts, per group chronological
    ends              q * E         interval ends, per group chronological

``H`` = total hub slots over all vertices, ``E`` = total intervals.
Both offset arrays are 64-bit: they hold *cumulative* counts and must
not wrap at 2^31.  Because every group is a finalized skyline, ``starts``
and ``ends`` are each strictly increasing inside a group — the property
the Algorithm 4/5 kernels' binary searches rely on.

The typecodes above are the in-memory widths (:data:`ARRAY_FIELDS`).
A format-3 ``.till`` file stores each array at the narrowest of
``B``/``H``/``I``/``q`` that holds it and records the choice in its
header (see :mod:`repro.core.serialization`), so a loaded store's
buffers carry the file's widths: :mod:`array` objects when built in
memory or loaded eagerly, ``memoryview`` casts over an ``mmap`` when
zero-copy loaded.  ``bisect`` and integer indexing work identically on
all of them, whatever the width.

:class:`FlatTILLLabels` adapts a :class:`FlatTILLStore` back to the
``TILLLabels`` read surface (``out_labels[ui]`` etc.) so introspection
paths — explain, profiling, anatomy, invariant checks — keep working
on every index; per-vertex ``LabelSet`` objects are materialised
lazily and cached, preserving the undirected identity invariant
``in_labels[ui] is out_labels[ui]``.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Sequence

from repro.core.labels import (
    BYTES_PER_HUB,
    BYTES_PER_INTERVAL,
    LabelSet,
    TILLLabels,
)

#: In-memory typecodes of the five arrays, in serialization order —
#: also the widths a format-3 direction without a ``types`` map is read
#: with.
ARRAY_FIELDS = (
    ("vertex_offsets", "q"),
    ("interval_offsets", "q"),
    ("starts", "q"),
    ("ends", "q"),
    ("hub_ranks", "i"),
)


class FlatDirection:
    """One direction's labels for *all* vertices, as five flat buffers."""

    __slots__ = (
        "num_vertices",
        "vertex_offsets",
        "hub_ranks",
        "interval_offsets",
        "starts",
        "ends",
    )

    def __init__(
        self,
        num_vertices: int,
        vertex_offsets: Sequence[int],
        hub_ranks: Sequence[int],
        interval_offsets: Sequence[int],
        starts: Sequence[int],
        ends: Sequence[int],
    ):
        self.num_vertices = num_vertices
        self.vertex_offsets = vertex_offsets
        self.hub_ranks = hub_ranks
        self.interval_offsets = interval_offsets
        self.starts = starts
        self.ends = ends

    @classmethod
    def from_label_sets(cls, sets: Sequence[LabelSet]) -> "FlatDirection":
        """Concatenate finalized per-vertex label sets into one CSR."""
        vertex_offsets = array("q", [0])
        hub_ranks = array("i")
        interval_offsets = array("q", [0])
        starts = array("q")
        ends = array("q")
        base = 0
        for label in sets:
            assert label.finalized, "flatten requires finalized labels"
            hub_ranks.extend(label.hub_ranks)
            offs = label.offsets
            for gi in range(1, len(offs)):
                interval_offsets.append(base + offs[gi])
            base += offs[-1] if len(offs) else 0
            starts.extend(label.starts)
            ends.extend(label.ends)
            vertex_offsets.append(len(hub_ranks))
        return cls(
            len(sets), vertex_offsets, hub_ranks, interval_offsets, starts, ends
        )

    # -- size accounting ----------------------------------------------

    @property
    def num_hubs(self) -> int:
        return len(self.hub_ranks)

    @property
    def num_entries(self) -> int:
        return len(self.starts)

    def nbytes(self) -> int:
        """Exact byte footprint of the five buffers."""
        total = 0
        for field, _ in ARRAY_FIELDS:
            buf = getattr(self, field)
            total += getattr(buf, "nbytes", None) or len(buf) * buf.itemsize
        return total

    # -- per-vertex views ---------------------------------------------

    def vertex_entry_count(self, ui: int) -> int:
        """Number of stored triplets of vertex *ui* (no materialisation)."""
        a, b = self.vertex_offsets[ui], self.vertex_offsets[ui + 1]
        return self.interval_offsets[b] - self.interval_offsets[a]

    def label_set(self, ui: int) -> LabelSet:
        """Materialise vertex *ui*'s labels as a compact ``LabelSet``."""
        a, b = self.vertex_offsets[ui], self.vertex_offsets[ui + 1]
        lo, hi = self.interval_offsets[a], self.interval_offsets[b]
        label = LabelSet()
        label.hub_ranks = array("i", self.hub_ranks[a:b])
        label.offsets = array(
            "q", (self.interval_offsets[g] - lo for g in range(a, b + 1))
        )
        label.starts = array("q", self.starts[lo:hi])
        label.ends = array("q", self.ends[lo:hi])
        label.finalized = True
        return label

    # -- integrity -----------------------------------------------------

    def validate(self) -> List[str]:
        """Structural invariant violations (empty list = sound CSR)."""
        problems: List[str] = []
        voff, ioff = self.vertex_offsets, self.interval_offsets
        if len(voff) != self.num_vertices + 1:
            problems.append(
                f"vertex_offsets has {len(voff)} entries, expected "
                f"{self.num_vertices + 1}"
            )
            return problems
        if voff[0] != 0 or voff[-1] != self.num_hubs:
            problems.append("vertex_offsets endpoints inconsistent")
        if len(ioff) != self.num_hubs + 1:
            problems.append(
                f"interval_offsets has {len(ioff)} entries, expected "
                f"{self.num_hubs + 1}"
            )
            return problems
        if ioff[0] != 0 or ioff[-1] != self.num_entries:
            problems.append("interval_offsets endpoints inconsistent")
        if len(self.ends) != self.num_entries:
            problems.append("starts/ends length mismatch")
        for k in range(1, len(voff)):
            if voff[k] < voff[k - 1]:
                problems.append(f"vertex_offsets decreases at {k}")
                break
        for k in range(1, len(ioff)):
            if ioff[k] <= ioff[k - 1]:
                problems.append(f"interval_offsets not strictly increasing at {k}")
                break
        for ui in range(self.num_vertices):
            a, b = voff[ui], voff[ui + 1]
            for g in range(a + 1, b):
                if self.hub_ranks[g] <= self.hub_ranks[g - 1]:
                    problems.append(f"hub ranks of vertex {ui} not ascending")
                    break
        for g in range(self.num_hubs):
            lo, hi = ioff[g], ioff[g + 1]
            for k in range(lo + 1, hi):
                if (
                    self.starts[k] <= self.starts[k - 1]
                    or self.ends[k] <= self.ends[k - 1]
                ):
                    problems.append(f"group {g} is not a chronological skyline")
                    break
        return problems


class FlatTILLStore:
    """Both directions of a graph's labels in flat form.

    For undirected graphs a single :class:`FlatDirection` is shared —
    ``inn is out`` — mirroring the ``in_labels is out_labels`` identity
    of :class:`TILLLabels`.
    """

    __slots__ = ("directed", "out", "inn", "_mmap")

    def __init__(self, directed: bool, out: FlatDirection, inn: FlatDirection):
        self.directed = directed
        self.out = out
        self.inn = inn
        #: Keeps a backing ``mmap`` alive for zero-copy loaded stores.
        self._mmap: Any = None

    @classmethod
    def from_labels(cls, labels: "TILLLabels") -> "FlatTILLStore":
        """Flatten a finalized label family (object- or flat-backed)."""
        if isinstance(labels, FlatTILLLabels):
            return labels.store
        out = FlatDirection.from_label_sets(labels.out_labels)
        if labels.directed:
            inn = FlatDirection.from_label_sets(labels.in_labels)
        else:
            inn = out
        return cls(labels.directed, out, inn)

    @property
    def is_mmap(self) -> bool:
        """Is this store a zero-copy, read-only view over a
        memory-mapped file?"""
        return self._mmap is not None

    @property
    def num_vertices(self) -> int:
        return self.out.num_vertices

    def total_entries(self) -> int:
        total = self.out.num_entries
        if self.directed:
            total += self.inn.num_entries
        return total

    def estimated_bytes(self) -> int:
        """Index size under the paper's cost model (Fig. 5 comparable)."""
        total = (
            BYTES_PER_HUB * self.out.num_hubs
            + BYTES_PER_INTERVAL * self.out.num_entries
        )
        if self.directed:
            total += (
                BYTES_PER_HUB * self.inn.num_hubs
                + BYTES_PER_INTERVAL * self.inn.num_entries
            )
        return total

    def nbytes(self) -> int:
        total = self.out.nbytes()
        if self.directed:
            total += self.inn.nbytes()
        return total

    def validate(self) -> List[str]:
        problems = [f"out: {p}" for p in self.out.validate()]
        if self.directed:
            problems += [f"in: {p}" for p in self.inn.validate()]
        return problems


class _LazyLabelSets(Sequence):
    """Sequence of per-vertex ``LabelSet`` views over a ``FlatDirection``.

    Materialised sets are cached so repeated access returns the *same*
    object — required by the label-invariant checks, which assert
    ``in_labels[ui] is out_labels[ui]`` on undirected graphs.
    """

    __slots__ = ("_direction", "_cache")

    def __init__(self, direction: FlatDirection):
        self._direction = direction
        self._cache: List[Any] = [None] * direction.num_vertices

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._cache)))]
        if index < 0:
            index += len(self._cache)
        label = self._cache[index]
        if label is None:
            label = self._cache[index] = self._direction.label_set(index)
        return label


class FlatTILLLabels:
    """``TILLLabels``-compatible read surface over a :class:`FlatTILLStore`.

    Used as ``TILLIndex.labels`` on every index: queries never touch it
    (they run on the flat store), but explain/profiling/anatomy/
    invariant paths that iterate ``out_labels`` keep working.
    """

    __slots__ = ("store", "out_labels", "in_labels", "directed")

    def __init__(self, store: FlatTILLStore):
        self.store = store
        self.directed = store.directed
        self.out_labels = _LazyLabelSets(store.out)
        if store.directed:
            self.in_labels = _LazyLabelSets(store.inn)
        else:
            self.in_labels = self.out_labels

    @property
    def num_vertices(self) -> int:
        return self.store.num_vertices

    def total_entries(self) -> int:
        return self.store.total_entries()

    def estimated_bytes(self) -> int:
        return self.store.estimated_bytes()
