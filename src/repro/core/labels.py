"""Label storage for the TILL-Index.

Each vertex ``u`` owns an out-label set ``L_out(u)`` and an in-label set
``L_in(u)`` (a single shared set for undirected graphs).  A label entry
``⟨w, ts, te⟩`` in ``L_out(u)`` records that ``u`` span-reaches hub
``w`` within ``[ts, te]``; in ``L_in(u)`` it records the reverse
direction.

Storage layout (paper Fig. 3)
-----------------------------

A :class:`LabelSet` keeps two parallel structures:

* a *hub array* — the hubs appearing in the label, identified by their
  **rank** in the vertex order and stored in increasing rank order
  (construction processes hubs by rank, so plain appends maintain it);
* an *interval array* — the intervals of all hubs concatenated, with an
  ``offsets`` array delimiting each hub's group.

Every group is an antichain under containment (skyline property,
Definition 3), so sorted chronologically both the start and the end
array of a group are strictly increasing — this is what makes the
binary search in Algorithm 4 a single ``bisect`` plus one comparison.

Construction discovers a group's intervals shortest first, not
chronologically, so :meth:`LabelSet.append` inserts each one at its
chronological place.  A group is therefore searchable at every point of
construction, and the chronological sort the paper schedules at the end
of Algorithm 3 never has to run.  :meth:`LabelSet.finalize` only closes
the set: an append after it raises.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from repro.errors import IndexBuildError

LabelEntry = Tuple[int, int, int]  # (hub rank, start, end)

#: Estimated bytes per stored label triplet, mirroring the paper's C++
#: layout: a 32-bit hub id amortised over its group plus two 32-bit
#: timestamps per interval.  Used for the Fig. 5 index-size experiment.
BYTES_PER_INTERVAL = 8
BYTES_PER_HUB = 8  # hub id + offset pointer


class LabelSet:
    """One direction of one vertex's labels (the Fig. 3 pair of arrays)."""

    __slots__ = ("hub_ranks", "offsets", "starts", "ends", "finalized")

    def __init__(self):
        self.hub_ranks: List[int] = []
        #: ``offsets[i] .. offsets[i+1]`` is hub *i*'s slice of the
        #: interval arrays; ``len(offsets) == len(hub_ranks) + 1``.
        self.offsets: List[int] = [0]
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.finalized = False

    # -- construction-time API ----------------------------------------

    def append(self, hub_rank: int, start: int, end: int) -> None:
        """Record that the vertex relates to hub *hub_rank* in ``[start, end]``.

        Hubs must arrive in non-decreasing rank order (they do: the
        construction loop processes hubs by rank).  The interval is
        inserted at its chronological place in the hub's group; the
        caller guarantees it neither contains nor lies inside a member
        (the builders reject such tuples as covered).  Raises
        :class:`~repro.errors.IndexBuildError` once the set is finalized.
        """
        if self.finalized:
            raise IndexBuildError("cannot append to a finalized label set")
        if not self.hub_ranks or self.hub_ranks[-1] != hub_rank:
            assert not self.hub_ranks or hub_rank > self.hub_ranks[-1], (
                "hubs must be appended in increasing rank order"
            )
            self.hub_ranks.append(hub_rank)
            self.offsets.append(self.offsets[-1])
        hi = self.offsets[-1]
        k = bisect_left(self.starts, start, self.offsets[-2], hi)
        self.starts.insert(k, start)
        self.ends.insert(k, end)
        self.offsets[-1] = hi + 1

    def finalize(self) -> None:
        """Close the set to further appends (idempotent)."""
        self.finalized = True

    # -- lookup API ----------------------------------------------------

    @property
    def num_hubs(self) -> int:
        return len(self.hub_ranks)

    @property
    def num_entries(self) -> int:
        """Number of stored triplets (paper: label size ``|L(u)|``)."""
        return len(self.starts)

    def __len__(self) -> int:
        return self.num_entries

    def group_bounds(self, hub_rank: int) -> Optional[Tuple[int, int]]:
        """Slice ``(lo, hi)`` of *hub_rank*'s intervals, or ``None``."""
        i = bisect_left(self.hub_ranks, hub_rank)
        if i < len(self.hub_ranks) and self.hub_ranks[i] == hub_rank:
            return self.offsets[i], self.offsets[i + 1]
        return None

    def group_intervals(self, gi: int) -> List[Tuple[int, int]]:
        """Intervals of the *gi*-th hub group, in stored order."""
        lo, hi = self.offsets[gi], self.offsets[gi + 1]
        return list(zip(self.starts[lo:hi], self.ends[lo:hi]))

    def entries(self) -> Iterator[LabelEntry]:
        """All triplets ``(hub_rank, start, end)`` in stored order."""
        for gi, hub in enumerate(self.hub_ranks):
            lo, hi = self.offsets[gi], self.offsets[gi + 1]
            for k in range(lo, hi):
                yield (hub, self.starts[k], self.ends[k])

    def estimated_bytes(self) -> int:
        """Approximate on-disk/in-memory size under the paper's layout."""
        return BYTES_PER_HUB * self.num_hubs + BYTES_PER_INTERVAL * self.num_entries


class TILLLabels:
    """The complete label family of a graph: one or two sets per vertex.

    For undirected graphs ``out_labels[i] is in_labels[i]`` — a single
    label set per vertex, exactly as the paper prescribes.
    """

    __slots__ = ("out_labels", "in_labels", "directed")

    def __init__(self, num_vertices: int, directed: bool):
        self.directed = directed
        self.out_labels: List[LabelSet] = [LabelSet() for _ in range(num_vertices)]
        if directed:
            self.in_labels: List[LabelSet] = [LabelSet() for _ in range(num_vertices)]
        else:
            self.in_labels = self.out_labels

    @property
    def num_vertices(self) -> int:
        return len(self.out_labels)

    def finalize(self) -> None:
        for label in self.out_labels:
            label.finalize()
        if self.directed:
            for label in self.in_labels:
                label.finalize()

    def total_entries(self) -> int:
        """Total number of stored triplets over all vertices."""
        total = sum(label.num_entries for label in self.out_labels)
        if self.directed:
            total += sum(label.num_entries for label in self.in_labels)
        return total

    def estimated_bytes(self) -> int:
        """Approximate index size for the Fig. 5 experiment."""
        total = sum(label.estimated_bytes() for label in self.out_labels)
        if self.directed:
            total += sum(label.estimated_bytes() for label in self.in_labels)
        return total
