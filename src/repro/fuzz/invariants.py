"""Structural label invariants (the properties Algorithms 4/5 assume).

The query algorithms never re-derive these — they *silently rely* on
them, so a violation turns into a silent wrong answer, not a crash:

1. **Offsets consistent** — ``offsets[0] == 0``, strictly increasing
   (every hub group is non-empty), and ``offsets[-1]`` equals the
   interval-array length.
2. **Hub ranks strictly ascending** and within ``[0, n)`` — the
   merge-join and ``bisect``-based group lookup both assume a sorted,
   duplicate-free hub array.
3. **Hub rank strictly above the owner** — construction only labels
   vertices ranked *below* the root, so every entry of ``L(v)`` names
   a hub processed earlier in the order (``hub_rank < rank[v]``); in
   particular no vertex is its own hub.
4. **Valid intervals** — ``start <= end`` for every entry, bounds
   inside the graph's ``[min_time, max_time]``, and length at most the
   build-time ϑ cap when one was set.
5. **Chronologically sorted antichain groups** — within one hub group
   both starts *and* ends are strictly increasing (skyline property +
   chronological insertion by ``LabelSet.append``).  This is exactly
   what makes :func:`repro.core.intervals.first_contained` a single
   ``bisect`` plus one comparison.
6. **Undirected symmetry** — for undirected graphs the out- and
   in-label families are one shared object per vertex.

:func:`label_invariant_violations` returns every violation found;
:func:`check_labels` raises :class:`repro.errors.LabelInvariantError`
on the first non-empty report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import LabelInvariantError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import TILLIndex
    from repro.core.labels import LabelSet


def _group_violations(
    label: "LabelSet",
    where: str,
    own_rank: int,
    num_vertices: int,
    min_time,
    max_time,
    vartheta,
) -> List[str]:
    found: List[str] = []
    hubs = label.hub_ranks
    offsets = label.offsets
    starts, ends = label.starts, label.ends

    if not label.finalized:
        found.append(f"{where}: label set not finalized")
    if len(offsets) != len(hubs) + 1:
        found.append(
            f"{where}: offsets length {len(offsets)} != num hubs "
            f"{len(hubs)} + 1"
        )
        return found  # group iteration below would be meaningless
    if offsets and offsets[0] != 0:
        found.append(f"{where}: offsets[0] is {offsets[0]}, expected 0")
    if offsets and offsets[-1] != len(starts):
        found.append(
            f"{where}: offsets[-1]={offsets[-1]} does not match "
            f"{len(starts)} stored intervals"
        )
    if len(starts) != len(ends):
        found.append(
            f"{where}: starts/ends length mismatch "
            f"({len(starts)} vs {len(ends)})"
        )
        return found

    prev_hub = -1
    for gi, hub in enumerate(hubs):
        if hub <= prev_hub:
            found.append(
                f"{where}: hub ranks not strictly ascending at group {gi} "
                f"({prev_hub} then {hub})"
            )
        prev_hub = hub
        if not 0 <= hub < num_vertices:
            found.append(f"{where}: hub rank {hub} outside [0, {num_vertices})")
        if hub >= own_rank:
            found.append(
                f"{where}: hub rank {hub} >= own rank {own_rank} "
                "(labels may only name higher-ranked hubs)"
            )
        lo, hi = offsets[gi], offsets[gi + 1]
        if hi <= lo:
            found.append(f"{where}: empty hub group {gi} (hub rank {hub})")
            continue
        if hi > len(starts):
            found.append(
                f"{where}: group {gi} slice [{lo}, {hi}) exceeds the "
                f"{len(starts)} stored intervals"
            )
            continue
        prev_start = prev_end = None
        for k in range(lo, hi):
            s, e = starts[k], ends[k]
            if s > e:
                found.append(
                    f"{where}: hub {hub} entry {k} has start {s} > end {e}"
                )
            if min_time is not None and (s < min_time or e > max_time):
                found.append(
                    f"{where}: hub {hub} entry {k} interval [{s}, {e}] "
                    f"outside graph lifetime [{min_time}, {max_time}]"
                )
            if vartheta is not None and e - s + 1 > vartheta:
                found.append(
                    f"{where}: hub {hub} entry {k} length {e - s + 1} "
                    f"exceeds vartheta={vartheta}"
                )
            if prev_start is not None:
                if s <= prev_start:
                    found.append(
                        f"{where}: hub {hub} starts not strictly ascending "
                        f"at entry {k} ({prev_start} then {s})"
                    )
                if e <= prev_end:
                    found.append(
                        f"{where}: hub {hub} ends not strictly ascending "
                        f"at entry {k} ({prev_end} then {e}) — group is "
                        "not a sorted antichain"
                    )
            prev_start, prev_end = s, e
    return found


def label_invariant_violations(index: "TILLIndex") -> List[str]:
    """Every structural invariant violation in *index*'s label family.

    An empty list means the labels are structurally sound (it does not
    by itself prove query *correctness* — that is the differential
    checker's job).
    """
    graph = index.graph
    labels = index.labels
    rank = index.order.rank
    n = graph.num_vertices
    found: List[str] = []

    if labels.directed != graph.directed:
        found.append(
            f"labels.directed={labels.directed} but "
            f"graph.directed={graph.directed}"
        )
    if labels.num_vertices != n:
        found.append(
            f"label family covers {labels.num_vertices} vertices but the "
            f"graph has {n}"
        )
        return found

    if not graph.directed and labels.in_labels is not labels.out_labels:
        found.append(
            "undirected graph: in_labels is not the shared out_labels "
            "object (out/in symmetry broken)"
        )

    min_time, max_time = graph.min_time, graph.max_time
    for ui in range(n):
        own_rank = rank[ui]
        vertex = graph.label_of(ui)
        found.extend(
            _group_violations(
                labels.out_labels[ui], f"L_out({vertex!r})", own_rank, n,
                min_time, max_time, index.vartheta,
            )
        )
        if graph.directed:
            found.extend(
                _group_violations(
                    labels.in_labels[ui], f"L_in({vertex!r})", own_rank, n,
                    min_time, max_time, index.vartheta,
                )
            )
        elif labels.in_labels[ui] is not labels.out_labels[ui]:
            found.append(
                f"undirected graph: vertex {vertex!r} has distinct "
                "out/in label sets"
            )
    return found


def check_labels(index: "TILLIndex") -> None:
    """Assert every structural label invariant of *index*.

    Raises :class:`repro.errors.LabelInvariantError` carrying the full
    violation list; returns ``None`` when the labels are sound.
    """
    violations = label_invariant_violations(index)
    if violations:
        raise LabelInvariantError(violations)
