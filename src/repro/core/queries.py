"""Query processing over TILL labels (paper Section V).

All functions here operate at the *internal index* level: vertices are
dense ints, hubs are identified by their rank in the vertex order.
The public, label-level API lives in :class:`repro.core.index.TILLIndex`.

Labels are built as per-vertex :class:`~repro.core.labels.LabelSet`
objects and flattened once, when the :class:`~repro.core.index.TILLIndex`
is constructed, into a :class:`~repro.core.flatstore.FlatTILLStore`.
Every query then runs one of two kernels over that store — global CSR
offsets, every buffer reference bound to a local, many ``(ui, vi)``
pairs per call:

* :func:`flat_span_batch` — Algorithm 4 ``Span-Reach``: rank-ordered
  merge-join of the two hub slices and a binary search per common hub
  over chronologically sorted skyline intervals;
* :func:`flat_theta_batch` — Algorithm 5 ``ES-Reach*``: the same
  merge-join with a sliding-window two-pointer pass per common hub.

Both kernels answer the first pair of a run of consecutive pairs with
one source ``u`` by the merge-join.  On the run's second pair they
build, once, a per-source view of ``L_out(u)`` for the window — the
span kernel the hub set ``H = {rank[u]} ∪ {h ∈ L_out(u) : group h
holds a contained interval}``, the θ kernel a map from those hubs to
their contained runs — and answer the rest of the run by walking only
``L_in(v)``: ``O(|L_out(u)|)`` once per run plus ``O(|L_in(v)|)`` per
target.  A run of one pair never builds it.

The kernels are *unchecked*: window already validated, ``ui != vi``
and any prefilter handled by the caller.  The validated one-query entry
points :func:`span_reachable`, :func:`theta_reachable` and
:func:`theta_reachable_naive` (the paper's ``ES-Reach`` baseline: one
``Span-Reach`` per θ-length window position) do that checking — window
validation, the ``ui == vi`` shortcut and the Lemma 9/10 prefilter —
and then call a kernel with one pair.

The construction-time pruning check (Algorithm 3 line 10) is a span
query against a partially built index; it lives with the builders as
:func:`repro.core.construction.covered`.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.intervals import Interval, as_interval, validate_theta_window
from repro.graph.temporal_graph import TemporalGraph


# ----------------------------------------------------------------------
# Algorithms 4 and 5 over the flat store
# ----------------------------------------------------------------------


def flat_span_batch(store, rank, pairs, ws, we) -> list:
    """Unchecked Algorithm 4 over many ``(ui, vi)`` pairs at once.

    Assumes a valid window ``[ws, we]``, ``ui != vi`` for every pair,
    and any desired prefilter already applied.  The ten buffer
    bindings are hoisted out of the pair loop — on a serving batch
    those attribute loads rival the probe itself.  Pairs may arrive in
    any order; consecutive pairs sharing a source (the engine's
    by-source grouping) reuse the source-side slice bounds and rank,
    and from the run's second pair on are answered from the run's hub
    set ``H`` (see the module docstring) instead of the merge-join.
    The per-group containment probe is the skyline binary search of
    :func:`repro.core.intervals.first_contained` inlined against the
    global offset arrays.
    """
    out = store.out
    inn = store.inn
    o_voff = out.vertex_offsets
    o_hubs = out.hub_ranks
    o_ioff = out.interval_offsets
    o_starts = out.starts
    o_ends = out.ends
    i_voff = inn.vertex_offsets
    i_hubs = inn.hub_ranks
    i_ioff = inn.interval_offsets
    i_starts = inn.starts
    i_ends = inn.ends
    answers = []
    append = answers.append
    last_ui = a0 = a1 = ru = -1
    hubs = None
    for ui, vi in pairs:
        if ui != last_ui:
            last_ui = ui
            a0, a1 = o_voff[ui], o_voff[ui + 1]
            ru = rank[ui]
            hubs = None
        elif hubs is None:
            # Second pair of a source run: build the run's hub set
            # H = {rank[u]} ∪ {h ∈ L_out(u) : group h fits the window}.
            hubs = {ru}
            for g in range(a0, a1):
                lo, hi = o_ioff[g], o_ioff[g + 1]
                k = lo if o_starts[lo] >= ws \
                    else bisect_left(o_starts, ws, lo, hi)
                if k < hi and o_ends[k] <= we:
                    hubs.add(o_hubs[g])
        if hubs is not None:
            # Condition (i) is rank[v] ∈ H; (ii) and (iii) are a hub of
            # L_in(v) in H whose group in L_in(v) fits the window.
            hit = rank[vi] in hubs
            if not hit:
                for j in range(i_voff[vi], i_voff[vi + 1]):
                    if i_hubs[j] in hubs:
                        lo, hi = i_ioff[j], i_ioff[j + 1]
                        k = lo if i_starts[lo] >= ws \
                            else bisect_left(i_starts, ws, lo, hi)
                        if k < hi and i_ends[k] <= we:
                            hit = True
                            break
            append(hit)
            continue
        hit = False
        # Condition (i): v itself is a hub of u's out-label.  Probes
        # test the group's first in-range entry directly before paying
        # a bisect call — wide serving windows nearly always hit it.
        rv = rank[vi]
        g = bisect_left(o_hubs, rv, a0, a1)
        if g < a1 and o_hubs[g] == rv:
            lo, hi = o_ioff[g], o_ioff[g + 1]
            k = lo if o_starts[lo] >= ws \
                else bisect_left(o_starts, ws, lo, hi)
            if k < hi and o_ends[k] <= we:
                hit = True
        if not hit:
            b0, b1 = i_voff[vi], i_voff[vi + 1]
            # Condition (ii): u itself is a hub of v's in-label.
            g = bisect_left(i_hubs, ru, b0, b1)
            if g < b1 and i_hubs[g] == ru:
                lo, hi = i_ioff[g], i_ioff[g + 1]
                k = lo if i_starts[lo] >= ws \
                    else bisect_left(i_starts, ws, lo, hi)
                if k < hi and i_ends[k] <= we:
                    hit = True
            if not hit:
                # Condition (iii): rank-ordered merge-join.
                i, j = a0, b0
                while i < a1 and j < b1:
                    ha = o_hubs[i]
                    hb = i_hubs[j]
                    if ha < hb:
                        i += 1
                    elif ha > hb:
                        j += 1
                    else:
                        lo, hi = o_ioff[i], o_ioff[i + 1]
                        k = lo if o_starts[lo] >= ws \
                            else bisect_left(o_starts, ws, lo, hi)
                        if k < hi and o_ends[k] <= we:
                            lo, hi = i_ioff[j], i_ioff[j + 1]
                            k = lo if i_starts[lo] >= ws \
                                else bisect_left(i_starts, ws, lo, hi)
                            if k < hi and i_ends[k] <= we:
                                hit = True
                                break
                        i += 1
                        j += 1
        append(hit)
    return answers


def flat_theta_batch(store, rank, pairs, ws, we, theta) -> list:
    """Unchecked Algorithm 5 (``ES-Reach*``) over many ``(ui, vi)``
    pairs at once.

    Same caller contract, buffer hoisting and source runs as
    :func:`flat_span_batch` (a run's later pairs use its hub → contained
    run map); additionally assumes the window passed
    :func:`~repro.core.intervals.validate_theta_window`.
    """
    out = store.out
    inn = store.inn
    o_voff = out.vertex_offsets
    o_hubs = out.hub_ranks
    o_ioff = out.interval_offsets
    o_starts = out.starts
    o_ends = out.ends
    i_voff = inn.vertex_offsets
    i_hubs = inn.hub_ranks
    i_ioff = inn.interval_offsets
    i_starts = inn.starts
    i_ends = inn.ends
    answers = []
    append = answers.append
    last_ui = a0 = a1 = ru = -1
    runs = short = None
    for ui, vi in pairs:
        if ui != last_ui:
            last_ui = ui
            a0, a1 = o_voff[ui], o_voff[ui + 1]
            ru = rank[ui]
            runs = None
        elif runs is None:
            # Second pair of a source run: map each hub of L_out(u)
            # whose group fits the window to its contained run
            # ``(first index, group end)``; *short* holds the hubs with
            # a contained interval of length ≤ θ.
            runs = {}
            short = set()
            for g in range(a0, a1):
                lo, hi = o_ioff[g], o_ioff[g + 1]
                k = lo if o_starts[lo] >= ws \
                    else bisect_left(o_starts, ws, lo, hi)
                if k < hi and o_ends[k] <= we:
                    h = o_hubs[g]
                    runs[h] = (k, hi)
                    while k < hi and o_ends[k] <= we:
                        if o_ends[k] - o_starts[k] + 1 <= theta:
                            short.add(h)
                            break
                        k += 1
        hit = False
        b0, b1 = i_voff[vi], i_voff[vi + 1]
        if runs is not None:
            hit = rank[vi] in short  # condition (1) from the map
        else:
            # Conditions (1)/(2): a single ≤θ entry whose hub is the
            # other endpoint, scanned over the contained chronological
            # run.
            rv = rank[vi]
            g = bisect_left(o_hubs, rv, a0, a1)
            if g < a1 and o_hubs[g] == rv:
                lo, hi = o_ioff[g], o_ioff[g + 1]
                k = lo if o_starts[lo] >= ws \
                    else bisect_left(o_starts, ws, lo, hi)
                while k < hi and o_ends[k] <= we:
                    if o_ends[k] - o_starts[k] + 1 <= theta:
                        hit = True
                        break
                    k += 1
        if not hit:
            g = bisect_left(i_hubs, ru, b0, b1)
            if g < b1 and i_hubs[g] == ru:
                lo, hi = i_ioff[g], i_ioff[g + 1]
                k = lo if i_starts[lo] >= ws \
                    else bisect_left(i_starts, ws, lo, hi)
                while k < hi and i_ends[k] <= we:
                    if i_ends[k] - i_starts[k] + 1 <= theta:
                        hit = True
                        break
                    k += 1
        if not hit and runs is not None:
            # Condition (3) from the map: walk L_in(v) and run the
            # two-pointer pass from each mapped hub's contained run.
            for j in range(b0, b1):
                run = runs.get(i_hubs[j])
                if run is None:
                    continue
                k, o_hi = run
                n_lo, n_hi = i_ioff[j], i_ioff[j + 1]
                kp = bisect_left(i_starts, ws, n_lo, n_hi)
                while k < o_hi and kp < n_hi:
                    oe = o_ends[k]
                    ne = i_ends[kp]
                    if oe > we or ne > we:
                        break
                    os_ = o_starts[k]
                    ns = i_starts[kp]
                    span = (oe if oe > ne else ne) \
                        - (os_ if os_ < ns else ns) + 1
                    if span <= theta:
                        hit = True
                        break
                    if os_ <= ns:
                        k += 1
                    else:
                        kp += 1
                if hit:
                    break
        elif not hit:
            # Condition (3): merge-join + two-pointer pass per common hub.
            i, j = a0, b0
            while i < a1 and j < b1:
                ha = o_hubs[i]
                hb = i_hubs[j]
                if ha < hb:
                    i += 1
                elif ha > hb:
                    j += 1
                else:
                    o_lo, o_hi = o_ioff[i], o_ioff[i + 1]
                    n_lo, n_hi = i_ioff[j], i_ioff[j + 1]
                    k = bisect_left(o_starts, ws, o_lo, o_hi)
                    kp = bisect_left(i_starts, ws, n_lo, n_hi)
                    while k < o_hi and kp < n_hi:
                        oe = o_ends[k]
                        ne = i_ends[kp]
                        if oe > we or ne > we:
                            break
                        os_ = o_starts[k]
                        ns = i_starts[kp]
                        span = (oe if oe > ne else ne) \
                            - (os_ if os_ < ns else ns) + 1
                        if span <= theta:
                            hit = True
                            break
                        if os_ <= ns:
                            k += 1
                        else:
                            kp += 1
                    if hit:
                        break
                    i += 1
                    j += 1
        append(hit)
    return answers


# ----------------------------------------------------------------------
# validated one-query entry points
# ----------------------------------------------------------------------


def _settled(graph: TemporalGraph, ui: int, vi: int, window: Interval,
             prefilter: bool):
    """The answer fixed before any label is read, else ``None``.

    ``True`` for ``ui == vi``; ``False`` when *prefilter* is set and
    the Lemma 9/10 neighbor-timestamp precheck fails (``ui`` has no
    out-edge or ``vi`` no in-edge inside the window — requires a
    frozen graph).  The check over the full window is also sound for
    every subwindow: an edge inside a subwindow is inside the window.
    """
    if ui == vi:
        return True
    if prefilter and not (
        graph.has_out_edge_in(ui, window.start, window.end)
        and graph.has_in_edge_in(vi, window.start, window.end)
    ):
        return False
    return None


def span_reachable(
    graph: TemporalGraph,
    store,
    rank: list,
    ui: int,
    vi: int,
    window: Interval,
    prefilter: bool = True,
) -> bool:
    """Algorithm 4: span-reachability of internal vertices *ui* → *vi*.

    Parameters
    ----------
    store:
        The index's :class:`~repro.core.flatstore.FlatTILLStore`.
    rank:
        ``rank[v]`` = position of vertex ``v`` in the construction order.
    prefilter:
        Apply the Lemma 9/10 neighbor-timestamp prechecks (requires a
        frozen graph).  Disable for the pruning ablation.

    Raises :class:`~repro.errors.InvalidIntervalError` for a malformed
    window (e.g. reversed bounds) — the same contract as the
    :class:`~repro.core.index.TILLIndex` facade, checked *before* the
    ``ui == vi`` shortcut so a broken query never yields an answer.
    """
    window = as_interval(window)
    settled = _settled(graph, ui, vi, window, prefilter)
    if settled is not None:
        return settled
    return flat_span_batch(store, rank, ((ui, vi),),
                           window.start, window.end)[0]


def theta_reachable(
    graph: TemporalGraph,
    store,
    rank: list,
    ui: int,
    vi: int,
    window: Interval,
    theta: int,
    prefilter: bool = True,
) -> bool:
    """Algorithm 5 ``ES-Reach*``: θ-reachability of *ui* → *vi*.

    ``u`` θ-reaches ``v`` in ``window`` iff some θ-length subwindow
    witnesses span-reachability (Definition 2).  Runs in
    ``O(|L_out(u)| + |L_in(v)|)``.

    Raises :class:`~repro.errors.InvalidIntervalError` for ``theta < 1``
    or a window shorter than ``theta`` — the same contract as the
    :class:`~repro.core.index.TILLIndex` facade.
    """
    window = validate_theta_window(window, theta)
    settled = _settled(graph, ui, vi, window, prefilter)
    if settled is not None:
        return settled
    return flat_theta_batch(store, rank, ((ui, vi),),
                            window.start, window.end, theta)[0]


def theta_reachable_naive(
    graph: TemporalGraph,
    store,
    rank: list,
    ui: int,
    vi: int,
    window: Interval,
    theta: int,
    prefilter: bool = True,
) -> bool:
    """The paper's ``ES-Reach`` baseline: slide a θ-length window over
    the query interval and run ``Span-Reach`` for each position.

    Validation and the Lemma 9/10 prefilter run *once*, over the full
    window, before the loop; each θ-position then runs the unchecked
    span kernel on the one pair.  Raises
    :class:`~repro.errors.InvalidIntervalError` exactly like
    :func:`theta_reachable`.
    """
    window = validate_theta_window(window, theta)
    settled = _settled(graph, ui, vi, window, prefilter)
    if settled is not None:
        return settled
    pair = ((ui, vi),)
    for start in range(window.start, window.end - theta + 2):
        if flat_span_batch(store, rank, pair, start, start + theta - 1)[0]:
            return True
    return False
