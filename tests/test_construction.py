"""Tests for index construction (Algorithms 2 & 3) and its invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalGraph, TILLIndex
from repro.core.construction import (
    BuildBudgetExceeded,
    build_labels_basic,
    build_labels_optimized,
)
from repro.core.intervals import dominates_or_equal
from repro.core.ordering import make_order
from repro.errors import IndexBuildError
from repro.graph.generators import path_temporal_graph, star_temporal_graph

from tests.conftest import random_graph


def _all_entries(labels):
    """(vertex, direction, hub, ts, te) tuples of a label family."""
    out = []
    for v, label in enumerate(labels.out_labels):
        out.extend((v, "out", h, s, e) for h, s, e in label.entries())
    if labels.directed:
        for v, label in enumerate(labels.in_labels):
            out.extend((v, "in", h, s, e) for h, s, e in label.entries())
    return out


class TestInvariants:
    """Structural invariants from the paper's lemmas."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lemma3_hub_ranks_strictly_higher(self, seed):
        g = random_graph(seed, num_vertices=12, num_edges=35, max_time=10)
        order = make_order(g)
        labels = build_labels_optimized(g, order)
        for v, _, hub, _, _ in _all_entries(labels):
            assert hub < order.rank[v], (
                "Lemma 3 violated: a hub must outrank the label's owner"
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_groups_are_skylines(self, seed):
        g = random_graph(seed, num_vertices=12, num_edges=35, max_time=10)
        labels = build_labels_optimized(g, make_order(g))
        families = [labels.out_labels]
        if labels.directed:
            families.append(labels.in_labels)
        for family in families:
            for label in family:
                for gi in range(label.num_hubs):
                    group = label.group_intervals(gi)
                    for i, a in enumerate(group):
                        for b in group[i + 1:]:
                            assert not dominates_or_equal(a, b)
                            assert not dominates_or_equal(b, a)

    @pytest.mark.parametrize("seed", range(6))
    def test_groups_chronologically_sorted(self, seed):
        g = random_graph(seed, num_vertices=12, num_edges=35, max_time=10)
        labels = build_labels_optimized(g, make_order(g))
        for label in labels.out_labels + (
            labels.in_labels if labels.directed else []
        ):
            for gi in range(label.num_hubs):
                group = label.group_intervals(gi)
                assert group == sorted(group)

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_are_true_reachability_tuples(self, seed):
        from repro.graph.projection import span_reaches_bruteforce

        g = random_graph(seed, num_vertices=10, num_edges=30, max_time=8)
        order = make_order(g)
        labels = build_labels_optimized(g, order)
        for v, direction, hub, ts, te in _all_entries(labels):
            hub_vertex = order.order[hub]
            if direction == "in":
                src, dst = hub_vertex, v
            else:
                src, dst = v, hub_vertex
            assert span_reaches_bruteforce(g, src, dst, (ts, te)), (
                "label entry records a non-existent reachability tuple"
            )


class TestBuilderEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_basic_and_optimized_identical_labels(self, seed):
        g = random_graph(seed, num_vertices=10, num_edges=30, max_time=8,
                         directed=seed % 2 == 0)
        order = make_order(g)
        a = build_labels_optimized(g, order)
        b = build_labels_basic(g, order)
        assert _all_entries(a) == _all_entries(b)

    @pytest.mark.parametrize("vartheta", [1, 2, 4])
    def test_equivalence_under_vartheta(self, vartheta):
        g = random_graph(77, num_vertices=10, num_edges=30, max_time=8)
        order = make_order(g)
        a = build_labels_optimized(g, order, vartheta=vartheta)
        b = build_labels_basic(g, order, vartheta=vartheta)
        assert _all_entries(a) == _all_entries(b)


class TestVartheta:
    def test_cap_limits_interval_lengths(self):
        g = random_graph(5, num_vertices=12, num_edges=40, max_time=12)
        labels = build_labels_optimized(g, make_order(g), vartheta=3)
        for _, _, _, ts, te in _all_entries(labels):
            assert te - ts + 1 <= 3

    def test_smaller_cap_never_bigger_index(self):
        g = random_graph(6, num_vertices=15, num_edges=50, max_time=15)
        order = make_order(g)
        sizes = [
            len(_all_entries(build_labels_optimized(g, order, vartheta=cap)))
            for cap in (1, 3, 6, None)
        ]
        assert sizes == sorted(sizes)

    def test_invalid_cap_rejected(self):
        g = random_graph(0)
        with pytest.raises(IndexBuildError):
            build_labels_optimized(g, make_order(g), vartheta=0)


class TestBudget:
    def test_budget_exceeded_raises(self):
        g = random_graph(1, num_vertices=40, num_edges=200, max_time=30)
        with pytest.raises(BuildBudgetExceeded) as excinfo:
            build_labels_basic(g, make_order(g), budget_seconds=0.0)
        assert excinfo.value.budget == 0.0
        assert excinfo.value.elapsed >= 0.0

    def test_generous_budget_fine(self):
        g = random_graph(1, num_vertices=10, num_edges=20, max_time=10)
        build_labels_optimized(g, make_order(g), budget_seconds=60.0)


class TestValidation:
    def test_unfrozen_graph_rejected(self):
        g = TemporalGraph()
        g.add_edge("a", "b", 1)
        order = make_order(g)
        with pytest.raises(IndexBuildError, match="frozen"):
            build_labels_optimized(g, order)

    def test_order_size_mismatch_rejected(self):
        g = random_graph(0, num_vertices=5)
        other = random_graph(0, num_vertices=7)
        with pytest.raises(IndexBuildError, match="order covers"):
            build_labels_optimized(g, make_order(other))

    def test_progress_hook_called_per_root(self):
        g = random_graph(0, num_vertices=6, num_edges=15)
        calls = []
        build_labels_optimized(
            g, make_order(g), progress=lambda done, total: calls.append((done, total))
        )
        assert calls == [(i, 6) for i in range(1, 7)]


class TestKnownTopologies:
    def test_star_center_first_gives_no_two_hop_labels(self):
        # With the hub ranked first, every leaf tuple (hub, leaf) is a
        # direct label; leaves never label each other.
        g = star_temporal_graph(6)
        index = TILLIndex.build(g)
        stats = index.stats()
        # one entry per leaf (hub in L_in(leaf)); out-labels of hub empty
        assert stats.total_entries == 6

    def test_decreasing_path_labels_still_answer(self):
        # Decreasing timestamps along a path: no time-respecting chain,
        # but span-reachability holds over the full window.
        g = path_temporal_graph(6, timestamps=[5, 4, 3, 2, 1])
        index = TILLIndex.build(g)
        assert index.span_reachable(0, 5, (1, 5))
        assert not index.span_reachable(0, 5, (2, 5))
        assert index.span_reachable(1, 5, (1, 4))

    def test_undirected_single_label_family(self):
        g = random_graph(9, num_vertices=10, num_edges=25, directed=False)
        labels = build_labels_optimized(g, make_order(g))
        assert labels.out_labels is labels.in_labels


class TestMinimality:
    """Theorem 2: every stored entry is load-bearing."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_removing_any_entry_breaks_some_query(self, seed):
        import copy

        from repro.core.flatstore import FlatTILLStore
        from repro.core.queries import span_reachable
        from repro.core.intervals import Interval

        g = random_graph(seed, num_vertices=8, num_edges=20, max_time=6)
        order = make_order(g)
        labels = build_labels_optimized(g, order)
        entries = _all_entries(labels)
        for victim in entries:
            v, direction, hub, ts, te = victim
            mutated = copy.deepcopy(labels)
            family = mutated.in_labels if direction == "in" else mutated.out_labels
            label = family[v]
            # remove the (hub, ts, te) triplet from the stored arrays
            gi = label.hub_ranks.index(hub)
            lo, hi = label.offsets[gi], label.offsets[gi + 1]
            k = next(
                i for i in range(lo, hi)
                if label.starts[i] == ts and label.ends[i] == te
            )
            del label.starts[k], label.ends[k]
            for j in range(gi + 1, len(label.offsets)):
                label.offsets[j] -= 1
            if label.offsets[gi] == label.offsets[gi + 1]:
                del label.hub_ranks[gi], label.offsets[gi + 1]
            # Theorem 2: the query (hub_vertex <-> v) over [ts, te] must
            # now be answered incorrectly.
            hub_vertex = order.order[hub]
            if direction == "in":
                src, dst = hub_vertex, v
            else:
                src, dst = v, hub_vertex
            got = span_reachable(
                g, FlatTILLStore.from_labels(mutated), order.rank,
                g.index_of(src), g.index_of(dst), Interval(ts, te),
            )
            assert not got, (
                f"entry {victim} is redundant -- index not minimal"
            )


class TestLemma7OnlyBuilder:
    """The ablation builder must emit identical labels (A4's premise)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_to_optimized(self, seed):
        g = random_graph(seed, num_vertices=10, num_edges=30, max_time=8,
                         directed=seed % 2 == 0)
        order = make_order(g)
        full = build_labels_optimized(g, order)
        unpruned = build_labels_optimized(
            g, order, prune_covered_subtrees=False
        )
        assert _all_entries(full) == _all_entries(unpruned)

    def test_registered_as_build_method(self):
        g = random_graph(3, num_vertices=8, num_edges=20, max_time=6)
        index = TILLIndex.build(g, method="lemma7-only")
        index.verify(samples=200)
