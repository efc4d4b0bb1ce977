"""Tests for Span-Reach query processing (Algorithm 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalGraph, TILLIndex
from repro.core.construction import (
    build_labels_basic,
    build_labels_optimized,
    covered,
    root_hub_groups,
)
from repro.core.intervals import Interval
from repro.core.labels import LabelSet
from repro.core.ordering import identity_order
from repro.core.queries import span_reachable
from repro.errors import IndexBuildError
from repro.graph.projection import span_reaches_bruteforce

from tests.conftest import random_graph


def _query(index, u, v, window, **kw):
    g = index.graph
    return span_reachable(
        g, index.flat, index.order.rank,
        g.index_of(u), g.index_of(v), Interval(*window), **kw
    )


class TestSpanReach:
    def test_same_vertex_true(self, paper_index):
        assert _query(paper_index, "v7", "v7", (50, 60))

    def test_example1(self, paper_index):
        assert _query(paper_index, "v1", "v8", (3, 5))

    def test_definition1_example(self, paper_index):
        assert _query(paper_index, "v1", "v3", (2, 4))

    def test_example8_style_narrow_window(self, paper_index):
        # v6 -> v4: needs v6->v2@5, v2->v1@6, v1->v5@5, v5->v8@4, v8->v4@6
        assert _query(paper_index, "v6", "v4", (4, 6))
        assert not _query(paper_index, "v6", "v4", (5, 6))

    def test_unreachable_pair(self, paper_index):
        assert not _query(paper_index, "v10", "v1", (1, 8))

    def test_prefilter_equivalence(self, paper_index):
        # Lemma 9/10 prefilters never change answers.
        vs = ["v1", "v2", "v5", "v8", "v10"]
        for u in vs:
            for v in vs:
                for window in [(1, 3), (3, 5), (2, 8)]:
                    assert _query(paper_index, u, v, window, prefilter=True) == \
                        _query(paper_index, u, v, window, prefilter=False)

    def test_single_timestamp_window(self, paper_index):
        assert _query(paper_index, "v5", "v8", (4, 4))
        assert not _query(paper_index, "v5", "v8", (2, 2))


class TestConditionPaths:
    """Exercise each of the three answer conditions separately."""

    def test_condition_target_in_out_label(self):
        # rank(b) < rank(a): b becomes a's hub -> condition (i) via L_out
        g = TemporalGraph.from_edges(
            [("b", "x", 1), ("b", "y", 2), ("a", "b", 5), ("z", "b", 6)]
        )
        index = TILLIndex.build(g)
        assert _query(index, "a", "b", (5, 5))

    def test_condition_source_in_in_label(self):
        g = TemporalGraph.from_edges(
            [("a", "x", 1), ("a", "y", 2), ("a", "b", 5), ("b", "w", 9)]
        )
        index = TILLIndex.build(g)
        # rank(a) < rank(b): a sits in L_in(b) -> condition (ii)
        assert _query(index, "a", "b", (5, 5))

    def test_condition_common_hub(self):
        # hub h has highest degree; a -> h -> b, both endpoints low rank
        g = TemporalGraph.from_edges(
            [
                ("a", "h", 2), ("h", "b", 3),
                ("h", "p", 1), ("h", "q", 1), ("p", "h", 4), ("q", "h", 5),
            ]
        )
        index = TILLIndex.build(g)
        assert _query(index, "a", "b", (2, 3))
        assert not _query(index, "a", "b", (3, 3))


class TestCoveredHelper:
    def test_same_root_coverage(self):
        """Same-root dominance is the search's skyline, not ``covered``.

        The root ``r`` reaches ``v`` in [1, 5] (via ``x``) and in [3, 3]
        (via ``y``).  ``covered`` never reads the target's group for the
        root, yet both builders keep only [3, 3]: the nested tuple is
        evicted from ``v``'s skyline before it is popped."""
        target = LabelSet()
        target.append(4, 3, 5)
        assert not covered(root_hub_groups(LabelSet()), target, 1, 8)
        g = TemporalGraph(directed=True)
        for label in ("r", "x", "y", "v"):
            g.add_vertex(label)
        for edge in [("r", "x", 1), ("x", "v", 5), ("r", "y", 3),
                     ("y", "v", 3)]:
            g.add_edge(*edge)
        g.freeze()
        order = identity_order(g)
        vi = g.index_of("v")
        for build in (build_labels_optimized, build_labels_basic):
            in_label = build(g, order).in_labels[vi]
            assert in_label.hub_ranks[0] == order.rank[g.index_of("r")]
            assert in_label.group_intervals(0) == [(3, 3)]

    def test_common_hub_coverage(self):
        root_label = LabelSet()
        root_label.append(0, 2, 3)
        target_label = LabelSet()
        target_label.append(0, 4, 5)
        groups = root_hub_groups(root_label)
        assert covered(groups, target_label, 2, 5)
        assert not covered(groups, target_label, 3, 5)

    def test_no_common_hub(self):
        a = LabelSet()
        a.append(0, 1, 1)
        b = LabelSet()
        b.append(1, 1, 1)
        assert not covered(root_hub_groups(a), b, 0, 9)

    def test_root_label_is_closed(self):
        root_label = LabelSet()
        root_label.append(0, 2, 3)
        root_hub_groups(root_label)
        with pytest.raises(IndexBuildError):
            root_label.append(0, 5, 6)


class TestSpanAgainstOracle:
    @given(
        st.integers(0, 500),
        st.booleans(),
        st.integers(0, 9),
        st.integers(0, 9),
        st.integers(1, 10),
        st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, seed, directed, u, v, t1, dlen):
        g = random_graph(
            seed, num_vertices=10, num_edges=30, max_time=10, directed=directed
        )
        index = TILLIndex.build(g)
        window = (t1, t1 + dlen)
        assert _query(index, u, v, window) == span_reaches_bruteforce(
            g, u, v, window
        )

    @given(st.integers(0, 200), st.sampled_from(["identity", "random", "degree-sum"]))
    @settings(max_examples=40, deadline=None)
    def test_correct_under_any_ordering(self, seed, strategy):
        g = random_graph(seed, num_vertices=9, num_edges=25, max_time=8)
        index = TILLIndex.build(g, ordering=strategy)
        for u in range(0, 9, 3):
            for v in range(1, 9, 3):
                for window in [(1, 4), (3, 8), (5, 5)]:
                    assert _query(index, u, v, window) == \
                        span_reaches_bruteforce(g, u, v, window)


class TestWindowValidatedAtAlgorithmLayer:
    """A malformed window must raise identically at the algorithm layer
    and the facade (previously ``queries.span_reachable`` silently
    answered: ``True`` for ``ui == vi``, and whatever the prefilter or
    label merge happened to produce otherwise)."""

    def test_reversed_window_raises(self, paper_index):
        from repro.errors import InvalidIntervalError

        with pytest.raises(InvalidIntervalError):
            _query(paper_index, "v1", "v8", (5, 1))

    def test_reversed_window_same_vertex_raises(self, paper_index):
        # The ui == vi shortcut must not outrun validation.
        from repro.errors import InvalidIntervalError

        with pytest.raises(InvalidIntervalError):
            _query(paper_index, "v7", "v7", (60, 50))

    def test_reversed_window_prefilter_off_raises(self, paper_index):
        from repro.errors import InvalidIntervalError

        with pytest.raises(InvalidIntervalError):
            _query(paper_index, "v1", "v8", (5, 1), prefilter=False)

    def test_facade_and_algorithm_agree_on_reversed_windows(
        self, paper_index
    ):
        from repro.errors import InvalidIntervalError

        with pytest.raises(InvalidIntervalError):
            paper_index.span_reachable("v1", "v8", (5, 1))
        with pytest.raises(InvalidIntervalError):
            _query(paper_index, "v1", "v8", (5, 1))

    def test_valid_window_still_answers(self, paper_index):
        assert _query(paper_index, "v1", "v8", (3, 5))
