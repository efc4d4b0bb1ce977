"""Tests for the label store (paper Fig. 3 layout)."""

import pytest

from repro.core.intervals import Interval, first_contained
from repro.core.labels import BYTES_PER_HUB, BYTES_PER_INTERVAL, LabelSet, TILLLabels
from repro.errors import IndexBuildError


class TestLabelSetConstruction:
    def test_empty(self):
        label = LabelSet()
        assert label.num_hubs == 0
        assert label.num_entries == 0
        assert label.offsets == [0]

    def test_append_same_hub_grows_group(self):
        label = LabelSet()
        label.append(0, 5, 6)
        label.append(0, 1, 3)
        assert label.num_hubs == 1
        assert label.num_entries == 2
        assert label.offsets == [0, 2]

    def test_append_new_hub_opens_group(self):
        label = LabelSet()
        label.append(0, 5, 6)
        label.append(2, 1, 3)
        assert label.hub_ranks == [0, 2]
        assert label.offsets == [0, 1, 2]

    def test_hubs_must_arrive_in_rank_order(self):
        label = LabelSet()
        label.append(3, 1, 2)
        with pytest.raises(AssertionError):
            label.append(1, 1, 2)

    def test_len_counts_entries(self):
        label = LabelSet()
        label.append(0, 1, 1)
        label.append(0, 3, 4)
        assert len(label) == 2


class TestFinalize:
    def test_sorts_groups_chronologically(self):
        label = LabelSet()
        label.append(0, 5, 6)   # discovered shortest-first,
        label.append(0, 1, 3)   # not chronological
        label.finalize()
        assert label.group_intervals(0) == [(1, 3), (5, 6)]

    def test_finalize_idempotent(self):
        label = LabelSet()
        label.append(0, 5, 6)
        label.append(0, 1, 3)
        label.finalize()
        first = label.group_intervals(0)
        label.finalize()
        assert label.group_intervals(0) == first

    def test_append_after_finalize_raises(self):
        label = LabelSet()
        label.append(0, 5, 6)
        label.finalize()
        with pytest.raises(IndexBuildError):
            label.append(0, 1, 3)
        with pytest.raises(IndexBuildError):
            label.append(1, 1, 3)
        assert label.group_intervals(0) == [(5, 6)]
        assert label.hub_ranks == [0]

    def test_finalize_only_sorts_within_groups(self):
        label = LabelSet()
        label.append(0, 9, 9)
        label.append(2, 1, 1)
        label.finalize()
        assert label.hub_ranks == [0, 2]
        assert label.group_intervals(0) == [(9, 9)]
        assert label.group_intervals(1) == [(1, 1)]


class TestLookup:
    def _make(self):
        label = LabelSet()
        label.append(1, 4, 6)
        label.append(1, 2, 5)
        label.append(5, 7, 7)
        label.finalize()
        return label

    def test_group_bounds_present(self):
        label = self._make()
        assert label.group_bounds(1) == (0, 2)
        assert label.group_bounds(5) == (2, 3)

    def test_group_bounds_absent(self):
        assert self._make().group_bounds(3) is None

    @staticmethod
    def _within(label, hub_rank, window):
        """Does *hub_rank*'s group hold an interval inside *window*?"""
        bounds = label.group_bounds(hub_rank)
        if bounds is None:
            return False
        lo, hi = bounds
        return first_contained(label.starts, label.ends, lo, hi,
                               window) >= 0

    def test_has_interval_within_finalized(self):
        label = self._make()
        assert label.group_intervals(0) == [(2, 5), (4, 6)]
        assert self._within(label, 1, Interval(2, 6))
        assert self._within(label, 1, Interval(4, 9))
        assert not self._within(label, 1, Interval(5, 6))
        assert not self._within(label, 9, Interval(0, 100))

    def test_has_interval_within_building(self):
        label = LabelSet()
        label.append(0, 5, 6)
        label.append(0, 1, 3)   # discovered shortest-first,
        label.append(0, 8, 11)  # inserted chronologically
        label.append(0, 2, 4)
        label.append(2, 9, 9)
        label.append(2, 3, 5)
        assert not label.finalized
        assert label.group_intervals(0) == [(1, 3), (2, 4), (5, 6), (8, 11)]
        assert label.group_intervals(1) == [(3, 5), (9, 9)]
        assert label.offsets == [0, 4, 6]
        assert self._within(label, 0, Interval(1, 4))
        assert self._within(label, 0, Interval(2, 6))
        assert not self._within(label, 0, Interval(3, 5))
        assert self._within(label, 2, Interval(6, 9))

    def test_entries_iteration(self):
        label = self._make()
        assert list(label.entries()) == [(1, 2, 5), (1, 4, 6), (5, 7, 7)]

    def test_estimated_bytes(self):
        label = self._make()
        assert label.estimated_bytes() == 2 * BYTES_PER_HUB + 3 * BYTES_PER_INTERVAL


class TestTILLLabels:
    def test_directed_has_two_families(self):
        labels = TILLLabels(3, directed=True)
        assert labels.out_labels[0] is not labels.in_labels[0]

    def test_undirected_shares_family(self):
        labels = TILLLabels(3, directed=False)
        assert labels.out_labels[0] is labels.in_labels[0]

    def test_total_entries_directed_counts_both(self):
        labels = TILLLabels(2, directed=True)
        labels.out_labels[0].append(0, 1, 1)
        labels.in_labels[1].append(0, 2, 2)
        assert labels.total_entries() == 2

    def test_total_entries_undirected_counts_once(self):
        labels = TILLLabels(2, directed=False)
        labels.out_labels[0].append(0, 1, 1)
        assert labels.total_entries() == 1

    def test_finalize_all(self):
        labels = TILLLabels(2, directed=True)
        labels.out_labels[0].append(0, 5, 6)
        labels.out_labels[0].append(0, 1, 3)
        labels.finalize()
        assert labels.out_labels[0].finalized
        assert labels.in_labels[1].finalized
