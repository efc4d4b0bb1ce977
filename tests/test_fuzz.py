"""Tests for the differential fuzzing & invariant subsystem."""

import pytest

from repro import TemporalGraph, TILLIndex
from repro.errors import LabelInvariantError
from repro.fuzz import (
    PROFILES,
    check_index,
    check_labels,
    check_pair_windows,
    check_span_query,
    check_theta_query,
    label_invariant_violations,
    make_case,
    replay,
    run_fuzz,
    shrink_failure,
)
from repro.fuzz.differential import Mismatch
from repro.fuzz.profiles import FuzzCase
from repro.core.serialization import load_flat_store
from repro.graph.projection import span_reaches_bruteforce

from tests.conftest import random_graph


class TestProfiles:
    def test_make_case_deterministic(self):
        a = make_case(PROFILES["small"], 7)
        b = make_case(PROFILES["small"], 7)
        assert a.description == b.description
        assert list(a.graph.edges()) == list(b.graph.edges())
        assert a.vartheta == b.vartheta

    def test_small_profile_covers_the_configuration_space(self):
        cases = [make_case(PROFILES["small"], s) for s in range(40)]
        assert any(c.directed for c in cases)
        assert any(not c.directed for c in cases)
        assert any(c.vartheta is not None for c in cases)
        assert any(c.vartheta is None for c in cases)
        # negative-timestamp configurations appear
        assert any(c.graph.min_time is not None and c.graph.min_time < 0
                   for c in cases)
        # multi-edges appear: some (u, v) pair with two timestamps
        def has_multi(g):
            seen = set()
            for u, v, _t in g.edges():
                if (u, v) in seen:
                    return True
                seen.add((u, v))
            return False
        assert any(has_multi(c.graph) for c in cases)

    def test_flat_round_trips_store_every_time_width(self, tmp_path):
        """The runner round-trips the odd flat seeds through a format-3
        file; among seeds 0-7 those store their times at every width, and
        seeds 0-17 (``make fuzz-smoke``) also send negative times through."""
        widths = set()
        negative = False
        for seed in range(1, 18, 2):
            case = make_case(PROFILES["flat"], seed)
            path = tmp_path / f"{seed}.till"
            TILLIndex.build(case.graph, vartheta=case.vartheta).save(path)
            _store, header = load_flat_store(path)
            if seed < 8:
                widths.update(d["types"]["starts"]
                              for d in header["flat"]["directions"])
            negative = negative or case.graph.min_time < 0
        assert widths == {"B", "H", "I", "q"}
        assert negative

    def test_all_profiles_build_valid_cases(self):
        for name, profile in PROFILES.items():
            case = make_case(profile, 0)
            assert case.profile == name
            assert case.graph.frozen
            if case.vartheta is not None:
                assert case.vartheta >= 1


class TestInvariants:
    def test_clean_indexes_pass(self):
        for seed in range(5):
            for directed in (True, False):
                g = random_graph(seed, num_vertices=9, num_edges=30,
                                 directed=directed)
                index = TILLIndex.build(g)
                assert label_invariant_violations(index) == []
                check_labels(index)  # does not raise

    def test_capped_index_passes_and_cap_is_checked(self):
        g = random_graph(3, num_vertices=9, num_edges=30)
        index = TILLIndex.build(g, vartheta=3)
        assert label_invariant_violations(index) == []
        # stretch one entry beyond the cap
        label = next(l for l in index.labels.out_labels if l.num_entries)
        label.ends[0] = label.starts[0] + 10
        assert any("vartheta" in v or "lifetime" in v
                   for v in label_invariant_violations(index))

    def test_inverted_interval_flagged(self):
        g = random_graph(1, num_vertices=8, num_edges=25)
        index = TILLIndex.build(g)
        label = next(l for l in index.labels.out_labels if l.num_entries)
        label.starts[0] = label.ends[0] + 1
        violations = label_invariant_violations(index)
        assert any("start" in v and "end" in v for v in violations)
        with pytest.raises(LabelInvariantError, match="invariant violation"):
            check_labels(index)

    def test_hub_order_violation_flagged(self):
        g = random_graph(2, num_vertices=8, num_edges=25)
        index = TILLIndex.build(g)
        label = next(l for l in index.labels.out_labels if l.num_hubs >= 2)
        label.hub_ranks[0], label.hub_ranks[1] = (
            label.hub_ranks[1], label.hub_ranks[0]
        )
        assert any("strictly ascending" in v
                   for v in label_invariant_violations(index))

    def test_own_rank_violation_flagged(self):
        g = random_graph(4, num_vertices=8, num_edges=25)
        index = TILLIndex.build(g)
        rank = index.order.rank
        ui = next(i for i in range(8)
                  if index.labels.out_labels[i].num_entries)
        label = index.labels.out_labels[ui]
        label.hub_ranks[-1] = rank[ui]  # pretend the vertex is its own hub
        assert any("own rank" in v for v in label_invariant_violations(index))

    def test_group_sort_violation_flagged(self):
        # find a group with >= 2 intervals and swap them out of order
        for seed in range(50):
            g = random_graph(seed, num_vertices=10, num_edges=40)
            index = TILLIndex.build(g)
            for label in index.labels.out_labels:
                for gi in range(label.num_hubs):
                    lo, hi = label.offsets[gi], label.offsets[gi + 1]
                    if hi - lo >= 2:
                        label.starts[lo], label.starts[lo + 1] = (
                            label.starts[lo + 1], label.starts[lo]
                        )
                        label.ends[lo], label.ends[lo + 1] = (
                            label.ends[lo + 1], label.ends[lo]
                        )
                        violations = label_invariant_violations(index)
                        assert any("ascending" in v for v in violations)
                        return
        pytest.fail("no multi-interval group found across 50 seeds")

    def test_undirected_symmetry_checked(self):
        g = random_graph(0, num_vertices=8, num_edges=25, directed=False)
        index = TILLIndex.build(g)
        assert label_invariant_violations(index) == []
        # break the shared-object symmetry
        index.labels.in_labels = [l for l in index.labels.out_labels]
        assert any("symmetry" in v or "shared" in v
                   for v in label_invariant_violations(index))


class TestDifferential:
    def test_clean_index_has_no_mismatches(self):
        for directed in (True, False):
            g = random_graph(11, num_vertices=9, num_edges=30,
                             directed=directed)
            index = TILLIndex.build(g)
            assert check_index(index, samples=60, seed=1) == []

    def test_capped_index_has_no_mismatches(self):
        g = random_graph(12, num_vertices=9, num_edges=30)
        index = TILLIndex.build(g, vartheta=4)
        assert check_index(index, samples=60, seed=2) == []

    def test_sampling_crosses_the_cap(self, monkeypatch):
        # The historical verify() bug: windows never exceeded vartheta,
        # leaving the fallback path dead.  The harness must cross it.
        import repro.fuzz.differential as differential

        g = random_graph(13, num_vertices=9, num_edges=30, max_time=10)
        index = TILLIndex.build(g, vartheta=3)
        seen = []
        real = differential.check_span_query

        def recording(idx, u, v, window):
            seen.append(window)
            return real(idx, u, v, window)

        monkeypatch.setattr(differential, "check_span_query", recording)
        differential.check_index(index, samples=40, seed=0)
        assert any(w.length > index.vartheta for w in seen)

    @staticmethod
    def _corrupt_deciding_entry(index):
        """Corrupt ONE out-label entry that decides some query's answer;
        returns the flipped (u, v, window) query or None.

        The entry is rewritten both in the flat store (which queries
        read) and in its materialised label set (which the invariant
        validator reads)."""
        g = index.graph
        out = index.flat.out
        for ui in range(g.num_vertices):
            label = index.labels.out_labels[ui]
            base = out.interval_offsets[out.vertex_offsets[ui]]
            for hub, s, e in list(label.entries()):
                w = g.label_of(index.order.order[hub])
                u = g.label_of(ui)
                if not index.span_reachable(u, w, (s, e)):
                    continue  # entry should witness its own window
                bounds = label.group_bounds(hub)
                k = next(
                    k for k in range(*bounds)
                    if (label.starts[k], label.ends[k]) == (s, e)
                )
                old = label.ends[k]
                # the one corruption: stretch the entry past the graph
                # lifetime, so it no longer fits the query window
                label.ends[k] = out.ends[base + k] = g.max_time + 5
                if not index.span_reachable(u, w, (s, e)):
                    return (u, w, (s, e))
                # another certificate covered it
                label.ends[k] = out.ends[base + k] = old
        return None

    def test_detects_corrupted_label_entry(self):
        # Corrupt ONE label entry; both the invariant validator and the
        # differential pass must notice.  Sparse graphs keep alternative
        # certificates rare; scan seeds until one entry is decisive.
        flipped = g = index = None
        for seed in range(30):
            g = random_graph(seed, num_vertices=9, num_edges=12, max_time=8)
            index = TILLIndex.build(g)
            flipped = self._corrupt_deciding_entry(index)
            if flipped:
                break
        assert flipped is not None, "no answer-deciding label entry found"
        u, w, window = flipped
        # invariant validator notices the structural damage
        assert label_invariant_violations(index)
        # differential pass notices the wrong answer
        mismatches = check_span_query(index, u, w, window)
        assert any(m.check.startswith("span:") for m in mismatches)
        assert span_reaches_bruteforce(g, u, w, window)
        # verify() (now harness-backed) catches it too
        with pytest.raises(AssertionError):
            index.verify(samples=50)
        # replay reproduces against the same corrupted index...
        assert replay(index, mismatches[0])
        # ...but a clean rebuild does not fail, so the shrinker reports
        # the failure as index-state corruption instead of minimizing.
        case = FuzzCase(profile="manual", seed=0, graph=g, vartheta=None,
                        description="corrupted-label fixture")
        assert shrink_failure(case, mismatches[0]) is None

    def test_theta_and_window_checks_clean(self):
        g = random_graph(15, num_vertices=8, num_edges=28, max_time=6)
        index = TILLIndex.build(g)
        for u in range(0, 8, 3):
            for v in range(1, 8, 3):
                assert check_theta_query(index, u, v, (1, 6), 3) == []
                if u != v:
                    assert check_pair_windows(index, u, v) == []


class TestShrinker:
    def _break_sliding_theta(self, monkeypatch):
        import repro.core.queries as queries

        real = queries.theta_reachable

        def broken(graph, labels, rank, ui, vi, window, theta, prefilter=True):
            got = real(graph, labels, rank, ui, vi, window, theta,
                       prefilter=prefilter)
            return (not got) if theta == 2 else got

        monkeypatch.setattr(queries, "theta_reachable", broken)
        return real

    def test_fuzzer_finds_and_shrinks_injected_bug(self, monkeypatch):
        real = self._break_sliding_theta(monkeypatch)
        report = run_fuzz(profile="theta", seeds=6)
        assert not report.ok
        failure = next(f for f in report.failures if f.shrunk is not None)
        assert failure.mismatch.check == "theta:sliding"
        shrunk = failure.shrunk
        assert len(shrunk.edges) <= failure.case.graph.num_edges
        assert len(shrunk.edges) >= 1

        # The emitted pytest repro fails while the bug is live...
        namespace = {}
        exec(shrunk.pytest_source, namespace)
        test_fn = next(v for k, v in namespace.items()
                       if k.startswith("test_fuzz_regression"))
        with pytest.raises(AssertionError):
            test_fn()

        # ...and passes once the bug is fixed.
        import repro.core.queries as queries
        monkeypatch.setattr(queries, "theta_reachable", real)
        test_fn()

    def test_shrinker_minimizes_to_the_essential_edge(self, monkeypatch):
        # Inject a bug that triggers only when an edge at timestamp 42
        # exists: the shrinker should strip everything else.
        import repro.core.queries as queries

        real = queries.span_reachable

        def broken(graph, labels, rank, ui, vi, window, prefilter=True):
            got = real(graph, labels, rank, ui, vi, window,
                       prefilter=prefilter)
            poisoned = any(t == 42 for _v, t in graph.out_adj(ui))
            return (not got) if poisoned else got

        monkeypatch.setattr(queries, "span_reachable", broken)
        edges = [(0, 1, 42)] + [(i % 5, (i + 1) % 5, i + 1)
                                for i in range(1, 20)]
        graph = TemporalGraph.from_edges(edges)
        case = FuzzCase(profile="manual", seed=0, graph=graph, vartheta=None,
                        description="poisoned edge")
        mismatches = check_span_query(index=TILLIndex.build(graph),
                                      u=0, v=1, window=(42, 42))
        assert mismatches
        shrunk = shrink_failure(case, mismatches[0])
        assert shrunk is not None
        assert len(shrunk.edges) < len(edges)
        assert any(t == 42 for _u, _v, t in shrunk.edges)

    def test_batch_only_fault_replays_and_shrinks_its_batch(
        self, monkeypatch
    ):
        """A kernel fault that shows only in a batch of several pairs
        (source-run reuse) replays from the recorded batch, so it is
        shrunk, not reported as mutated index state."""
        import repro.core.queries as queries

        real = queries.flat_span_batch

        def broken(store, rank, pairs, *args, **kwargs):
            got = list(real(store, rank, pairs, *args, **kwargs))
            if len(pairs) > 1:
                got[-1] = not got[-1]
            return got

        monkeypatch.setattr(queries, "flat_span_batch", broken)
        report = run_fuzz(profile="flat", seeds=1)
        failure = next(f for f in report.failures
                       if f.mismatch.check == "flat:span-batch")
        assert len(failure.mismatch.batch) > 1
        shrunk = failure.shrunk
        assert shrunk is not None
        assert 1 < len(shrunk.mismatch.batch) < len(failure.mismatch.batch)

        namespace = {}
        exec(shrunk.pytest_source, namespace)
        test_fn = next(v for k, v in namespace.items()
                       if k.startswith("test_fuzz_regression"))
        with pytest.raises(AssertionError):
            test_fn()
        monkeypatch.setattr(queries, "flat_span_batch", real)
        test_fn()


class TestRunner:
    @pytest.mark.parametrize("profile,seeds", [
        ("small", 6), ("theta", 3), ("wide", 2), ("incremental", 6),
    ])
    def test_profiles_run_clean(self, profile, seeds):
        report = run_fuzz(profile=profile, seeds=seeds)
        assert report.ok, report.failures[0].report()
        assert report.cases == seeds
        assert report.queries > 0

    def test_deterministic(self):
        a = run_fuzz(profile="small", seeds=4)
        b = run_fuzz(profile="small", seeds=4)
        assert a.summary() == b.summary()

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz profile"):
            run_fuzz(profile="nonsense", seeds=1)

    def test_fail_fast_stops_at_first_failure(self, monkeypatch):
        import repro.core.queries as queries

        real = queries.span_reachable
        monkeypatch.setattr(
            queries, "span_reachable",
            lambda graph, labels, rank, ui, vi, window, prefilter=True:
                not real(graph, labels, rank, ui, vi, window,
                         prefilter=prefilter),
        )
        report = run_fuzz(profile="small", seeds=10, fail_fast=True,
                          shrink=False)
        assert not report.ok
        assert len(report.failures) == 1
        assert report.cases < 10

    def test_failure_report_mentions_the_query(self, monkeypatch):
        import repro.core.queries as queries

        real = queries.theta_reachable_naive

        def broken(graph, labels, rank, ui, vi, window, theta, prefilter=True):
            got = real(graph, labels, rank, ui, vi, window, theta,
                       prefilter=prefilter)
            return (not got) if theta == 1 else got

        monkeypatch.setattr(queries, "theta_reachable_naive", broken)
        report = run_fuzz(profile="theta", seeds=5, shrink=False)
        assert not report.ok
        text = report.failures[0].report()
        assert "theta:naive" in text
        assert "FAIL" in text


class TestIncrementalProfile:
    def test_streams_cross_rebuilds_with_both_removal_kinds(self,
                                                            monkeypatch):
        from repro.core.incremental import IncrementalTILLIndex
        from repro.fuzz.differential import check_incremental

        removed = {"base": 0, "buffered": 0}
        rebuilt = set()
        real_remove = IncrementalTILLIndex.remove_edge
        real_rebuild = IncrementalTILLIndex.rebuild

        def remove_edge(self, u, v, t):
            buffered = (u, v, t) in self._delta or (
                not self._base_graph.directed and (v, u, t) in self._delta)
            removed["buffered" if buffered else "base"] += 1
            real_remove(self, u, v, t)

        def rebuild(self):
            rebuilt.add(seed)
            real_rebuild(self)

        monkeypatch.setattr(IncrementalTILLIndex, "remove_edge", remove_edge)
        monkeypatch.setattr(IncrementalTILLIndex, "rebuild", rebuild)
        for seed in range(20):
            case = make_case(PROFILES["incremental"], seed)
            assert check_incremental(case.graph, case.vartheta, seed) == []
        assert len(rebuilt) >= 10
        assert removed["base"] > 10 and removed["buffered"] > 10

    def test_fold_heavy_seeds_fold_most_rebuilds(self, monkeypatch):
        from collections import Counter

        from repro.core.incremental import IncrementalTILLIndex
        from repro.fuzz.differential import check_incremental

        buffered = {0: [], 1: [], 2: []}  # seed % 3 -> per removal
        real_remove = IncrementalTILLIndex.remove_edge

        def remove_edge(self, u, v, t):
            buffered[seed % 3].append((u, v, t) in self._delta or (
                not self._base_graph.directed and (v, u, t) in self._delta))
            real_remove(self, u, v, t)

        monkeypatch.setattr(IncrementalTILLIndex, "remove_edge", remove_edge)
        rebuilds = Counter()
        for seed in range(40):
            case = make_case(PROFILES["incremental"], seed)
            assert check_incremental(case.graph, case.vartheta, seed,
                                     rebuilds) == []
        assert not buffered[1]  # inserts only
        assert buffered[2] and all(buffered[2])  # buffered removals only
        assert not all(buffered[0])
        assert rebuilds["folds"] >= rebuilds["full_builds"] > 0
        report = run_fuzz(profile="incremental", seeds=40, shrink=False)
        assert report.rebuilds == rebuilds
        assert (f"{rebuilds['folds']} fold(s) / {rebuilds['full_builds']} "
                "full build(s): OK") in report.summary()

    def test_unconfirmed_tombstone_answer_is_caught_and_replays(
        self, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.core.incremental import IncrementalTILLIndex

        # Trust every base answer in a window with tombstones.
        monkeypatch.setattr(IncrementalTILLIndex, "_live_span",
                            lambda self, u, v, window: True)
        report = run_fuzz(profile="incremental", seeds=20, fail_fast=True)
        assert not report.ok
        failure = report.failures[0]
        assert failure.mismatch.check.startswith("incremental:")
        seed = failure.case.seed
        text = failure.report()
        assert (f"replay: repro fuzz --profile incremental --base-seed "
                f"{seed} --seeds 1") in text
        capsys.readouterr()
        assert main(["fuzz", "--profile", "incremental", "--base-seed",
                     str(seed), "--seeds", "1"]) == 1
        assert str(failure.mismatch) in capsys.readouterr().err


class TestMismatchReplay:
    def test_replay_false_on_clean_index(self):
        g = random_graph(16, num_vertices=8, num_edges=25)
        index = TILLIndex.build(g)
        stale = Mismatch("span:index", "made up", u=0, v=1, window=(1, 5))
        assert not replay(index, stale)

    def test_replay_false_for_missing_vertices(self):
        g = random_graph(17, num_vertices=8, num_edges=25)
        index = TILLIndex.build(g)
        ghost = Mismatch("span:index", "gone", u="nope", v=0, window=(1, 5))
        assert not replay(index, ghost)
