"""Tests for the batched query engine (:mod:`repro.serve`)."""

import pytest

from repro import TemporalGraph, TILLIndex
from repro.core.incremental import IncrementalTILLIndex
from repro.errors import (
    InvalidIntervalError,
    UnknownVertexError,
    UnsupportedIntervalError,
)
from repro.serve import MISS, EngineStats, GenerationalLRUCache, QueryEngine

from tests.conftest import random_graph


def _all_pairs(graph):
    vs = list(graph.vertices())
    return [(u, v) for u in vs for v in vs]


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("directed", [True, False])
    def test_span_batch_equals_scalar_facade(self, seed, directed):
        g = random_graph(seed, num_vertices=9, num_edges=35,
                         directed=directed)
        index = TILLIndex.build(g)
        engine = QueryEngine(index)
        pairs = _all_pairs(g)
        for window in [(1, 10), (3, 7), (5, 5)]:
            expected = [index.span_reachable(u, v, window) for u, v in pairs]
            assert engine.span_many(pairs, window) == expected

    def test_span_batch_prefilter_off_equals_scalar(self):
        g = random_graph(4, num_vertices=8, num_edges=30)
        index = TILLIndex.build(g)
        engine = QueryEngine(index)
        pairs = _all_pairs(g)
        expected = [
            index.span_reachable(u, v, (2, 8), prefilter=False)
            for u, v in pairs
        ]
        assert engine.span_many(pairs, (2, 8), prefilter=False) == expected

    @pytest.mark.parametrize("algorithm", ["sliding", "naive"])
    def test_theta_batch_equals_scalar_facade(self, algorithm):
        g = random_graph(5, num_vertices=8, num_edges=40)
        index = TILLIndex.build(g)
        engine = QueryEngine(index)
        pairs = _all_pairs(g)
        expected = [
            index.theta_reachable(u, v, (1, 9), 4, algorithm=algorithm)
            for u, v in pairs
        ]
        assert engine.theta_many(pairs, (1, 9), 4,
                                 algorithm=algorithm) == expected

    def test_duplicate_pairs_answered_once_but_all_filled(self):
        g = random_graph(6, num_vertices=6, num_edges=25)
        index = TILLIndex.build(g)
        engine = QueryEngine(index, cache_size=0)  # dedup without cache
        pairs = [(0, 1), (0, 1), (2, 3), (0, 1)]
        answers = engine.span_many(pairs, (1, 10))
        assert answers == [False, False, True, False]
        stats = engine.stats()
        assert stats.queries == 4
        assert stats.cache_misses == 2  # one lookup per distinct pair
        # Duplicates are tallied per slot, under their first pair's
        # outcome.
        assert stats.outcomes == {"reachable": 1, "unreachable": 3}

    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_duplicate_same_vertex_and_prefiltered_pairs(self, cache_size):
        # In (1, 10): a -> b -> c; d's only in-edge (15) and so the
        # Lemma 10 probe fails for it; f is entered (4) but not from a.
        g = TemporalGraph.from_edges([
            ("a", "b", 2), ("b", "c", 3), ("c", "d", 15), ("e", "f", 4),
        ])
        engine = QueryEngine(TILLIndex.build(g), cache_size=cache_size)
        pairs = [("a", "c"), ("a", "a"), ("a", "d"), ("a", "a"),
                 ("a", "f"), ("a", "d"), ("a", "c")]
        expected = [True, True, False, True, False, False, True]
        assert engine.span_many(pairs, (1, 10)) == expected
        stats = engine.stats()
        assert stats.cache_hits == 0
        assert stats.cache_misses == 4
        assert stats.outcomes == {"reachable": 2, "same-vertex": 2,
                                  "prefilter": 2, "unreachable": 1}
        engine.reset_stats()
        assert engine.span_many(pairs, (1, 10)) == expected
        stats = engine.stats()
        if cache_size:
            # A duplicate of a cached pair is its own cache lookup.
            assert (stats.cache_hits, stats.cache_misses) == (7, 0)
            assert stats.outcomes == {"cache-hit": 7}
        else:
            assert (stats.cache_hits, stats.cache_misses) == (0, 4)
            assert stats.outcomes == {"reachable": 2, "same-vertex": 2,
                                      "prefilter": 2, "unreachable": 1}

    @pytest.mark.parametrize("cache_size", [0, 64])
    @pytest.mark.parametrize("bad", [("a", "zz"), ("zz", "a")])
    def test_unknown_vertex_after_a_duplicate_raises(self, cache_size, bad):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        engine = QueryEngine(TILLIndex.build(g), cache_size=cache_size)
        with pytest.raises(UnknownVertexError):
            engine.span_many([("a", "c"), ("a", "c"), bad], (1, 2))

    def test_results_in_input_order(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        engine = QueryEngine(TILLIndex.build(g))
        assert engine.span_many(
            [("c", "a"), ("a", "c"), ("a", "b")], (1, 2)
        ) == [False, True, True]


class TestCaching:
    def test_repeat_batch_served_from_cache(self):
        g = random_graph(1, num_vertices=8, num_edges=30)
        engine = QueryEngine(TILLIndex.build(g))
        pairs = _all_pairs(g)
        first = engine.span_many(pairs, (1, 10))
        engine.reset_stats()
        second = engine.span_many(pairs, (1, 10))
        assert second == first
        stats = engine.stats()
        assert stats.cache_hits == len(pairs)
        assert stats.cache_misses == 0
        assert stats.hit_rate == 1.0
        assert stats.outcomes.get("cache-hit") == len(pairs)

    def test_span_and_theta_keys_are_distinct(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 5)])
        engine = QueryEngine(TILLIndex.build(g))
        # span over (1, 5) is True; theta=2 over the same window is not
        # (the union [1, 5] needs 5 timestamps).
        assert engine.span_many([("a", "c")], (1, 5)) == [True]
        assert engine.theta_many([("a", "c")], (1, 5), 2) == [False]

    def test_cache_disabled_still_correct(self):
        g = random_graph(2, num_vertices=7, num_edges=25)
        index = TILLIndex.build(g)
        engine = QueryEngine(index, cache_size=0)
        pairs = _all_pairs(g)
        expected = [index.span_reachable(u, v, (1, 9)) for u, v in pairs]
        assert engine.span_many(pairs, (1, 9)) == expected
        assert engine.span_many(pairs, (1, 9)) == expected
        assert engine.stats().cache_hits == 0

    def test_lru_eviction_is_bounded(self):
        g = random_graph(3, num_vertices=10, num_edges=40)
        engine = QueryEngine(TILLIndex.build(g), cache_size=4)
        engine.span_many(_all_pairs(g), (1, 10))
        stats = engine.stats()
        assert stats.cache_entries <= 4
        assert stats.cache_evictions > 0

    def test_manual_invalidate_drops_answers(self):
        g = random_graph(8, num_vertices=6, num_edges=20)
        engine = QueryEngine(TILLIndex.build(g))
        engine.span_many([(0, 1)], (1, 10))
        engine.invalidate()
        engine.reset_stats()
        engine.span_many([(0, 1)], (1, 10))
        assert engine.stats().cache_hits == 0


class TestResetStats:
    def test_reset_keeps_cached_entries_and_generation(self):
        """Regression for the reset_stats contract: only tallies are
        zeroed — cached answers stay servable and the invalidation
        generation (which tracks index mutations, not statistics) is
        preserved, so pre-invalidation answers cannot resurrect."""
        g = random_graph(7, num_vertices=8, num_edges=30)
        engine = QueryEngine(TILLIndex.build(g))
        pairs = _all_pairs(g)
        engine.span_many(pairs, (1, 10))
        engine.invalidate()  # bump the generation past zero
        engine.span_many(pairs, (1, 10))  # repopulate at generation 1
        before = engine.stats()
        assert before.generation == 1
        assert before.cache_entries > 0

        engine.reset_stats()
        after = engine.stats()
        assert after.queries == after.batches == 0
        assert after.cache_hits == after.cache_misses == 0
        assert after.cache_evictions == after.cache_stale_drops == 0
        assert after.outcomes == {}
        # The cached *state* deliberately survives:
        assert after.cache_entries == before.cache_entries
        assert after.generation == before.generation
        # ... so the next identical batch is pure cache hits.
        assert engine.span_many(pairs, (1, 10)) == engine.span_many(
            pairs, (1, 10)
        )
        assert engine.stats().cache_misses == 0
        assert engine.stats().outcomes == {
            "cache-hit": 2 * len(pairs)
        }


class TestGenerationInvalidation:
    def test_stale_answer_flips_after_insert(self):
        """The ISSUE-2 acceptance scenario: a cached negative answer
        must flip once an inserted edge creates the path."""
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        engine = QueryEngine(inc)
        assert engine.span_many([("a", "c")], (1, 3)) == [False]
        # Cached: a second ask hits.
        assert engine.span_many([("a", "c")], (1, 3)) == [False]
        assert engine.stats().cache_hits == 1
        inc.add_edge("b", "c", 2)
        assert engine.span_many([("a", "c")], (1, 3)) == [True]
        assert engine.stats().cache_stale_drops >= 1

    def test_stale_answer_flips_after_removal(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        inc = IncrementalTILLIndex(g)
        engine = QueryEngine(inc)
        assert engine.span_many([("a", "c")], (1, 2)) == [True]
        inc.remove_edge("b", "c", 2)
        assert engine.span_many([("a", "c")], (1, 2)) == [False]

    def test_generation_counter_tracks_mutations(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        start = inc.generation
        inc.add_edge("b", "c", 2)
        assert inc.generation == start + 1
        inc.remove_edge("b", "c", 2)
        assert inc.generation == start + 2

    def test_rebuild_bumps_generation(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=2)
        before = inc.generation
        inc.add_edge("b", "c", 2)
        inc.add_edge("c", "d", 3)  # hits the threshold -> rebuild
        assert inc.rebuilds == 1
        assert inc.generation > before + 1

    def test_theta_cache_invalidated_too(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        engine = QueryEngine(inc)
        assert engine.theta_many([("a", "c")], (1, 3), 2) == [False]
        inc.add_edge("b", "c", 2)
        assert engine.theta_many([("a", "c")], (1, 3), 2) == [True]


class TestVarthetaAndFallback:
    def test_over_cap_raises_without_fallback(self):
        g = random_graph(0, num_vertices=8, num_edges=30)
        engine = QueryEngine(TILLIndex.build(g, vartheta=3))
        with pytest.raises(UnsupportedIntervalError) as exc:
            engine.span_many([(0, 1)], (1, 9))
        assert str(exc.value) == (
            "query needs interval length 9 but the index was built with "
            "vartheta=3; rebuild with a larger cap or pass fallback='online'"
        )
        with pytest.raises(UnsupportedIntervalError) as exc:
            engine.theta_many([(0, 1)], (1, 9), 5)
        assert str(exc.value) == (
            "query needs interval length 5 but the index was built with "
            "vartheta=3; rebuild with a larger cap or pass fallback='online'"
        )

    def test_online_fallback_matches_facade(self):
        g = random_graph(0, num_vertices=8, num_edges=30)
        index = TILLIndex.build(g, vartheta=3)
        engine = QueryEngine(index)
        pairs = _all_pairs(g)
        expected = index.span_reachable_many(pairs, (1, 9),
                                             fallback="online")
        assert engine.span_many(pairs, (1, 9),
                                fallback="online") == expected
        assert engine.stats().outcomes.get("online-fallback", 0) > 0

    def test_incremental_online_fallback_matches_live_oracle(self):
        """``fallback="online"`` reaches an incremental backend: over-cap
        windows are answered by BFS over the live graph (base minus
        tombstones plus streamed edges) instead of raising."""
        from repro.graph.projection import span_reaches_bruteforce

        g = random_graph(4, num_vertices=8, num_edges=30, max_time=9)
        inc = IncrementalTILLIndex(g, rebuild_threshold=100, vartheta=3)
        live = list(g.edges())
        inc.add_edge(0, 7, 5)
        inc.add_edge(7, 3, 6)
        live += [(0, 7, 5), (7, 3, 6)]
        victim = live[0]
        inc.remove_edge(*victim)
        live.remove(victim)
        graph = TemporalGraph(directed=True)
        for v in g.vertices():
            graph.add_vertex(v)
        for u, v, t in live:
            graph.add_edge(u, v, t)
        graph.freeze()
        pairs = _all_pairs(graph)
        window = (1, 9)
        want = [span_reaches_bruteforce(graph, u, v, window)
                for u, v in pairs]
        assert any(want) and not all(want)
        engine = QueryEngine(inc)
        with pytest.raises(UnsupportedIntervalError):
            engine.span_many(pairs, window)
        assert engine.span_many(pairs, window, fallback="online") == want
        assert [inc.span_reachable(u, v, window, fallback="online")
                for u, v in pairs] == want

    def test_within_cap_uses_index(self):
        g = random_graph(0, num_vertices=8, num_edges=30)
        index = TILLIndex.build(g, vartheta=5)
        engine = QueryEngine(index)
        expected = [index.span_reachable(u, v, (2, 5))
                    for u, v in _all_pairs(g)]
        assert engine.span_many(_all_pairs(g), (2, 5)) == expected


class TestValidationAndErrors:
    def test_kernel_threads_other_than_one_rejected(self):
        from repro.serve.server import ServerConfig

        index = TILLIndex.build(random_graph(0, num_vertices=5,
                                             num_edges=15))
        assert QueryEngine(index, kernel_threads=1).index is index
        assert ServerConfig(kernel_threads=1).kernel_threads == 1
        for threads in (0, 2):
            with pytest.raises(ValueError):
                QueryEngine(index, kernel_threads=threads)
            with pytest.raises(ValueError):
                ServerConfig(kernel_threads=threads)

    def test_reversed_window_raises(self):
        g = random_graph(0, num_vertices=5, num_edges=15)
        engine = QueryEngine(TILLIndex.build(g))
        with pytest.raises(InvalidIntervalError):
            engine.span_many([(0, 1)], (9, 1))

    def test_bad_theta_raises(self):
        g = random_graph(0, num_vertices=5, num_edges=15)
        engine = QueryEngine(TILLIndex.build(g))
        with pytest.raises(InvalidIntervalError):
            engine.theta_many([(0, 1)], (1, 9), 0)
        with pytest.raises(InvalidIntervalError):
            engine.theta_many([(0, 1)], (1, 2), 5)

    def test_unknown_theta_algorithm_raises(self):
        g = random_graph(0, num_vertices=5, num_edges=15)
        engine = QueryEngine(TILLIndex.build(g))
        with pytest.raises(InvalidIntervalError):
            engine.theta_many([(0, 1)], (1, 9), 2, algorithm="quantum")

    def test_theta_algorithm_checked_on_incremental_backend(self):
        """The algorithm name is checked before dispatching on any
        backend: the incremental index implements only the sliding
        ES-Reach*, so ``naive`` is refused rather than silently
        answered as sliding, and an unknown name raises."""
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        engine = QueryEngine(IncrementalTILLIndex(g))
        assert engine.theta_many([("a", "c")], (1, 2), 2) == [True]
        with pytest.raises(InvalidIntervalError, match="unknown theta"):
            engine.theta_many([("a", "c")], (1, 2), 2, algorithm="bogus")
        with pytest.raises(InvalidIntervalError, match="sliding"):
            engine.theta_many([("a", "c")], (1, 2), 2, algorithm="naive")

    def test_unknown_vertex_raises(self):
        g = random_graph(0, num_vertices=5, num_edges=15)
        engine = QueryEngine(TILLIndex.build(g))
        with pytest.raises(UnknownVertexError):
            engine.span_many([(0, "nope")], (1, 9))

    def test_single_query_helpers(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        engine = QueryEngine(TILLIndex.build(g))
        assert engine.span_reachable("a", "c", (1, 2)) is True
        assert engine.theta_reachable("a", "c", (1, 2), 2) is True

    def test_profile_many_requires_plain_index(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        engine = QueryEngine(IncrementalTILLIndex(g))
        with pytest.raises(TypeError):
            engine.profile_many([("a", "b", (1, 1))])

    def test_profile_many_reuses_profiling_counters(self):
        g = random_graph(0, num_vertices=6, num_edges=20)
        index = TILLIndex.build(g)
        engine = QueryEngine(index)
        workload = [(u, v, (1, 10)) for u, v in _all_pairs(g)]
        profile = engine.profile_many(workload)
        assert profile.queries == len(workload)
        assert set(profile.outcomes) <= {
            "same-vertex", "prefilter", "target-hub", "source-hub",
            "common-hub", "unreachable",
        }

    def test_profile_many_matches_production_on_paper_example(
        self, paper_graph, paper_index
    ):
        from repro.core.profiling import profile_span_query

        engine = QueryEngine(paper_index)
        pairs = _all_pairs(paper_graph)
        window = (paper_graph.min_time, paper_graph.max_time)
        expected = [
            paper_index.span_reachable(u, v, window) for u, v in pairs
        ]
        profiled = [
            profile_span_query(paper_index, u, v, window).answer
            for u, v in pairs
        ]
        assert profiled == expected
        aggregate = engine.profile_many([(u, v, window) for u, v in pairs])
        assert aggregate.positive == sum(expected)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_profile_many_theta_matches_production(self, seed):
        from repro.core.profiling import profile_theta_query

        g = random_graph(seed, num_vertices=9, num_edges=40, max_time=12)
        index = TILLIndex.build(g)
        engine = QueryEngine(index)
        pairs = _all_pairs(g)
        window, theta = (1, 12), 4
        expected = [
            index.theta_reachable(u, v, window, theta) for u, v in pairs
        ]
        profiled = [
            profile_theta_query(index, u, v, window, theta).answer
            for u, v in pairs
        ]
        assert profiled == expected
        aggregate = engine.profile_many(
            [(u, v, window) for u, v in pairs], theta=theta
        )
        assert aggregate.queries == len(pairs)
        assert aggregate.positive == sum(expected)
        assert set(aggregate.outcomes) <= {
            "same-vertex", "prefilter", "target-hub", "source-hub",
            "common-hub", "unreachable",
        }

    def test_profile_many_theta_on_paper_example(
        self, paper_graph, paper_index
    ):
        engine = QueryEngine(paper_index)
        pairs = _all_pairs(paper_graph)
        window = (paper_graph.min_time, paper_graph.max_time)
        theta = max(1, paper_graph.lifetime // 2)
        expected = [
            paper_index.theta_reachable(u, v, window, theta)
            for u, v in pairs
        ]
        aggregate = engine.profile_many(
            [(u, v, window) for u, v in pairs], theta=theta
        )
        assert aggregate.positive == sum(expected)
        # θ profiles count the Algorithm 5 interval scans the span
        # path never performs.
        assert aggregate.intervals_scanned >= 0


class TestFacadeDelegation:
    def test_span_reachable_many_delegates_to_engine(self):
        g = random_graph(9, num_vertices=7, num_edges=25)
        index = TILLIndex.build(g)
        pairs = _all_pairs(g)
        expected = [index.span_reachable(u, v, (1, 8)) for u, v in pairs]
        assert index.span_reachable_many(pairs, (1, 8)) == expected
        # The lazily created engine is uncached: facade semantics are
        # pure (no cross-call memoization a user didn't opt into).
        assert index._batch_engine().stats().cache_capacity == 0

    def test_theta_reachable_many_matches_scalar(self):
        g = random_graph(9, num_vertices=7, num_edges=30)
        index = TILLIndex.build(g)
        pairs = _all_pairs(g)
        expected = [index.theta_reachable(u, v, (1, 9), 3)
                    for u, v in pairs]
        assert index.theta_reachable_many(pairs, (1, 9), 3) == expected


class TestGenerationalLRUCache:
    def test_miss_sentinel_distinguishes_false(self):
        cache = GenerationalLRUCache(4)
        assert cache.get("k") is MISS
        cache.put("k", False)
        assert cache.get("k") is False

    def test_generation_bump_expires_lazily(self):
        cache = GenerationalLRUCache(4)
        cache.put("k", True)
        cache.bump_generation()
        assert cache.get("k") is MISS
        assert cache.stale_drops == 1
        assert len(cache) == 0

    def test_lru_order_and_eviction(self):
        cache = GenerationalLRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = GenerationalLRUCache(0)
        cache.put("k", True)
        assert cache.get("k") is MISS
        assert len(cache) == 0

    def test_stale_entries_leave_len_and_evict_first(self):
        """PR 6 satellite regression: after a generation bump, dead
        entries must not count toward ``len()`` and must be pushed out
        *before* any live answer, attributed to ``stale_drops`` — not
        ``evictions``."""
        cache = GenerationalLRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.bump_generation()  # both entries are now dead
        assert len(cache) == 0
        cache.put("c", 3)  # pressure drops a dead entry, not a live one
        assert len(cache) == 1
        assert cache.stale_drops == 1
        assert cache.evictions == 0
        cache.put("d", 4)  # drops the second dead entry
        assert len(cache) == 2
        assert cache.stale_drops == 2
        assert cache.evictions == 0
        assert cache.get("c") == 3 and cache.get("d") == 4
        cache.put("e", 5)  # no dead entries left: a real LRU eviction
        assert cache.get("c") is MISS
        assert cache.stale_drops == 2
        assert cache.evictions == 1


class TestEngineStats:
    def test_as_dict_round_trip(self):
        stats = EngineStats(queries=10, cache_hits=4, cache_misses=6,
                            outcomes={"reachable": 5})
        doc = stats.as_dict()
        assert doc["queries"] == 10
        assert doc["hit_rate"] == pytest.approx(0.4)
        assert doc["outcomes"] == {"reachable": 5}

    def test_hit_rate_zero_when_unused(self):
        assert EngineStats().hit_rate == 0.0


class TestFlatBackend:
    """The engine's batch misses run the flat kernels on the index's
    flat store; a built and a zero-copy mapped index must give the same
    answers and stats, and agree with the oracle."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_built_and_mapped_engines_agree(self, directed, tmp_path):
        from repro.graph.projection import (
            span_reaches_bruteforce,
            theta_reaches_bruteforce,
        )

        g = random_graph(8, num_vertices=9, num_edges=35, directed=directed)
        built = TILLIndex.build(g)
        built.save(tmp_path / "e.till")
        mapped = TILLIndex.load(tmp_path / "e.till", g, mmap=True)
        assert mapped.flat.is_mmap
        built_engine = QueryEngine(built, cache_size=0)
        mapped_engine = QueryEngine(mapped, cache_size=0)
        pairs = _all_pairs(g)
        for window in [(1, 10), (2, 6), (4, 9)]:
            want = [span_reaches_bruteforce(g, u, v, window)
                    for u, v in pairs]
            assert built_engine.span_many(pairs, window) == want
            assert mapped_engine.span_many(pairs, window) == want
            theta = max(1, (window[1] - window[0]) // 2)
            want = [theta_reaches_bruteforce(g, u, v, window, theta)
                    for u, v in pairs]
            for algorithm in ("sliding", "naive"):
                assert built_engine.theta_many(
                    pairs, window, theta, algorithm=algorithm
                ) == want
                assert mapped_engine.theta_many(
                    pairs, window, theta, algorithm=algorithm
                ) == want
        assert built_engine.stats().outcomes == \
            mapped_engine.stats().outcomes

    def test_cache_disabled_still_counts_misses(self):
        g = random_graph(9, num_vertices=6, num_edges=20)
        engine = QueryEngine(TILLIndex.build(g), cache_size=0)
        pairs = [(0, 1), (0, 1), (2, 3), (4, 5)]
        engine.span_many(pairs, (1, 10))
        stats = engine.stats()
        # Three distinct pairs -> three (disabled-)cache lookups; the
        # duplicate is deduplicated before it reaches the cache.
        assert stats.cache_misses == 3
        assert stats.cache_hits == 0
