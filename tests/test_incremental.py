"""Tests for the streaming/incremental extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalGraph, TILLIndex, InvalidIntervalError
from repro.core.incremental import IncrementalTILLIndex
from repro.errors import GraphError, UnsupportedIntervalError
from repro.graph.projection import (
    span_reaches_bruteforce,
    theta_reaches_bruteforce,
)

from tests.conftest import random_graph


def _mirror(base_edges, delta_edges, num_vertices, directed=True):
    g = TemporalGraph(directed=directed)
    for v in range(num_vertices):
        g.add_vertex(v)
    for u, v, t in list(base_edges) + list(delta_edges):
        g.add_edge(u, v, t)
    return g.freeze()


class TestBasics:
    def test_initial_state_matches_static_index(self):
        g = random_graph(0, num_vertices=10, num_edges=30, max_time=9)
        inc = IncrementalTILLIndex(g)
        static = TILLIndex.build(g)
        for u in range(0, 10, 2):
            for v in range(1, 10, 2):
                assert inc.span_reachable(u, v, (2, 7)) == \
                    static.span_reachable(u, v, (2, 7))

    def test_new_edge_visible_immediately(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        assert not inc.span_reachable("a", "c", (1, 2))
        inc.add_edge("b", "c", 2)
        assert inc.span_reachable("a", "c", (1, 2))
        assert not inc.span_reachable("a", "c", (1, 1))

    def test_new_vertices_via_delta_only(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        inc.add_edge("x", "y", 5)
        assert inc.span_reachable("x", "y", (5, 5))
        assert not inc.span_reachable("a", "x", (1, 5))

    def test_chain_of_delta_edges(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.add_edge("b", "c", 2)
        inc.add_edge("c", "d", 3)
        inc.add_edge("d", "e", 2)
        assert inc.span_reachable("a", "e", (1, 3))
        assert not inc.span_reachable("a", "e", (1, 2))

    def test_delta_bridging_base_segments(self):
        # base: a->b and c->d; delta edge b->c bridges them
        g = TemporalGraph.from_edges([("a", "b", 1), ("c", "d", 3)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.add_edge("b", "c", 2)
        assert inc.span_reachable("a", "d", (1, 3))

    def test_same_vertex(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        assert inc.span_reachable("q", "q", (1, 1))


class TestFlatInvalidation:
    """The base index is never mutated between rebuilds, so its flat
    store cannot go stale; a rebuild swaps in a fresh flat index."""

    def test_rebuild_restores_flat_with_same_backend(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=2)
        first = inc._index.flat
        inc.add_edge("b", "c", 2)  # buffered; the base store is untouched
        assert inc._index.flat is first
        inc.add_edge("c", "d", 3)  # hits the threshold -> rebuild
        assert inc.rebuilds == 1
        assert inc._index.flat is not first
        assert inc._index.flat_backend == "python"
        assert inc.span_reachable("a", "d", (1, 3))


def _live_graph(vertices, edges, directed):
    g = TemporalGraph(directed=directed)
    for v in vertices:
        g.add_vertex(v)
    for u, v, t in edges:
        g.add_edge(u, v, t)
    return g.freeze()


def _mutate_and_check(inc, base_edges, vertices, directed, rng, steps,
                      max_time):
    """Apply *steps* seeded add/remove mutations to *inc*; after each,
    span and θ answers must match the BFS oracle on the live graph and
    a fresh ``TILLIndex.build`` of it."""
    live = list(base_edges)
    seen = list(vertices)
    extra = len(seen)
    for step in range(steps):
        if live and rng.random() < 0.4:
            victim = rng.choice(live)
            live.remove(victim)
            inc.remove_edge(*victim)
        else:
            u = rng.randrange(extra + 2)  # sometimes a brand-new vertex
            v = rng.randrange(extra + 2)
            edge = (u, v, rng.randint(1, max_time))
            for x in (u, v):
                if x not in seen:
                    seen.append(x)
            live.append(edge)
            inc.add_edge(*edge)
        graph = _live_graph(seen, live, directed)
        fresh = TILLIndex.build(graph)
        for _ in range(6):
            u, v = rng.choice(seen), rng.choice(seen)
            t1 = rng.randint(1, max_time)
            window = (t1, rng.randint(t1, max_time))
            want = span_reaches_bruteforce(graph, u, v, window)
            context = (step, live, u, v, window)
            assert inc.span_reachable(u, v, window) == want, context
            assert fresh.span_reachable(u, v, window) == want, context
            theta = rng.randint(1, window[1] - window[0] + 1)
            want = theta_reaches_bruteforce(graph, u, v, window, theta)
            context += (theta,)
            assert inc.theta_reachable(u, v, window, theta) == want, context
            assert fresh.theta_reachable(u, v, window, theta) == want, \
                context


class TestMutationSequences:
    """Seeded add/remove sequences against the live-graph oracle and a
    fresh build, rebuilds included."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("directed", [True, False])
    def test_random_mutations_match_oracle_and_fresh_build(self, seed,
                                                           directed):
        rng = random.Random(seed)
        base_edges = [
            (rng.randrange(7), rng.randrange(7), rng.randint(1, 8))
            for _ in range(14)
        ]
        vertices = list(range(7))
        inc = IncrementalTILLIndex(
            _live_graph(vertices, base_edges, directed), rebuild_threshold=6
        )
        _mutate_and_check(inc, base_edges, vertices, directed, rng, 20, 8)
        assert inc.rebuilds >= 1

    def test_mmap_loaded_base_mutates(self, tmp_path):
        rng = random.Random(5)
        base_edges = [
            (rng.randrange(7), rng.randrange(7), rng.randint(1, 8))
            for _ in range(16)
        ]
        vertices = list(range(7))
        inc = IncrementalTILLIndex(
            _live_graph(vertices, base_edges, True), rebuild_threshold=10
        )
        path = tmp_path / "base.till"
        inc._index.save(path, format=3)
        # Serve the base index zero-copy from the saved file; mutations
        # only touch the delta buffer and the tombstones, so the
        # read-only mapped arrays are never written.
        inc._index = TILLIndex.load(path, inc._base_graph, mmap=True)
        assert inc._index.flat.is_mmap
        _mutate_and_check(inc, base_edges, vertices, True, rng, 14, 8)
        assert inc.rebuilds >= 1
        assert not inc._index.flat.is_mmap  # rebuilt in memory


class TestRebuild:
    def test_threshold_triggers_rebuild(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=3)
        inc.add_edge("b", "c", 2)
        inc.add_edge("c", "d", 3)
        assert inc.rebuilds == 0
        inc.add_edge("d", "e", 4)
        assert inc.rebuilds == 1
        assert inc.delta_size == 0
        assert inc.span_reachable("a", "e", (1, 4))

    def test_manual_rebuild(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.add_edge("b", "c", 2)
        inc.rebuild()
        assert inc.delta_size == 0
        assert inc.num_edges == 2
        assert inc.span_reachable("a", "c", (1, 2))

    def test_rebuild_noop_when_empty(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        inc.rebuild()
        assert inc.rebuilds == 0

    def test_invalid_threshold(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        with pytest.raises(InvalidIntervalError):
            IncrementalTILLIndex(g, rebuild_threshold=0)


class TestTheta:
    def test_theta_with_delta(self):
        g = TemporalGraph.from_edges([("a", "b", 3)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.add_edge("b", "c", 5)
        assert inc.theta_reachable("a", "c", (1, 9), 3)
        assert not inc.theta_reachable("a", "c", (1, 9), 2)

    def test_theta_validation(self):
        g = TemporalGraph.from_edges([("a", "b", 3)])
        inc = IncrementalTILLIndex(g)
        with pytest.raises(InvalidIntervalError) as exc:
            inc.theta_reachable("a", "b", (1, 9), 0)
        assert str(exc.value) == "theta must be a positive window length, got 0"
        with pytest.raises(InvalidIntervalError) as exc:
            inc.theta_reachable("a", "b", (1, 2), 5)
        assert str(exc.value) == "query interval [1, 2] is shorter than theta=5"


class TestAgainstMirror:
    @given(st.integers(0, 150), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_streamed_answers_match_rebuilt_index(self, seed, threshold_scale):
        rng = random.Random(seed)
        base_edges = [
            (rng.randrange(8), rng.randrange(8), rng.randint(1, 10))
            for _ in range(15)
        ]
        base = _mirror(base_edges, [], 10)
        inc = IncrementalTILLIndex(base, rebuild_threshold=4 * threshold_scale)
        delta = []
        for _ in range(10):
            e = (rng.randrange(10), rng.randrange(10), rng.randint(1, 10))
            delta.append(e)
            inc.add_edge(*e)
            mirror = _mirror(base_edges, delta, 10)
            u, v = rng.randrange(8), rng.randrange(8)
            t1 = rng.randint(1, 9)
            window = (t1, rng.randint(t1, 10))
            assert inc.span_reachable(u, v, window) == \
                span_reaches_bruteforce(mirror, u, v, window)

    @given(st.integers(0, 80))
    @settings(max_examples=15, deadline=None)
    def test_streamed_theta_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        base_edges = [
            (rng.randrange(6), rng.randrange(6), rng.randint(1, 8))
            for _ in range(10)
        ]
        base = _mirror(base_edges, [], 8)
        inc = IncrementalTILLIndex(base, rebuild_threshold=100)
        delta = []
        for _ in range(6):
            e = (rng.randrange(8), rng.randrange(8), rng.randint(1, 8))
            delta.append(e)
            inc.add_edge(*e)
        mirror = _mirror(base_edges, delta, 10)
        for u in range(0, 8, 3):
            for v in range(1, 8, 3):
                theta = rng.randint(1, 4)
                got = inc.theta_reachable(u, v, (1, 8), theta)
                want = theta_reaches_bruteforce(mirror, u, v, (1, 8), theta)
                assert got == want


class TestOnlineFallback:
    def test_over_cap_window_answered_on_live_graph(self):
        """Without ``fallback`` a window wider than the ϑ cap raises;
        with ``fallback="online"`` it is answered by BFS over the live
        graph (base minus tombstones plus streamed edges)."""
        g = random_graph(4, num_vertices=8, num_edges=30, max_time=9)
        inc = IncrementalTILLIndex(g, rebuild_threshold=100, vartheta=3)
        live = list(g.edges())
        for edge in [(0, 7, 5), (7, 3, 6)]:
            inc.add_edge(*edge)
            live.append(edge)
        inc.remove_edge(*live[0])
        live.pop(0)
        graph = _live_graph(list(g.vertices()), live, directed=True)
        window = (1, 9)
        with pytest.raises(UnsupportedIntervalError) as exc:
            inc.span_reachable(0, 3, window)
        assert str(exc.value) == (
            "query needs interval length 9 but the index was built with "
            "vartheta=3; rebuild with a larger cap or pass fallback='online'"
        )
        answers = []
        for u in graph.vertices():
            for v in graph.vertices():
                want = span_reaches_bruteforce(graph, u, v, window)
                got = inc.span_reachable(u, v, window, fallback="online")
                assert got == want, (u, v)
                answers.append(want)
        assert any(answers) and not all(answers)
        # Within the cap the index path still answers without fallback.
        assert inc.span_reachable(0, 7, (5, 6)) == \
            span_reaches_bruteforce(graph, 0, 7, (5, 6))


class TestRemovals:
    def test_remove_base_edge(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        assert inc.span_reachable("a", "c", (1, 2))
        inc.remove_edge("b", "c", 2)
        assert not inc.span_reachable("a", "c", (1, 2))
        assert inc.span_reachable("a", "b", (1, 1))
        assert inc.num_edges == 1

    def test_remove_buffered_delta_edge(self):
        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.add_edge("b", "c", 2)
        assert inc.span_reachable("a", "c", (1, 2))
        inc.remove_edge("b", "c", 2)
        assert not inc.span_reachable("a", "c", (1, 2))
        assert inc.delta_size == 0
        assert inc.removed_size == 0

    def test_remove_missing_edge_raises(self):
        from repro.errors import GraphError

        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g)
        with pytest.raises(GraphError, match="no live instance"):
            inc.remove_edge("a", "b", 9)
        with pytest.raises(GraphError):
            inc.remove_edge("b", "a", 1)  # wrong direction in digraph

    def test_double_remove_raises(self):
        from repro.errors import GraphError

        g = TemporalGraph.from_edges([("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.remove_edge("a", "b", 1)
        with pytest.raises(GraphError):
            inc.remove_edge("a", "b", 1)

    def test_multi_edge_removed_one_instance(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("a", "b", 1)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.remove_edge("a", "b", 1)
        assert inc.span_reachable("a", "b", (1, 1))  # one instance left
        inc.remove_edge("a", "b", 1)
        assert not inc.span_reachable("a", "b", (1, 1))

    def test_undirected_orientation_insensitive(self):
        g = TemporalGraph.from_edges([("a", "b", 3)], directed=False)
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.remove_edge("b", "a", 3)  # opposite orientation
        assert not inc.span_reachable("a", "b", (3, 3))

    def test_removals_trigger_rebuild(self):
        g = TemporalGraph.from_edges(
            [("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]
        )
        inc = IncrementalTILLIndex(g, rebuild_threshold=2)
        inc.remove_edge("a", "b", 1)
        assert inc.rebuilds == 0
        inc.remove_edge("b", "c", 2)
        assert inc.rebuilds == 1
        assert inc.removed_size == 0
        assert not inc.span_reachable("a", "c", (1, 3))
        assert inc.span_reachable("c", "d", (3, 3))

    def test_mixed_adds_and_removes(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 5)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        inc.remove_edge("b", "c", 5)
        inc.add_edge("b", "c", 2)
        assert inc.span_reachable("a", "c", (1, 2))
        assert not inc.span_reachable("a", "c", (3, 9))

    def test_theta_with_removals(self):
        g = TemporalGraph.from_edges([("a", "b", 3), ("b", "c", 4)])
        inc = IncrementalTILLIndex(g, rebuild_threshold=100)
        assert inc.theta_reachable("a", "c", (1, 9), 2)
        inc.remove_edge("b", "c", 4)
        inc.add_edge("b", "c", 8)
        assert not inc.theta_reachable("a", "c", (1, 9), 2)
        assert inc.theta_reachable("a", "c", (1, 9), 6)

    @given(st.integers(0, 120))
    @settings(max_examples=20, deadline=None)
    def test_churn_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        base_edges = [
            (rng.randrange(7), rng.randrange(7), rng.randint(1, 8))
            for _ in range(14)
        ]
        base = _mirror(base_edges, [], 9)
        inc = IncrementalTILLIndex(base, rebuild_threshold=9)
        live = list(base_edges)
        for _ in range(12):
            if live and rng.random() < 0.4:
                victim = rng.choice(live)
                live.remove(victim)
                inc.remove_edge(*victim)
            else:
                edge = (rng.randrange(9), rng.randrange(9), rng.randint(1, 8))
                live.append(edge)
                inc.add_edge(*edge)
            mirror = _mirror(live, [], 9)
            u, v = rng.randrange(9), rng.randrange(9)
            t1 = rng.randint(1, 8)
            window = (t1, rng.randint(t1, 8))
            assert inc.span_reachable(u, v, window) == \
                span_reaches_bruteforce(mirror, u, v, window), (
                    seed, live, u, v, window
                )


def _check_all_pairs(inc, vertices, live, directed, windows):
    """Every (u, v) pair over *windows* against BFS on the live graph;
    returns the oracle's answers."""
    graph = _live_graph(vertices, live, directed)
    answers = []
    for window in windows:
        for u in vertices:
            for v in vertices:
                want = span_reaches_bruteforce(graph, u, v, window)
                assert inc.span_reachable(u, v, window) == want, \
                    (u, v, window)
                answers.append(want)
    return answers


class TestContractedSearch:
    """The contracted-graph search ends base segments only at ``v`` and
    at delta tails, and batches each node's probes into one call."""

    def test_two_base_segments_through_head_that_is_not_a_tail(self):
        # a ~base~> b -delta-> c ~base~> e; c is a head, never a tail.
        # h is a head that is not a tail, base-reachable from a.
        base = [("a", "b", 1), ("c", "d", 3), ("d", "e", 4), ("a", "h", 1)]
        delta = [("b", "c", 2), ("z", "h", 2)]
        vertices = ["a", "b", "c", "d", "e", "h", "z"]
        inc = IncrementalTILLIndex(_live_graph(vertices, base, True),
                                   rebuild_threshold=100)
        for edge in delta:
            inc.add_edge(*edge)
        assert inc.span_reachable("a", "e", (1, 4))
        assert not inc.span_reachable("a", "e", (2, 4))
        _check_all_pairs(inc, vertices, base + delta, True,
                         [(1, 4), (1, 3), (2, 4), (1, 2)])

    def test_delta_only_vertex_as_source_target_and_middle(self):
        base = [("a", "b", 1), ("c", "d", 3)]
        # p only as a source, n only in the middle, q only as a target
        delta = [("p", "a", 1), ("b", "n", 2), ("n", "c", 2), ("d", "q", 4)]
        vertices = ["a", "b", "c", "d", "p", "n", "q"]
        inc = IncrementalTILLIndex(_live_graph(vertices[:4], base, True),
                                   rebuild_threshold=100)
        for edge in delta:
            inc.add_edge(*edge)
        assert inc.span_reachable("p", "q", (1, 4))
        assert inc.span_reachable("a", "q", (1, 4))
        assert inc.span_reachable("n", "d", (2, 3))
        assert not inc.span_reachable("p", "q", (2, 4))
        _check_all_pairs(inc, vertices, base + delta, True,
                         [(1, 4), (1, 2), (2, 4), (2, 3)])

    def test_undirected_delta_edge_used_against_its_orientation(self):
        base = [("a", "b", 1), ("c", "d", 3)]
        delta = [("c", "b", 2)]  # inserted c -> b, travelled b -> c
        vertices = ["a", "b", "c", "d"]
        inc = IncrementalTILLIndex(_live_graph(vertices, base, False),
                                   rebuild_threshold=100)
        inc.add_edge(*delta[0])
        assert inc.span_reachable("a", "d", (1, 3))
        assert inc.span_reachable("d", "a", (1, 3))
        _check_all_pairs(inc, vertices, base + delta, False,
                         [(1, 3), (2, 3), (1, 2)])

    def test_positive_answer_in_window_with_tombstones(self):
        base = [("a", "b", 1), ("b", "c", 2), ("a", "x", 1), ("x", "c", 2),
                ("c", "y", 2), ("y", "w", 3)]
        vertices = ["a", "b", "c", "d", "w", "x", "y"]
        inc = IncrementalTILLIndex(_live_graph(vertices, base, True),
                                   rebuild_threshold=100)
        live = list(base)
        for edge in [("a", "b", 1), ("y", "w", 3)]:
            inc.remove_edge(*edge)
            live.remove(edge)
        inc.add_edge("c", "d", 3)
        live.append(("c", "d", 3))
        assert inc.removed_size == 2
        assert inc.span_reachable("a", "d", (1, 3))  # a-x-c, then c-d
        assert not inc.span_reachable("a", "w", (1, 3))
        _check_all_pairs(inc, vertices, live, True, [(1, 3), (2, 3)])


def _ingest_stream(seed):
    """A base graph and a time-ordered stream over later timestamps,
    ~1 edge per time unit, some to brand-new vertices."""
    rng = random.Random(seed)
    n = 30
    base = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 150))
            for _ in range(120)]
    stream = [(rng.randrange(n + 4), rng.randrange(n + 4), 150 + i)
              for i in range(140)]
    return rng, list(range(n)), base, stream


class TestIngestShapedStream:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("directed", [True, False])
    def test_stream_with_removals_matches_live_bfs(self, seed, directed):
        """~100 buffered edges fall inside the query windows; every
        answer is checked against BFS on the live graph."""
        rng, vertices, base, stream = _ingest_stream(seed)
        inc = IncrementalTILLIndex(_live_graph(vertices, base, directed),
                                   rebuild_threshold=1000)
        live, seen, answers = list(base), list(vertices), []
        for i, edge in enumerate(stream):
            inc.add_edge(*edge)
            live.append(edge)
            seen.extend(x for x in edge[:2] if x not in seen)
            if i % 30 == 29:  # a base edge and a buffered edge go
                for victim in (rng.choice(live[:len(base) - 5]), live[-2]):
                    inc.remove_edge(*victim)
                    live.remove(victim)
            graph = _live_graph(seen, live, directed)
            t = edge[2]
            for back in (20, 60, 100, 140):
                u, v = rng.choice(seen), rng.choice(seen)
                window = (t - back, t)
                want = span_reaches_bruteforce(graph, u, v, window)
                assert inc.span_reachable(u, v, window) == want, \
                    (i, u, v, window)
                answers.append(want)
        assert inc.delta_size > 100 and inc.rebuilds == 0
        assert 0.1 < sum(answers) / len(answers) < 0.9


class TestBatching:
    def test_one_kernel_call_per_expanded_node(self, monkeypatch):
        """A delta-touched query never goes through the one-pair facade.
        Each batched kernel call has one source.  Only ``u`` repeats,
        once, for the ``(u, v)`` base probe; every other source is the
        head of an in-window delta edge, entered through it, so there
        are at most two calls plus one per delta head."""
        from repro.core import queries

        rng, vertices, base, stream = _ingest_stream(3)
        inc = IncrementalTILLIndex(_live_graph(vertices, base, True),
                                   rebuild_threshold=1000)
        for edge in stream[:100]:
            inc.add_edge(*edge)
        graph = _live_graph(sorted({*vertices, *(x for e in stream[:100]
                                                 for x in e[:2])}),
                            base + stream[:100], True)
        calls = []
        kernel = queries.flat_span_batch

        def counting(store, rank, pairs, ws, we):
            calls.append(list(pairs))
            return kernel(store, rank, pairs, ws, we)

        def facade(*args, **kwargs):
            raise AssertionError("one-pair facade called")

        monkeypatch.setattr(queries, "flat_span_batch", counting)
        monkeypatch.setattr(TILLIndex, "span_reachable", facade)
        window = (100, 249)  # holds all 100 buffered edges
        index_of = inc._index.graph.index_of
        heads = {index_of(b) for _a, b, _t in stream[:100]
                 if b in inc._index.graph}
        answers, widest = [], 0
        for u in vertices:
            ui = index_of(u)
            for v in rng.sample(vertices, 6):
                if u == v:
                    continue
                calls.clear()
                want = span_reaches_bruteforce(graph, u, v, window)
                assert inc.span_reachable(u, v, window) == want
                answers.append(want)
                sources = [call[0][0] for call in calls]
                assert all(len({a for a, _ in call}) == 1 for call in calls)
                if sources.count(ui) == 2:
                    assert calls[0] == [(ui, index_of(v))]
                assert sources.count(ui) <= 2
                rest = [x for x in sources if x != ui]
                assert len(set(rest)) == len(rest)
                assert set(rest) <= heads
                assert len(calls) <= 2 + len(heads)
                widest = max([widest] + [len(call) for call in calls])
        assert any(answers) and not all(answers)
        assert widest > 1  # the probes really were batched


class _UnreadableBuffer(list):
    """A delta buffer that fails the test the moment it is iterated."""

    def __iter__(self):
        raise AssertionError("delta buffer read")


class TestBaseFirst:
    """The base index answers first; the delta is read only on a miss."""

    def test_base_hit_through_tombstoned_only_path_is_false(self):
        # a -> b -> c is the only a ~> c path in [1, 2]; b -> c goes.
        base = [("a", "b", 1), ("b", "c", 2), ("c", "d", 5)]
        vertices = ["a", "b", "c", "d", "e"]
        inc = IncrementalTILLIndex(_live_graph(vertices, base, True),
                                   rebuild_threshold=100)
        inc.remove_edge("b", "c", 2)
        inc.add_edge("d", "e", 2)  # in the window, off every a ~> c path
        live = [("a", "b", 1), ("c", "d", 5), ("d", "e", 2)]
        assert inc._index.span_reachable("a", "c", (1, 2))  # base hit
        assert not inc.span_reachable("a", "c", (1, 2))
        assert not inc.theta_reachable("a", "c", (1, 3), 2)
        _check_all_pairs(inc, vertices, live, True, [(1, 2), (1, 5), (2, 5)])

    @pytest.mark.parametrize("directed", [True, False])
    def test_base_delta_base_delta_base_path(self, directed):
        # a ~base~> b -delta-> c ~base~> d -delta-> e ~base~> f: c and
        # e are entered only by a delta edge, and each must try its own
        # base segment for the path to be found.
        base = [("a", "a2", 1), ("a2", "b", 1), ("c", "c2", 3),
                ("c2", "d", 3), ("e", "f", 5), ("a", "z", 1)]
        delta = [("b", "c", 2), ("d", "e", 4)]
        vertices = ["a", "a2", "b", "c", "c2", "d", "e", "f", "z"]
        inc = IncrementalTILLIndex(_live_graph(vertices, base, directed),
                                   rebuild_threshold=100)
        for edge in delta:
            inc.add_edge(*edge)
        assert inc.span_reachable("a", "f", (1, 5))
        assert inc.theta_reachable("a", "f", (0, 6), 5)
        assert not inc.theta_reachable("a", "f", (0, 6), 4)
        windows = [(1, 5), (1, 4), (2, 5), (0, 6)]
        _check_all_pairs(inc, vertices, base + delta, directed, windows)
        graph = _live_graph(vertices, base + delta, directed)
        for u in vertices:
            for v in vertices:
                for window in windows:
                    lo, hi = window
                    for theta in range(1, hi - lo + 2):
                        want = theta_reaches_bruteforce(graph, u, v, window,
                                                        theta)
                        assert inc.theta_reachable(u, v, window, theta) \
                            == want, (u, v, window, theta)

    def test_base_answer_never_reads_the_delta(self):
        rng, vertices, base, stream = _ingest_stream(4)
        inc = IncrementalTILLIndex(_live_graph(vertices, base, True),
                                   rebuild_threshold=1000)
        for edge in stream[:60]:
            inc.add_edge(*edge)
        graph = _live_graph(sorted({*vertices, *(x for e in stream[:60]
                                                 for x in e[:2])}),
                            base + stream[:60], True)
        inc._delta = _UnreadableBuffer(inc._delta)
        hits = misses = dead_ends = 0
        for window in [(100, 160), (120, 209)]:  # both hold buffered edges
            for u in vertices:
                for v in vertices:
                    if u == v:
                        continue
                    if not inc._index.span_reachable(u, v, window):
                        # A miss reads the buffer, unless u cannot leave
                        # or v cannot be entered in the live graph.
                        misses += 1
                        if (graph.has_out_edge_in(graph.index_of(u), *window)
                                and graph.has_in_edge_in(graph.index_of(v),
                                                         *window)):
                            with pytest.raises(AssertionError,
                                               match="delta buffer read"):
                                inc.span_reachable(u, v, window)
                            continue
                        assert not span_reaches_bruteforce(graph, u, v,
                                                           window)
                        assert not inc.span_reachable(u, v, window)
                        dead_ends += 1
                        continue
                    assert span_reaches_bruteforce(graph, u, v, window)
                    assert inc.span_reachable(u, v, window)
                    hits += 1
        assert hits > 50 and misses - dead_ends > 50 and dead_ends > 0


def _unread_answer(query):
    """*query*'s answer, or ``None`` if it read an unreadable buffer."""
    try:
        return query()
    except AssertionError as err:
        if "delta buffer read" not in str(err):
            raise
        return None


class TestLiveGraphPrefilter:
    """After a base miss, ``u`` must leave and ``v`` must be entered in
    the window by a base or a buffered edge (Lemmas 9/10 on the live
    graph); otherwise the answer is False and the buffer is not read."""

    @staticmethod
    def _index(base_vertices, base, delta, directed=True):
        inc = IncrementalTILLIndex(_live_graph(base_vertices, base, directed),
                                   rebuild_threshold=100)
        for edge in delta:
            inc.add_edge(*edge)
        return inc

    @staticmethod
    def _check(inc, vertices, live, directed, windows, exits=(), reads=()):
        """Every pair, span and every θ, against BFS on the live graph.
        Each ``(u, v, window)`` of *exits* is False without reading the
        buffer, through span and θ; each of *reads* reads it."""
        _check_all_pairs(inc, vertices, live, directed, windows)
        graph = _live_graph(vertices, live, directed)
        for u in vertices:
            for v in vertices:
                for lo, hi in windows:
                    for theta in range(1, hi - lo + 2):
                        want = theta_reaches_bruteforce(graph, u, v,
                                                        (lo, hi), theta)
                        assert inc.theta_reachable(u, v, (lo, hi), theta) \
                            == want, (u, v, (lo, hi), theta)
        buffer = inc._delta
        inc._delta = _UnreadableBuffer(buffer)
        try:
            for u, v, (lo, hi) in exits:
                assert not span_reaches_bruteforce(graph, u, v, (lo, hi))
                assert _unread_answer(
                    lambda: inc.span_reachable(u, v, (lo, hi))) is False, \
                    (u, v, (lo, hi))
                assert _unread_answer(lambda: inc.theta_reachable(
                    u, v, (lo, hi), hi - lo + 1)) is False, (u, v, (lo, hi))
            for u, v, window in reads:
                assert _unread_answer(
                    lambda: inc.span_reachable(u, v, window)) is None, \
                    (u, v, window)
        finally:
            inc._delta = buffer

    def test_v_entered_only_by_a_buffered_edge(self):
        base = [("a", "b", 1), ("c", "a", 5)]
        delta = [("b", "c", 2)]
        inc = self._index("abc", base, delta)
        assert inc.span_reachable("a", "c", (1, 2))
        self._check(inc, "abc", base + delta, True, [(1, 2), (1, 5), (2, 2)],
                    exits=[("c", "b", (1, 2))],
                    reads=[("a", "c", (1, 2))])

    def test_u_leaves_only_by_a_buffered_edge(self):
        base = [("b", "c", 2), ("b", "a", 5)]
        delta = [("a", "b", 1)]
        inc = self._index("abc", base, delta)
        assert inc.span_reachable("a", "c", (1, 2))
        self._check(inc, "abc", base + delta, True, [(1, 2), (2, 2), (1, 5)],
                    exits=[("a", "c", (2, 2))],
                    reads=[("a", "c", (1, 2))])

    def test_delta_only_vertex_as_source_and_target(self):
        base = [("a", "b", 1)]
        delta = [("p", "a", 1), ("b", "q", 2)]
        inc = self._index("ab", base, delta)
        assert inc.span_reachable("p", "q", (1, 2))
        self._check(inc, "abpq", base + delta, True, [(1, 2), (2, 2)],
                    exits=[("q", "p", (1, 2)), ("p", "q", (2, 2)),
                           ("a", "p", (1, 2))],
                    reads=[("p", "q", (1, 2))])

    def test_undirected_buffered_edge_against_its_orientation(self):
        base = [("a", "b", 1), ("c", "d", 3)]
        delta = [("c", "b", 2)]  # inserted c -> b, travelled b -> c
        inc = self._index("abcd", base, delta, directed=False)
        assert inc.span_reachable("a", "c", (1, 2))  # c entered from b
        assert inc.span_reachable("b", "d", (2, 3))  # b leaves to c
        self._check(inc, "abcd", base + delta, False, [(1, 2), (2, 3)],
                    exits=[("a", "d", (2, 3))],
                    reads=[("a", "c", (1, 2)), ("b", "d", (2, 3))])

    @pytest.mark.parametrize("directed", [True, False])
    def test_removed_buffered_edge_lets_the_exit_fire(self, directed):
        base = [("a", "b", 1)]
        inc = self._index("abc", base, [("b", "c", 2)], directed)
        assert inc.span_reachable("a", "c", (1, 2))
        inc.remove_edge(*(("b", "c", 2) if directed else ("c", "b", 2)))
        assert inc.delta_size == 0
        self._check(inc, "abc", base, directed, [(1, 2), (2, 2)],
                    exits=[("a", "c", (1, 2)), ("b", "c", (2, 2))])

    def test_window_with_tombstones(self):
        base = [("a", "b", 1), ("b", "c", 2), ("c", "a", 3)]
        inc = self._index("abcd", base, [("c", "d", 2)])
        inc.remove_edge("b", "c", 2)
        assert inc.removed_size == 1
        live = [("a", "b", 1), ("c", "a", 3), ("c", "d", 2)]
        # b's only out-edge in [2, 2] is tombstoned: the check keeps it,
        # so the buffer is read and the search answers False.
        self._check(inc, "abcd", live, True, [(1, 2), (1, 3), (2, 3)],
                    exits=[("d", "a", (1, 3)), ("a", "d", (3, 3))],
                    reads=[("a", "d", (1, 2)), ("b", "d", (2, 2))])
