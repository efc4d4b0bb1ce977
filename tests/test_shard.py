"""Tests for the time-sharded index (repro.shard).

Covers the partitioner invariants, sharded-vs-monolithic answer
equality across every routing path, the parallel build, the vartheta
cap contract, persistence, the QueryEngine integration, and the CLI
entry points.
"""

import json

import pytest

from repro import (
    IndexBuildError,
    IndexFormatError,
    Interval,
    ShardedTILLIndex,
    TemporalGraph,
    TILLIndex,
    TimePartitioner,
    UnsupportedIntervalError,
)
from repro.cli import main
from repro.core.online import online_span_reachable
from repro.graph.io import write_edgelist
from repro.serve import QueryEngine
from repro.shard import POLICIES, TimePartition

from tests.conftest import random_graph


def _all_windows(graph):
    lo, hi = graph.min_time, graph.max_time
    return [
        Interval(a, b)
        for a in range(lo - 1, hi + 1)
        for b in range(a, hi + 2)
    ]


class TestTimePartitioner:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(5))
    def test_slices_tile_the_lifetime(self, policy, seed):
        g = random_graph(seed, num_vertices=8, num_edges=40, max_time=12)
        part = TimePartitioner(4, policy).partition(g)
        assert part.t_min == g.min_time
        assert part.t_max == g.max_time
        for prev, cur in zip(part.slices, part.slices[1:]):
            assert cur.t_start == prev.t_end + 1
        assert sum(s.num_edges for s in part.slices) == g.num_edges

    def test_equal_edges_never_splits_a_timestamp(self):
        # Ten edges all at t=5 cannot be split no matter how many
        # shards are requested.
        g = TemporalGraph.from_edges(
            [(i, i + 1, 5) for i in range(10)], freeze=True
        )
        part = TimePartitioner(4, "equal-edges").partition(g)
        assert part.num_shards == 1
        assert part.slices[0].num_edges == 10

    def test_equal_edges_balances_counts(self):
        g = random_graph(3, num_vertices=10, num_edges=60, max_time=30)
        part = TimePartitioner(4, "equal-edges").partition(g)
        counts = [s.num_edges for s in part.slices]
        # Every slice should carry a meaningful share of the edges.
        assert min(counts) > 0
        assert max(counts) <= 2 * (g.num_edges // len(counts) + 1)

    def test_equal_span_widths_uniform(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 40)],
                                     freeze=True)
        part = TimePartitioner(4, "equal-span").partition(g)
        widths = {s.span for s in part.slices}
        assert len(widths) <= 2          # ceil-divide: at most two widths
        assert part.t_min == 1 and part.t_max == 40

    def test_more_shards_than_timestamps(self):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)],
                                     freeze=True)
        part = TimePartitioner(10, "equal-edges").partition(g)
        assert part.num_shards <= 2

    def test_edgeless_graph_rejected(self):
        g = TemporalGraph()
        g.add_vertex("a")
        g.freeze()
        with pytest.raises(IndexBuildError, match="edgeless"):
            TimePartitioner(2).partition(g)

    def test_bad_policy_rejected(self):
        with pytest.raises(IndexBuildError, match="policy"):
            TimePartitioner(2, policy="equal-vibes")

    def test_bad_shard_count_rejected(self):
        with pytest.raises(IndexBuildError, match="num_shards"):
            TimePartitioner(0)

    def test_slice_lookup(self):
        g = random_graph(1, num_vertices=8, num_edges=40, max_time=12)
        part = TimePartitioner(3, "equal-edges").partition(g)
        for s in part.slices:
            assert part.slice_of_time(s.t_start) == s.shard
            assert part.slice_of_time(s.t_end) == s.shard
            assert part.slice_containing((s.t_start, s.t_end)) == s.shard
        whole = (part.t_min, part.t_max)
        if part.num_shards > 1:
            assert part.slice_containing(whole) is None
        assert part.slices_overlapping(whole) == tuple(
            range(part.num_shards)
        )

    def test_assign_edges_matches_slice_stats(self):
        g = random_graph(2, num_vertices=8, num_edges=40, max_time=12)
        part = TimePartitioner(4, "equal-edges").partition(g)
        buckets = part.assign_edges(g.edges())
        for s, bucket in zip(part.slices, buckets):
            assert len(bucket) == s.num_edges
            assert all(s.t_start <= t <= s.t_end for _u, _v, t in bucket)


class TestShardedAnswers:
    """Sharded answers must be bit-identical to the monolithic index."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_monolithic_exhaustively(self, policy, seed):
        g = random_graph(seed, num_vertices=7, num_edges=25, max_time=8)
        mono = TILLIndex.build(g)
        sharded = ShardedTILLIndex.build(g, num_shards=3, policy=policy)
        for window in _all_windows(g):
            for u in range(7):
                for v in range(7):
                    assert sharded.span_reachable(u, v, window) == \
                        mono.span_reachable(u, v, window), (u, v, window)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shards_are_flat_at_build(self, jobs):
        # Every shard leaves its build (in-process or in a worker) with
        # its labels already in the flat store that routed queries read.
        from repro.core.flatstore import FlatTILLLabels

        g = random_graph(9, num_vertices=8, num_edges=30, max_time=9)
        sharded = ShardedTILLIndex.build(g, num_shards=3, jobs=jobs)
        mono = TILLIndex.build(g)
        for shard in sharded.shards:
            assert isinstance(shard.labels, FlatTILLLabels)
            assert shard.labels.store is shard.flat
        for window in _all_windows(g):
            for u in range(8):
                v = (u + 1) % 8
                assert sharded.span_reachable(u, v, window) == \
                    mono.span_reachable(u, v, window)

    def test_all_routes_exercised(self):
        g = random_graph(5, num_vertices=8, num_edges=35, max_time=12)
        sharded = ShardedTILLIndex.build(g, num_shards=3)
        for window in _all_windows(g):
            sharded.span_reachable(0, 1, window)
        sharded.span_reachable(0, 1, (g.min_time - 5, g.min_time - 3))
        for route in ("contained", "stitch", "empty"):
            assert sharded.route_counts.get(route, 0) > 0, route

    def test_forced_fallback_still_correct(self):
        g = random_graph(6, num_vertices=7, num_edges=30, max_time=10)
        mono = TILLIndex.build(g)
        sharded = ShardedTILLIndex.build(g, num_shards=3, stitch_limit=0)
        straddle = Interval(g.min_time, g.max_time)
        assert sharded.plan_span(straddle).route == "fallback"
        for u in range(7):
            for v in range(7):
                assert sharded.span_reachable(u, v, straddle) == \
                    mono.span_reachable(u, v, straddle)
        assert sharded.route_counts["fallback"] > 0

    @pytest.mark.parametrize("theta", [1, 2, 4])
    def test_theta_matches_monolithic(self, theta):
        g = random_graph(7, num_vertices=7, num_edges=30, max_time=9)
        mono = TILLIndex.build(g)
        sharded = ShardedTILLIndex.build(g, num_shards=3)
        lo, hi = g.min_time, g.max_time
        windows = [
            Interval(a, b)
            for a in range(lo, hi + 1)
            for b in range(a + theta - 1, hi + 1)
        ]
        for window in windows:
            for u in range(0, 7, 2):
                for v in range(1, 7, 2):
                    assert sharded.theta_reachable(u, v, window, theta) == \
                        mono.theta_reachable(u, v, window, theta), \
                        (u, v, window, theta)

    def test_batch_equals_scalar(self):
        g = random_graph(8, num_vertices=8, num_edges=35, max_time=10)
        sharded = ShardedTILLIndex.build(g, num_shards=3)
        pairs = [(u, v) for u in range(8) for v in range(8)]
        for window in [Interval(g.min_time, g.max_time),
                       Interval(g.min_time, g.min_time + 1)]:
            got = sharded.span_reachable_many(pairs, window)
            want = [sharded.span_reachable(u, v, window) for u, v in pairs]
            assert got == want
            got_t = sharded.theta_reachable_many(pairs, window, 2)
            want_t = [sharded.theta_reachable(u, v, window, 2)
                      for u, v in pairs]
            assert got_t == want_t

    def test_same_vertex_true_inside_lifetime(self):
        g = random_graph(9, num_vertices=6, num_edges=20, max_time=8)
        sharded = ShardedTILLIndex.build(g, num_shards=2)
        mono = TILLIndex.build(g)
        window = (g.min_time, g.max_time)
        assert sharded.span_reachable(0, 0, window) == \
            mono.span_reachable(0, 0, window)

    def test_parallel_build_identical_to_sequential(self):
        g = random_graph(10, num_vertices=8, num_edges=40, max_time=12)
        seq = ShardedTILLIndex.build(g, num_shards=3, jobs=1)
        par = ShardedTILLIndex.build(g, num_shards=3, jobs=2)
        assert par.jobs == 2
        for a, b in zip(seq.shards, par.shards):
            got = [sorted(ls.entries()) for ls in b.labels.out_labels]
            want = [sorted(ls.entries()) for ls in a.labels.out_labels]
            assert got == want
        for window in _all_windows(g)[::7]:
            for u in range(0, 8, 3):
                for v in range(1, 8, 3):
                    assert seq.span_reachable(u, v, window) == \
                        par.span_reachable(u, v, window)

    def test_bad_jobs_rejected(self):
        g = random_graph(0, num_vertices=5, num_edges=10)
        with pytest.raises(IndexBuildError, match="jobs"):
            ShardedTILLIndex.build(g, jobs=0)


class TestCapContract:
    """vartheta on a sharded index mirrors the monolithic facade."""

    def test_over_cap_raises(self):
        g = random_graph(11, num_vertices=6, num_edges=25, max_time=10)
        sharded = ShardedTILLIndex.build(g, num_shards=2, vartheta=3)
        wide = (g.min_time, g.min_time + 5)
        with pytest.raises(UnsupportedIntervalError) as exc:
            sharded.span_reachable(0, 1, wide)
        assert str(exc.value) == (
            "query needs interval length 6 but the index was built with "
            "vartheta=3; rebuild with a larger cap or pass fallback='online'"
        )
        with pytest.raises(UnsupportedIntervalError):
            sharded.span_reachable_many([(0, 1)], wide)
        with pytest.raises(UnsupportedIntervalError) as exc:
            sharded.theta_reachable(0, 1, wide, theta=5)
        assert str(exc.value) == (
            "query needs interval length 5 but the index was built with "
            "vartheta=3; rebuild with a larger cap or pass fallback='online'"
        )

    def test_online_fallback_matches_oracle(self):
        g = random_graph(12, num_vertices=6, num_edges=25, max_time=10)
        sharded = ShardedTILLIndex.build(g, num_shards=2, vartheta=3)
        wide = Interval(g.min_time, g.max_time)
        for u in range(6):
            for v in range(6):
                want = online_span_reachable(
                    g, g.index_of(u), g.index_of(v), wide
                )
                assert sharded.span_reachable(
                    u, v, wide, fallback="online") == want
        pairs = [(u, v) for u in range(6) for v in range(6)]
        got = sharded.span_reachable_many(pairs, wide, fallback="online")
        assert got == [online_span_reachable(
            g, g.index_of(u), g.index_of(v), wide) for u, v in pairs]

    def test_within_cap_matches_capped_monolithic(self):
        g = random_graph(13, num_vertices=7, num_edges=30, max_time=10)
        cap = 4
        mono = TILLIndex.build(g, vartheta=cap)
        sharded = ShardedTILLIndex.build(g, num_shards=3, vartheta=cap)
        for window in _all_windows(g):
            if window.length > cap:
                continue
            for u in range(0, 7, 2):
                for v in range(1, 7, 2):
                    assert sharded.span_reachable(u, v, window) == \
                        mono.span_reachable(u, v, window), (u, v, window)


class TestPersistence:
    def _build(self, seed=14):
        g = random_graph(seed, num_vertices=7, num_edges=30, max_time=10)
        return g, ShardedTILLIndex.build(g, num_shards=3, vartheta=5)

    def test_roundtrip_answers_identical(self, tmp_path):
        g, sharded = self._build()
        sharded.save(tmp_path / "idx")
        loaded = ShardedTILLIndex.load(tmp_path / "idx", g)
        assert loaded.vartheta == sharded.vartheta
        assert loaded.partition.as_dict() == sharded.partition.as_dict()
        for window in _all_windows(g)[::5]:
            for u in range(0, 7, 2):
                for v in range(1, 7, 2):
                    if sharded.vartheta and window.length > sharded.vartheta:
                        continue
                    assert loaded.span_reachable(u, v, window) == \
                        sharded.span_reachable(u, v, window)

    def test_manifest_is_json_with_schema(self, tmp_path):
        _g, sharded = self._build()
        sharded.save(tmp_path / "idx")
        manifest = json.loads(
            (tmp_path / "idx" / "manifest.json").read_text()
        )
        assert manifest["schema"] == "repro-shard/1"
        assert len(manifest["slices"]) == len(sharded.shards)
        for entry in manifest["slices"]:
            assert (tmp_path / "idx" / entry["file"]).exists()

    def test_missing_manifest_rejected(self, tmp_path):
        g, _sharded = self._build()
        (tmp_path / "empty").mkdir()
        with pytest.raises(IndexFormatError, match="manifest"):
            ShardedTILLIndex.load(tmp_path / "empty", g)

    def test_corrupt_manifest_rejected(self, tmp_path):
        g, sharded = self._build()
        sharded.save(tmp_path / "idx")
        (tmp_path / "idx" / "manifest.json").write_text("{not json")
        with pytest.raises(IndexFormatError, match="corrupt"):
            ShardedTILLIndex.load(tmp_path / "idx", g)

    def test_unknown_schema_rejected(self, tmp_path):
        g, sharded = self._build()
        sharded.save(tmp_path / "idx")
        path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["schema"] = "repro-shard/99"
        path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match="schema"):
            ShardedTILLIndex.load(tmp_path / "idx", g)

    def test_wrong_graph_rejected(self, tmp_path):
        _g, sharded = self._build()
        sharded.save(tmp_path / "idx")
        other = random_graph(99, num_vertices=7, num_edges=31, max_time=10)
        with pytest.raises(IndexBuildError, match="edge-count"):
            ShardedTILLIndex.load(tmp_path / "idx", other)

    def test_missing_shard_file_rejected(self, tmp_path):
        g, sharded = self._build()
        sharded.save(tmp_path / "idx")
        (tmp_path / "idx" / "shard-0001.till").unlink()
        with pytest.raises(IndexFormatError, match="shard-0001"):
            ShardedTILLIndex.load(tmp_path / "idx", g)


class TestEngineIntegration:
    def test_engine_answers_match_monolithic_backend(self):
        g = random_graph(15, num_vertices=8, num_edges=40, max_time=12)
        mono_engine = QueryEngine(TILLIndex.build(g))
        shard_engine = QueryEngine(ShardedTILLIndex.build(g, num_shards=3))
        pairs = [(u, v) for u in range(8) for v in range(8)]
        mid = (g.min_time + g.max_time) // 2
        for window in [(g.min_time, g.max_time), (mid, mid + 1)]:
            assert shard_engine.span_many(pairs, window) == \
                mono_engine.span_many(pairs, window)
            assert shard_engine.theta_many(pairs, window, 2) == \
                mono_engine.theta_many(pairs, window, 2)

    def test_cache_hits_on_repeat(self):
        g = random_graph(16, num_vertices=6, num_edges=25, max_time=8)
        engine = QueryEngine(ShardedTILLIndex.build(g, num_shards=2))
        pairs = [(u, v) for u in range(6) for v in range(6)]
        window = (g.min_time, g.max_time)
        first = engine.span_many(pairs, window)
        second = engine.span_many(pairs, window)
        assert first == second
        assert engine.stats().cache_hits >= len(pairs)

    def test_profile_many_rejects_sharded_backend(self):
        g = random_graph(17, num_vertices=5, num_edges=15)
        engine = QueryEngine(ShardedTILLIndex.build(g, num_shards=2))
        with pytest.raises(TypeError, match="plain TILLIndex"):
            engine.profile_many([(0, 1, (1, 5))])


class TestStatsAndVerify:
    def test_stats_fields(self):
        g = random_graph(18, num_vertices=8, num_edges=40, max_time=12)
        sharded = ShardedTILLIndex.build(g, num_shards=3,
                                         policy="equal-span")
        stats = sharded.stats()
        assert stats.num_shards == len(sharded.shards)
        assert stats.policy == "equal-span"
        assert stats.num_edges == g.num_edges
        assert stats.total_entries == sum(
            s.stats().total_entries for s in sharded.shards
        )
        d = stats.as_dict()
        assert len(d["shards"]) == stats.num_shards

    def test_verify_passes_on_correct_index(self):
        g = random_graph(19, num_vertices=8, num_edges=35, max_time=10)
        sharded = ShardedTILLIndex.build(g, num_shards=3)
        sharded.verify(samples=40, seed=1)


class TestShardCLI:
    def _edgelist(self, tmp_path, seed=20):
        g = random_graph(seed, num_vertices=8, num_edges=40, max_time=12)
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        return g, path

    def test_shard_build(self, tmp_path, capsys):
        _g, path = self._edgelist(tmp_path)
        assert main(["shard-build", str(path), "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "slice" in out
        assert "shards" in out

    def test_shard_build_saves_directory(self, tmp_path, capsys):
        _g, path = self._edgelist(tmp_path)
        out_dir = tmp_path / "idx"
        assert main(["shard-build", str(path), "--shards", "3",
                     "--jobs", "2", "-o", str(out_dir)]) == 0
        assert (out_dir / "manifest.json").exists()

    def test_build_rejects_shards_flag(self, tmp_path, capsys):
        # Sharded builds have one command, shard-build.
        _g, path = self._edgelist(tmp_path)
        for flag in ("--shards", "--jobs"):
            with pytest.raises(SystemExit) as exc:
                main(["build", str(path), flag, "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_shard_query_exit_codes(self, tmp_path, capsys):
        g, path = self._edgelist(tmp_path)
        u, v, t = next(iter(g.edges()))
        code = main(["shard-query", str(path), str(u), str(v),
                     str(t), str(t), "--shards", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "True" in out and "plan:" in out
        # An empty window left of the lifetime is always unreachable.
        lo = g.min_time
        code = main(["shard-query", str(path), str(u), str(v),
                     str(lo - 5), str(lo - 3), "--shards", "3"])
        assert code == 1

    def test_shard_query_uses_saved_index(self, tmp_path, capsys):
        g, path = self._edgelist(tmp_path)
        out_dir = tmp_path / "idx"
        assert main(["shard-build", str(path), "--shards", "3",
                     "-o", str(out_dir)]) == 0
        u, v, t = next(iter(g.edges()))
        code = main(["shard-query", str(path), str(u), str(v),
                     str(t), str(t), "--index", str(out_dir)])
        assert code == 0
        assert "True" in capsys.readouterr().out


class TestShardedFuzzHooks:
    def test_check_sharded_query_clean(self):
        from repro.fuzz.differential import check_sharded_query

        g = random_graph(21, num_vertices=6, num_edges=25, max_time=8)
        index = TILLIndex.build(g)
        assert check_sharded_query(
            index, 0, 1, Interval(g.min_time, g.max_time), num_shards=3
        ) == []
        assert check_sharded_query(
            index, 0, 1, Interval(g.min_time, g.max_time),
            theta=2, num_shards=2, stitch_limit=0,
        ) == []

    def test_check_sharded_index_clean(self):
        from repro.fuzz.differential import check_sharded_index

        g = random_graph(22, num_vertices=7, num_edges=30, max_time=9)
        mono = TILLIndex.build(g)
        sharded = ShardedTILLIndex.build(g, num_shards=3)
        assert check_sharded_index(
            sharded, mono, samples=30, seed=0, theta_samples=10
        ) == []
