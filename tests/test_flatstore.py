"""Tests for the flat columnar label store and its query kernels.

Covers the CSR flattening itself, the format-3 save / load (eager and
zero-copy mmap) round trips, the per-array width rule, backwards
compatibility with format-3 files written before the ``types`` map,
corrupt-file handling, and the flat Algorithm 4/5 kernels — one-query
entry points and batch — differentially against the label-set path
and the oracle.
"""

import json
import struct
from pathlib import Path

import pytest

from repro import TemporalGraph, TILLIndex, IndexFormatError
from repro.core import flatkernels, queries
from repro.errors import IndexBuildError
from repro.core.flatstore import (
    ARRAY_FIELDS,
    FlatTILLLabels,
    FlatTILLStore,
)
from repro.core.index import BUILDERS
from repro.core.profiling import profile_span_query, profile_theta_query
from repro.core.serialization import (
    MAGIC_V3,
    load_flat_store,
    narrowest_typecode,
)
from repro.core.intervals import Interval
from repro.datasets import paper_example_graph
from repro.graph.projection import (
    span_reaches_bruteforce,
    theta_reaches_bruteforce,
)

from tests.conftest import random_graph

#: A format-3 file of the paper example written before the ``types``
#: map existed: every buffer at its ``ARRAY_FIELDS`` default width.
UNTYPED_V3 = Path(__file__).parent / "data" / "paper_example_v3_untyped.till"


def _windows(graph):
    lo, hi = graph.min_time, graph.max_time
    span = hi - lo
    return [
        (lo, hi),
        (lo, lo + span // 2),
        (lo + span // 3, hi),
        (lo + span // 4, lo + span // 4 + max(1, span // 3)),
    ]


def _object_labels(index):
    """The object labels construction hands the index, rebuilt afresh
    (the index itself keeps only their flat form)."""
    return BUILDERS[index.method](index.graph, index.order,
                                  vartheta=index.vartheta)


class TestFlattening:
    def test_store_matches_label_sets(self, paper_index):
        labels = _object_labels(paper_index)
        store = FlatTILLStore.from_labels(labels)
        assert store.validate() == []
        for direction, sets in (
            (store.out, labels.out_labels),
            (store.inn, labels.in_labels),
        ):
            for ui, label in enumerate(sets):
                view = direction.label_set(ui)
                assert list(view.hub_ranks) == list(label.hub_ranks)
                assert list(view.starts) == list(label.starts)
                assert list(view.ends) == list(label.ends)
                assert direction.vertex_entry_count(ui) == label.num_entries

    def test_totals_match_object_labels(self, paper_index):
        labels = _object_labels(paper_index)
        store = paper_index.flat
        assert store.total_entries() == labels.total_entries()
        assert store.estimated_bytes() == labels.estimated_bytes()

    def test_undirected_shares_one_direction(self):
        g = random_graph(7, num_vertices=10, num_edges=25, directed=False)
        store = TILLIndex.build(g).flat
        assert store.inn is store.out
        adapter = FlatTILLLabels(store)
        assert adapter.in_labels is adapter.out_labels
        assert adapter.out_labels[3] is adapter.in_labels[3]

    def test_from_labels_is_idempotent_on_flat_labels(self, paper_index):
        assert isinstance(paper_index.labels, FlatTILLLabels)
        assert FlatTILLStore.from_labels(paper_index.labels) \
            is paper_index.flat

    def test_build_routes_queries_through_flat(self, paper_graph,
                                               monkeypatch):
        """A freshly built index is already flat: its facade answers
        run the flat batch kernels, and agree with the oracle."""
        index = TILLIndex.build(paper_graph)
        assert isinstance(index.flat, FlatTILLStore)
        assert index.labels.store is index.flat
        calls = []
        real = queries.flat_span_batch

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(queries, "flat_span_batch", counting)
        for u in ["v1", "v5", "v6"]:
            for v in ["v4", "v8", "v12"]:
                for window in [(1, 4), (3, 5), (2, 8)]:
                    assert index.span_reachable(u, v, window) == \
                        span_reaches_bruteforce(paper_graph, u, v, window)
        assert calls

    def test_validate_flags_broken_csr(self, paper_index):
        store = FlatTILLStore.from_labels(_object_labels(paper_index))
        good = store.out.vertex_offsets[-1]
        store.out.vertex_offsets[-1] = good + 1
        assert store.validate() != []
        store.out.vertex_offsets[-1] = good
        assert store.validate() == []


class TestFlatKernels:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    @pytest.mark.parametrize("directed", [True, False])
    def test_scalar_kernels_match_object_path(self, seed, directed):
        """The one-query entry points over the flat store agree with
        the profiler's Algorithm 4/5 over per-vertex label-set objects
        and with the brute-force oracle."""
        g = random_graph(seed, num_vertices=12, num_edges=40, directed=directed)
        index = TILLIndex.build(g)
        store, rank = index.flat, index.order.rank
        for ws, we in _windows(g):
            window = Interval(ws, we)
            theta = max(1, window.length // 2)
            for ui in range(g.num_vertices):
                for vi in range(g.num_vertices):
                    want = profile_span_query(index, ui, vi, window).answer
                    assert want == span_reaches_bruteforce(g, ui, vi, window)
                    assert queries.span_reachable(
                        g, store, rank, ui, vi, window
                    ) == want
                    want_theta = profile_theta_query(
                        index, ui, vi, window, theta
                    ).answer
                    assert want_theta == theta_reaches_bruteforce(
                        g, ui, vi, window, theta
                    )
                    assert queries.theta_reachable(
                        g, store, rank, ui, vi, window, theta
                    ) == want_theta
                    assert queries.theta_reachable_naive(
                        g, store, rank, ui, vi, window, theta
                    ) == want_theta

    @pytest.mark.parametrize("seed", [1, 5])
    def test_batch_kernels_match_scalar(self, seed):
        g = random_graph(seed, num_vertices=14, num_edges=45)
        index = TILLIndex.build(g)
        store, rank = index.flat, index.order.rank
        n = g.num_vertices
        pairs = [
            (ui, vi) for ui in range(n) for vi in range(n) if ui != vi
        ]
        for ws, we in _windows(g):
            theta = max(1, (we - ws) // 2)
            window = Interval(ws, we)
            assert queries.flat_span_batch(store, rank, pairs, ws, we) == [
                queries.span_reachable(g, store, rank, ui, vi, window)
                for ui, vi in pairs
            ]
            assert queries.flat_theta_batch(
                store, rank, pairs, ws, we, theta
            ) == [
                queries.theta_reachable(g, store, rank, ui, vi, window, theta)
                for ui, vi in pairs
            ]

    def test_batch_kernels_accept_unsorted_pairs(self, paper_index):
        index = paper_index.flatten()
        store, rank = index.flat, index.order.rank
        n = index.graph.num_vertices
        # Reverse-interleaved: consecutive pairs rarely share a source,
        # defeating the source-run hoist's happy path.
        pairs = [
            ((i * 7) % n, (i * 3 + 1) % n) for i in range(40)
            if (i * 7) % n != (i * 3 + 1) % n
        ]
        assert queries.flat_span_batch(store, rank, pairs, 1, 8) == [
            queries.span_reachable(index.graph, store, rank, ui, vi,
                                   Interval(1, 8))
            for ui, vi in pairs
        ]


class TestBatchBackend:
    def test_backend_names(self, paper_graph):
        """The python kernels are the only batch kernels: ``"auto"``,
        ``"python"`` and ``None`` select them; the removed ``"numpy"``
        / ``"native"`` names and unknown ones raise."""
        for backend in ("auto", "python", None):
            index = TILLIndex.build(paper_graph).flatten(backend)
            assert index.flat is not None
            assert index.flat_backend == "python"
            assert index.flat_kernels is None
            assert flatkernels.select(index.flat, index.order.rank,
                                      backend) is None
        index = TILLIndex.build(paper_graph)
        for backend in ("numpy", "native", "fortran"):
            with pytest.raises(IndexBuildError, match="unknown flat backend"):
                index.flatten(backend)
            with pytest.raises(IndexBuildError):
                flatkernels.select(None, index.order.rank, backend)


class TestNumPyKernels:
    """The NumPy batch kernels are gone; their backend names must now
    resolve to the python kernels or fail loudly."""

    def test_select_backends(self, paper_index):
        store = paper_index.flat
        rank = paper_index.order.rank
        assert flatkernels.select(store, rank, "python") is None
        assert flatkernels.select(store, rank, "auto") is None
        for backend in ("numpy", "fortran"):
            with pytest.raises(IndexBuildError,
                               match="unknown flat backend"):
                flatkernels.select(store, rank, backend)

    def test_flatten_backend_recorded(self, paper_graph):
        index = TILLIndex.build(paper_graph).flatten(backend="python")
        assert index.flat_backend == "python"
        assert index.flat_kernels is None


class TestMissingNumPy:
    """The package needs no NumPy: ``auto`` yields the python kernels
    and ``numpy`` fails loudly — never a silent wrong answer."""

    def test_missing_numpy_falls_back(self, paper_index):
        store = paper_index.flat
        rank = paper_index.order.rank
        assert not hasattr(flatkernels, "_np")
        assert flatkernels.select(store, rank, "auto") is None
        with pytest.raises(IndexBuildError, match="unknown flat backend"):
            flatkernels.select(store, rank, "numpy")

    def test_flatten_auto_falls_back_to_python(self, paper_graph):
        index = TILLIndex.build(paper_graph).flatten(backend="auto")
        assert index.flat is not None
        assert index.flat_kernels is None
        assert index.flat_backend == "python"
        plain = TILLIndex.build(paper_graph)
        for window in [(1, 4), (2, 8)]:
            assert index.span_reachable("v1", "v4", window) == \
                plain.span_reachable("v1", "v4", window)


class TestFormat3Roundtrip:
    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_answers_survive_roundtrip(self, tmp_path, use_mmap):
        g = random_graph(11, num_vertices=12, num_edges=40)
        index = TILLIndex.build(g, vartheta=None)
        path = tmp_path / "x.till"
        index.save(path, format=3)
        loaded = TILLIndex.load(path, g, mmap=use_mmap)
        assert loaded.flat is not None
        for ws, we in _windows(g):
            for ui in range(g.num_vertices):
                for vi in range(g.num_vertices):
                    u, v = g.label_of(ui), g.label_of(vi)
                    assert loaded.span_reachable(u, v, (ws, we)) == \
                        index.span_reachable(u, v, (ws, we))

    def test_metadata_preserved(self, tmp_path, paper_graph):
        index = TILLIndex.build(paper_graph, vartheta=5,
                                ordering="degree-sum")
        path = tmp_path / "m.till"
        index.save(path, format=3)
        loaded = TILLIndex.load(path, paper_graph, mmap=True)
        assert loaded.vartheta == 5
        assert loaded.ordering_name == "degree-sum"
        assert loaded.method == "optimized"

    def test_undirected_identity_after_load(self, tmp_path):
        g = random_graph(4, num_vertices=10, num_edges=25, directed=False)
        index = TILLIndex.build(g)
        path = tmp_path / "u.till"
        index.save(path, format=3)
        for use_mmap in (False, True):
            loaded = TILLIndex.load(path, g, mmap=use_mmap)
            assert loaded.flat.inn is loaded.flat.out
            assert loaded.labels.in_labels is loaded.labels.out_labels
            loaded.verify(samples=150)

    def test_mmap_store_matches_eager_store(self, tmp_path, paper_index):
        path = tmp_path / "p.till"
        paper_index.save(path, format=3)
        eager, eh = load_flat_store(path, use_mmap=False)
        mapped, mh = load_flat_store(path, use_mmap=True)
        assert eh == mh
        for field, _ in ARRAY_FIELDS:
            assert list(getattr(eager.out, field)) == \
                list(getattr(mapped.out, field))
            assert list(getattr(eager.inn, field)) == \
                list(getattr(mapped.inn, field))

    def test_batch_kernels_survive_mmap_round_trip(self, tmp_path):
        g = random_graph(9, num_vertices=12, num_edges=60, max_time=12)
        index = TILLIndex.build(g)
        path = tmp_path / "b.till"
        index.save(path, format=3)
        loaded = TILLIndex.load(path, g, mmap=True)
        assert loaded.flat.is_mmap
        n = g.num_vertices
        pairs = [(ui, vi) for ui in range(n) for vi in range(n) if ui != vi]
        for ws, we in _windows(g):
            theta = max(1, (we - ws) // 2)
            assert queries.flat_span_batch(
                loaded.flat, loaded.order.rank, pairs, ws, we
            ) == queries.flat_span_batch(
                index.flat, index.order.rank, pairs, ws, we
            )
            assert queries.flat_theta_batch(
                loaded.flat, loaded.order.rank, pairs, ws, we, theta
            ) == queries.flat_theta_batch(
                index.flat, index.order.rank, pairs, ws, we, theta
            )

    def test_stats_work_on_flat_loaded_index(self, tmp_path, paper_index):
        path = tmp_path / "s.till"
        paper_index.save(path, format=3)
        loaded = TILLIndex.load(path, paper_index.graph, mmap=True)
        stats = loaded.stats()
        want = paper_index.stats()
        assert stats.total_entries == want.total_entries
        assert stats.estimated_bytes == want.estimated_bytes

    def test_negative_timestamps_roundtrip(self, tmp_path):
        g = TemporalGraph.from_edges(
            [("a", "b", -(10 ** 12)), ("b", "c", 10 ** 12)]
        )
        index = TILLIndex.build(g)
        path = tmp_path / "n.till"
        index.save(path, format=3)
        loaded = TILLIndex.load(path, g, mmap=True)
        assert loaded.span_reachable("a", "b", (-(10 ** 12), 0))

    def test_unknown_format_raises(self, tmp_path, paper_index):
        with pytest.raises(IndexFormatError, match="unknown .till format"):
            paper_index.save(tmp_path / "x.till", format=7)

    def test_format2_is_no_longer_written(self, tmp_path, paper_index):
        with pytest.raises(IndexFormatError, match="unknown .till format"):
            paper_index.save(tmp_path / "x.till", format=2)


def _header(path):
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[8:12])
    return json.loads(data[12:12 + hlen])


def _rewrite_header(path, mutate):
    """Apply *mutate* to a format-3 file's decoded header and write the
    file back around the unchanged flat section."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + hlen])
    section = data[len(data) - header["flat"]["section_len"]:]
    mutate(header)
    encoded = json.dumps(header).encode("utf-8")
    head = MAGIC_V3 + struct.pack("<I", len(encoded)) + encoded
    path.write_bytes(head + b"\x00" * ((-len(head)) % 8) + section)


def _all_queries(graph):
    """Every (u, v, window, θ) query over the graph's lifetime; θ is
    None for a span query."""
    lo, hi = graph.min_time, graph.max_time
    vertices = list(graph.vertices())
    for ws in range(lo, hi + 1):
        for we in range(ws, hi + 1):
            for theta in [None] + list(range(1, we - ws + 2)):
                for u in vertices:
                    for v in vertices:
                        yield u, v, (ws, we), theta


def _answer(index, u, v, window, theta):
    if theta is None:
        return index.span_reachable(u, v, window)
    return index.theta_reachable(u, v, window, theta)


class TestNarrowWidths:
    """Format 3 saves each buffer at the narrowest width that holds it."""

    @pytest.mark.parametrize("lo,hi,want", [
        (0, 0, "B"),
        (0, 255, "B"),
        (0, 256, "H"),
        (0, 65535, "H"),
        (0, 65536, "I"),
        (0, 2 ** 32 - 1, "I"),
        (0, 2 ** 32, "q"),
        (-1, 0, "q"),
        (-(2 ** 40), 3, "q"),
    ])
    def test_width_rule_edges(self, lo, hi, want):
        assert narrowest_typecode(lo, hi) == want

    @pytest.mark.parametrize("lo,hi,want", [
        (1, 255, "B"),
        (1, 256, "H"),
        (200, 65535, "H"),
        (65000, 65536, "I"),
        (2 ** 32 - 300, 2 ** 32 - 1, "I"),
        (2 ** 32 - 300, 2 ** 32, "q"),
        (-5, 40, "q"),
    ])
    def test_time_widths_round_trip(self, tmp_path, lo, hi, want):
        mid = (lo + hi) // 2
        g = TemporalGraph.from_edges([
            ("a", "b", lo), ("b", "c", mid), ("c", "d", hi),
            ("a", "c", mid), ("d", "a", lo),
        ])
        index = TILLIndex.build(g)
        path = tmp_path / "w.till"
        index.save(path)
        for direction in _header(path)["flat"]["directions"]:
            assert direction["types"]["starts"] == want
            assert direction["types"]["ends"] == want
            assert direction["types"]["hub_ranks"] == "B"
            assert direction["types"]["vertex_offsets"] == "B"
        windows = [(lo, hi), (lo, mid), (mid, hi), (mid, mid)]
        for use_mmap in (False, True):
            loaded = TILLIndex.load(path, g, mmap=use_mmap)
            for field, _ in ARRAY_FIELDS:
                assert list(getattr(loaded.flat.out, field)) == \
                    list(getattr(index.flat.out, field))
                assert list(getattr(loaded.flat.inn, field)) == \
                    list(getattr(index.flat.inn, field))
            for u in "abcd":
                for v in "abcd":
                    for window in windows:
                        assert loaded.span_reachable(u, v, window) == \
                            index.span_reachable(u, v, window)
                        assert loaded.theta_reachable(u, v, window, 1) == \
                            index.theta_reachable(u, v, window, 1)

    def test_empty_arrays_round_trip(self, tmp_path):
        g = TemporalGraph()
        for v in ("a", "b", "c"):
            g.add_vertex(v)
        g.freeze()
        path = tmp_path / "e.till"
        TILLIndex.build(g).save(path)
        (direction,) = _header(path)["flat"]["directions"][:1]
        assert set(direction["types"].values()) == {"B"}
        for use_mmap in (False, True):
            loaded = TILLIndex.load(path, g, mmap=use_mmap)
            assert len(loaded.flat.out.starts) == 0
            assert list(loaded.flat.out.vertex_offsets) == [0, 0, 0, 0]
            assert not loaded.span_reachable("a", "b", (0, 5))

    def test_in_memory_store_keeps_wide_offsets(self, tmp_path, paper_index):
        """Narrowing happens on save only."""
        paper_index.save(tmp_path / "p.till")
        store = paper_index.flatten().flat
        assert store.out.vertex_offsets.typecode == "q"
        assert store.out.starts.typecode == "q"

    @pytest.mark.parametrize("n,want", [(256, "B"), (257, "H")])
    def test_hub_rank_width_follows_vertex_count(self, tmp_path, n, want):
        g = TemporalGraph.from_edges(
            [(0, v, 1 + v % 3) for v in range(1, n)]
        )
        assert g.num_vertices == n
        index = TILLIndex.build(g)
        path = tmp_path / "h.till"
        index.save(path)
        for direction in _header(path)["flat"]["directions"]:
            assert direction["types"]["hub_ranks"] == want
        for use_mmap in (False, True):
            loaded = TILLIndex.load(path, g, mmap=use_mmap)
            assert list(loaded.flat.inn.hub_ranks) == \
                list(index.flatten().flat.inn.hub_ranks)
            assert loaded.span_reachable(0, n - 1, (1, 3))
            assert not loaded.span_reachable(n - 1, 0, (1, 3))


class TestUntypedFixture:
    """A format-3 file written before the ``types`` map still opens."""

    def test_fixture_has_no_types(self):
        for direction in _header(UNTYPED_V3)["flat"]["directions"]:
            assert "types" not in direction

    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_answers_match_fresh_build(self, use_mmap):
        g = paper_example_graph()
        fresh = TILLIndex.build(g)
        loaded = TILLIndex.load(UNTYPED_V3, g, mmap=use_mmap)
        assert loaded.flat.out.starts[0] == fresh.flatten().flat.out.starts[0]
        for u, v, window, theta in _all_queries(g):
            assert _answer(loaded, u, v, window, theta) == \
                _answer(fresh, u, v, window, theta), (u, v, window, theta)

    def test_require_mmap_accepts_fixture(self):
        """An mmap load of the untyped fixture really maps it, at the
        default widths."""
        g = paper_example_graph()
        loaded = TILLIndex.load(UNTYPED_V3, g, mmap=True)
        assert loaded.flat.is_mmap
        assert loaded.flat.out.starts.format == "q"
        assert loaded.flat.out.hub_ranks.format == "i"


class TestFormat3Corruption:
    def _saved(self, tmp_path, paper_index):
        path = tmp_path / "c.till"
        paper_index.save(path, format=3)
        return path

    def test_bad_magic(self, tmp_path, paper_index):
        path = self._saved(tmp_path, paper_index)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTINDEX"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="bad magic"):
            load_flat_store(path)

    def test_truncated_section(self, tmp_path, paper_index):
        path = self._saved(tmp_path, paper_index)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(IndexFormatError, match="too short"):
            load_flat_store(path)
        with pytest.raises(IndexFormatError, match="too short"):
            load_flat_store(path, use_mmap=True)

    def test_flipped_bit_fails_checksum(self, tmp_path, paper_index):
        path = self._saved(tmp_path, paper_index)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="checksum"):
            load_flat_store(path)

    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_types_not_a_map(self, tmp_path, paper_index, use_mmap):
        path = self._saved(tmp_path, paper_index)

        def mutate(header):
            header["flat"]["directions"][0]["types"] = ["B", "B"]

        _rewrite_header(path, mutate)
        with pytest.raises(IndexFormatError, match="'types' is not"):
            load_flat_store(path, use_mmap=use_mmap)

    @pytest.mark.parametrize("use_mmap", [False, True])
    @pytest.mark.parametrize("typecode", ["d", "L", "", 8, None, ["q"]])
    def test_unknown_typecode(self, tmp_path, paper_index, use_mmap,
                              typecode):
        path = self._saved(tmp_path, paper_index)

        def mutate(header):
            header["flat"]["directions"][0]["types"]["starts"] = typecode

        _rewrite_header(path, mutate)
        with pytest.raises(IndexFormatError, match="typecode"):
            load_flat_store(path, use_mmap=use_mmap)

    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_recorded_width_overruns_section(self, tmp_path, paper_index,
                                             use_mmap):
        path = self._saved(tmp_path, paper_index)

        def mutate(header):
            header["flat"]["directions"][-1]["types"]["ends"] = "q"

        _rewrite_header(path, mutate)
        assert _header(path)["flat"]["directions"][-1]["types"]["ends"] == "q"
        with pytest.raises(IndexFormatError, match="out of bounds"):
            load_flat_store(path, use_mmap=use_mmap)

    def test_inconsistent_offsets_release_the_mapping(self, tmp_path,
                                                      paper_index):
        """A bad endpoint is found before any view pins the ``mmap``,
        so the mapped load raises the format error, not a
        ``BufferError`` from closing the mapping."""
        path = self._saved(tmp_path, paper_index)
        header = _header(path)
        flat = header["flat"]
        data = bytearray(path.read_bytes())
        section_start = len(data) - flat["section_len"]
        data[section_start + flat["directions"][-1]["vertex_offsets"]] = 1
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="inconsistent"):
            load_flat_store(path, use_mmap=True)
        with pytest.raises(IndexFormatError, match="checksum"):
            load_flat_store(path)

    def test_nonzero_padding(self, tmp_path, paper_index):
        """The zero bytes between header and section are checked on the
        eager path (the mapped path never reads them)."""
        path = self._saved(tmp_path, paper_index)
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[8:12])
        encoded = data[12:12 + hlen]
        section = data[len(data) - _header(path)["flat"]["section_len"]:]
        # JSON allows trailing whitespace: grow the header until the
        # section needs padding, then make one padding byte nonzero.
        while (12 + len(encoded)) % 8 == 0:
            encoded += b" "
        head = MAGIC_V3 + struct.pack("<I", len(encoded)) + encoded
        pad = bytearray((-len(head)) % 8)
        path.write_bytes(head + bytes(pad) + section)
        assert load_flat_store(path)[1]["num_vertices"] == 12
        pad[-1] = 1
        path.write_bytes(head + bytes(pad) + section)
        with pytest.raises(IndexFormatError, match="nonzero flat padding"):
            load_flat_store(path)

    def test_header_without_flat_descriptor(self, tmp_path):
        header = b'{"num_vertices": 1}'
        path = tmp_path / "h.till"
        path.write_bytes(
            MAGIC_V3 + struct.pack("<I", len(header)) + header
        )
        with pytest.raises(IndexFormatError, match="flat descriptor"):
            load_flat_store(path)


class TestOffsetWidthRegression:
    """PR 5 satellite: label offsets must be 64-bit everywhere."""

    def test_compact_offsets_are_int64(self, paper_index):
        label = paper_index.labels.out_labels[0]
        assert label.offsets.typecode == "q"
        # A cumulative count past 2^31-1 must not wrap.
        label.offsets[-1] = 2 ** 31 + 17
        assert label.offsets[-1] == 2 ** 31 + 17

    def test_flat_offsets_are_int64(self):
        widths = dict(ARRAY_FIELDS)
        assert widths["vertex_offsets"] == "q"
        assert widths["interval_offsets"] == "q"
