"""Tests for index persistence (save/load and corrupt-file handling)."""

import io
import struct

import pytest

from repro import TemporalGraph, TILLIndex, IndexBuildError, IndexFormatError
from repro.core.serialization import MAGIC_V3, dump_index_v3, load_flat_store

from tests.conftest import random_graph


class TestRoundtrip:
    def test_save_load_answers_identically(self, tmp_path, paper_graph):
        index = TILLIndex.build(paper_graph)
        path = tmp_path / "x.till"
        index.save(path)
        loaded = TILLIndex.load(path, paper_graph)
        for u in ["v1", "v5", "v6"]:
            for v in ["v4", "v8", "v12"]:
                for window in [(1, 4), (3, 5), (2, 8)]:
                    assert loaded.span_reachable(u, v, window) == \
                        index.span_reachable(u, v, window)

    def test_metadata_preserved(self, tmp_path, paper_graph):
        index = TILLIndex.build(paper_graph, vartheta=5, ordering="degree-sum")
        path = tmp_path / "x.till"
        index.save(path)
        loaded = TILLIndex.load(path, paper_graph)
        assert loaded.vartheta == 5
        assert loaded.ordering_name == "degree-sum"
        assert loaded.method == "optimized"
        assert loaded.build_seconds == pytest.approx(index.build_seconds)

    def test_undirected_roundtrip(self, tmp_path):
        g = random_graph(3, num_vertices=10, num_edges=25, directed=False)
        index = TILLIndex.build(g)
        path = tmp_path / "u.till"
        index.save(path)
        loaded = TILLIndex.load(path, g)
        assert loaded.labels.out_labels is loaded.labels.in_labels
        loaded.verify(samples=200)

    def test_negative_timestamps_roundtrip(self, tmp_path):
        g = TemporalGraph.from_edges([("a", "b", -(10**12)), ("b", "c", 10**12)])
        index = TILLIndex.build(g)
        path = tmp_path / "n.till"
        index.save(path)
        loaded = TILLIndex.load(path, g)
        assert loaded.span_reachable("a", "b", (-(10**12), 0))

    def test_loaded_labels_are_finalized(self, tmp_path, paper_graph):
        index = TILLIndex.build(paper_graph)
        path = tmp_path / "x.till"
        index.save(path)
        loaded = TILLIndex.load(path, paper_graph)
        assert all(l.finalized for l in loaded.labels.out_labels)


class TestMismatchChecks:
    def test_wrong_graph_vertex_count(self, tmp_path, paper_graph):
        index = TILLIndex.build(paper_graph)
        path = tmp_path / "x.till"
        index.save(path)
        other = random_graph(0, num_vertices=5)
        with pytest.raises(IndexBuildError, match="vertices"):
            TILLIndex.load(path, other)

    def test_wrong_directedness(self, tmp_path):
        g = random_graph(0, num_vertices=6, num_edges=12)
        TILLIndex.build(g).save(tmp_path / "x.till")
        und = random_graph(0, num_vertices=6, num_edges=12, directed=False)
        with pytest.raises(IndexBuildError, match="directedness"):
            TILLIndex.load(tmp_path / "x.till", und)

    def test_wrong_edge_count(self, tmp_path):
        g = random_graph(0, num_vertices=6, num_edges=12)
        TILLIndex.build(g).save(tmp_path / "x.till")
        g2 = random_graph(0, num_vertices=6, num_edges=13)
        with pytest.raises(IndexBuildError, match="edge-count"):
            TILLIndex.load(tmp_path / "x.till", g2)

    def test_wrong_vertex_labels(self, tmp_path):
        g = TemporalGraph.from_edges([("a", "b", 1), ("b", "c", 2)])
        TILLIndex.build(g).save(tmp_path / "x.till")
        g2 = TemporalGraph.from_edges([("x", "y", 1), ("y", "z", 2)])
        with pytest.raises(IndexBuildError, match="label mismatch"):
            TILLIndex.load(tmp_path / "x.till", g2)

    def test_missing_edge_fingerprint_is_format_error(
        self, tmp_path, paper_graph
    ):
        # save() always records meta["num_edges"]; a header without it
        # is malformed, not merely mismatched.
        index = TILLIndex.build(paper_graph)
        path = tmp_path / "x.till"
        with open(path, "wb") as fh:
            dump_index_v3(
                fh, index.flat, index.order.order,
                list(paper_graph.vertices()), None, {},  # meta lacks num_edges
                (paper_graph.min_time, paper_graph.max_time),
            )
        with pytest.raises(IndexFormatError, match="num_edges"):
            TILLIndex.load(path, paper_graph)

    def test_edge_count_mismatch_names_both_counts(self, tmp_path):
        g = random_graph(0, num_vertices=6, num_edges=12)
        TILLIndex.build(g).save(tmp_path / "x.till")
        g2 = random_graph(0, num_vertices=6, num_edges=13)
        with pytest.raises(IndexBuildError, match=r"12.*13"):
            TILLIndex.load(tmp_path / "x.till", g2)

    def test_unserializable_vertex_labels(self, tmp_path):
        g = TemporalGraph.from_edges([(object(), "b", 1)], freeze=True)
        index = TILLIndex.build(g)
        with pytest.raises(IndexFormatError, match="JSON-serializable"):
            index.save(tmp_path / "x.till")


class TestCorruptFiles:
    """The reader rejects a damaged file's framing and bytes (the
    descriptor checks are in ``tests/test_flatstore.py``).  A check
    both load paths run is exercised on both; the trailing-bytes and
    checksum checks read the whole section, so only the eager path
    runs them."""

    def _saved_bytes(self, paper_graph) -> bytes:
        index = TILLIndex.build(paper_graph)
        buf = io.BytesIO()
        dump_index_v3(
            buf, index.flat, index.order.order,
            list(paper_graph.vertices()), None, {},
            (paper_graph.min_time, paper_graph.max_time),
        )
        return buf.getvalue()

    @staticmethod
    def _section_start(blob: bytes) -> int:
        (hlen,) = struct.unpack("<I", blob[len(MAGIC_V3):len(MAGIC_V3) + 4])
        return len(MAGIC_V3) + 4 + hlen + (-(len(MAGIC_V3) + 4 + hlen)) % 8

    @staticmethod
    def _load(tmp_path, blob: bytes, use_mmap: bool = False):
        path = tmp_path / "c.till"
        path.write_bytes(blob)
        return load_flat_store(path, use_mmap=use_mmap)

    def test_bad_magic(self, tmp_path):
        for use_mmap in (False, True):
            with pytest.raises(IndexFormatError, match="bad magic"):
                self._load(tmp_path, b"NOTANIDX" + b"\x00" * 32, use_mmap)

    def test_truncated_header_length(self, tmp_path):
        for use_mmap in (False, True):
            with pytest.raises(IndexFormatError, match="header length"):
                self._load(tmp_path, MAGIC_V3 + b"\x01", use_mmap)

    def test_undecodable_header(self, tmp_path):
        blob = MAGIC_V3 + struct.pack("<I", 4) + b"\xff\xfe{x"
        for use_mmap in (False, True):
            with pytest.raises(IndexFormatError, match="undecodable header"):
                self._load(tmp_path, blob, use_mmap)

    def test_truncated_body(self, tmp_path, paper_graph):
        blob = self._saved_bytes(paper_graph)
        for use_mmap in (False, True):
            with pytest.raises(IndexFormatError, match="too short"):
                self._load(tmp_path, blob[: len(blob) - 10], use_mmap)

    def test_trailing_garbage(self, tmp_path, paper_graph):
        blob = self._saved_bytes(paper_graph) + b"junk"
        with pytest.raises(IndexFormatError, match="trailing bytes"):
            self._load(tmp_path, blob)

    def test_single_bit_flip_detected(self, tmp_path, paper_graph):
        """CRC catches bit rot anywhere in the label arrays."""
        blob = bytearray(self._saved_bytes(paper_graph))
        blob[-5] ^= 0x10  # flip one bit inside the section
        with pytest.raises(IndexFormatError, match="checksum"):
            self._load(tmp_path, bytes(blob))

    def test_every_body_byte_is_protected(self, tmp_path, paper_graph):
        """Flip one bit in every byte of the flat section; every
        corruption must be rejected, never silently loaded."""
        blob = self._saved_bytes(paper_graph)
        start = self._section_start(blob)
        assert start < len(blob)
        for pos in range(start, len(blob)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0x01
            with pytest.raises(IndexFormatError, match="checksum"):
                self._load(tmp_path, bytes(mutated))

    def test_clean_load(self, tmp_path, paper_graph):
        blob = self._saved_bytes(paper_graph)
        for use_mmap in (False, True):
            store, header = self._load(tmp_path, blob, use_mmap)
            assert header["num_vertices"] == 12
            assert store.total_entries() > 0


class TestTypedArrayStorage:
    """Loading must keep the compact typed-array representation, not
    explode it back into Python lists at ~4x the memory."""

    def test_load_preserves_typed_arrays(self, tmp_path, paper_graph):
        from array import array

        index = TILLIndex.build(paper_graph)
        path = tmp_path / "x.till"
        index.save(path)
        loaded = TILLIndex.load(path, paper_graph)
        for label in loaded.labels.out_labels:
            assert isinstance(label.hub_ranks, array)
            assert label.hub_ranks.typecode == "i"
            assert isinstance(label.offsets, array)
            assert isinstance(label.starts, array)
            assert label.starts.typecode == "q"
            assert isinstance(label.ends, array)
        assert loaded.stats().compacted

    def test_loaded_index_reports_compaction_in_stats(
        self, tmp_path, paper_graph
    ):
        # Every index holds its labels in the flat store from
        # construction on, so a fresh build already reports it.
        index = TILLIndex.build(paper_graph)
        assert index.stats().compacted is True
        path = tmp_path / "x.till"
        index.save(path)
        loaded = TILLIndex.load(path, paper_graph)
        assert loaded.stats().compacted is True

    def test_compact_index_roundtrips_answers(self, tmp_path):
        g = random_graph(7, num_vertices=12, num_edges=40)
        index = TILLIndex.build(g)
        path = tmp_path / "c.till"
        index.save(path)
        loaded = TILLIndex.load(path, g)
        loaded.verify(samples=200)


class TestWriteArrayIsLoud:
    def test_unwritable_array_raises_instead_of_corrupting(
        self, tmp_path, paper_graph, monkeypatch
    ):
        """The old ``hasattr(arr, "tobytes")`` guard silently wrote
        *nothing* on its false branch, corrupting the file body; a
        broken array type must now fail loudly at save time."""
        import repro.core.serialization as ser

        class BrokenArray:
            def __init__(self, typecode, values=()):
                pass

        index = TILLIndex.build(paper_graph)
        monkeypatch.setattr(ser, "array", BrokenArray)
        with pytest.raises(AttributeError):
            index.save(tmp_path / "broken.till")
