"""Binary (de)serialization of a built TILL-Index: the ``.till`` file.

One on-disk format, format 3 (``TILLIDX3``, flat columnar section)::

    magic    8 bytes  b"TILLIDX3"
    hlen     u32      length of the JSON header
    header   hlen     JSON: {"format": 3, "directed", "vartheta",
                             "num_vertices", "vertex_labels", "order",
                             "meta", "flat": {...}}
    padding           zero bytes to the next multiple of 8 *from file
                      start*, so every array is naturally aligned
    section           the five flat buffers per direction, verbatim

The ``flat`` descriptor records ``section_len``, ``crc32``, and, per
direction, the section-relative byte offset of each buffer (each padded
to 8-byte alignment) plus a ``types`` map naming each buffer's
typecode.  The writer stores every buffer little-endian at the
narrowest of ``B``/``H``/``I`` that holds its values (``q`` if any may
be negative), taking the bounds in O(1) — see :func:`narrowest_typecode`.
A direction without ``types`` (files written before the map existed)
reads with the :data:`~repro.core.flatstore.ARRAY_FIELDS` defaults.
Loading is either one ``frombytes`` per buffer (eager,
checksum-verified) or one zero-copy ``memoryview`` cast per buffer over
an ``mmap`` (near-instant open; the checksum is *skipped* and only O(1)
bounds/endpoint checks run — see ``docs/file_format.md``).  Zero-copy
mapping requires a little-endian host; big-endian hosts fall back to
the eager byteswapping path automatically.

The per-vertex block layout of format 2 is no longer read:
:func:`load_flat_store` rejects it with the rebuild command.

Vertex labels are stored as JSON, which deliberately restricts them to
JSON-representable values (str, int, float, bool, None) — a safe,
pickle-free format.  Note that JSON round-trips tuples as lists; use
scalar vertex ids if exact type fidelity matters.
"""

from __future__ import annotations

import json
import mmap as _mmap
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from repro.core.flatstore import ARRAY_FIELDS, FlatDirection, FlatTILLStore
from repro.errors import IndexFormatError

MAGIC_V3 = b"TILLIDX3"
#: The magic of the retired per-vertex block layout, kept only to name
#: the rebuild command when such a file is opened.
_FORMAT2_MAGIC = b"TILLIDX1"
_U32 = struct.Struct("<I")
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Typecodes a format-3 ``types`` map may name.
_V3_TYPECODES = ("B", "H", "I", "i", "q")
_UNSIGNED_WIDTHS = (("B", 2**8 - 1), ("H", 2**16 - 1), ("I", 2**32 - 1))


def _align8(pos: int) -> int:
    return pos + (-pos) % 8


def narrowest_typecode(lo: int, hi: int) -> str:
    """The narrowest format-3 typecode holding every value in
    ``[lo, hi]``: the first of ``B``/``H``/``I`` whose range holds *hi*
    when *lo* is non-negative, else ``q``."""
    if lo >= 0:
        for typecode, top in _UNSIGNED_WIDTHS:
            if hi <= top:
                return typecode
    return "q"


def _le_bytes(buf, typecode: str) -> bytes:
    """Serialize an indexable int buffer as little-endian *typecode*
    words (``OverflowError`` if a value does not fit)."""
    arr = array(typecode, buf)
    if not _LITTLE_ENDIAN:
        arr.byteswap()
    return arr.tobytes()


def dump_index_v3(
    fh: BinaryIO,
    store: FlatTILLStore,
    order: List[int],
    vertex_labels: List[Any],
    vartheta: Any,
    meta: Dict[str, Any],
    time_range: Tuple[Optional[int], Optional[int]],
) -> None:
    """Serialize a flat store plus its metadata as a format-3 file.

    *time_range* is the graph's ``(min_time, max_time)`` (``None``s for
    an edgeless graph); it bounds every interval endpoint, so together
    with the offsets' last elements and the vertex count it picks each
    buffer's width without scanning the buffers.
    """
    lo, hi = time_range
    time_type = narrowest_typecode(lo, hi) if lo is not None else "B"
    directions = [store.out]
    if store.directed:
        directions.append(store.inn)
    blobs: List[bytes] = []
    dirs_meta: List[Dict[str, Any]] = []
    off = 0
    for direction in directions:
        types = {
            "vertex_offsets": narrowest_typecode(0, direction.num_hubs),
            "interval_offsets": narrowest_typecode(0, direction.num_entries),
            "starts": time_type,
            "ends": time_type,
            "hub_ranks": narrowest_typecode(0, store.num_vertices - 1),
        }
        entry: Dict[str, Any] = {
            "num_hubs": direction.num_hubs,
            "num_entries": direction.num_entries,
        }
        for field, _default in ARRAY_FIELDS:
            try:
                data = _le_bytes(getattr(direction, field), types[field])
            except OverflowError as exc:
                raise IndexFormatError(
                    f"flat buffer {field!r} holds a value outside the "
                    f"bounds its {types[field]!r} width was chosen from"
                ) from exc
            pad = (-off) % 8
            if pad:
                blobs.append(b"\x00" * pad)
                off += pad
            entry[field] = off
            blobs.append(data)
            off += len(data)
        entry["types"] = types
        dirs_meta.append(entry)
    section = b"".join(blobs)
    header = {
        "format": 3,
        "directed": store.directed,
        "vartheta": vartheta,
        "num_vertices": store.num_vertices,
        "vertex_labels": vertex_labels,
        "order": list(order),
        "meta": meta,
        "flat": {
            "section_len": len(section),
            "crc32": zlib.crc32(section),
            "align": 8,
            "directions": dirs_meta,
        },
    }
    try:
        encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    except TypeError as exc:
        raise IndexFormatError(
            "vertex labels must be JSON-serializable to save an index; "
            "relabel the graph with scalar vertex ids first"
        ) from exc
    fh.write(MAGIC_V3)
    fh.write(_U32.pack(len(encoded)))
    fh.write(encoded)
    pos = len(MAGIC_V3) + 4 + len(encoded)
    fh.write(b"\x00" * (_align8(pos) - pos))
    fh.write(section)


def _read_v3_header(fh: BinaryIO) -> Tuple[Dict[str, Any], Dict[str, Any], int]:
    """Header, flat descriptor and absolute section offset (magic
    already consumed from *fh*)."""
    raw = fh.read(4)
    if len(raw) != 4:
        raise IndexFormatError("truncated index file: missing header length")
    (hlen,) = _U32.unpack(raw)
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError("corrupt index file: undecodable header") from exc
    flat_meta = header.get("flat")
    if not isinstance(flat_meta, dict):
        raise IndexFormatError(
            "corrupt index file: format-3 header lacks the flat descriptor"
        )
    return header, flat_meta, _align8(len(MAGIC_V3) + 4 + hlen)


def _word(mv, pos: int, typecode: str) -> int:
    """The little-endian *typecode* word at byte *pos* of *mv*."""
    size = array(typecode).itemsize
    return int.from_bytes(mv[pos : pos + size], "little",
                          signed=typecode in "iq")


def _direction_layout(
    mv, dmeta: Dict[str, Any], num_vertices: int
) -> Dict[str, Tuple[str, int, int]]:
    """Validate one direction's descriptor against the section: each
    buffer's ``(typecode, offset, nbytes)``.

    Every check runs before any view over *mv* exists, so a rejected
    file leaves no buffer export pinning the caller's ``mmap``.
    """
    counts = {
        "vertex_offsets": num_vertices + 1,
        "interval_offsets": dmeta["num_hubs"] + 1,
        "starts": dmeta["num_entries"],
        "ends": dmeta["num_entries"],
        "hub_ranks": dmeta["num_hubs"],
    }
    types = dmeta.get("types", {})
    if not isinstance(types, dict):
        raise IndexFormatError(
            "corrupt index file: flat 'types' is not a field -> typecode map"
        )
    layout: Dict[str, Tuple[str, int, int]] = {}
    for field, default in ARRAY_FIELDS:
        typecode = types.get(field, default)
        if typecode not in _V3_TYPECODES:
            raise IndexFormatError(
                f"corrupt index file: flat buffer {field!r} has typecode "
                f"{typecode!r}, expected one of {', '.join(_V3_TYPECODES)}"
            )
        off = dmeta[field]
        nbytes = counts[field] * array(typecode).itemsize
        if (not isinstance(off, int) or off < 0 or nbytes < 0
                or off + nbytes > len(mv)):
            raise IndexFormatError(
                f"corrupt index file: flat buffer {field!r} out of bounds"
            )
        layout[field] = (typecode, off, nbytes)
    # O(1) endpoint checks — the section CRC (eager path) or the `flat`
    # fuzz profile (mmap path) covers the interior.
    for field, last, what in (
        ("vertex_offsets", dmeta["num_hubs"], "vertex"),
        ("interval_offsets", dmeta["num_entries"], "interval"),
    ):
        typecode, off, nbytes = layout[field]
        end = off + nbytes - array(typecode).itemsize
        if _word(mv, off, typecode) != 0 or _word(mv, end, typecode) != last:
            raise IndexFormatError(
                f"corrupt index file: flat {what} offsets are inconsistent"
            )
    return layout


def _direction_from_buffer(
    mv, layout: Dict[str, Tuple[str, int, int]], num_vertices: int, copy: bool
) -> FlatDirection:
    """One direction from a flat-section buffer and its validated
    *layout*: typed-array copies when *copy*, zero-copy ``memoryview``
    casts otherwise."""
    bufs: Dict[str, Any] = {}
    for field, (typecode, off, nbytes) in layout.items():
        chunk = mv[off : off + nbytes]
        if copy:
            arr = array(typecode)
            arr.frombytes(chunk)
            if not _LITTLE_ENDIAN:
                arr.byteswap()
            bufs[field] = arr
        else:
            bufs[field] = chunk.cast(typecode)
    return FlatDirection(
        num_vertices,
        bufs["vertex_offsets"],
        bufs["hub_ranks"],
        bufs["interval_offsets"],
        bufs["starts"],
        bufs["ends"],
    )


def _store_from_section(mv, header: Dict[str, Any], copy: bool) -> FlatTILLStore:
    dirs_meta = header["flat"]["directions"]
    directed = header["directed"]
    expected = 2 if directed else 1
    if len(dirs_meta) != expected:
        raise IndexFormatError(
            f"corrupt index file: {len(dirs_meta)} flat directions, "
            f"expected {expected}"
        )
    n = header["num_vertices"]
    layouts = [_direction_layout(mv, dmeta, n) for dmeta in dirs_meta]
    out = _direction_from_buffer(mv, layouts[0], n, copy)
    inn = _direction_from_buffer(mv, layouts[1], n, copy) if directed else out
    return FlatTILLStore(directed, out, inn)


def _read_v3_stream(fh: BinaryIO) -> Tuple[FlatTILLStore, Dict[str, Any]]:
    """Eager (checksum-verified) format-3 load; magic already consumed."""
    header, flat_meta, section_start = _read_v3_header(fh)
    pad = fh.read(section_start - fh.tell())
    if pad.strip(b"\x00"):
        raise IndexFormatError("corrupt index file: nonzero flat padding")
    section = fh.read(flat_meta["section_len"])
    if len(section) != flat_meta["section_len"]:
        raise IndexFormatError("truncated index file: flat section too short")
    if zlib.crc32(section) != flat_meta["crc32"]:
        raise IndexFormatError(
            "corrupt index file: flat section checksum mismatch (bit rot "
            "or a truncated/overwritten file)"
        )
    if fh.read(1):
        raise IndexFormatError(
            "corrupt index file: trailing bytes after the flat section"
        )
    return _store_from_section(memoryview(section), header, copy=True), header


def load_flat_store(
    path: Union[str, Path], use_mmap: bool = False
) -> Tuple[FlatTILLStore, Dict[str, Any]]:
    """Load a ``.till`` file as a :class:`FlatTILLStore` plus its header.

    The only reader: a format-2 file (or any other bad magic) raises
    :class:`~repro.errors.IndexFormatError`.  ``use_mmap=True`` maps
    the flat section zero-copy (little-endian hosts only — others fall
    back to the eager path): the store's buffers are ``memoryview``
    casts over the OS page cache, the file's checksum is *not*
    verified, and the returned store keeps the mapping alive for its
    own lifetime.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC_V3))
        if magic == _FORMAT2_MAGIC:
            raise IndexFormatError(
                f"{path} is a format-2 .till file, which is no longer "
                f"read; rebuild it with: repro build SOURCE -o {path}"
            )
        if magic != MAGIC_V3:
            raise IndexFormatError(
                f"not a format-3 TILL index file (bad magic {magic!r}, "
                f"expected {MAGIC_V3!r})"
            )
        if not use_mmap or not _LITTLE_ENDIAN:
            return _read_v3_stream(fh)
        header, flat_meta, section_start = _read_v3_header(fh)
        mm = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
    section_len = flat_meta["section_len"]
    if len(mm) < section_start + section_len:
        mm.close()
        raise IndexFormatError("truncated index file: flat section too short")
    base = memoryview(mm)[section_start : section_start + section_len]
    try:
        store = _store_from_section(base, header, copy=False)
    except Exception:
        base.release()
        mm.close()
        raise
    store._mmap = mm
    return store, header
