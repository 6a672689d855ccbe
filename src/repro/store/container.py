"""The store container format: magic + header + section table + aligned blobs.

Layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     8  magic  b"REPROSTO"
         8     4  format_version  (u32)
        12     4  flags           (u32, reserved, 0)
        16     8  total_size      (u64, must equal the file size)
        24     4  section_count   (u32)
        28     4  padding         (zero)
        32   40*N section table: name (16 bytes, zero-padded ASCII),
                  offset (u64), length (u64), crc32 (u32), padding (u32)
         …        section payloads, each aligned to a 64-byte boundary

Sections are opaque byte runs at this layer; :mod:`repro.store.arena` gives
them meaning.  The 64-byte alignment means a ``memoryview`` over one mmap can
be ``.cast()`` into int64/float64 views of any section without copying.

Every way a file can be structurally unusable raises the typed
:class:`~repro.exceptions.StoreFormatError` — the reader validates magic,
version, declared-vs-actual size, section-table bounds and (by default)
per-section CRC32 before any payload is interpreted, so corruption can never
surface as a struct unpack crash or silently garbled buffers.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Union

from repro.exceptions import StoreFormatError
from repro.graph.io import atomic_open

PathLike = Union[str, Path]

#: File magic: 8 bytes, never changes across versions.
MAGIC = b"REPROSTO"
#: Current container format version (bump on any incompatible layout change).
FORMAT_VERSION = 2
#: Section payloads start on multiples of this (keeps int64/float64 casts
#: aligned and plays nicely with cache lines / page boundaries).
ALIGNMENT = 64

_HEADER = struct.Struct("<8sIIQII")  # magic, version, flags, total_size, count, pad
_TOC_ENTRY = struct.Struct("<16sQQII")  # name, offset, length, crc32, pad
HEADER_SIZE = _HEADER.size
TOC_ENTRY_SIZE = _TOC_ENTRY.size

#: Hard sanity cap on the section count (a corrupt header cannot make the
#: reader allocate an absurd table).
_MAX_SECTIONS = 4096


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _encode_name(name: str) -> bytes:
    raw = name.encode("ascii")
    if not raw or len(raw) > 16:
        raise StoreFormatError(f"section name {name!r} must be 1..16 ASCII bytes")
    return raw.ljust(16, b"\x00")


def write_container(path: PathLike, sections: list) -> dict:
    """Write ``sections`` (ordered ``(name, bytes)`` pairs) as a store file.

    The write is atomic (temp file + ``os.replace`` via
    :func:`repro.graph.io.atomic_open`): a crash mid-write leaves any
    pre-existing store untouched.  Returns a small info dict
    (``path`` / ``format_version`` / ``file_size`` / ``sections``).
    """
    names = [name for name, _ in sections]
    if len(set(names)) != len(names):
        raise StoreFormatError(f"duplicate section names in {names}")
    toc_end = HEADER_SIZE + TOC_ENTRY_SIZE * len(sections)
    entries = []
    cursor = toc_end
    for name, payload in sections:
        offset = _align(cursor)
        entries.append((name, offset, len(payload), zlib.crc32(payload)))
        cursor = offset + len(payload)
    total_size = cursor
    with atomic_open(path, mode="wb") as handle:
        handle.write(
            _HEADER.pack(MAGIC, FORMAT_VERSION, 0, total_size, len(sections), 0)
        )
        for name, offset, length, crc in entries:
            handle.write(_TOC_ENTRY.pack(_encode_name(name), offset, length, crc, 0))
        position = toc_end
        for (_, payload), (_, offset, _, _) in zip(sections, entries):
            handle.write(b"\x00" * (offset - position))
            handle.write(payload)
            position = offset + len(payload)
    return {
        "path": str(path),
        "format_version": FORMAT_VERSION,
        "file_size": total_size,
        "sections": len(sections),
    }


class RawStore:
    """A validated, opened store container (sections still opaque bytes).

    Holds the backing buffer — an ``mmap`` (``residency == "mmap"``) or the
    file's bytes read into memory (``residency == "heap"``) — plus the parsed
    section table.  Zero-copy slices come from :meth:`section`; every slice
    keeps the mapping alive through its ``memoryview``.
    """

    def __init__(self, path, buffer, mm, residency: str, sections: dict) -> None:
        self.path = Path(path)
        self.buffer = buffer  # memoryview over the whole file
        self._mm = mm  # the mmap object (None in heap mode); keeps pages alive
        self.residency = residency
        self.sections = sections  # name -> (offset, length, crc32)
        self.file_size = len(buffer)
        self.format_version = FORMAT_VERSION

    # ------------------------------------------------------------------ #
    # opening / validation
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: PathLike, use_mmap: bool = True, verify: bool = True) -> "RawStore":
        path = Path(path)
        if not path.exists():
            raise StoreFormatError(f"store file not found: {path}")
        file_size = os.path.getsize(path)
        if file_size < HEADER_SIZE:
            raise StoreFormatError(
                f"{path}: truncated store ({file_size} bytes, header needs {HEADER_SIZE})"
            )
        mm = None
        if use_mmap:
            with path.open("rb") as handle:
                mm = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            buffer = memoryview(mm)
        else:
            buffer = memoryview(path.read_bytes())
        try:
            sections = cls._parse(path, buffer, file_size)
            if verify:
                for name, (offset, length, crc) in sections.items():
                    actual = zlib.crc32(buffer[offset : offset + length])
                    if actual != crc:
                        raise StoreFormatError(
                            f"{path}: checksum mismatch in section {name!r} "
                            f"(stored {crc:#010x}, computed {actual:#010x})"
                        )
        except BaseException:
            buffer.release()
            if mm is not None:
                mm.close()
            raise
        return cls(path, buffer, mm, "mmap" if use_mmap else "heap", sections)

    @staticmethod
    def _parse(path: Path, buffer: memoryview, file_size: int) -> dict:
        magic, version, _flags, total_size, count, _pad = _HEADER.unpack_from(buffer, 0)
        if magic != MAGIC:
            raise StoreFormatError(
                f"{path}: not a repro store (magic {magic!r}, expected {MAGIC!r})"
            )
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"{path}: unsupported store format version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        if total_size != file_size:
            raise StoreFormatError(
                f"{path}: header declares {total_size} bytes but the file has "
                f"{file_size} (truncated or trailing garbage)"
            )
        if count > _MAX_SECTIONS:
            raise StoreFormatError(f"{path}: implausible section count {count}")
        toc_end = HEADER_SIZE + TOC_ENTRY_SIZE * count
        if toc_end > file_size:
            raise StoreFormatError(
                f"{path}: section table ({count} entries) overruns the file"
            )
        sections: dict[str, tuple[int, int, int]] = {}
        for position in range(count):
            raw_name, offset, length, crc, _ = _TOC_ENTRY.unpack_from(
                buffer, HEADER_SIZE + TOC_ENTRY_SIZE * position
            )
            try:
                name = raw_name.rstrip(b"\x00").decode("ascii")
            except UnicodeDecodeError as exc:
                raise StoreFormatError(
                    f"{path}: section {position} has a non-ASCII name"
                ) from exc
            if not name or name in sections:
                raise StoreFormatError(
                    f"{path}: empty or duplicate section name at entry {position}"
                )
            if offset < toc_end or offset + length > file_size:
                raise StoreFormatError(
                    f"{path}: section {name!r} [{offset}, {offset + length}) "
                    f"lies outside the file (size {file_size})"
                )
            sections[name] = (offset, length, crc)
        return sections

    # ------------------------------------------------------------------ #
    # section access
    # ------------------------------------------------------------------ #
    def section(self, name: str) -> memoryview:
        """Zero-copy byte view of section ``name``."""
        try:
            offset, length, _ = self.sections[name]
        except KeyError:
            raise StoreFormatError(
                f"{self.path}: store has no section {name!r} "
                f"(present: {sorted(self.sections)})"
            ) from None
        return self.buffer[offset : offset + length]

    def typed_section(self, name: str, typecode: str, expected_items: int) -> memoryview:
        """Section ``name`` cast to ``typecode`` ('q' or 'd'), length-checked."""
        view = self.section(name)
        itemsize = 8  # both typecodes are 64-bit
        if len(view) != expected_items * itemsize:
            raise StoreFormatError(
                f"{self.path}: section {name!r} holds {len(view)} bytes, "
                f"expected {expected_items * itemsize} ({expected_items} x {typecode})"
            )
        return view.cast(typecode)

    def json_section(self, name: str):
        """Section ``name`` parsed as UTF-8 JSON."""
        view = self.section(name)
        try:
            return json.loads(bytes(view).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreFormatError(
                f"{self.path}: section {name!r} is not valid JSON: {exc}"
            ) from exc


def inspect_store(path: PathLike) -> dict:
    """Structural summary of a store file (header, section table, meta).

    Validates the container structure and checksums; raises
    :class:`~repro.exceptions.StoreFormatError` on any problem.
    """
    raw = RawStore.open(path, use_mmap=False, verify=True)
    meta = raw.json_section("meta") if "meta" in raw.sections else {}
    return {
        "path": str(raw.path),
        "format_version": raw.format_version,
        "file_size": raw.file_size,
        "sections": [
            {"name": name, "offset": offset, "length": length, "crc32": f"{crc:#010x}"}
            for name, (offset, length, crc) in raw.sections.items()
        ],
        "meta": meta,
    }


def verify_store(path: PathLike) -> dict:
    """Fully verify a store: structure, checksums *and* payload decode.

    Beyond :func:`inspect_store` this also reconstructs the graph and index
    records (heap mode), so a store that verifies clean is guaranteed to
    open.  Returns a summary dict; raises
    :class:`~repro.exceptions.StoreFormatError` on any problem.
    """
    from repro.store.arena import open_store

    handle = open_store(path, mmap=False, verify=True)
    return {
        "path": str(path),
        "ok": True,
        "format_version": FORMAT_VERSION,
        "file_size": handle.info["file_size"],
        "generation": handle.info["generation"],
        "num_vertices": handle.csr.num_vertices,
        "num_edges": handle.csr.num_edges,
        "index": handle.index.describe(),
    }
