"""``repro.store`` — persistent binary index + mmap shared arena.

The graph JSON (:mod:`repro.graph.io`) makes a graph *portable*, but a cold
start from it still pays to parse the whole document, re-intern every object
and re-run the offline phase.  This package is the one persisted form of a
built index: it stores the frozen offline phase in a versioned, checksummed
binary container:

* the :class:`~repro.fastgraph.csr.CSRGraph` buffers (indptr / indices /
  per-direction probabilities / edge ids),
* the :class:`~repro.fastgraph.vertex_table.VertexTable` interning and the
  per-vertex keyword sets,
* the pre-computed index records (keyword bit vectors, support and score
  bounds per radius, centre trussness, global edge supports),

laid out 64-byte aligned so every numeric buffer reconstructs as a
**zero-copy view over a single ``mmap``** (stdlib ``memoryview`` casts; numpy
``frombuffer`` views work on the same buffers when numpy is present).
Opening a store therefore skips the offline phase entirely, processes that
open the same file share its physical pages instead of each rebuilding a
private copy,
and a crash mid-write can never corrupt a store (the writer goes through
:func:`repro.graph.io.atomic_open`).

Public surface
--------------
:func:`pack_store`
    Freeze an engine's graph + index records into a store file.
:func:`open_store`
    Open a store file into a :class:`StoreHandle` (csr / graph / index /
    config), mmap-backed by default with a heap fallback.
:func:`inspect_store` / :func:`verify_store`
    Structural and checksum inspection (also exposed as
    ``repro store inspect|verify``).

Every structural problem — truncation, foreign magic, unsupported version,
checksum mismatch, out-of-bounds section table — raises the typed
:class:`repro.exceptions.StoreFormatError` (wire code ``STORE_FORMAT_INVALID``).
"""

from repro.store.container import (
    FORMAT_VERSION,
    MAGIC,
    inspect_store,
    verify_store,
)
from repro.store.arena import StoreHandle, open_store, pack_store

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "StoreHandle",
    "inspect_store",
    "open_store",
    "pack_store",
    "verify_store",
]
