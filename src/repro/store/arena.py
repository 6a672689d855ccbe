"""Packing and opening engine state through the store container.

:func:`pack_store` lays the frozen offline phase out as container sections;
:func:`open_store` reconstructs a :class:`~repro.fastgraph.csr.CSRGraph`
whose numeric buffers are ``memoryview`` casts **into the store mmap**
(zero-copy; a heap fallback reads the file once instead), rebuilds the
pre-computed records in dense vertex order, column by column, and assembles
the tree the store's layout describes.  Nothing is re-derived: open runs no
ranking sort and no locality packing, and the dict graph is built only when
something first reads it (:class:`~repro.graph.social_network.LazySocialNetwork`).

Section map (version 2)
-----------------------
``meta``
    JSON: shape counts, thresholds, generation, engine epoch, packing
    :class:`~repro.core.config.EngineConfig`.
``indptr`` / ``indices`` / ``prob_out`` / ``prob_in`` / ``arc_edge`` /
``edge_u`` / ``edge_v``
    The CSR buffers, int64/float64.
``edge_support``
    int64[E]: global edge support per edge id (mirrors
    ``PrecomputedData.global_edge_support``).
``vertex_ids`` / ``keywords``
    JSON: the VertexTable interning order as typed ``[kind, value]``
    tokens (so int and str ids round-trip), and the keyword sets as a
    sorted ``vocabulary`` of typed tokens plus, per vertex, the ``sets`` of
    positions into it.
``kw_bits`` / ``trussness``
    Per-vertex keyword bit vectors (``bv_bytes`` each) and centre trussness
    (int64[n]).
``bv_r{r}`` / ``sup_r{r}`` / ``score_r{r}`` for each radius ``r``
    Per-radius aggregates: hop-ball bit vectors, support upper bounds
    (int64[n]) and score bounds (float64[n*m], sigma per threshold; the
    thetas live once in ``meta``).
``tree_shape`` / ``tree_vertices``
    The tree layout (:func:`~repro.index.tree.tree_layout`): the nodes in
    preorder as int64 (a child count for an internal node, ``-(vertex
    count)`` for a leaf), and the dense vertex ints in leaf order (int64[n]).
    Open checks both as untrusted input: the shape must parse exactly, every
    leaf must hold at least one vertex and ``tree_vertices`` must be a
    permutation of ``0..n-1``; it then recombines every node aggregate from
    the records, which keeps the index-level bounds sound.

Determinism: interning follows the graph's vertex iteration order, records
are laid out in that dense order and reconstruction re-inserts them in the
same order, so a store round trip rebuilds bit-identical aggregates; the
persisted layout gives back the tree the engine had when it was packed,
including one that dynamic updates have patched.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Union

from repro.exceptions import IndexStateError, SerializationError, StoreFormatError
from repro.fastgraph.csr import _FLOAT, _INT, CSRGraph
from repro.fastgraph.vertex_table import VertexTable
from repro.graph.social_network import LazySocialNetwork
from repro.index.precompute import PrecomputedData, RadiusAggregates, VertexAggregates
from repro.index.tree import assemble_tree_index, tree_layout
from repro.keywords.bitvector import BitVector
from repro.store.container import RawStore, write_container

PathLike = Union[str, Path]


def _bv_bytes(num_bits: int) -> int:
    return (num_bits + 7) // 8


def _pack_bitvectors(bits_list, num_bits: int) -> bytes:
    width = _bv_bytes(num_bits)
    return b"".join(bits.to_bytes(width, "little") for bits in bits_list)


def _vertex_to_token(vertex) -> list:
    """Encode a vertex id with its type so ints and strings round-trip."""
    if isinstance(vertex, bool):
        raise SerializationError("boolean vertex ids are not supported")
    if isinstance(vertex, int):
        return ["int", vertex]
    if isinstance(vertex, str):
        return ["str", vertex]
    raise SerializationError(
        f"only int and str vertex ids can be serialised, got {type(vertex).__name__}"
    )


def _vertex_from_token(token) -> object:
    # Raises ValueError on a bad token, which open reports as StoreFormatError.
    kind, value = token
    if kind == "int":
        return int(value)
    if kind == "str":
        return str(value)
    raise ValueError(f"unknown vertex token kind {kind!r}")


def _keyword_token(keyword) -> list:
    # Keywords share the vertex-id token idiom (typed int/str round trip).
    return _vertex_to_token(keyword)


class StoreHandle:
    """An opened store: reconstructed engine inputs + provenance.

    Attributes
    ----------
    csr:
        The :class:`CSRGraph` whose buffers view the store file (mmap mode)
        or the heap copy.  Read-only; the dynamic layer wraps it in a
        :class:`~repro.fastgraph.delta.DeltaCSR` overlay unchanged.
    graph:
        A :class:`~repro.graph.social_network.LazySocialNetwork` over
        ``csr``: it becomes a mutable dict graph equal to the packed graph
        the first time its contents are read (the reference representation;
        the fast backend's reads never need it).
    precomputed / index:
        The offline phase, reconstructed bit-identically.
    config:
        The :class:`EngineConfig` the store was packed with.
    info:
        Provenance dict: ``path``, ``format_version``, ``file_size``,
        ``residency`` (``"mmap"`` or ``"heap"``), ``generation``, ``epoch``.
    """

    def __init__(self, raw, csr, graph, precomputed, index, config, info) -> None:
        self._raw = raw  # keeps the mmap pages alive as long as the handle
        self.csr = csr
        self.graph = graph
        self.precomputed = precomputed
        self.index = index
        self.config = config
        self.info = info

    def provenance(self) -> dict:
        """The storage-provenance block surfaced by ``describe()``/health."""
        return {"store_backed": True, **self.info}


# --------------------------------------------------------------------------- #
# packing
# --------------------------------------------------------------------------- #
def pack_store(engine, path: PathLike, generation: int = 0) -> dict:
    """Pack ``engine``'s graph + offline phase into a store file at ``path``.

    Works for any engine state: the graph is the engine's
    :meth:`~repro.core.engine.InfluentialCommunityEngine.csr_snapshot` (a
    dirty fast engine's overlay compacted into a copy, which is proven
    bit-identical to freezing the mutated reference graph) and the index
    records are taken as they currently stand, so a store packed after
    incremental updates reopens to exactly the current answers.

    Returns the writer's info dict (path / format_version / file_size /
    sections) extended with ``generation``.
    """
    csr = engine.csr_snapshot()
    precomputed = engine.index.precomputed
    config = engine.config
    n, num_edges = csr.num_vertices, csr.num_edges
    thresholds = tuple(precomputed.thresholds)
    max_radius = precomputed.max_radius
    num_bits = precomputed.num_bits
    id_of = csr.table.id_of

    if len(precomputed.vertex_aggregates) != n:
        raise SerializationError(
            f"cannot pack store: index covers {len(precomputed.vertex_aggregates)} "
            f"vertices but the graph has {n}"
        )
    if len(precomputed.global_edge_support) != num_edges:
        raise SerializationError(
            f"cannot pack store: {len(precomputed.global_edge_support)} edge-support "
            f"entries for {num_edges} edges"
        )

    records = []
    for index in range(n):
        vertex = id_of(index)
        record = precomputed.vertex_aggregates.get(vertex)
        if record is None:
            raise SerializationError(
                f"cannot pack store: vertex {vertex!r} has no pre-computed record"
            )
        records.append(record)

    shape, leaf_vertices = tree_layout(engine.index)
    if len(leaf_vertices) != n:
        raise SerializationError(
            f"cannot pack store: the tree holds {len(leaf_vertices)} vertices but "
            f"the graph has {n}"
        )
    tree_vertices = array(_INT, map(csr.table.index_of, leaf_vertices))

    edge_support = array(_INT, bytes(8 * num_edges))
    for edge_id in range(num_edges):
        key = frozenset((id_of(csr.edge_u[edge_id]), id_of(csr.edge_v[edge_id])))
        support = precomputed.global_edge_support.get(key)
        if support is None:
            raise SerializationError(
                f"cannot pack store: edge {sorted(map(repr, key))} has no support entry"
            )
        edge_support[edge_id] = support

    meta = {
        "name": csr.name,
        "num_vertices": n,
        "num_edges": num_edges,
        "num_arcs": csr.num_arcs,
        "max_radius": max_radius,
        "thresholds": list(thresholds),
        "num_bits": num_bits,
        "bv_bytes": _bv_bytes(num_bits),
        "fanout": engine.index.fanout,
        "leaf_capacity": engine.index.leaf_capacity,
        "generation": int(generation),
        "epoch": engine.epoch,
        "config": dataclasses.asdict(config),
    }
    vertex_ids = [_vertex_to_token(id_of(index)) for index in range(n)]
    vocabulary = sorted(set().union(*csr.keywords), key=_keyword_token)
    position = {keyword: index for index, keyword in enumerate(vocabulary)}
    keywords = {
        "vocabulary": [_keyword_token(keyword) for keyword in vocabulary],
        "sets": [sorted(map(position.__getitem__, words)) for words in csr.keywords],
    }

    sections = [
        ("meta", json.dumps(meta).encode("utf-8")),
        ("indptr", _buffer_bytes(csr.indptr)),
        ("indices", _buffer_bytes(csr.indices)),
        ("prob_out", _buffer_bytes(csr.prob_out)),
        ("prob_in", _buffer_bytes(csr.prob_in)),
        ("arc_edge", _buffer_bytes(csr.arc_edge)),
        ("edge_u", _buffer_bytes(csr.edge_u)),
        ("edge_v", _buffer_bytes(csr.edge_v)),
        ("edge_support", edge_support.tobytes()),
        ("vertex_ids", json.dumps(vertex_ids).encode("utf-8")),
        ("keywords", json.dumps(keywords).encode("utf-8")),
        ("kw_bits", _pack_bitvectors(
            (record.keyword_bitvector.bits for record in records), num_bits
        )),
        ("trussness", array(
            _INT, (record.center_trussness for record in records)
        ).tobytes()),
    ]
    for radius in range(1, max_radius + 1):
        bv_bits = []
        supports = array(_INT, bytes(8 * n))
        scores = array(_FLOAT, bytes(8 * n * len(thresholds)))
        for index, record in enumerate(records):
            per_radius = record.per_radius.get(radius)
            if per_radius is None:
                raise SerializationError(
                    f"cannot pack store: vertex {id_of(index)!r} has no radius-"
                    f"{radius} aggregates"
                )
            bv_bits.append(per_radius.bitvector.bits)
            supports[index] = per_radius.support_upper_bound
            bound_thetas = tuple(theta for theta, _ in per_radius.score_bounds)
            if bound_thetas != thresholds:
                raise SerializationError(
                    f"cannot pack store: vertex {id_of(index)!r} radius {radius} "
                    f"score-bound thresholds {bound_thetas} != index thresholds "
                    f"{thresholds}"
                )
            base = index * len(thresholds)
            for z, (_, sigma) in enumerate(per_radius.score_bounds):
                scores[base + z] = sigma
        sections.append((f"bv_r{radius}", _pack_bitvectors(bv_bits, num_bits)))
        sections.append((f"sup_r{radius}", supports.tobytes()))
        sections.append((f"score_r{radius}", scores.tobytes()))
    sections.append(("tree_shape", array(_INT, shape).tobytes()))
    sections.append(("tree_vertices", tree_vertices.tobytes()))

    info = write_container(path, sections)
    info["generation"] = int(generation)
    return info


def _buffer_bytes(buffer) -> bytes:
    # array.array and memoryview both expose .tobytes(); a store-backed
    # engine can therefore be re-packed (checkpointed) without special cases.
    return buffer.tobytes()


# --------------------------------------------------------------------------- #
# opening
# --------------------------------------------------------------------------- #
def open_store(path: PathLike, mmap: bool = True, verify: bool = True) -> StoreHandle:
    """Open a store file into a :class:`StoreHandle`.

    ``mmap=True`` (default) maps the file read-only and reconstructs every
    numeric buffer as a zero-copy ``memoryview`` cast into the mapping —
    opening cost is flat in the buffer sizes and processes opening the same
    file share physical pages.  ``mmap=False`` reads the file
    into heap memory once instead (same views over a private copy).

    ``verify=False`` skips the per-section CRC pass (structure and bounds
    are always validated); the default verifies.
    """
    raw = RawStore.open(path, use_mmap=mmap, verify=verify)
    try:
        with _collector_paused():
            return _reconstruct(raw)
    except StoreFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StoreFormatError(f"{path}: malformed store payload: {exc}") from exc


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while open builds its objects.

    Open allocates tens of thousands of acyclic objects (records, bit
    vectors, score tuples, edge keys) in one burst, and each allocation
    threshold it crosses would run a collection that walks the live heap and
    finds nothing to free.  On the 400-vertex ``smallworld-http`` store this
    takes ~1-2 ms off a ~9 ms open and removes its slow outliers.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _reconstruct(raw: RawStore) -> StoreHandle:
    from repro.core.config import EngineConfig, without_retired_settings

    meta = raw.json_section("meta")
    n = int(meta["num_vertices"])
    num_edges = int(meta["num_edges"])
    num_arcs = int(meta["num_arcs"])
    if num_arcs != 2 * num_edges:
        raise StoreFormatError(
            f"{raw.path}: meta declares {num_arcs} arcs for {num_edges} edges"
        )
    max_radius = int(meta["max_radius"])
    thresholds = tuple(float(theta) for theta in meta["thresholds"])
    num_bits = int(meta["num_bits"])
    width = _bv_bytes(num_bits)
    if int(meta["bv_bytes"]) != width:
        raise StoreFormatError(
            f"{raw.path}: meta bv_bytes {meta['bv_bytes']} != {width} for "
            f"num_bits {num_bits}"
        )

    vertex_tokens = raw.json_section("vertex_ids")
    if len(vertex_tokens) != n:
        raise StoreFormatError(
            f"{raw.path}: vertex_ids holds {len(vertex_tokens)} entries, expected {n}"
        )
    table = VertexTable(_vertex_from_token(token) for token in vertex_tokens)
    if len(table) != n:
        raise StoreFormatError(f"{raw.path}: vertex_ids lists a vertex twice")
    keyword_document = raw.json_section("keywords")
    vocabulary = [_vertex_from_token(token) for token in keyword_document["vocabulary"]]
    keyword_sets = keyword_document["sets"]
    if len(keyword_sets) != n:
        raise StoreFormatError(
            f"{raw.path}: keywords holds {len(keyword_sets)} sets, expected {n}"
        )
    used = set().union(*keyword_sets)
    if used and (min(used) < 0 or max(used) >= len(vocabulary)):
        raise StoreFormatError(
            f"{raw.path}: keyword sets index outside the {len(vocabulary)}-word vocabulary"
        )
    keywords = tuple(frozenset(map(vocabulary.__getitem__, ids)) for ids in keyword_sets)

    csr = CSRGraph(
        name=meta.get("name", "store"),
        table=table,
        indptr=raw.typed_section("indptr", _INT, n + 1),
        indices=raw.typed_section("indices", _INT, num_arcs),
        prob_out=raw.typed_section("prob_out", _FLOAT, num_arcs),
        prob_in=raw.typed_section("prob_in", _FLOAT, num_arcs),
        arc_edge=raw.typed_section("arc_edge", _INT, num_arcs),
        edge_u=raw.typed_section("edge_u", _INT, num_edges),
        edge_v=raw.typed_section("edge_v", _INT, num_edges),
        keywords=keywords,
    )
    if n and (csr.indptr[0] != 0 or csr.indptr[n] != num_arcs):
        raise StoreFormatError(
            f"{raw.path}: indptr endpoints ({csr.indptr[0]}, {csr.indptr[n]}) "
            f"do not match {num_arcs} arcs"
        )
    graph = LazySocialNetwork(csr)

    # Records, column by column: each numeric section is read once.
    ids = table.ids()
    keyword_bits = [
        BitVector(bits, num_bits) for bits in _unpack_bitvectors(raw, "kw_bits", n, width)
    ]
    trussness = raw.typed_section("trussness", _INT, n).tolist()
    m = len(thresholds)
    columns = []
    for radius in range(1, max_radius + 1):
        bitvectors = [
            BitVector(bits, num_bits)
            for bits in _unpack_bitvectors(raw, f"bv_r{radius}", n, width)
        ]
        supports = raw.typed_section(f"sup_r{radius}", _INT, n).tolist()
        scores = raw.typed_section(f"score_r{radius}", _FLOAT, n * m).tolist()
        score_bounds = [
            tuple(zip(thresholds, scores[base:base + m])) for base in range(0, n * m, m)
        ]
        columns.append(list(map(
            RadiusAggregates, [radius] * n, bitvectors, supports, score_bounds
        )))
    radii = range(1, max_radius + 1)
    precomputed = PrecomputedData(
        max_radius=max_radius, thresholds=thresholds, num_bits=num_bits
    )
    precomputed.vertex_aggregates = {
        vertex: VertexAggregates(vertex, bits, dict(zip(radii, per_radius)), truss)
        for vertex, bits, truss, per_radius in zip(
            ids, keyword_bits, trussness, zip(*columns)
        )
    }
    edge_support = raw.typed_section("edge_support", _INT, num_edges).tolist()
    precomputed.global_edge_support = {
        frozenset((ids[u], ids[v])): support
        for u, v, support in zip(csr.edge_u.tolist(), csr.edge_v.tolist(), edge_support)
    }

    tree = _assemble_tree(raw, meta, precomputed, ids)
    config_payload = without_retired_settings(meta["config"])
    config_payload["thresholds"] = tuple(config_payload.get("thresholds", thresholds))
    config = EngineConfig(**config_payload)
    info = {
        "path": str(raw.path),
        "format_version": raw.format_version,
        "file_size": raw.file_size,
        "residency": raw.residency,
        "generation": int(meta.get("generation", 0)),
        "epoch": int(meta.get("epoch", 0)),
    }
    return StoreHandle(raw, csr, graph, precomputed, tree, config, info)


def _assemble_tree(raw: RawStore, meta: dict, precomputed: PrecomputedData, ids: list):
    """Assemble the tree the ``tree_shape`` / ``tree_vertices`` sections describe."""
    n = len(ids)
    shape_bytes = len(raw.section("tree_shape"))
    shape = raw.typed_section("tree_shape", _INT, shape_bytes // 8).tolist()
    order = raw.typed_section("tree_vertices", _INT, n).tolist()
    if len(set(order)) != n or (n and (min(order) < 0 or max(order) >= n)):
        raise StoreFormatError(
            f"{raw.path}: tree_vertices is not a permutation of 0..{n - 1}"
        )
    try:
        return assemble_tree_index(
            precomputed,
            shape,
            [ids[index] for index in order],
            fanout=int(meta["fanout"]),
            leaf_capacity=int(meta["leaf_capacity"]),
        )
    except IndexStateError as exc:
        raise StoreFormatError(f"{raw.path}: invalid tree layout: {exc}") from exc


def _unpack_bitvectors(raw: RawStore, name: str, count: int, width: int) -> list:
    view = raw.section(name)
    if len(view) != count * width:
        raise StoreFormatError(
            f"{raw.path}: section {name!r} holds {len(view)} bytes, expected "
            f"{count * width} ({count} bit vectors of {width} bytes)"
        )
    return [
        int.from_bytes(view[position * width : (position + 1) * width], "little")
        for position in range(count)
    ]
