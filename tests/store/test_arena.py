"""Arena tests: pack → open reconstructs the engine bit-identically."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.engine import InfluentialCommunityEngine
from repro.exceptions import StoreFormatError
from repro.query.params import make_dtopl_query, make_topl_query
from repro.store import open_store, pack_store, verify_store
from repro.store.container import write_container

from tests.conftest import assert_same_records


TOPL = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=3)
DTOPL = make_dtopl_query({"movies", "books"}, k=3, radius=2, theta=0.1, top_l=2)


def _fingerprint(result):
    return tuple(
        (community.vertices, round(community.score, 12)) for community in result
    )


@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "heap"])
def test_round_trip_reconstruction(store_engine, packed_store, mmap):
    handle = open_store(packed_store, mmap=mmap)
    assert handle.info["residency"] == ("mmap" if mmap else "heap")
    assert handle.info["generation"] == 0

    # Graph: same vertices (same order), keywords and directed probabilities.
    original = store_engine.graph
    assert list(handle.graph.vertices()) == list(original.vertices())
    for vertex in original.vertices():
        assert handle.graph.keywords(vertex) == original.keywords(vertex)
        for neighbor in original.neighbors(vertex):
            assert handle.graph.probability(vertex, neighbor) == original.probability(
                vertex, neighbor
            )

    # Index records, in order: bit-identical bitvectors, supports, score
    # bounds, trussness and edge supports.
    assert_same_records(handle.index.precomputed, store_engine.index.precomputed)
    assert handle.index.describe() == store_engine.index.describe()
    assert handle.config == store_engine.config


def test_csr_views_are_zero_copy(packed_store):
    handle = open_store(packed_store, mmap=True)
    raw_buffer = handle._raw.buffer
    assert handle.csr.indptr.obj is raw_buffer.obj
    assert handle.csr.indices.obj is raw_buffer.obj


def test_verify_store_summarises(store_engine, packed_store):
    report = verify_store(packed_store)
    assert report["ok"] is True
    assert report["num_vertices"] == store_engine.graph.num_vertices()
    assert report["num_edges"] == store_engine.graph.num_edges()
    assert report["generation"] == 0


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_answers_identical_to_built_engine(store_graph, store_engine, packed_store, backend):
    built = InfluentialCommunityEngine.build(
        store_graph,
        config=dataclasses.replace(store_engine.config, backend=backend),
        validate=False,
    )
    attached = InfluentialCommunityEngine.from_store(
        packed_store, config_overrides={"backend": backend}
    )
    topl_built = built.topl(TOPL)
    assert len(topl_built.communities) > 0  # a real, non-degenerate workload
    assert _fingerprint(topl_built) == _fingerprint(attached.topl(TOPL))
    assert _fingerprint(built.dtopl(DTOPL)) == _fingerprint(attached.dtopl(DTOPL))


def test_repack_from_store_backed_engine(packed_store, tmp_path):
    """A store-backed engine can re-pack (memoryview buffers, not arrays)."""
    attached = InfluentialCommunityEngine.from_store(packed_store)
    repacked = tmp_path / "repacked.repro-store"
    pack_store(attached, str(repacked), generation=1)
    again = open_store(str(repacked))
    assert again.info["generation"] == 1
    assert_same_records(again.index.precomputed, attached.index.precomputed)


def test_structurally_valid_but_incomplete_store_is_typed(tmp_path):
    """A well-formed container missing the arena sections is still typed."""
    path = tmp_path / "hollow.repro-store"
    write_container(str(path), [("meta", b"{}")])
    with pytest.raises(StoreFormatError):
        open_store(str(path))


def test_malformed_meta_is_typed(tmp_path):
    path = tmp_path / "weird.repro-store"
    write_container(str(path), [("meta", b'{"num_vertices": "not-a-number"}')])
    with pytest.raises(StoreFormatError):
        open_store(str(path))



def _sections(path: str) -> dict:
    """Every section of a store, as bytes by name."""
    from repro.store.container import RawStore

    raw = RawStore.open(path, use_mmap=False)
    return {name: bytes(raw.section(name)) for name in raw.sections}


def _layout(path: str) -> tuple[list, list]:
    sections = _sections(path)
    shape = memoryview(sections["tree_shape"]).cast("q").tolist()
    return shape, memoryview(sections["tree_vertices"]).cast("q").tolist()


def _open_edited(source: str, target, **replaced):
    """Open a copy of a store with some sections replaced (checksums valid)."""
    sections = {**_sections(source), **replaced}
    write_container(str(target), list(sections.items()))
    return open_store(str(target))


def test_store_carries_the_tree_layout(store_engine, packed_store):
    from repro.index.tree import tree_layout

    shape, order = _layout(packed_store)
    live_shape, live_vertices = tree_layout(store_engine.index)
    assert shape == live_shape
    index_of = store_engine.graph.freeze().table.index_of
    assert order == [index_of(vertex) for vertex in live_vertices]
    assert tree_layout(open_store(packed_store).index) == (live_shape, live_vertices)


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda shape, order: (shape[:-1], order), id="truncated-shape"),
        pytest.param(
            lambda shape, order: ([shape[0] + 1] + shape[1:], order), id="child-count-past-end"
        ),
        pytest.param(lambda shape, order: (shape + [-1], order), id="trailing-token"),
        pytest.param(lambda shape, order: ([shape[0], 0] + shape[1:], order), id="empty-leaf"),
        pytest.param(
            lambda shape, order: (shape, [order[0]] + order[:-1]), id="duplicated-vertex"
        ),
        pytest.param(
            lambda shape, order: (shape, order[:-1] + [len(order)]), id="vertex-out-of-range"
        ),
        pytest.param(lambda shape, order: (shape, order[:-1] + [-1]), id="negative-vertex"),
    ],
)
def test_corrupt_layout_is_typed(packed_store, tmp_path, corrupt):
    from array import array

    shape, order = corrupt(*_layout(packed_store))
    with pytest.raises(StoreFormatError, match="tree"):
        _open_edited(
            packed_store,
            tmp_path / "corrupt.repro-store",
            tree_shape=array("q", shape).tobytes(),
            tree_vertices=array("q", order).tobytes(),
        )


def test_layout_section_of_odd_length_is_typed(packed_store, tmp_path):
    tree_shape = _sections(packed_store)["tree_shape"] + b"\x00"
    with pytest.raises(StoreFormatError, match="tree_shape"):
        _open_edited(packed_store, tmp_path / "odd.repro-store", tree_shape=tree_shape)


@pytest.mark.parametrize("position", [-1, 10_000], ids=["negative", "past-the-end"])
def test_keyword_position_outside_the_vocabulary_is_typed(packed_store, tmp_path, position):
    keywords = json.loads(_sections(packed_store)["keywords"])
    keywords["sets"][0] = [position]
    with pytest.raises(StoreFormatError, match="vocabulary"):
        _open_edited(
            packed_store,
            tmp_path / "keywords.repro-store",
            keywords=json.dumps(keywords).encode("utf-8"),
        )


def test_repeated_vertex_id_is_typed(packed_store, tmp_path):
    vertex_ids = json.loads(_sections(packed_store)["vertex_ids"])
    vertex_ids[1] = vertex_ids[0]
    with pytest.raises(StoreFormatError, match="twice"):
        _open_edited(
            packed_store,
            tmp_path / "ids.repro-store",
            vertex_ids=json.dumps(vertex_ids).encode("utf-8"),
        )
