"""Persisting the offline pre-computation and tree index through the store.

The store is the one persisted form of a built index: these tests check that
a checkpoint reopens with the same records (in the same order, string vertex
ids included), the same tree and the same answers, before and after dynamic
updates, and that unreadable files fail with a typed error.
"""

import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.exceptions import SerializationError, StoreFormatError
from repro.query.params import make_topl_query
from repro.store import FORMAT_VERSION, inspect_store, open_store
from repro.store.container import _HEADER, MAGIC

from tests.conftest import assert_same_records


def _round_trip(engine, tmp_path, name="index.repro-store"):
    path = tmp_path / name
    engine.checkpoint_store(path)
    return path, InfluentialCommunityEngine.from_store(path)


def _build(graph, **config):
    return InfluentialCommunityEngine.build(
        graph, config=EngineConfig(**config), validate=False
    )


class TestPrecomputedRoundTrip:
    def test_round_trip_preserves_aggregates(self, two_cliques_bridge, tmp_path):
        engine = _build(two_cliques_bridge, max_radius=2, thresholds=(0.1, 0.3))
        _, reopened = _round_trip(engine, tmp_path)
        assert_same_records(reopened.index.precomputed, engine.index.precomputed)

    def test_edge_supports_preserved(self, triangle_graph, tmp_path):
        engine = _build(triangle_graph, max_radius=1)
        _, reopened = _round_trip(engine, tmp_path)
        assert list(reopened.index.precomputed.global_edge_support.items()) == list(
            engine.index.precomputed.global_edge_support.items()
        )

    def test_string_vertices_round_trip(self, triangle_graph, tmp_path):
        engine = _build(triangle_graph, max_radius=1)
        _, reopened = _round_trip(engine, tmp_path)
        assert list(reopened.index.precomputed.vertex_aggregates) == ["a", "b", "c", "d"]
        assert list(reopened.graph.vertices()) == ["a", "b", "c", "d"]
        assert_same_records(reopened.index.precomputed, engine.index.precomputed)

    def test_unsupported_version_rejected(self, triangle_graph, tmp_path):
        path, _ = _round_trip(_build(triangle_graph, max_radius=1), tmp_path)
        raw = bytearray(path.read_bytes())
        fields = list(_HEADER.unpack_from(raw))
        assert fields[:2] == [MAGIC, FORMAT_VERSION]
        fields[1] = 99
        _HEADER.pack_into(raw, 0, *fields)
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="version"):
            open_store(path)

    @pytest.mark.parametrize("token", [["float", 1.5], ["str"], "a"])
    def test_unknown_vertex_token_is_typed(self, triangle_graph, tmp_path, token):
        from tests.store.test_arena import _open_edited, _sections

        path, _ = _round_trip(_build(triangle_graph, max_radius=1), tmp_path)
        vertex_ids = json.loads(_sections(str(path))["vertex_ids"])
        vertex_ids[0] = token
        with pytest.raises(StoreFormatError, match="malformed store payload"):
            _open_edited(
                str(path), tmp_path / "edited.repro-store",
                vertex_ids=json.dumps(vertex_ids).encode("utf-8"),
            )

    def test_malformed_payload_rejected(self, tmp_path):
        path = tmp_path / "index.repro-store"
        path.write_bytes(MAGIC + b"\0" * 8)
        with pytest.raises(StoreFormatError):
            InfluentialCommunityEngine.from_store(path)


class TestIndexRoundTrip:
    def test_save_and_load(self, tmp_path, two_cliques_bridge):
        engine = _build(two_cliques_bridge, max_radius=2, leaf_capacity=4, fanout=3)
        _, reopened = _round_trip(engine, tmp_path)
        assert reopened.index.describe() == engine.index.describe()
        assert list(reopened.index.root.subtree_vertices()) == list(
            engine.index.root.subtree_vertices()
        )

    def test_loaded_index_answers_queries_identically(self, tmp_path, two_cliques_bridge):
        engine = _build(two_cliques_bridge, max_radius=2)
        _, reopened = _round_trip(engine, tmp_path)
        query = make_topl_query({"movies", "books"}, k=4, radius=1, theta=0.1, top_l=2)
        expected = engine.topl(query).communities
        assert expected
        assert reopened.topl(query).communities == expected

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            InfluentialCommunityEngine.from_store(tmp_path / "nope.repro-store")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "index.repro-store"
        # A JSON document (what the old index format looked like) is refused.
        path.write_text(json.dumps({"format_version": 2, "fanout": 4, "tree_shape": []}))
        with pytest.raises(StoreFormatError, match="not a repro store"):
            InfluentialCommunityEngine.from_store(path)

    def test_json_is_plain_text(self, tmp_path, triangle_graph):
        # The binary file describes itself as plain JSON: `repro store
        # inspect` prints this document.
        engine = _build(triangle_graph, max_radius=1)
        path, _ = _round_trip(engine, tmp_path)
        document = json.loads(json.dumps(inspect_store(path)))
        assert document["format_version"] == FORMAT_VERSION
        assert document["meta"]["config"]["fanout"] == engine.index.fanout
        assert document["meta"]["max_radius"] == 1


class TestSerializationAfterIncrementalPatch:
    """Round trip after a dynamic update: checkpoint -> open -> answers unchanged."""

    def test_patched_index_round_trips(self, tmp_path, two_cliques_bridge):
        from repro.dynamic.updates import EdgeUpdate

        engine = _build(
            two_cliques_bridge, max_radius=2, thresholds=(0.1, 0.2, 0.3), fanout=3,
            leaf_capacity=4,
        )
        report = engine.apply_updates(
            [
                EdgeUpdate.delete(4, 5),
                EdgeUpdate.insert(0, 42, 0.8, keywords_v={"movies"}),
            ],
            damage_threshold=1.0,
        )
        assert report.mode == "incremental"
        _, reopened = _round_trip(engine, tmp_path, "patched.repro-store")
        # The store lays edges out by edge id, not in the live dict's
        # insertion order, so the patched supports compare as a mapping.
        reopened_data, live = reopened.index.precomputed, engine.index.precomputed
        assert list(reopened_data.vertex_aggregates.items()) == list(
            live.vertex_aggregates.items()
        )
        assert reopened_data.global_edge_support == live.global_edge_support

        queries = [
            make_topl_query({"movies"}, k=3, radius=1, theta=0.2, top_l=3),
            make_topl_query({"books"}, k=4, radius=2, theta=0.1, top_l=2),
            make_topl_query({"movies", "travel"}, k=3, radius=2, theta=0.3, top_l=3),
        ]
        for query in queries:
            assert reopened.topl(query).communities == engine.topl(query).communities

    def test_patched_supports_survive_round_trip(self, tmp_path, two_cliques_bridge):
        from repro.dynamic.updates import EdgeUpdate
        from repro.truss.support import edge_support

        engine = _build(two_cliques_bridge, max_radius=2, thresholds=(0.1, 0.3))
        engine.apply_updates([EdgeUpdate.delete(0, 1)], damage_threshold=1.0)
        _, reopened = _round_trip(engine, tmp_path, "patched.repro-store")
        assert reopened.index.precomputed.global_edge_support == edge_support(engine.graph)
