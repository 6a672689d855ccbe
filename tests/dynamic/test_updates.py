"""Tests for edit scripts: EdgeUpdate, UpdateBatch, JSON round trip, generation."""

from __future__ import annotations

import json

import pytest

from repro.dynamic.updates import EdgeUpdate, UpdateBatch, random_update_batch
from repro.exceptions import DynamicUpdateError
from repro.graph.core import AdjacencyCore
from repro.graph.social_network import SocialNetwork
from repro.truss.support import edge_key


class _NoScanCore(AdjacencyCore):
    """A graph core whose full edge scan fails, so validation must not use it."""

    __slots__ = ()

    def live_edge_ids(self):
        raise AssertionError("validation scanned every edge of the graph")


def _no_scan_copy(graph: SocialNetwork) -> _NoScanCore:
    return _NoScanCore(graph.copy())


class TestEdgeUpdate:
    def test_insert_defaults(self):
        update = EdgeUpdate.insert("a", "b")
        assert update.op == "insert"
        assert update.key == edge_key("a", "b")

    def test_delete_constructor(self):
        update = EdgeUpdate.delete(1, 2)
        assert update.op == "delete"
        assert update.p_uv is None and update.p_vu is None

    def test_unknown_op_rejected(self):
        with pytest.raises(DynamicUpdateError):
            EdgeUpdate(op="toggle", u=1, v=2)

    def test_self_loop_rejected(self):
        with pytest.raises(DynamicUpdateError):
            EdgeUpdate.insert(3, 3)

    def test_delete_with_probability_rejected(self):
        with pytest.raises(DynamicUpdateError):
            EdgeUpdate(op="delete", u=1, v=2, p_uv=0.4)

    def test_dict_round_trip(self):
        update = EdgeUpdate.insert(1, 9, 0.3, 0.7, keywords_v={"music", "food"})
        parsed = EdgeUpdate.from_dict(update.as_dict())
        assert parsed == update

    def test_insert_dict_fills_probability_defaults(self):
        record = EdgeUpdate.insert(1, 2).as_dict()
        assert record["p_uv"] == 0.5
        assert record["p_vu"] == 0.5

    def test_malformed_record_rejected(self):
        with pytest.raises(DynamicUpdateError):
            EdgeUpdate.from_dict({"op": "insert", "u": 1})


class TestUpdateBatchValidation:
    def test_sequential_insert_then_delete_is_valid(self, triangle_graph):
        batch = UpdateBatch([EdgeUpdate.insert("a", "d"), EdgeUpdate.delete("a", "d")])
        batch.validate_against(AdjacencyCore(triangle_graph))  # must not raise

    def test_duplicate_insert_rejected(self, triangle_graph):
        batch = UpdateBatch([EdgeUpdate.insert("a", "b")])
        with pytest.raises(DynamicUpdateError):
            batch.validate_against(AdjacencyCore(triangle_graph))

    def test_delete_missing_edge_rejected(self, triangle_graph):
        batch = UpdateBatch([EdgeUpdate.delete("a", "d")])
        with pytest.raises(DynamicUpdateError):
            batch.validate_against(AdjacencyCore(triangle_graph))

    def test_delete_then_reinsert_is_valid(self, triangle_graph):
        batch = UpdateBatch(
            [EdgeUpdate.delete("a", "b"), EdgeUpdate.insert("a", "b", 0.1)]
        )
        batch.validate_against(AdjacencyCore(triangle_graph))

    def test_out_of_range_probability_rejected(self, triangle_graph):
        batch = UpdateBatch([EdgeUpdate.insert("a", "d", 1.5)])
        with pytest.raises(DynamicUpdateError):
            batch.validate_against(AdjacencyCore(triangle_graph))

    def test_valid_mixed_script_never_scans_the_graph(self, triangle_graph):
        graph = _no_scan_copy(triangle_graph)
        batch = UpdateBatch(
            [
                EdgeUpdate.insert("a", "d", 0.2),
                EdgeUpdate.delete("b", "a"),
                EdgeUpdate.insert("d", "x", 0.3, keywords_v={"music"}),
                EdgeUpdate.delete("c", "d"),
                EdgeUpdate.insert("a", "b", 0.4),
                EdgeUpdate.delete("x", "d"),
            ]
        )
        batch.validate_against(graph)
        assert graph.num_edges == 4 and "x" not in graph.table
        assert graph.graph.num_edges() == 4 and not graph.graph.has_vertex("x")

    def test_insert_delete_insert_of_one_edge_is_valid(self, triangle_graph):
        batch = UpdateBatch(
            [
                EdgeUpdate.insert("a", "d", 0.2),
                EdgeUpdate.delete("a", "d"),
                EdgeUpdate.insert("a", "d", 0.7),
            ]
        )
        batch.validate_against(_no_scan_copy(triangle_graph))

    def test_delete_in_reverse_orientation_of_earlier_insert(self, triangle_graph):
        batch = UpdateBatch([EdgeUpdate.insert("a", "d"), EdgeUpdate.delete("d", "a")])
        batch.validate_against(_no_scan_copy(triangle_graph))

    def test_insert_creating_a_vertex_then_delete(self, triangle_graph):
        batch = UpdateBatch(
            [
                EdgeUpdate.insert("a", "new", 0.3, keywords_v={"music"}),
                EdgeUpdate.delete("new", "a"),
            ]
        )
        batch.validate_against(_no_scan_copy(triangle_graph))

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([EdgeUpdate.insert("a", "d"), EdgeUpdate.insert("d", "a")],
             r"^edit 1: edge \('d', 'a'\) already exists"),
            ([EdgeUpdate.delete("a", "b"), EdgeUpdate.delete("b", "a")],
             r"^edit 1: edge \('b', 'a'\) does not exist"),
            ([EdgeUpdate.insert("a", "d"), EdgeUpdate.delete("a", "d"),
              EdgeUpdate.delete("d", "a")],
             r"^edit 2: edge \('d', 'a'\) does not exist"),
            ([EdgeUpdate.insert("c", "x"), EdgeUpdate.insert("a", "c")],
             r"^edit 1: edge \('a', 'c'\) already exists"),
            ([EdgeUpdate.delete("c", "d"), EdgeUpdate.insert("d", "c", 1.5)],
             r"^edit 1: probability 1.5 is outside \[0, 1\]"),
            ([EdgeUpdate.delete("x", "y")],
             r"^edit 0: edge \('x', 'y'\) does not exist"),
        ],
    )
    def test_rejection_names_the_edit_position(self, triangle_graph, edits, message):
        with pytest.raises(DynamicUpdateError, match=message):
            UpdateBatch(edits).validate_against(_no_scan_copy(triangle_graph))

    def test_counts(self):
        batch = UpdateBatch(
            [EdgeUpdate.insert(1, 2), EdgeUpdate.delete(2, 3), EdgeUpdate.insert(4, 5)]
        )
        assert len(batch) == 3
        assert batch.num_insertions == 2
        assert batch.num_deletions == 1

    def test_non_edge_update_rejected(self):
        with pytest.raises(DynamicUpdateError):
            UpdateBatch([("insert", 1, 2)])


class TestApplyTo:
    def test_applies_sequentially_and_reports_new_vertices(self, triangle_graph):
        batch = UpdateBatch(
            [
                EdgeUpdate.insert("a", "x", 0.3, keywords_v={"music"}),
                EdgeUpdate.delete("a", "x"),
                EdgeUpdate.insert("x", "y", 0.4),
            ]
        )
        core = AdjacencyCore(triangle_graph)
        batch.validate_against(core)
        new_vertices = batch.apply_to(core)
        assert new_vertices == ["x", "y"]
        assert not triangle_graph.has_edge("a", "x")
        assert triangle_graph.has_edge("x", "y")
        assert triangle_graph.keywords("x") == frozenset({"music"})


class TestEditScriptRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        batch = UpdateBatch(
            [
                EdgeUpdate.insert(1, 2, 0.25, 0.75, keywords_u={"music"}),
                EdgeUpdate.delete(2, 3),
            ]
        )
        path = tmp_path / "edits.json"
        batch.save(path)
        loaded = UpdateBatch.load(path)
        assert loaded.updates == batch.updates

    def test_bare_list_accepted(self):
        loaded = UpdateBatch.from_json([{"op": "delete", "u": 1, "v": 2}])
        assert loaded[0] == EdgeUpdate.delete(1, 2)

    def test_missing_edits_key_rejected(self):
        with pytest.raises(DynamicUpdateError):
            UpdateBatch.from_json({"format": "repro-edit-script"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DynamicUpdateError):
            UpdateBatch.load(tmp_path / "nope.json")

    def test_script_document_is_json(self, tmp_path):
        path = tmp_path / "edits.json"
        UpdateBatch([EdgeUpdate.insert(1, 2)]).save(path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-edit-script"
        assert document["edits"][0]["op"] == "insert"


class TestRandomUpdateBatch:
    def test_generated_script_is_valid(self, planted_graph):
        batch = random_update_batch(planted_graph, 20, rng=5)
        assert len(batch) == 20
        batch.validate_against(AdjacencyCore(planted_graph))

    def test_deterministic_for_same_seed(self, planted_graph):
        first = random_update_batch(planted_graph, 15, rng=11)
        second = random_update_batch(planted_graph, 15, rng=11)
        assert first.updates == second.updates

    def test_focus_restricts_endpoints(self, two_cliques_bridge):
        batch = random_update_batch(
            two_cliques_bridge, 10, rng=3, focus=0, focus_radius=1
        )
        allowed = {0, 1, 2, 3, 4}  # ball(0, 1) in clique A plus bridge vertex
        for update in batch:
            assert update.u in allowed and update.v in allowed

    def test_grow_probability_adds_new_vertices(self, planted_graph):
        batch = random_update_batch(
            planted_graph, 30, rng=7, insert_ratio=1.0, grow_probability=1.0,
            keyword_pool=("music", "food"),
        )
        existing = set(planted_graph.vertices())
        new = {u.v for u in batch if u.v not in existing}
        assert new, "grow_probability=1.0 must create vertices"
        batch.validate_against(AdjacencyCore(planted_graph))

    def test_negative_size_rejected(self, planted_graph):
        with pytest.raises(DynamicUpdateError):
            random_update_batch(planted_graph, -1)
