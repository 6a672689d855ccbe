"""Unit tests for graph I/O (edge lists and JSON documents)."""

import pytest

from repro.exceptions import DatasetError, SerializationError
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_graph_json,
    read_edge_list,
    save_graph_json,
    write_edge_list,
)
from repro.graph.social_network import SocialNetwork


class TestEdgeList:
    def test_round_trip(self, tmp_path, triangle_graph):
        path = tmp_path / "graph.tsv"
        write_edge_list(triangle_graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices() == triangle_graph.num_vertices()
        assert loaded.num_edges() == triangle_graph.num_edges()
        assert loaded.probability("a", "b") == pytest.approx(
            triangle_graph.probability("a", "b")
        )

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header\n\n1\t2\n2\t3\n")
        graph = read_edge_list(path)
        assert graph.num_vertices() == 3
        assert graph.num_edges() == 2
        assert graph.has_edge(1, 2)

    def test_integer_vertices_parsed(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("10 20\n")
        graph = read_edge_list(path)
        assert graph.has_vertex(10)
        assert not graph.has_vertex("10")

    def test_default_probability_applied(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n")
        graph = read_edge_list(path, default_probability=0.42)
        assert graph.probability(1, 2) == pytest.approx(0.42)

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges() == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("only-one-column\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_bad_probability_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2 not-a-number\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            read_edge_list(tmp_path / "nope.txt")


class TestJsonDocuments:
    def test_round_trip_preserves_everything(self, tmp_path, triangle_graph):
        path = tmp_path / "graph.json"
        save_graph_json(triangle_graph, path)
        loaded = load_graph_json(path)
        assert loaded.num_vertices() == triangle_graph.num_vertices()
        assert loaded.num_edges() == triangle_graph.num_edges()
        for vertex in triangle_graph.vertices():
            assert loaded.keywords(vertex) == triangle_graph.keywords(vertex)
        for u, v in triangle_graph.edges():
            assert loaded.probability(u, v) == pytest.approx(triangle_graph.probability(u, v))
            assert loaded.probability(v, u) == pytest.approx(triangle_graph.probability(v, u))

    def test_dict_round_trip(self, triangle_graph):
        payload = graph_to_dict(triangle_graph)
        rebuilt = graph_from_dict(payload)
        assert rebuilt.num_edges() == triangle_graph.num_edges()

    def test_unsupported_version_rejected(self, triangle_graph):
        payload = graph_to_dict(triangle_graph)
        payload["format_version"] = 999
        with pytest.raises(SerializationError):
            graph_from_dict(payload)

    def test_malformed_document_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_dict({"format_version": 1, "vertices": [{"bogus": 1}], "edges": []})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_graph_json(tmp_path / "nope.json")


class TestNonIntegerIds:
    """Spaced-string, tuple and int vertex ids through the CSR snapshot."""

    def _non_integer_id_graph(self):
        graph = SocialNetwork(name="non-integer-ids")
        graph.add_vertex("Jane Doe", {"movies"})
        graph.add_vertex(("paper", 2024), {"books", "travel"})
        graph.add_vertex(42, {"music"})
        graph.add_edge("Jane Doe", ("paper", 2024), 0.3, 0.7)
        graph.add_edge(("paper", 2024), 42, 0.55)
        graph.add_edge("Jane Doe", 42, 0.2, 0.9)
        return graph

    def test_non_integer_ids_intern_consistently(self):
        """Every id maps to a dense int and back, and re-freezing an
        unchanged graph yields identical tables and arrays."""
        graph = self._non_integer_id_graph()
        csr = graph.freeze()
        for vertex in graph.vertices():
            assert csr.table.id_of(csr.table.index_of(vertex)) == vertex
        again = graph.freeze()
        assert again.table == csr.table
        assert again.indices == csr.indices
        assert again.prob_out == csr.prob_out

    def test_freeze_thaw_preserves_non_integer_ids(self):
        graph = self._non_integer_id_graph()
        thawed = graph.freeze().thaw()
        assert set(thawed.vertices()) == set(graph.vertices())
        for u, v in graph.edges():
            assert thawed.probability(u, v) == graph.probability(u, v)
            assert thawed.probability(v, u) == graph.probability(v, u)
        assert thawed.keywords("Jane Doe") == frozenset({"movies"})


class TestEmptyGraph:
    def test_empty_graph_json_round_trip(self, tmp_path):
        graph = SocialNetwork(name="empty")
        path = tmp_path / "empty.json"
        save_graph_json(graph, path)
        loaded = load_graph_json(path)
        assert loaded.num_vertices() == 0
        assert loaded.num_edges() == 0
