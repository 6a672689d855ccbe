"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.io import save_graph_json


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    """A small graph JSON shared by the CLI tests (generated through the CLI itself)."""
    path = tmp_path_factory.mktemp("cli") / "uni.json"
    exit_code = main(
        [
            "generate",
            "--dataset",
            "uni",
            "--vertices",
            "150",
            "--seed",
            "5",
            "--out",
            str(path),
        ]
    )
    assert exit_code == 0
    return path


@pytest.fixture(scope="module")
def store_file(tmp_path_factory, graph_file):
    """The graph's offline phase, packed once into a store the tests reuse."""
    path = tmp_path_factory.mktemp("cli-store") / "uni.repro-store"
    exit_code = main(
        [
            "store",
            "pack",
            str(graph_file),
            "--out",
            str(path),
            "--max-radius",
            "2",
        ]
    )
    assert exit_code == 0
    return path


def _answer_lines(output: str) -> list:
    """A query command's output without its timing line."""
    return [line for line in output.splitlines() if not line.startswith("answered in")]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x.json"])
        assert args.dataset == "uni"
        assert args.vertices == 1000

    def test_topl_defaults_match_table_iii(self):
        args = build_parser().parse_args(["topl", "graph.json"])
        assert args.k == 4
        assert args.radius == 2
        assert args.theta == pytest.approx(0.2)
        assert args.top_l == 5


class TestGenerateAndStats:
    def test_generate_writes_loadable_json(self, graph_file):
        payload = json.loads(graph_file.read_text())
        assert payload["name"] == "Uni"
        assert len(payload["vertices"]) > 0

    def test_generate_optional_edge_list(self, tmp_path):
        edge_list = tmp_path / "graph.tsv"
        exit_code = main(
            [
                "generate",
                "--dataset",
                "zipf",
                "--vertices",
                "60",
                "--out",
                str(tmp_path / "g.json"),
                "--edge-list",
                str(edge_list),
            ]
        )
        assert exit_code == 0
        assert edge_list.exists()
        assert "\t" in edge_list.read_text().splitlines()[-1]

    def test_stats_prints_table(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        output = capsys.readouterr().out
        assert "|V(G)|" in output
        assert "Uni" in output

    def test_stats_missing_file_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["stats", str(tmp_path / "missing.json")])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestBuildIndexAndQueries:
    def test_build_index_writes_file(self, store_file):
        from repro.store import MAGIC, inspect_store

        assert store_file.read_bytes()[: len(MAGIC)] == MAGIC
        assert inspect_store(store_file)["meta"]["max_radius"] == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["topl", "--top-l", "3"],
            ["dtopl", "--keywords", "topic-29,health,topic-13,jewelry,travel", "--top-l", "2"],
        ],
        ids=["topl-sampled-keywords", "dtopl"],
    )
    def test_store_answers_like_its_graph_json(self, graph_file, store_file, command, capsys):
        # The packed store is the graph's built index: a query on it prints
        # the same keywords and communities as a fresh build on the JSON.
        name, *options = command
        options += ["--k", "3", "--radius", "2", "--theta", "0.2"]
        outputs = []
        for source in (graph_file, store_file):
            assert main([name, str(source), *options]) == 0
            outputs.append(_answer_lines(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        header = next(i for i, line in enumerate(outputs[0]) if line.startswith("center"))
        assert outputs[0][header + 2:], "the query found no community"

    def test_topl_with_prebuilt_index(self, store_file, capsys):
        exit_code = main(
            [
                "topl",
                str(store_file),
                "--k",
                "3",
                "--radius",
                "2",
                "--theta",
                "0.2",
                "--top-l",
                "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "top-L most influential communities" in output
        assert "query keywords:" in output

    def test_topl_with_explicit_keywords(self, store_file, capsys):
        exit_code = main(
            [
                "topl",
                str(store_file),
                "--keywords",
                "movies,books",
                "--k",
                "3",
            ]
        )
        assert exit_code == 0
        assert "books, movies" in capsys.readouterr().out

    def test_topl_invalid_parameters_fail_cleanly(self, store_file, capsys):
        exit_code = main(
            [
                "topl",
                str(store_file),
                "--keywords",
                "movies",
                "--k",
                "1",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_dtopl(self, store_file, capsys):
        exit_code = main(
            [
                "dtopl",
                str(store_file),
                "--k",
                "3",
                "--top-l",
                "2",
                "--candidate-factor",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "diversified top-L communities" in output
        assert "diversity score" in output

    def test_sweep(self, store_file, capsys):
        exit_code = main(
            [
                "sweep",
                str(store_file),
                "--parameter",
                "theta",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "sweep over theta" in output
        assert "wall_clock_s" in output


class TestRoundTripThroughLibrary:
    def test_cli_graph_loadable_by_library(self, graph_file):
        from repro.graph.io import load_graph_json

        graph = load_graph_json(graph_file)
        assert graph.num_vertices() > 0
        assert graph.is_connected()

    def test_cli_accepts_library_written_graph(self, tmp_path, triangle_graph, capsys):
        path = tmp_path / "triangle.json"
        save_graph_json(triangle_graph, path)
        assert main(["stats", str(path)]) == 0
        assert "triangle" in capsys.readouterr().out
