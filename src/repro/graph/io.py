"""Graph input/output: edge lists and JSON documents.

Two on-disk formats are supported:

* **Edge list** — the format used by SNAP dumps of the paper's real datasets
  (DBLP, Amazon): one ``u<TAB>v`` pair per line, ``#`` comments ignored.
  Keyword sets and probabilities are not part of the format and must be
  assigned afterwards (see :mod:`repro.graph.keyword_assignment` and
  :func:`repro.graph.generators.assign_uniform_weights`).
* **JSON document** — a self-contained serialisation including keyword sets
  and both directional probabilities, used to persist generated datasets and
  to round-trip graphs in tests.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Union

from repro.exceptions import DatasetError, SerializationError
from repro.graph.social_network import SocialNetwork

PathLike = Union[str, Path]


@contextlib.contextmanager
def atomic_open(path: PathLike, mode: str = "w", encoding: str | None = "utf-8"):
    """Open ``path`` for writing atomically: temp file + ``os.replace``.

    The payload is written to a temporary file in the *same directory* (so the
    final rename never crosses filesystems) and moved over the target only
    after the writer block completes; a crash or exception mid-write can
    therefore never leave a truncated artifact behind — the old file, if any,
    survives untouched.  Used by every on-disk writer in the library (graph
    JSON, edge lists, the binary store).

    Pass ``mode="wb"`` (with ``encoding=None``) for binary payloads.
    """
    path = Path(path)
    if "b" in mode:
        encoding = None
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp"
    )
    handle = None
    try:
        handle = os.fdopen(descriptor, mode, encoding=encoding)
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(temp_name, path)
    except BaseException:
        if handle is not None and not handle.closed:
            handle.close()
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise


# --------------------------------------------------------------------------- #
# edge lists
# --------------------------------------------------------------------------- #
def read_edge_list(
    path: PathLike,
    default_probability: float = 0.5,
    name: str = "edge-list",
) -> SocialNetwork:
    """Load a SNAP-style edge list into a :class:`SocialNetwork`.

    Vertices are parsed as integers when possible, otherwise kept as strings.
    Every edge receives ``default_probability`` in both directions.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"edge list file not found: {path}")
    graph = SocialNetwork(name=name)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise DatasetError(
                    f"{path}:{line_number}: expected at least two columns, got {stripped!r}"
                )
            u, v = (_parse_vertex(parts[0]), _parse_vertex(parts[1]))
            if u == v:
                continue
            probability = default_probability
            if len(parts) >= 3:
                try:
                    probability = float(parts[2])
                except ValueError as exc:
                    raise DatasetError(
                        f"{path}:{line_number}: invalid probability {parts[2]!r}"
                    ) from exc
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, probability, probability)
    return graph


def write_edge_list(graph: SocialNetwork, path: PathLike) -> None:
    """Write the structural edges of ``graph`` as a tab-separated edge list."""
    with atomic_open(path) as handle:
        handle.write(f"# edge list for {graph.name}\n")
        handle.write(f"# |V|={graph.num_vertices()} |E|={graph.num_edges()}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\t{graph.probability(u, v):.6f}\n")


def _parse_vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


# --------------------------------------------------------------------------- #
# JSON documents
# --------------------------------------------------------------------------- #
_FORMAT_VERSION = 1


def graph_to_dict(graph: SocialNetwork) -> dict:
    """Serialise ``graph`` into a JSON-compatible dict."""
    vertices = [
        {"id": vertex, "keywords": sorted(graph.keywords(vertex))}
        for vertex in graph.vertices()
    ]
    edges = [
        {
            "u": u,
            "v": v,
            "p_uv": graph.probability(u, v),
            "p_vu": graph.probability(v, u),
        }
        for u, v in graph.edges()
    ]
    return {
        "format_version": _FORMAT_VERSION,
        "name": graph.name,
        "vertices": vertices,
        "edges": edges,
    }


def graph_from_dict(payload: dict) -> SocialNetwork:
    """Deserialise a graph produced by :func:`graph_to_dict`."""
    try:
        version = payload["format_version"]
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported graph format version {version}")
        graph = SocialNetwork(name=payload.get("name", "graph"))
        for vertex in payload["vertices"]:
            graph.add_vertex(vertex["id"], vertex.get("keywords", ()))
        for edge in payload["edges"]:
            graph.add_edge(edge["u"], edge["v"], edge["p_uv"], edge.get("p_vu"))
    except SerializationError:
        raise
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed graph document: {exc}") from exc
    return graph


def save_graph_json(graph: SocialNetwork, path: PathLike) -> None:
    """Write ``graph`` to ``path`` as a JSON document (atomically)."""
    with atomic_open(path) as handle:
        json.dump(graph_to_dict(graph), handle)


def load_graph_json(path: PathLike) -> SocialNetwork:
    """Load a graph JSON document written by :func:`save_graph_json`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"graph file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return graph_from_dict(payload)
