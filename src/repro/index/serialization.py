"""Persisting the offline pre-computation and tree index to disk.

Re-running Algorithm 2 on every process start would defeat the purpose of an
offline phase, so the pre-computed data, the index shape parameters and the
tree's layout can be saved to a JSON document and reloaded later.  The
layout is the preorder tree shape and the vertices in leaf order
(:func:`~repro.index.tree.tree_layout`); loading re-assembles exactly that
tree with :func:`~repro.index.tree.assemble_tree_index` and recombines every
node aggregate from the records.  A tree that dynamic updates have patched
therefore reloads as it was, and answers as it did, ``center`` included.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.exceptions import IndexStateError, SerializationError
from repro.graph.io import atomic_open
from repro.index.precompute import PrecomputedData, RadiusAggregates, VertexAggregates
from repro.index.tree import TreeIndex, assemble_tree_index, tree_layout
from repro.keywords.bitvector import BitVector

PathLike = Union[str, Path]

#: Version of the :func:`precomputed_to_dict` document.
_FORMAT_VERSION = 1

#: Version of the :func:`save_index` document (2 added the tree layout);
#: surfaced by :meth:`repro.core.engine.InfluentialCommunityEngine.describe`
#: and the service ``/v1/health`` endpoint so operators can see which index
#: schema a running process writes.
INDEX_FORMAT_VERSION = 2


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
    kind, value = token
    if kind == "int":
        return int(value)
    if kind == "str":
        return str(value)
    raise SerializationError(f"unknown vertex token kind {kind!r}")


def precomputed_to_dict(data: PrecomputedData) -> dict:
    """Serialise :class:`PrecomputedData` into a JSON-compatible dict."""
    vertices = []
    for vertex, aggregates in data.vertex_aggregates.items():
        radii = []
        for radius in sorted(aggregates.per_radius):
            record = aggregates.per_radius[radius]
            radii.append(
                {
                    "radius": radius,
                    "bitvector": record.bitvector.bits,
                    "support_upper_bound": record.support_upper_bound,
                    "score_bounds": [[theta, sigma] for theta, sigma in record.score_bounds],
                }
            )
        vertices.append(
            {
                "vertex": _vertex_to_token(vertex),
                "keyword_bitvector": aggregates.keyword_bitvector.bits,
                "center_trussness": aggregates.center_trussness,
                "radii": radii,
            }
        )
    edge_supports = [
        {"u": _vertex_to_token(u), "v": _vertex_to_token(v), "support": support}
        for edge, support in data.global_edge_support.items()
        for u, v in [tuple(edge)]
    ]
    return {
        "format_version": _FORMAT_VERSION,
        "max_radius": data.max_radius,
        "thresholds": list(data.thresholds),
        "num_bits": data.num_bits,
        "vertices": vertices,
        "edge_supports": edge_supports,
    }


def precomputed_from_dict(payload: dict) -> PrecomputedData:
    """Deserialise :class:`PrecomputedData` from :func:`precomputed_to_dict` output."""
    try:
        version = payload["format_version"]
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported precomputed-data format version {version}")
        num_bits = payload["num_bits"]
        data = PrecomputedData(
            max_radius=payload["max_radius"],
            thresholds=tuple(payload["thresholds"]),
            num_bits=num_bits,
        )
        for record in payload["vertices"]:
            vertex = _vertex_from_token(record["vertex"])
            per_radius = {}
            for radius_record in record["radii"]:
                radius = radius_record["radius"]
                per_radius[radius] = RadiusAggregates(
                    radius=radius,
                    bitvector=BitVector(radius_record["bitvector"], num_bits),
                    support_upper_bound=radius_record["support_upper_bound"],
                    score_bounds=tuple(
                        (float(theta), float(sigma))
                        for theta, sigma in radius_record["score_bounds"]
                    ),
                )
            data.vertex_aggregates[vertex] = VertexAggregates(
                vertex=vertex,
                keyword_bitvector=BitVector(record["keyword_bitvector"], num_bits),
                per_radius=per_radius,
                center_trussness=record.get("center_trussness", 2),
            )
        for edge_record in payload.get("edge_supports", []):
            u = _vertex_from_token(edge_record["u"])
            v = _vertex_from_token(edge_record["v"])
            data.global_edge_support[frozenset((u, v))] = edge_record["support"]
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed precomputed-data document: {exc}") from exc
    return data


def save_index(index: TreeIndex, path: PathLike) -> None:
    """Save an index (its pre-computed data, shape parameters and layout) to ``path``."""
    shape, vertices = tree_layout(index)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "fanout": index.fanout,
        "leaf_capacity": index.leaf_capacity,
        "tree_shape": shape,
        "tree_vertices": [_vertex_to_token(vertex) for vertex in vertices],
        "precomputed": precomputed_to_dict(index.precomputed),
    }
    with atomic_open(path) as handle:
        json.dump(payload, handle)


def load_index(graph, path: PathLike) -> TreeIndex:
    """Load an index saved by :func:`save_index`, re-assembling its saved tree.

    ``graph`` is accepted for symmetry with
    :func:`~repro.index.tree.build_tree_index`; the saved layout, not the
    graph, decides the tree.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"index file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        version = payload["format_version"]
        if version != INDEX_FORMAT_VERSION:
            raise SerializationError(
                f"unsupported index format version {version} "
                f"(this build reads version {INDEX_FORMAT_VERSION})"
            )
        precomputed = precomputed_from_dict(payload["precomputed"])
        shape = [int(token) for token in payload["tree_shape"]]
        vertices = [_vertex_from_token(token) for token in payload["tree_vertices"]]
        return assemble_tree_index(
            precomputed,
            shape,
            vertices,
            fanout=payload["fanout"],
            leaf_capacity=payload["leaf_capacity"],
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, IndexStateError) as exc:
        raise SerializationError(f"malformed index document: {exc}") from exc
