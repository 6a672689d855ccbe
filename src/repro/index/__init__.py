"""Offline pre-computation (Algorithm 2) and the tree index (Section V-B)."""

from repro.index.precompute import (
    DEFAULT_MAX_RADIUS,
    DEFAULT_THRESHOLDS,
    PrecomputedData,
    RadiusAggregates,
    VertexAggregates,
    precompute,
)
from repro.index.node import EntryAggregates, IndexNode, make_internal
from repro.index.tree import DEFAULT_FANOUT, DEFAULT_LEAF_CAPACITY, TreeIndex, build_tree_index

__all__ = [
    "DEFAULT_MAX_RADIUS",
    "DEFAULT_THRESHOLDS",
    "PrecomputedData",
    "RadiusAggregates",
    "VertexAggregates",
    "precompute",
    "EntryAggregates",
    "IndexNode",
    "make_internal",
    "DEFAULT_FANOUT",
    "DEFAULT_LEAF_CAPACITY",
    "TreeIndex",
    "build_tree_index",
]
