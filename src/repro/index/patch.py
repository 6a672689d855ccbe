"""In-place patching of a built tree index after a dynamic update.

Instead of re-packing every vertex, the patcher rebuilds only the aggregates
along the leaf-to-root paths of the vertices whose pre-computed records
changed — stopping at the first node on a path whose aggregates come out
unchanged — and appends brand-new vertices to existing leaves (or a fresh leaf
under the root when they are full).  How much it recomputes depends on the
packing: the builder lays leaves out breadth-first over the graph
(:mod:`repro.index.tree`), so the centres one local edit batch refreshes sit
in a few leaves and the walks up share their ancestors.

The resulting tree may *group* vertices differently from a from-scratch
build — the builder's ranking and breadth-first order both follow the
records and the edges that a batch shifts — but every node aggregate is the
exact combination of the records below it, so the index-level pruning stays
sound and patched query answers carry the same scores as a freshly built
index.  Only the visit order can differ, and with it which centre a
community is attributed to and which of two communities tied at ``sigma_L``
is kept.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import IndexStateError
from repro.graph.social_network import VertexId
from repro.index.node import EntryAggregates, IndexNode, LeafVertexEntry, make_internal, make_leaf
from repro.index.tree import TreeIndex


def _collect_structure(index: TreeIndex):
    """Walk the tree once: vertex -> leaf node, id(node) -> parent node."""
    leaf_of: dict[VertexId, IndexNode] = {}
    parent_of: dict[int, IndexNode] = {}
    stack = [index.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            for vertex in node.vertices:
                leaf_of[vertex] = node
        else:
            for child in node.children:
                parent_of[id(child)] = node
                stack.append(child)
    return leaf_of, parent_of


def _recompute_aggregates(node: IndexNode, records: dict) -> bool:
    """Recompute one node's aggregates; return whether they changed."""
    if node.is_leaf:
        aggregates = EntryAggregates.from_records(
            [records[vertex] for vertex in node.vertices]
        )
    else:
        aggregates = EntryAggregates.combine([child.aggregates for child in node.children])
    if aggregates == node.aggregates:
        return False
    node.aggregates = aggregates
    return True


def patch_tree_index(
    index: TreeIndex,
    changed_vertices: Iterable[VertexId] = (),
    added_vertices: Sequence[VertexId] = (),
) -> int:
    """Refresh ``index`` in place after its pre-computed records changed.

    Parameters
    ----------
    index:
        The live index; ``index.precomputed.vertex_aggregates`` must already
        hold the refreshed records (see
        :func:`repro.dynamic.maintenance.refresh_vertex_aggregates`).
    changed_vertices:
        Vertices already in the tree whose records were refreshed.
    added_vertices:
        Vertices new to the graph, to be appended to the tree (in order).

    Returns
    -------
    int
        Number of tree nodes whose aggregates were recomputed.
    """
    records = index.precomputed.vertex_aggregates
    added = list(added_vertices)
    for vertex in added:
        if vertex not in records:
            raise IndexStateError(
                f"new vertex {vertex!r} has no pre-computed record to index"
            )

    if index.root is None:
        if not added:
            return 0
        entries = [LeafVertexEntry(vertex=vertex, aggregates=records[vertex]) for vertex in added]
        leaves = [
            make_leaf(entries[start:start + index.leaf_capacity], node_id=position)
            for position, start in enumerate(range(0, len(entries), index.leaf_capacity))
        ]
        root = leaves[0] if len(leaves) == 1 else make_internal(leaves, node_id=len(leaves))
        index.root = root
        index.num_nodes = root.count_nodes()
        return index.num_nodes

    leaf_of, parent_of = _collect_structure(index)
    dirty: dict[int, IndexNode] = {}

    for vertex in changed_vertices:
        leaf = leaf_of.get(vertex)
        if leaf is None:
            raise IndexStateError(f"vertex {vertex!r} is not covered by the index")
        dirty[id(leaf)] = leaf

    spare: IndexNode | None = None
    for vertex in added:
        # Reuse the last spare leaf across appends; re-scan only once full.
        if spare is None or len(spare.vertices) >= index.leaf_capacity:
            spare = _leaf_with_capacity(index, leaf_of, parent_of)
        spare.vertices = spare.vertices + (vertex,)
        leaf_of[vertex] = spare
        dirty[id(spare)] = spare

    # Walk up level by level, stopping at nodes whose aggregates came out
    # unchanged: their ancestors already combine exactly these values.
    patched = 0
    current = dirty
    while current:
        parents: dict[int, IndexNode] = {}
        for node in current.values():
            patched += 1
            if not _recompute_aggregates(node, records):
                continue
            parent = parent_of.get(id(node))
            if parent is not None:
                parents[id(parent)] = parent
        current = parents
    return patched


def _leaf_with_capacity(
    index: TreeIndex,
    leaf_of: dict,
    parent_of: dict,
) -> IndexNode:
    """Find (or create) a leaf with room for one more vertex.

    Preference order: the shallowest right-most leaf with spare capacity —
    found by walking leaves once — otherwise a new leaf hung off the root
    (promoting a leaf-root to an internal node first).  The root's fanout may
    temporarily exceed ``gamma``; a damage-triggered rebuild restores the
    packed shape.
    """
    spare = None
    stack = [index.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if len(node.vertices) < index.leaf_capacity:
                spare = node
                break
        else:
            stack.extend(node.children)
    if spare is not None:
        return spare

    # The empty placeholder never equals a recomputed aggregate, so the new
    # leaf's first recompute always propagates to its parent.
    placeholder = EntryAggregates(per_radius={}, trussness_bound=2)
    new_leaf = IndexNode(
        aggregates=placeholder, vertices=(), children=(), node_id=index.num_nodes
    )
    root = index.root
    if root.is_leaf:
        new_root = IndexNode(
            aggregates=root.aggregates,
            vertices=(),
            children=(root, new_leaf),
            node_id=index.num_nodes + 1,
        )
        parent_of[id(root)] = new_root
        parent_of[id(new_leaf)] = new_root
        index.root = new_root
        index.num_nodes += 2
    else:
        root.children = root.children + (new_leaf,)
        parent_of[id(new_leaf)] = root
        index.num_nodes += 1
    return new_leaf
