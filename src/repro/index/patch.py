"""In-place patching of a built tree index after a dynamic update.

Instead of re-packing every vertex, the patcher rebuilds only the aggregates
along the leaf-to-root paths of the vertices whose pre-computed records
changed — deepest nodes first, stopping at the first node on a path whose
aggregates come out unchanged — and appends brand-new vertices on the tree's
right spine.  How much it recomputes depends on the packing: the builder lays
leaves out breadth-first over the graph (:mod:`repro.index.tree`), so the
centres one local edit batch refreshes sit in a few leaves and the walks up
share their ancestors.

A patch costs in proportion to the leaves it changes times the tree's
height, not to the graph:

* the vertex → leaf and node → parent maps the walks need are built by one
  full-tree walk on the index's first patch and kept (in a private field of
  :class:`~repro.index.tree.TreeIndex`) and maintained by later patches; a
  patch rebuilds them only when ``index.root`` is no longer the root they
  were built for;
* new vertices fill the right-most leaf; a full one gets a new leaf sibling
  under the deepest right-spine node with fewer than ``fanout`` children,
  wrapped in new internal nodes down to the old leaf's depth, or under a new
  root when the whole spine is full.  No node grows past ``fanout``, so the
  nodes a growth batch recombines stay small however many vertices the index
  receives.

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
from repro.index.node import EntryAggregates, IndexNode
from repro.index.tree import TreeIndex


class _TreeMaps:
    """The vertex → leaf and ``id(node)`` → parent maps of one tree."""

    __slots__ = ("root", "leaf_of", "parent_of")

    def __init__(self, root: IndexNode, leaf_of: dict, parent_of: dict) -> None:
        self.root = root
        self.leaf_of = leaf_of
        self.parent_of = parent_of


def _collect_structure(index: TreeIndex) -> _TreeMaps:
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
    return _TreeMaps(index.root, leaf_of, parent_of)


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
        Number of tree nodes whose aggregates were recomputed; each node
        counts once, so it is at most the number of dirty leaves times the
        tree's height plus one.
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
        index.root = _new_node(index)
    maps = index._patch_maps
    if maps is None or maps.root is not index.root:
        maps = index._patch_maps = _collect_structure(index)
    leaf_of, parent_of = maps.leaf_of, maps.parent_of

    dirty: dict[int, IndexNode] = {}
    for vertex in changed_vertices:
        leaf = leaf_of.get(vertex)
        if leaf is None:
            raise IndexStateError(f"vertex {vertex!r} is not covered by the index")
        dirty[id(leaf)] = leaf

    if added:
        spine = _right_spine(index.root)
        for vertex in added:
            if len(spine[-1].vertices) >= index.leaf_capacity:
                spine = _grow_spine(index, maps, spine)
            leaf = spine[-1]
            leaf.vertices = leaf.vertices + (vertex,)
            leaf_of[vertex] = leaf
            dirty[id(leaf)] = leaf

    # Recompute deepest nodes first, so every node is combined once, after
    # all of its dirty children, and stop at nodes whose aggregates came out
    # unchanged: their ancestors already combine exactly these values.
    levels: dict[int, dict[int, IndexNode]] = {}
    for key, leaf in dirty.items():
        levels.setdefault(_depth(leaf, parent_of), {})[key] = leaf
    patched = 0
    for depth in range(max(levels, default=-1), -1, -1):
        for node in levels.pop(depth, {}).values():
            patched += 1
            if not _recompute_aggregates(node, records):
                continue
            parent = parent_of.get(id(node))
            if parent is not None:
                levels.setdefault(depth - 1, {})[id(parent)] = parent
    return patched


def _depth(node: IndexNode, parent_of: dict) -> int:
    """Number of edges from ``node`` up to the root."""
    depth = 0
    parent = parent_of.get(id(node))
    while parent is not None:
        depth += 1
        parent = parent_of.get(id(parent))
    return depth


def _right_spine(root: IndexNode) -> list:
    """The nodes from ``root`` down along last children to the last leaf."""
    spine = [root]
    while not spine[-1].is_leaf:
        spine.append(spine[-1].children[-1])
    return spine


def _new_node(index: TreeIndex, children: tuple = ()) -> IndexNode:
    """A new node numbered after every existing one.

    Its aggregates are the empty placeholder, which never equals a
    recomputed aggregate, so the first recompute below it always propagates
    up to it.
    """
    node = IndexNode(
        aggregates=EntryAggregates(per_radius={}, trussness_bound=2),
        vertices=(),
        children=children,
        node_id=index.num_nodes,
    )
    index.num_nodes += 1
    return node


def _grow_spine(index: TreeIndex, maps: _TreeMaps, spine: list) -> list:
    """Add an empty leaf at the end of the tree; return the new right spine.

    The leaf goes under the deepest spine node with room, inside a chain of
    new internal nodes that puts it at the depth of the full leaf ``spine``
    ends in; when every spine node is full, a new root takes the old root and
    the chain as its two children.  Only the spine's own depth is assumed,
    so trees with uneven leaf depths (or a root wider than ``fanout``,
    written by earlier versions) grow the same way.
    """
    parent_of = maps.parent_of
    attach = len(spine) - 2
    while attach >= 0 and len(spine[attach].children) >= index.fanout:
        attach -= 1
    chain = [_new_node(index)]
    for _ in range(len(spine) - attach - 2):
        chain.append(_new_node(index, children=(chain[-1],)))
        parent_of[id(chain[-2])] = chain[-1]
    top = chain[-1]
    if attach >= 0:
        parent = spine[attach]
        parent.children = parent.children + (top,)
        parent_of[id(top)] = parent
        return spine[:attach + 1] + chain[::-1]
    old_root = index.root
    index.root = maps.root = _new_node(index, children=(old_root, top))
    parent_of[id(old_root)] = parent_of[id(top)] = index.root
    return [index.root] + chain[::-1]
