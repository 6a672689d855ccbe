"""Construction of the tree index ``I`` (Section V-B).

The builder ranks vertices by a blend of their pre-computed support and score
bounds (as described in the paper's "Index Construction" paragraph), packs
them into leaves of ``leaf_capacity`` vertices in a locality order derived
from that ranking, and then groups nodes bottom-up with fanout ``gamma``
until a single root remains.

Packing is by locality, not by the bare ranking sort.  Vertices are laid out
in breadth-first order over the graph (after Wei et al., "Speedup Graph
Processing by Graph Ordering", SIGMOD 2016): each search starts at the
highest-ranked vertex not yet packed and visits neighbours in ranking order,
so the layout depends on the records and the edge set, never on adjacency
insertion order.  A dynamic edit changes the records of centres near the
edit only, and under this packing those centres share a few leaves, so
:func:`~repro.index.patch.patch_tree_index` recomputes a few leaves and
their ancestors instead of leaves scattered over the whole tree.  On the
``sparse-churn`` benchmark network (40 planted communities of 50, 125
leaves) a 10-edit batch dirties ~20 leaves instead of ~70.  Reads there pay
a little for it: the ranking sort had grouped the few centres the index can
prune into leaves of their own, and reads now visit every leaf vertex
instead of ~98% of them.

The packing fixes the order in which queries visit centres, and with it
which centre a reported community is attributed to (its ``center``) and
which of several equal-score communities wins a tie at ``sigma_L``.  Scores
do not depend on it, vertex sets only through such ties, and both backends
build the same tree.

A build is two steps: :func:`packing_layout` computes the layout (the
preorder tree shape and the vertices in leaf order) and
:func:`assemble_tree_index` builds the nodes from it.  Persistence stores
the layout of the live tree (:func:`tree_layout`) and reopens through the
same assembler, so a tree that updates have patched away from the packing
reopens as it was, and answers as it did, ``center`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import IndexStateError
from repro.graph.social_network import SocialNetwork, VertexId
from repro.index.node import EntryAggregates, IndexNode, make_internal
from repro.index.precompute import PrecomputedData, VertexAggregates, precompute

#: Default fanout gamma of non-leaf nodes.
DEFAULT_FANOUT = 8
#: Default number of vertices per leaf node.
DEFAULT_LEAF_CAPACITY = 16


@dataclass
class TreeIndex:
    """The tree index ``I`` over a social network.

    Attributes
    ----------
    root:
        Root :class:`IndexNode` (``None`` only for empty graphs).
    precomputed:
        The offline pre-computation the index was built from; the online
        algorithm also consults it for community-level pruning.
    fanout:
        Maximum number of children per non-leaf node.
    leaf_capacity:
        Maximum number of vertices per leaf node.
    num_nodes:
        Number of nodes in the tree; node ids are unique below it.
    """

    root: IndexNode | None
    precomputed: PrecomputedData
    fanout: int = DEFAULT_FANOUT
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY
    num_nodes: int = field(default=0)
    # The vertex -> leaf and node -> parent maps of
    # :func:`~repro.index.patch.patch_tree_index`: built by the first patch,
    # kept up to date by later ones, never saved.
    _patch_maps: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def max_radius(self) -> int:
        """The largest radius the index supports."""
        return self.precomputed.max_radius

    @property
    def thresholds(self) -> tuple[float, ...]:
        """The pre-selected influence thresholds."""
        return self.precomputed.thresholds

    def height(self) -> int:
        """Height of the tree (0 for a single leaf, -1 for an empty index)."""
        if self.root is None:
            return -1
        return self.root.height()

    def num_vertices(self) -> int:
        """Number of vertices stored in the index."""
        if self.root is None:
            return 0
        return self.root.subtree_size()

    def vertex_aggregates(self, vertex: VertexId):
        """Return the pre-computed record of ``vertex``."""
        try:
            return self.precomputed.aggregates_of(vertex)
        except KeyError:
            raise IndexStateError(f"vertex {vertex!r} is not covered by the index") from None

    def validate_radius(self, radius: int) -> None:
        """Raise when a query radius exceeds the pre-computed maximum."""
        self.precomputed.validate_radius(radius)

    def describe(self) -> dict:
        """Return a summary of the index shape (used by reports and tests)."""
        return {
            "num_vertices": self.num_vertices(),
            "num_nodes": self.num_nodes,
            "height": self.height(),
            "fanout": self.fanout,
            "leaf_capacity": self.leaf_capacity,
            "max_radius": self.max_radius,
            "thresholds": list(self.thresholds),
        }


def _ranking_key(aggregates: VertexAggregates, max_radius: int) -> float:
    """Blend of the support and score bounds used to sort vertices before packing."""
    radius_aggregates = aggregates.per_radius[max_radius]
    score = radius_aggregates.score_bounds[0][1] if radius_aggregates.score_bounds else 0.0
    return (radius_aggregates.support_upper_bound + score) / 2.0


def _locality_order(neighbors, ranked: list) -> list:
    """Re-order ranked vertices breadth-first over a graph.

    ``neighbors(vertex)`` iterates a vertex's neighbours.  Each search starts
    at the highest-ranked vertex not yet placed and enqueues neighbours in
    ranking order, so the result is a function of the ranking and the edge
    set alone.
    """
    rank = {vertex: position for position, vertex in enumerate(ranked)}
    placed: set = set()
    ordered: list = []
    for start in ranked:
        if start in placed:
            continue
        placed.add(start)
        queue = [start]
        for vertex in queue:
            fresh = sorted(
                (n for n in neighbors(vertex) if n not in placed and n in rank),
                key=rank.__getitem__,
            )
            placed.update(fresh)
            queue.extend(fresh)
        ordered.extend(queue)
    return ordered


def _packed_shape(count: int, fanout: int, leaf_capacity: int) -> list:
    """The preorder shape of ``count`` vertices packed into a balanced tree.

    Leaves hold ``leaf_capacity`` vertices (the last one the rest); nodes are
    grouped bottom-up ``fanout`` at a time, a lone trailing node moving up a
    level unchanged, until a single root remains.
    """
    level = [
        [-min(leaf_capacity, count - start)] for start in range(0, count, leaf_capacity)
    ]
    while len(level) > 1:
        grouped = []
        for start in range(0, len(level), fanout):
            chunk = level[start:start + fanout]
            if len(chunk) == 1:
                grouped.append(chunk[0])
            else:
                grouped.append([len(chunk)] + [token for node in chunk for token in node])
        level = grouped
    return level[0] if level else []


def packing_layout(
    graph: SocialNetwork,
    precomputed: PrecomputedData,
    fanout: int = DEFAULT_FANOUT,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    frozen=None,
) -> tuple[list, list]:
    """The layout a fresh build packs: ``(shape, vertices)``.

    The vertices are ranked by :func:`_ranking_key` and re-ordered
    breadth-first over ``graph``, or over ``frozen`` (a
    :class:`~repro.fastgraph.csr.CSRGraph` of the same graph) when given;
    the shape is :func:`_packed_shape` over them.  See
    :func:`assemble_tree_index` for the two lists.
    """
    max_radius = precomputed.max_radius
    records = precomputed.vertex_aggregates
    ranked = sorted(
        records, key=lambda vertex: _ranking_key(records[vertex], max_radius), reverse=True
    )
    if frozen is None:
        neighbors = graph.neighbors
    else:
        index_of, id_of = frozen.table.index_of, frozen.table.id_of

        def neighbors(vertex):
            return map(id_of, frozen.neighbors(index_of(vertex)))

    vertices = _locality_order(neighbors, ranked)
    return _packed_shape(len(vertices), fanout, leaf_capacity), vertices


def tree_layout(index: TreeIndex) -> tuple[list, list]:
    """The layout of a live (possibly patched) tree: ``(shape, vertices)``.

    :func:`assemble_tree_index` over this layout and the same records
    rebuilds a tree with the same nodes, children and leaf order.
    """
    shape: list = []
    vertices: list = []
    stack = [index.root] if index.root is not None else []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            shape.append(-len(node.vertices))
            vertices.extend(node.vertices)
        else:
            shape.append(len(node.children))
            stack.extend(reversed(node.children))
    return shape, vertices


def assemble_tree_index(
    precomputed: PrecomputedData,
    shape,
    vertices,
    fanout: int = DEFAULT_FANOUT,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
) -> TreeIndex:
    """Assemble the tree a layout describes over ``precomputed``'s records.

    ``shape`` lists the nodes in preorder: a child count (>= 1) for an
    internal node, ``-(vertex count)`` (<= -1) for a leaf.  ``vertices``
    lists every record's vertex exactly once, in leaf order.  The layout
    may come from an untrusted file, so it is checked: the shape must
    describe exactly one tree and use every token, and the leaves must
    cover the records exactly.  Any failure raises
    :class:`~repro.exceptions.IndexStateError`.

    Every node aggregate is recombined from the records below it (leaves by
    :meth:`~repro.index.node.EntryAggregates.from_records`, internal nodes
    by :func:`~repro.index.node.make_internal`), which is what keeps the
    index-level pruning sound whatever the layout.  Nodes are numbered in
    preorder.  ``fanout`` and ``leaf_capacity`` are recorded, not enforced:
    a patched tree may have uneven leaves and leaves at uneven depths, and
    one saved before patches grew on the right spine may have a root wider
    than ``fanout``.
    """
    if fanout < 2:
        raise IndexStateError(f"fanout must be >= 2, got {fanout}")
    if leaf_capacity < 1:
        raise IndexStateError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
    records = precomputed.vertex_aggregates
    if len(vertices) != len(records):
        raise IndexStateError(
            f"layout lists {len(vertices)} vertices for {len(records)} records"
        )
    # The leaves hold the records' own key objects: an equal but distinct
    # int (one decoded from a file, or read off the graph's adjacency) makes
    # every record lookup of a read fall back from identity to ``==``.
    canonical = dict(zip(records, records))
    seen: set = set()
    for vertex in vertices:
        if vertex not in canonical or vertex in seen:
            raise IndexStateError(
                f"layout vertex {vertex!r} is unknown or listed twice"
            )
        seen.add(vertex)

    root = None
    cursor = 0
    # Open internal nodes: [node_id, child count, children so far].
    open_nodes: list = []
    for node_id, token in enumerate(shape):
        if root is not None:
            raise IndexStateError(
                f"layout shape has {len(shape) - node_id} tokens past the root"
            )
        if token > 0:
            open_nodes.append([node_id, token, []])
            continue
        if token == 0:
            raise IndexStateError(f"layout node {node_id} is empty")
        size = -token
        if cursor + size > len(vertices):
            raise IndexStateError(
                f"layout leaf {node_id} needs {size} vertices, {len(vertices) - cursor} left"
            )
        chunk = tuple(map(canonical.__getitem__, vertices[cursor:cursor + size]))
        node = IndexNode(
            aggregates=EntryAggregates.from_records([records[vertex] for vertex in chunk]),
            vertices=chunk,
            node_id=node_id,
        )
        cursor += size
        # Close every internal node this leaf completes; when none is left
        # open (the loop's ``else``), the last node closed is the root.
        while open_nodes:
            parent = open_nodes[-1]
            parent[2].append(node)
            if len(parent[2]) < parent[1]:
                break
            open_nodes.pop()
            node = make_internal(parent[2], node_id=parent[0])
        else:
            root = node
    if open_nodes or (root is None and shape):
        raise IndexStateError("layout shape ends before its tree is complete")
    if cursor != len(vertices):
        raise IndexStateError(
            f"layout leaves hold {cursor} of {len(vertices)} vertices"
        )
    return TreeIndex(
        root=root,
        precomputed=precomputed,
        fanout=fanout,
        leaf_capacity=leaf_capacity,
        num_nodes=len(shape),
    )


def build_tree_index(
    graph: SocialNetwork,
    precomputed: PrecomputedData | None = None,
    fanout: int = DEFAULT_FANOUT,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    frozen=None,
    **precompute_kwargs,
) -> TreeIndex:
    """Build the tree index over ``graph``.

    Computes the packing layout (:func:`packing_layout`) and assembles it
    (:func:`assemble_tree_index`).

    Parameters
    ----------
    graph:
        The social network to index.
    precomputed:
        An existing offline pre-computation; when omitted, :func:`precompute`
        is run with ``precompute_kwargs`` (``max_radius``, ``thresholds``,
        ``num_bits``).
    fanout:
        Maximum children per non-leaf node (``gamma``), at least 2.
    leaf_capacity:
        Maximum vertices per leaf, at least 1.
    frozen:
        Optional CSR snapshot of ``graph`` the packing walks instead of
        ``graph`` (the fast backend passes the one its offline pass ran on).
    """
    if fanout < 2:
        raise IndexStateError(f"fanout must be >= 2, got {fanout}")
    if leaf_capacity < 1:
        raise IndexStateError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
    if precomputed is None:
        precomputed = precompute(graph, **precompute_kwargs)
    shape, vertices = packing_layout(graph, precomputed, fanout, leaf_capacity, frozen)
    return assemble_tree_index(precomputed, shape, vertices, fanout, leaf_capacity)
