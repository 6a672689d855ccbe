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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import IndexStateError
from repro.graph.social_network import SocialNetwork, VertexId
from repro.index.node import IndexNode, LeafVertexEntry, make_internal, make_leaf
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
    """

    root: IndexNode | None
    precomputed: PrecomputedData
    fanout: int = DEFAULT_FANOUT
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY
    num_nodes: int = field(default=0)

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


def _locality_order(graph: SocialNetwork, ranked: list) -> list:
    """Re-order ranked leaf entries breadth-first over ``graph``.

    Each search starts at the highest-ranked entry not yet placed and
    enqueues neighbours in ranking order, so the result is a function of the
    ranking and the edge set alone.
    """
    rank = {entry.vertex: position for position, entry in enumerate(ranked)}
    placed: set = set()
    ordered: list = []
    for entry in ranked:
        if entry.vertex in placed:
            continue
        placed.add(entry.vertex)
        queue = [entry.vertex]
        for vertex in queue:
            fresh = sorted(
                (n for n in graph.neighbors(vertex) if n not in placed and n in rank),
                key=rank.__getitem__,
            )
            placed.update(fresh)
            queue.extend(fresh)
        ordered.extend(ranked[rank[vertex]] for vertex in queue)
    return ordered


def build_tree_index(
    graph: SocialNetwork,
    precomputed: PrecomputedData | None = None,
    fanout: int = DEFAULT_FANOUT,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    **precompute_kwargs,
) -> TreeIndex:
    """Build the tree index over ``graph``.

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
    """
    if fanout < 2:
        raise IndexStateError(f"fanout must be >= 2, got {fanout}")
    if leaf_capacity < 1:
        raise IndexStateError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
    if precomputed is None:
        precomputed = precompute(graph, **precompute_kwargs)

    entries = [
        LeafVertexEntry(vertex=vertex, aggregates=aggregates)
        for vertex, aggregates in precomputed.vertex_aggregates.items()
    ]
    if not entries:
        return TreeIndex(
            root=None,
            precomputed=precomputed,
            fanout=fanout,
            leaf_capacity=leaf_capacity,
            num_nodes=0,
        )

    entries.sort(
        key=lambda entry: _ranking_key(entry.aggregates, precomputed.max_radius),
        reverse=True,
    )
    entries = _locality_order(graph, entries)

    next_node_id = 0
    leaves: list[IndexNode] = []
    for start in range(0, len(entries), leaf_capacity):
        chunk = entries[start:start + leaf_capacity]
        leaves.append(make_leaf(chunk, node_id=next_node_id))
        next_node_id += 1

    level = leaves
    while len(level) > 1:
        next_level: list[IndexNode] = []
        for start in range(0, len(level), fanout):
            chunk = level[start:start + fanout]
            if len(chunk) == 1:
                next_level.append(chunk[0])
            else:
                next_level.append(make_internal(chunk, node_id=next_node_id))
                next_node_id += 1
        level = next_level

    root = level[0]
    return TreeIndex(
        root=root,
        precomputed=precomputed,
        fanout=fanout,
        leaf_capacity=leaf_capacity,
        num_nodes=root.count_nodes(),
    )
