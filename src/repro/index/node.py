"""Tree-index node structures (Section V-B).

The index ``I`` is a balanced tree over the graph's vertices.  Leaf nodes hold
vertices together with their pre-computed records ``v_i.R``; non-leaf nodes
hold child entries whose aggregates are the element-wise combination of the
children:

* aggregated keyword bit vector — OR of the children's vectors;
* maximum edge-support upper bound — max of the children's bounds;
* per-threshold maximum influential score upper bound — max of the children's
  bounds per ``theta_z``.

The same :class:`EntryAggregates` structure describes both a leaf vertex and a
non-leaf entry, which keeps the pruning code uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.exceptions import GraphError
from repro.index.precompute import RadiusAggregates, VertexAggregates
from repro.keywords.bitvector import BitVector

_sigma = itemgetter(1)


@dataclass(frozen=True)
class EntryAggregates:
    """Aggregates of an index entry for every pre-computed radius.

    ``trussness_bound`` is the maximum centre-vertex trussness over every
    vertex below the entry — an entry whose bound is below the query's ``k``
    cannot contain any valid candidate centre (index-level form of the
    tightened support pruning).
    """

    per_radius: dict  # radius -> RadiusAggregates
    trussness_bound: int = 2

    @classmethod
    def from_vertex(cls, aggregates: VertexAggregates) -> "EntryAggregates":
        """Wrap the pre-computed record of a single vertex."""
        return cls(
            per_radius=dict(aggregates.per_radius),
            trussness_bound=aggregates.center_trussness,
        )

    @classmethod
    def combine(cls, entries: list["EntryAggregates"]) -> "EntryAggregates":
        """Combine child aggregates into a parent entry (OR / max / max)."""
        if not entries:
            raise ValueError("cannot combine an empty list of entries")
        return cls(
            per_radius=_combine_radii([entry.per_radius for entry in entries]),
            trussness_bound=max(entry.trussness_bound for entry in entries),
        )

    @classmethod
    def from_records(cls, records: list[VertexAggregates]) -> "EntryAggregates":
        """Combine the pre-computed records of a leaf's vertices.

        Equal to :meth:`combine` over :meth:`from_vertex` of each record,
        without copying a ``per_radius`` dict per vertex.
        """
        if not records:
            raise ValueError("cannot combine an empty list of records")
        return cls(
            per_radius=_combine_radii([record.per_radius for record in records]),
            trussness_bound=max(record.center_trussness for record in records),
        )


def _combine_radii(per_radius_maps: list[dict]) -> dict:
    """OR the bit vectors and max the bounds of each radius across entries.

    The radii and the thresholds come from the first entry; the keyword
    signatures are OR-ed as plain ints, checking that every width agrees.
    Every entry lists its score bounds at the same thresholds in the same
    order (the index's ``thresholds``), so the bounds are maxed by position,
    from a floor of 0.0.
    """
    first = per_radius_maps[0]
    combined: dict[int, RadiusAggregates] = {}
    for radius in sorted(first):
        head = first[radius]
        num_bits = head.bitvector.num_bits
        bits = 0
        support_bound = 0
        pairs: list = []
        for per_radius in per_radius_maps:
            radius_aggregates = per_radius[radius]
            vector = radius_aggregates.bitvector
            if vector.num_bits != num_bits:
                raise GraphError(
                    f"bit vectors have mismatched widths: {num_bits} vs {vector.num_bits}"
                )
            bits |= vector.bits
            if radius_aggregates.support_upper_bound > support_bound:
                support_bound = radius_aggregates.support_upper_bound
            pairs += radius_aggregates.score_bounds
        width = len(head.score_bounds)
        combined[radius] = RadiusAggregates(
            radius=radius,
            bitvector=BitVector(bits, num_bits),
            support_upper_bound=support_bound,
            score_bounds=tuple(
                (theta, max(0.0, max(map(_sigma, pairs[position::width]))))
                for position, (theta, _) in enumerate(head.score_bounds)
            ),
        )
    return combined


@dataclass
class IndexNode:
    """A node of the tree index.

    A node is a *leaf* when it holds vertices directly (``vertices`` is
    non-empty and ``children`` empty), and a *non-leaf* otherwise.  Both kinds
    carry :class:`EntryAggregates` summarising everything below them.
    """

    aggregates: EntryAggregates
    vertices: tuple = ()
    children: tuple = ()
    node_id: int = 0

    @property
    def is_leaf(self) -> bool:
        """``True`` for leaf nodes."""
        return not self.children

    def subtree_vertices(self) -> list:
        """Return every vertex stored in this subtree (used by tests/serialisation)."""
        if self.is_leaf:
            return list(self.vertices)
        collected: list = []
        for child in self.children:
            collected.extend(child.subtree_vertices())
        return collected

    def subtree_size(self) -> int:
        """Number of vertices stored in the subtree."""
        if self.is_leaf:
            return len(self.vertices)
        return sum(child.subtree_size() for child in self.children)

    def height(self) -> int:
        """Height of the subtree (leaves have height 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(child.height() for child in self.children)

    def count_nodes(self) -> int:
        """Total number of nodes in the subtree, including this one."""
        if self.is_leaf:
            return 1
        return 1 + sum(child.count_nodes() for child in self.children)


@dataclass
class LeafVertexEntry:
    """A vertex stored in a leaf node together with its pre-computed record."""

    vertex: object
    aggregates: VertexAggregates

    @property
    def entry(self) -> EntryAggregates:
        """The record wrapped as a single-vertex index entry."""
        return EntryAggregates.from_vertex(self.aggregates)


def make_internal(children: list[IndexNode], node_id: int) -> IndexNode:
    """Build a non-leaf node from child nodes."""
    aggregates = EntryAggregates.combine([child.aggregates for child in children])
    return IndexNode(
        aggregates=aggregates,
        vertices=(),
        children=tuple(children),
        node_id=node_id,
    )
