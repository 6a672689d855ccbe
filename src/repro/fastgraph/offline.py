"""Offline pre-computation (Algorithm 2) on the array backend.

:func:`fast_precompute` is the ``backend="fast"`` implementation behind
:func:`repro.index.precompute.precompute`.  It produces a
:class:`~repro.index.precompute.PrecomputedData` that is bit-for-bit
identical to the reference pass — same trussness and support ints, same
keyword bit vectors, same score-bound floats — while doing strictly less
work per centre:

* one CSR BFS to ``r_max`` per centre, shared by all radii;
* keyword signatures are OR-aggregated *incrementally* over the nested hop
  balls (only the shell new at radius ``r`` is scanned) instead of
  re-aggregating every ball from scratch;
* the support upper bound is likewise an incremental max over per-arc
  global supports (an array lookup), where the reference allocates and
  hashes a ``frozenset`` edge key per ball edge per radius;
* influence score bounds max-merge single-source ``upp`` rows over each
  nested ball (:meth:`RefreshCache.merged_values`) and sum the values in
  descending order — hence a bit-reproducible float sum.

The platform picks the kernel, not a setting.  Without numpy the build is
the incremental refresh (:func:`fast_refresh_records`) run over every
centre from an empty :class:`RefreshCache`, so build and refresh share one
record kernel.  With numpy (:data:`NUMPY_AVAILABLE`) the supports and the
per-centre bodies run as the batched array programs of
:mod:`repro.fastgraph.vectorised` instead — the same bytes, several times
faster.  The truss peel is the stdlib kernel on both.

The incremental aggregations are exact, not approximate: hop balls are
nested in the radius, OR and max are monotone, and supports are measured in
the full graph, so shell-by-shell accumulation visits every contributing
member/edge exactly once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import GraphError
from repro.fastgraph.csr import NUMPY_AVAILABLE, freeze
from repro.fastgraph.kernels import (
    CSRWorkspace,
    edge_supports_csr,
    supports_as_dict,
    truss_peel,
)
from repro.graph.social_network import SocialNetwork
from repro.keywords.bitvector import BitVector


def fast_precompute(
    graph: SocialNetwork,
    max_radius: int,
    thresholds: Sequence[float],
    num_bits: int,
    vertices: Iterable | None = None,
    frozen=None,
):
    """Run the offline pre-computation over a frozen snapshot of ``graph``.

    Parameters and result match
    :func:`repro.index.precompute.precompute`; see the module docstring for
    the equivalence argument.  Pass ``frozen`` (a ``CSRGraph`` of the same
    graph) to reuse an existing snapshot instead of freezing again.  The
    batched vector pass runs exactly when numpy imports
    (:data:`NUMPY_AVAILABLE`), the refresh kernel otherwise; both produce
    the same bytes.  Callers normally go through
    ``precompute(..., backend="fast")`` rather than calling this directly.
    """
    # Deferred import: repro.index.precompute routes its fast backend here,
    # so the result types cannot be imported at module level.
    from repro.index.precompute import PrecomputedData, VertexAggregates

    if max_radius < 1:
        raise GraphError(f"max_radius must be >= 1, got {max_radius}")
    ordered_thresholds = tuple(sorted(set(float(t) for t in thresholds)))
    if not ordered_thresholds:
        raise GraphError("at least one influence threshold is required")
    for theta in ordered_thresholds:
        if not 0.0 <= theta < 1.0:
            raise GraphError(f"influence thresholds must be in [0, 1), got {theta}")

    csr = frozen if frozen is not None else freeze(graph)
    data = PrecomputedData(
        max_radius=max_radius,
        thresholds=ordered_thresholds,
        num_bits=num_bits,
    )
    lists = (csr.indptr.tolist(), csr.indices.tolist(), csr.arc_edge.tolist())
    if NUMPY_AVAILABLE:
        from repro.fastgraph.vectorised import edge_supports_vector

        supports = edge_supports_vector(csr)
    else:
        supports = edge_supports_csr(csr, lists)
    # ``tolist()`` on both paths: Python ints from here on, so the
    # serialised index never carries numpy scalars.
    support_list = supports.tolist()
    data.global_edge_support = supports_as_dict(csr, support_list)
    _, vertex_truss = truss_peel(csr, support_list, lists)

    index_of = csr.table.index_of
    id_of = csr.table.id_of
    if not NUMPY_AVAILABLE:
        ids = map(id_of, range(csr.num_vertices)) if vertices is None else vertices
        fast_refresh_records(
            csr, CSRWorkspace(csr), data, ids, support_list,
            lambda vertex: vertex_truss[index_of(vertex)], RefreshCache(),
        )
        return data

    if vertices is None:
        centres = list(range(csr.num_vertices))
    else:
        centres = [index_of(vertex) for vertex in vertices]
    keyword_bits = [
        BitVector.from_keywords(keywords, num_bits).bits for keywords in csr.keywords
    ]
    per_radius_list = _vector_ball_aggregates(
        csr, centres, max_radius, ordered_thresholds, num_bits, keyword_bits, supports
    )
    for centre, per_radius in zip(centres, per_radius_list):
        data.vertex_aggregates[id_of(centre)] = VertexAggregates(
            vertex=id_of(centre),
            keyword_bitvector=BitVector(keyword_bits[centre], num_bits),
            per_radius=per_radius,
            center_trussness=vertex_truss[centre],
        )
    return data


#: Work bound of one batched offline block, in array entries: a block holds
#: at most this many (centre, vertex) keys, and every arc gather and
#: score-bound sort inside it takes at most this many entries, so its
#: scratch stays within a few tens of bytes per entry whatever the ball
#: sizes.  Measured ``tracemalloc`` peak of the whole vector ``precompute``
#: on the 40 x 50 planted network (2,000 vertices, r = 2, B = 64): 9 MB, down
#: from 63 MB with one 4M-key block; build kernel time is flat from 250k up,
#: and rises ~50% at 100k on the r = 3 planted-query network.
_VECTOR_BLOCK_WORK = 250_000


def _vector_ball_aggregates(
    csr, centres, max_radius, thresholds, num_bits, keyword_bits, supports
):
    """Run the batched vector Algorithm 2 over ``centres`` in blocks.

    Returns per-centre ``{radius: RadiusAggregates}`` dicts in order.
    Blocks and the runs inside them cap the scratch of
    :func:`~repro.fastgraph.vectorised.ball_aggregates_batch` at
    :data:`_VECTOR_BLOCK_WORK` entries; results are independent per centre,
    so blocking changes nothing but peak memory.  The thresholded
    relaxation CSR and the keyword bit array are built once and shared by
    every block.
    """
    import numpy as np

    from repro.fastgraph.vectorised import _thresholded_arcs, ball_aggregates_batch

    arcs = _thresholded_arcs(csr, thresholds[0])
    arc_supports = supports[csr.as_numpy()["arc_edge"]]
    if num_bits <= 64:
        keyword_bits = np.asarray(keyword_bits, dtype=np.uint64)
    block = max(1, _VECTOR_BLOCK_WORK // max(csr.num_vertices, 1))
    results = []
    for start in range(0, len(centres), block):
        results.extend(
            ball_aggregates_batch(
                csr, arcs, centres[start : start + block], max_radius,
                thresholds, num_bits, keyword_bits, arc_supports, _VECTOR_BLOCK_WORK,
            )
        )
    return results


def _ball_aggregates(
    workspace, cache, centre, max_radius, thresholds, num_bits, bits_of, support_arcs_of
):
    """The per-centre body of Algorithm 2 on the array backend.

    One BFS ball, shell-incremental OR/max aggregation, and the per-radius
    score bounds from ``cache``'s merged rows, returning
    ``{radius: RadiusAggregates}``.

    ``bits_of(vertex)`` returns the vertex's keyword bits as an int;
    ``support_arcs_of(vertex)`` its ``(edge support, neighbour)`` pairs
    sorted descending.
    """
    from repro.index.precompute import RadiusAggregates

    smallest_theta = thresholds[0]
    num_thresholds = len(thresholds)
    dist = workspace.dist
    order = workspace.bfs_ball(centre, max_radius)
    position = 0
    ball_size = len(order)
    bits = 0
    support_bound = 0
    cuts: list[int] = []
    bits_per_radius: list[int] = []
    bound_per_radius: list[int] = []
    for radius in range(1, max_radius + 1):
        # Fold in the shell new at this radius (the centre itself folds
        # in at radius 1).  Edge (m, w) belongs to ball_r exactly when
        # both hop distances are <= r, so scanning each new member's
        # arcs against already-distanced endpoints sees every ball edge
        # at the first radius that contains it.
        while position < ball_size:
            member = order[position]
            if dist[member] > radius:
                break
            bits |= bits_of(member)
            for support, endpoint in support_arcs_of(member):
                if support <= support_bound:
                    break  # descending: nothing later can improve the max
                if 0 <= dist[endpoint] <= radius:
                    support_bound = support
            position += 1
        cuts.append(position)
        bits_per_radius.append(bits)
        bound_per_radius.append(support_bound)

    value_lists = cache.merged_values(workspace, order, cuts, smallest_theta)
    per_radius: dict[int, RadiusAggregates] = {}
    for radius in range(1, max_radius + 1):
        # The values are descending — exactly the order the reference
        # pops them in — so each theta's reference sum (over all
        # cpp >= theta) is a prefix sum: one walk recovers every bound
        # with the same float additions.
        values = value_lists[radius - 1]
        sums = [0.0] * num_thresholds
        running = 0.0
        cursor = num_thresholds - 1
        for probability in values:
            while cursor >= 0 and probability < thresholds[cursor]:
                sums[cursor] = running
                cursor -= 1
            if cursor < 0:
                break
            running += probability
        while cursor >= 0:
            sums[cursor] = running
            cursor -= 1
        per_radius[radius] = RadiusAggregates(
            radius=radius,
            bitvector=BitVector(bits_per_radius[radius - 1], num_bits),
            support_upper_bound=bound_per_radius[radius - 1],
            score_bounds=tuple(zip(thresholds, sums)),
        )
    return per_radius


class RefreshCache:
    """Per-vertex rows the fast refresh keeps across update batches.

    Every score bound of a record is a sum over Eq. 4's
    ``cpp(g, w) = max_{u in g} upp(u, w)``, so a centre's propagation
    values are a max-merge of its ball members' single-source ``upp`` rows
    (:meth:`merged_values`).  A row only changes when an edit lies on one of
    its paths, so rows — and the keyword bits and sorted support arcs the
    shell fold reads — outlive the batches that cannot have changed them:

    * ``rows[v]``: every ``(w, upp(v, w))`` with ``upp >= theta_min``,
      ``w != v`` — ``propagate((v,), theta_min)[1:]``, built on first use;
    * ``keyword_bits[v]``: never stale — a vertex's keywords are set only
      when it is interned;
    * ``support_arcs[v]``: ``(edge support, neighbour)`` pairs, descending.

    :meth:`invalidate` drops what a batch may have changed.  Keys are
    vertex ints, which stay valid across a
    :meth:`~repro.fastgraph.delta.DeltaCSR.compact` (same vertex table, and
    every row is a function of the graph, not of its arc layout), so the
    engine keeps one cache until it rebuilds.  Rows hold one threshold, the
    index's ``theta_min``.
    """

    __slots__ = ("rows", "keyword_bits", "support_arcs")

    def __init__(self) -> None:
        self.rows: dict[int, tuple] = {}
        self.keyword_bits: dict[int, int] = {}
        self.support_arcs: dict[int, tuple] = {}

    def invalidate(self, index_of, influenced, delta) -> None:
        """Drop the rows the batch behind ``delta`` may have changed.

        ``influenced`` are the vertex ids ``w`` with
        ``upp(w, t) * p(t -> h) >= theta_min`` for some edited arc
        ``t -> h`` over the pre- and post-update edges (plus the edited
        endpoints), as :func:`~repro.dynamic.maintenance.affected_centers`
        returns them.  A row changes only if a path from its source with
        product ``>= theta_min`` crosses an edited arc; that path's prefix
        up to and including its first edited arc is at least as probable,
        and all of it but that arc is unedited, so the source is in
        ``influenced``.  Support arcs go for the edited
        endpoints (``delta.touched_vertices``) and the endpoints of every
        support-changed edge (``delta.support_changed``).
        """
        rows = self.rows
        for vertex in influenced:
            rows.pop(index_of(vertex), None)
        support_arcs = self.support_arcs
        for vertex in delta.touched_vertices:
            support_arcs.pop(index_of(vertex), None)
        for key in delta.support_changed:
            for vertex in key:
                support_arcs.pop(index_of(vertex), None)

    def describe(self) -> dict:
        """Size of the cached ``upp`` rows (``describe()["dynamic"]``)."""
        return {
            "upp_rows": len(self.rows),
            "upp_entries": sum(len(row) for row in self.rows.values()),
        }

    def merged_values(self, workspace, order, cuts, threshold: float) -> list:
        """Propagation value lists for a nested family of seed balls.

        ``order`` is a BFS visit order and ``cuts`` the prefix lengths that
        delimit the balls (one per radius, non-decreasing).  For each nested
        ball (``order[:cut]``) the values are ``1.0`` per member plus, per
        non-member ``w``, the max of the members' ``upp(., w)`` — merged
        shell by shell — sorted descending.  That is exactly the value
        sequence the reference
        :func:`~repro.influence.propagation.community_propagation` of the
        ball pops, float for float: a multi-source max-product label is the
        max over sources of the single-source labels (a path through another
        seed never beats starting at that seed with 1.0, and rounding is
        monotone), and the ``theta`` cut commutes with the max.  Prefix sums
        over it are therefore bit-identical to the reference score bounds.
        """
        # Build every missing row before borrowing the workspace's ``_best``
        # scratch, which ``propagate`` uses and resets.
        cached = self.rows
        rows = []
        for member in order:
            row = cached.get(member)
            if row is None:
                row = cached[member] = tuple(workspace.propagate((member,), threshold)[1:])
            rows.append(row)
        best = workspace._best
        dist = workspace.dist
        merged: list[int] = []
        out = []
        position = 0
        for radius, cut in enumerate(cuts, start=1):
            while position < cut:
                for vertex, probability in rows[position]:
                    if probability > best[vertex]:
                        if best[vertex] == 0.0:
                            merged.append(vertex)
                        best[vertex] = probability
                position += 1
            values = [
                best[vertex] for vertex in merged if not 0 <= dist[vertex] <= radius
            ]
            values.sort(reverse=True)
            out.append([1.0] * cut + values)
        for vertex in merged:
            best[vertex] = 0.0
        return out


def fast_refresh_records(
    core, workspace, data, vertices, supports_by_id, trussness_of, cache
) -> int:
    """Recompute the records of ``vertices`` in place on the fast backend.

    The per-centre loop of Algorithm 2 (one BFS, shell-incremental OR/max
    aggregation, per-radius score bounds from max-merged cached ``upp`` rows,
    :meth:`RefreshCache.merged_values`) over any graph core.  It is both the
    numpy-free offline pass (:func:`fast_precompute` runs it over every
    centre of a frozen ``CSRGraph`` with an empty cache) and the incremental
    refresh (the engine runs it over the centres a batch touched, on the
    :class:`~repro.fastgraph.delta.DeltaCSR` overlay the dynamic layer
    patches in place, with the supports and trussness the
    :class:`~repro.dynamic.truss_maintenance.IncrementalTrussState` keeps
    exact).  Because the inputs are exact and the per-centre arithmetic is
    one function, refreshed records are bit-identical to both a reference
    refresh and a full rebuild (the cross-backend dynamic suite enforces
    this).

    Parameters
    ----------
    core:
        The graph core (``CSRGraph`` or ``DeltaCSR``).
    workspace:
        A :class:`~repro.fastgraph.kernels.CSRWorkspace` over ``core``;
        synced here before use.
    data:
        The :class:`~repro.index.precompute.PrecomputedData` to fill;
        records are replaced in ``data.vertex_aggregates``.
    vertices:
        Centre vertices (original ids) whose records to compute.
    supports_by_id:
        Edge supports indexed by the core's int edge ids (a list or a dict).
    trussness_of:
        ``trussness_of(vertex id) -> int``, the centre's vertex trussness.
    cache:
        A :class:`RefreshCache`, already invalidated for the batch
        (:meth:`RefreshCache.invalidate`); read and filled here.

    Returns
    -------
    int
        Number of records computed.
    """
    from repro.index.precompute import VertexAggregates

    workspace.sync()
    workspace.ensure_entries()  # the scalar refresh sweeps the entry tuples
    num_bits = data.num_bits
    index_of = core.table.index_of
    edge_arcs = workspace.edge_arcs
    keyword_bits = cache.keyword_bits
    support_arcs = cache.support_arcs

    def bits_of(member: int) -> int:
        bits = keyword_bits.get(member)
        if bits is None:
            bits = BitVector.from_keywords(core.keywords_of(member), num_bits).bits
            keyword_bits[member] = bits
        return bits

    def support_arcs_of(member: int) -> tuple:
        # Sorted by descending support so the shell scan can stop at the
        # first entry that cannot beat the running maximum.
        arcs = support_arcs.get(member)
        if arcs is None:
            arcs = tuple(
                sorted(
                    (
                        (supports_by_id[edge_id], head)
                        for edge_id, head in edge_arcs[member]
                    ),
                    reverse=True,
                )
            )
            support_arcs[member] = arcs
        return arcs

    refreshed = 0
    for vertex_id in vertices:
        centre = index_of(vertex_id)
        per_radius = _ball_aggregates(
            workspace, cache, centre, data.max_radius, data.thresholds, num_bits,
            bits_of, support_arcs_of,
        )
        data.vertex_aggregates[vertex_id] = VertexAggregates(
            vertex=vertex_id,
            keyword_bitvector=BitVector(bits_of(centre), num_bits),
            per_radius=per_radius,
            center_trussness=trussness_of(vertex_id),
        )
        refreshed += 1
    return refreshed
