"""The vectorised offline pass: numpy array programs over the zero-copy CSR views.

numpy measurably wins in one place only: Algorithm 2's offline pass, where
every centre needs a hop ball, its keyword and support aggregates and its
score bounds.  So the vector tier is exactly that pass — every online kernel
(queries, refreshes, peels) runs the one stdlib implementation in
:class:`~repro.fastgraph.kernels.CSRWorkspace`.  Both functions read
``CSRGraph.as_numpy()`` — the same buffers (store-backed engines hand
mmap-backed memoryviews straight to ``np.frombuffer``, so the kernels read
directly off the arena):

* :func:`edge_supports_vector` — triangle counting by oriented wedge
  enumeration + sorted-key arc lookup (one ``bincount`` scatter-add);
* :func:`ball_aggregates_batch` — Algorithm 2's per-centre bodies for a
  block of centres at once: batched BFS, shell-incremental keyword OR and
  support maxima, and a chained per-radius max-product fixpoint.

Why the outputs are *bit-identical* to the stdlib pass, not merely close:

* supports are integer graph invariants — any triangle enumeration order
  produces the same ints;
* a BFS ball is a set per depth, and the aggregations over it are
  OR/max/set-shaped, so the visit order within one depth is unobservable;
* max-product labels are the maximum over stepwise-rounded path products,
  and IEEE multiplication by a probability in ``(0, 1]`` is monotone — so
  the frontier fixpoint converges to exactly the floats the truncated
  Dijkstra settles, and threshold truncation prunes the same paths
  (stepwise products are non-increasing along a path).  Sums over the
  results stay in the unique descending order of the value multiset
  (``np.cumsum`` accumulates sequentially, matching the stdlib running
  sum addition for addition).
"""

from __future__ import annotations

import numpy as np

from repro.fastgraph.csr import CSRGraph

_EMPTY_INT = np.empty(0, dtype=np.int64)


def _concat_ranges(starts, lengths):
    """Concatenate ``range(starts[i], starts[i] + lengths[i])`` for all ``i``."""
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY_INT
    offsets = np.arange(total, dtype=np.int64)
    offsets -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + offsets


# --------------------------------------------------------------------------- #
# whole-graph kernels
# --------------------------------------------------------------------------- #
def edge_supports_vector(csr: CSRGraph):
    """``sup(e)`` per undirected edge id of ``csr`` as an int64 ndarray.

    Orient every edge from its lower- to its higher- ``(degree, id)``
    endpoint (the classic wedge-count bound), enumerate all oriented
    2-paths ``u -> v -> w``, and close each against the sorted oriented
    arc keys: every triangle is found exactly once (its vertices are
    totally ordered by the orientation), then scatter-added into the
    supports of all three edges with one ``bincount``.  Identical ints to
    :func:`~repro.fastgraph.kernels.edge_supports_csr`.
    """
    views = csr.as_numpy()
    indptr = views["indptr"]
    heads = views["indices"]
    arc_edge = views["arc_edge"]
    n = csr.num_vertices
    m = csr.num_edges
    if m == 0 or n == 0:
        return np.zeros(m, dtype=np.int64)

    degree = np.diff(indptr)
    orient_rank = degree * n + np.arange(n, dtype=np.int64)
    tails = np.repeat(np.arange(n, dtype=np.int64), degree)
    forward = orient_rank[tails] < orient_rank[heads]
    f_tail = tails[forward]
    f_head = heads[forward]
    f_edge = arc_edge[forward]

    # Forward-arc CSR, sorted by (tail, head); keys are unique (simple graph).
    key = f_tail * n + f_head
    by_key = np.argsort(key)
    f_tail = f_tail[by_key]
    f_head = f_head[by_key]
    f_edge = f_edge[by_key]
    f_key = key[by_key]
    f_degree = np.bincount(f_tail, minlength=n)
    f_indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(f_degree)))

    # All oriented 2-paths u -> v -> w: pair each forward arc with the
    # forward arcs of its head.
    second_counts = f_degree[f_head]
    first = np.repeat(np.arange(len(f_tail), dtype=np.int64), second_counts)
    second = _concat_ranges(f_indptr[f_head], second_counts)
    if first.size == 0:
        return np.zeros(m, dtype=np.int64)
    close_key = f_tail[first] * n + f_head[second]
    position = np.searchsorted(f_key, close_key)
    clipped = np.minimum(position, len(f_key) - 1)
    closed = f_key[clipped] == close_key
    triangle_edges = np.concatenate(
        (f_edge[first[closed]], f_edge[second[closed]], f_edge[clipped[closed]])
    )
    return np.bincount(triangle_edges, minlength=m).astype(np.int64)


def _thresholded_arcs(csr: CSRGraph, threshold: float) -> tuple:
    """The positive-probability arc CSR restricted to arcs with ``p >= threshold``.

    Labels never exceed 1, so a product through an arc with
    ``p < threshold`` is below the threshold no matter the label — and an
    arc with ``p == 0`` can never contribute (the stdlib kernels drop it
    from ``ranked_arcs``) — so dropping those arcs up front changes no
    relaxation outcome.  Returns ``(indptr, heads, probs, row_max)``, where
    ``row_max`` is the per-row maximum kept probability (0.0 for empty
    rows); the batched fixpoint uses it to discard frontier keys whose label
    cannot reach the threshold through any arc.
    """
    views = csr.as_numpy()
    n = csr.num_vertices
    prob_out = views["prob_out"]
    keep = (prob_out > 0.0) & (prob_out >= threshold)
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(views["indptr"]))
    kept_tails = tails[keep]
    kept_probs = prob_out[keep]
    counts = np.bincount(kept_tails, minlength=n)
    row_max = np.zeros(n, dtype=np.float64)
    np.maximum.at(row_max, kept_tails, kept_probs)
    return (
        np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts))),
        views["indices"][keep],
        kept_probs,
        row_max,
    )


def ball_aggregates_batch(
    csr: CSRGraph,
    arcs: tuple,
    centres,
    max_radius: int,
    thresholds,
    num_bits: int,
    keyword_bits,
    supports,
):
    """Algorithm 2 bodies for a *block* of centres, as one array program.

    Returns a list of ``{radius: RadiusAggregates}`` dicts aligned with
    ``centres``.  ``arcs`` is :func:`_thresholded_arcs` at ``thresholds[0]``
    (ascending thresholds: truncate at the minimum), computed once per
    build and shared by every block.  Per-centre kernels cost too much
    numpy dispatch when balls are a few dozen vertices, so the offline pass
    batches across centres instead: centre ``b`` works on flat keys
    ``b * n + vertex``, which keeps every slot's state disjoint while BFS,
    shell scans and the propagation fixpoint each run as a handful of
    whole-block operations.  Frontier compaction and per-target maxima use
    scatter + rescan (``np.maximum.at`` and flat masks) rather than sorting
    — an order of magnitude cheaper at these sizes.

    Per slot, the computation is exactly the stdlib ``_ball_aggregates``:
    slots never interact (keys are partitioned by ``b``); the per-slot
    fixpoint gathers the arcs of every improved key, multiplies by its
    label, keeps products that clear the threshold and beat the target's
    label, scatter-maxes them and repeats until no label improves — at
    which point every label is the maximum stepwise-rounded path product
    the stdlib heap settles; per-shell keyword ORs accumulate the same bit
    masks; and per-threshold score bounds are sequential ``np.cumsum``
    prefix sums over the unique descending ordering of each slot's value
    multiset — so every output int and float matches the scalar pass bit
    for bit.
    """
    from repro.index.precompute import RadiusAggregates
    from repro.keywords.bitvector import BitVector

    views = csr.as_numpy()
    n = csr.num_vertices
    num_slots = len(centres)
    num_keys = num_slots * n
    indptr = views["indptr"]
    heads = views["indices"]
    arc_edge = views["arc_edge"]
    threshold = thresholds[0]
    arc_indptr, arc_heads, arc_probs, row_max = arcs

    # ---- batched BFS: shells[d] holds the keys first reached at depth d.
    # Frontier dedup is a scatter into ``dist`` plus a flat rescan; the
    # rescan returns keys ascending, i.e. slot-major per-depth shells.
    centre_keys = (
        np.arange(num_slots, dtype=np.int64) * n
        + np.asarray(centres, dtype=np.int64)
    )
    dist = np.full(num_keys, -1, dtype=np.int8)
    dist[centre_keys] = 0
    shells = [centre_keys]
    frontier = centre_keys
    for depth in range(1, max_radius + 1):
        vertex = frontier % n
        base = frontier - vertex
        starts = indptr[vertex]
        lengths = indptr[vertex + 1] - starts
        neighbour_keys = np.repeat(base, lengths) + heads[_concat_ranges(starts, lengths)]
        neighbour_keys = neighbour_keys[dist[neighbour_keys] < 0]
        if neighbour_keys.size == 0:
            shells.extend([_EMPTY_INT] * (max_radius - depth + 1))
            break
        dist[neighbour_keys] = depth
        frontier = np.flatnonzero(dist == depth)
        shells.append(frontier)

    # ---- shell-incremental keyword OR and support upper bound (batched
    # per-slot maxima).  Bit vectors that fit an int64 OR-scatter in one
    # pass; wider ones accumulate in Python ints.
    bound_accumulator = np.zeros(num_slots, dtype=np.int64)
    bits_per_radius = []
    bound_per_radius = []
    narrow_bits = num_bits < 64
    if narrow_bits:
        keyword_bits_np = np.asarray(keyword_bits, dtype=np.int64)
        bits_accumulator = np.zeros(num_slots, dtype=np.int64)
    else:
        bits_accumulator = [0] * num_slots
    for radius in range(1, max_radius + 1):
        shell = shells[radius]
        if radius == 1:  # the centre itself folds in at radius 1
            shell = np.concatenate((shells[0], shell))
        if shell.size:
            vertex = shell % n
            base = shell - vertex
            slot = base // n
            if narrow_bits:
                np.bitwise_or.at(bits_accumulator, slot, keyword_bits_np[vertex])
            else:
                for s, member in zip(slot.tolist(), vertex.tolist()):
                    bits_accumulator[s] |= keyword_bits[member]
            # Edge (m, w) belongs to ball_r exactly when both hop
            # distances are <= r; scanning each new member's arcs against
            # already-distanced endpoints sees every ball edge at the
            # first radius that contains it.
            starts = indptr[vertex]
            lengths = indptr[vertex + 1] - starts
            arc_index = _concat_ranges(starts, lengths)
            arc_base = np.repeat(base, lengths)
            endpoint_depth = dist[arc_base + heads[arc_index]]
            inside = (endpoint_depth >= 0) & (endpoint_depth <= radius)
            if inside.any():
                np.maximum.at(
                    bound_accumulator,
                    np.repeat(slot, lengths)[inside],
                    supports[arc_edge[arc_index[inside]]],
                )
        if narrow_bits:
            bits_per_radius.append(bits_accumulator.tolist())
        else:
            bits_per_radius.append(list(bits_accumulator))
        bound_per_radius.append(bound_accumulator.copy())

    # ---- chained per-radius propagation: one whole-block fixpoint per
    # radius, labels carried into the next (the incremental-seeding scheme
    # of the scalar kernel, run for every slot at once).
    best = np.zeros(num_keys, dtype=np.float64)
    in_region = np.zeros(num_keys, dtype=bool)
    improved = np.zeros(num_keys, dtype=bool)
    values_per_radius = []
    for radius in range(1, max_radius + 1):
        seeds = shells[radius]
        if radius == 1:
            seeds = np.concatenate((shells[0], seeds))
        seeds = seeds[best[seeds] < 1.0]
        in_region[seeds] = True
        best[seeds] = 1.0
        frontier = seeds
        seed_round = True
        while frontier.size:
            vertex = frontier % n
            if seed_round:
                # Every frontier label is exactly 1.0: products are the
                # arc probabilities themselves (multiplying by 1.0 is
                # exact), all >= threshold by CSR construction.
                seed_round = False
                starts = arc_indptr[vertex]
                lengths = arc_indptr[vertex + 1] - starts
                arc_index = _concat_ranges(starts, lengths)
                if arc_index.size == 0:
                    break
                targets = (
                    np.repeat(frontier - vertex, lengths) + arc_heads[arc_index]
                )
                products = arc_probs[arc_index]
                keep = products > best[targets]
            else:
                # A key whose label cannot clear the threshold through even
                # its best arc emits nothing: labels are <= 1 and IEEE
                # multiplication is monotone, so ``label * p <= label *
                # row_max < threshold`` for every arc.  Dropping those keys
                # (and then sub-threshold products, before the expensive
                # target gather) removes the bulk of the confirmation
                # rounds' work without changing a single relaxation.
                labels = best[frontier]
                viable = labels * row_max[vertex] >= threshold
                frontier = frontier[viable]
                if frontier.size == 0:
                    break
                vertex = vertex[viable]
                labels = labels[viable]
                starts = arc_indptr[vertex]
                lengths = arc_indptr[vertex + 1] - starts
                arc_index = _concat_ranges(starts, lengths)
                if arc_index.size == 0:
                    break
                products = np.repeat(labels, lengths) * arc_probs[arc_index]
                passing = products >= threshold
                products = products[passing]
                if products.size == 0:
                    break
                targets = (
                    np.repeat(frontier - vertex, lengths) + arc_heads[arc_index]
                )[passing]
                keep = products > best[targets]
            targets = targets[keep]
            if targets.size == 0:
                break
            products = products[keep]
            # Scatter-max per target key (same floats as any per-group
            # max), then rescan the touched mask for the next frontier.
            improved[targets] = True
            np.maximum.at(best, targets, products)
            in_region[targets] = True
            frontier = np.flatnonzero(improved)
            improved[frontier] = False
        # Snapshot per-slot settled values; ``flatnonzero`` keys ascend,
        # so the block is already slot-major and each slot's multiset is
        # sorted descending in the assembly below.
        settled = np.flatnonzero(in_region)
        boundaries = np.searchsorted(
            settled, np.arange(num_slots + 1, dtype=np.int64) * n
        )
        values_per_radius.append((best[settled], boundaries))

    # ---- per-centre assembly: prefix-sum score bounds per threshold.
    thresholds_np = np.asarray(thresholds, dtype=np.float64)
    num_thresholds = len(thresholds)
    empty_sums = [0.0] * num_thresholds
    results = []
    for slot in range(num_slots):
        per_radius = {}
        for radius in range(1, max_radius + 1):
            all_values, boundaries = values_per_radius[radius - 1]
            values = all_values[boundaries[slot] : boundaries[slot + 1]]
            if values.size:
                ascending = np.sort(values)
                descending = ascending[::-1]
                running = np.cumsum(descending)
                sums = [
                    float(running[count - 1]) if count else 0.0
                    for count in (
                        values.size
                        - np.searchsorted(ascending, thresholds_np, "left")
                    ).tolist()
                ]
            else:
                sums = empty_sums
            per_radius[radius] = RadiusAggregates(
                radius=radius,
                bitvector=BitVector(bits_per_radius[radius - 1][slot], num_bits),
                support_upper_bound=int(bound_per_radius[radius - 1][slot]),
                score_bounds=tuple(zip(thresholds, sums)),
            )
        results.append(per_radius)
    return results
