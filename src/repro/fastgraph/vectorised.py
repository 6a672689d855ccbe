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
    ends = np.cumsum(lengths)
    if ends.size == 0 or ends[-1] == 0:
        return _EMPTY_INT
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1], dtype=np.int64)


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


def _runs(lengths, limit: int) -> list:
    """Cut consecutive keys into runs whose ``lengths`` total at most ``limit``.

    Returns ``(lo, hi)`` bounds that cover every key in order.  A key whose
    own length exceeds ``limit`` gets a run of its own, so no run is empty.
    """
    ends = np.cumsum(lengths)
    if ends.size == 0 or ends[-1] <= limit:
        return [(0, lengths.size)]
    bounds = []
    lo = 0
    while lo < lengths.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + limit, "right")))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _segment_starts(slots):
    """Positions where a non-decreasing ``slots`` array starts a new value."""
    change = np.empty(slots.size, dtype=bool)
    change[:1] = True
    np.not_equal(slots[1:], slots[:-1], out=change[1:])
    return np.flatnonzero(change)


def ball_aggregates_batch(
    csr: CSRGraph,
    arcs: tuple,
    centres,
    max_radius: int,
    thresholds,
    num_bits: int,
    keyword_bits,
    arc_supports,
    work: int,
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
    whole-block operations.  BFS dedup and fixpoint frontiers use a dense
    per-key scatter plus a flat rescan, which returns keys ascending, i.e.
    slot-major; the shell fold then reduces each slot's run of a shell
    with ``reduceat`` instead of scattering per member.

    ``work`` bounds the scratch beyond the block's dense per-key arrays:
    every arc gather (BFS expansion, shell scan, fixpoint relaxation) is
    cut into runs of at most ``work`` arcs, and the score-bound assembly
    sorts at most ``work`` padded values at a time.  Runs change no result: BFS
    marks and label maxima are order-free, and a label improved by a later
    run re-enters the next frontier.

    Per slot, the computation is exactly the stdlib ``_ball_aggregates``:
    slots never interact (keys are partitioned by ``b``); the per-slot
    fixpoint gathers the arcs of every improved key, multiplies by its
    label, keeps products that clear the threshold and beat the target's
    label, scatter-maxes them and repeats until no label improves — at
    which point every label is the maximum stepwise-rounded path product
    the stdlib heap settles; per-shell keyword ORs accumulate the same bit
    masks (``uint64`` up to 64 bits, Python ints beyond); and per-threshold
    score bounds are sequential ``np.cumsum`` prefix sums along each slot's
    row of descending values — so every output int and float matches the
    scalar pass bit for bit.
    """
    from repro.index.precompute import RadiusAggregates
    from repro.keywords.bitvector import BitVector

    views = csr.as_numpy()
    n = csr.num_vertices
    num_slots = len(centres)
    num_keys = num_slots * n
    indptr = views["indptr"]
    heads = views["indices"]
    threshold = thresholds[0]
    arc_indptr, arc_heads, arc_probs, row_max = arcs
    centres = np.asarray(centres, dtype=np.int64)

    # ---- batched BFS with the support fold riding on it.  shells[d]
    # holds the keys first reached at depth d, ascending (slot-major).
    # Edge (m, w) belongs to ball_r exactly when both hop distances are
    # <= r, so scanning each shell-r member's arcs for endpoints already at
    # depth <= r sees every ball edge at the first radius that contains it.
    # Expanding shell d - 1 gathers exactly those arcs for r = d - 1, and
    # the one pass past the last depth scans shell r_max without expanding
    # it.  The centre's own arcs all end in shell 1, whose scan sees them.
    # Every shell member beyond the centre has an arc, so each slot's
    # segment of a gather is non-empty and ``reduceat`` sees no empty one.
    centre_keys = np.arange(num_slots, dtype=np.int64) * n + centres
    # An unreached key reads as one hop past the last radius, so it fails
    # every ``reached < depth`` test below.
    unseen = max_radius + 1
    dist = np.full(num_keys, unseen, dtype=np.min_scalar_type(unseen))
    dist[centre_keys] = 0
    shells = [centre_keys]
    bound_accumulator = np.zeros(num_slots, dtype=np.int64)
    bound_per_radius = []
    for depth in range(1, max_radius + 2):
        frontier = shells[depth - 1]
        vertex = frontier % n
        base = frontier - vertex
        slot = base // n
        starts = indptr[vertex]
        lengths = indptr[vertex + 1] - starts
        for lo, hi in _runs(lengths, work):
            arc_index = _concat_ranges(starts[lo:hi], lengths[lo:hi])
            keys = np.repeat(base[lo:hi], lengths[lo:hi]) + heads[arc_index]
            reached = dist[keys]
            if depth <= max_radius:
                dist[keys[reached == unseen]] = depth
            if depth > 1 and arc_index.size:
                # Supports are >= 0 and the bound starts at 0, so masking
                # arcs that leave the ball to 0 leaves every maximum as is.
                segments = _segment_starts(slot[lo:hi])
                offsets = (np.cumsum(lengths[lo:hi]) - lengths[lo:hi])[segments]
                touched = slot[lo:hi][segments]
                bound_accumulator[touched] = np.maximum(
                    bound_accumulator[touched],
                    np.maximum.reduceat(
                        np.where(reached < depth, arc_supports[arc_index], 0), offsets
                    ),
                )
        if depth > 1:
            bound_per_radius.append(bound_accumulator.tolist())
        if depth <= max_radius:
            shells.append(np.flatnonzero(dist == depth))

    # ---- shell-incremental keyword OR: each slot's run of a shell reduced
    # in one ``reduceat``, seeded with the centre's bits.
    narrow_bits = num_bits <= 64
    if narrow_bits:
        keyword_bits_np = np.asarray(keyword_bits, dtype=np.uint64)
        bits_accumulator = keyword_bits_np[centres]
    else:
        bits_accumulator = [keyword_bits[centre] for centre in centres.tolist()]
    bits_per_radius = []
    for radius in range(1, max_radius + 1):
        shell = shells[radius]
        if shell.size:
            vertex = shell % n
            slot = (shell - vertex) // n
            if narrow_bits:
                segments = _segment_starts(slot)
                bits_accumulator[slot[segments]] |= np.bitwise_or.reduceat(
                    keyword_bits_np[vertex], segments
                )
            else:
                for s, member in zip(slot.tolist(), vertex.tolist()):
                    bits_accumulator[s] |= keyword_bits[member]
        bits_per_radius.append(
            bits_accumulator.tolist() if narrow_bits else list(bits_accumulator)
        )

    # ---- chained per-radius propagation: one whole-block fixpoint per
    # radius, labels carried into the next (the incremental-seeding scheme
    # of the scalar kernel, run for every slot at once), each radius's
    # score bounds assembled as soon as its labels settle.
    best = np.zeros(num_keys, dtype=np.float64)
    in_region = np.zeros(num_keys, dtype=bool)
    improved = np.zeros(num_keys, dtype=bool)
    sums_per_radius = []
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
            if not seed_round:
                # A key whose label cannot clear the threshold through even
                # its best arc emits nothing: labels are <= 1 and IEEE
                # multiplication is monotone, so ``label * p <= label *
                # row_max < threshold`` for every arc.  Dropping those keys
                # (and then sub-threshold products, before the target
                # gather) removes the bulk of the confirmation rounds' work
                # without changing a single relaxation.
                labels = best[frontier]
                viable = labels * row_max[vertex] >= threshold
                frontier = frontier[viable]
                vertex = vertex[viable]
                labels = labels[viable]
            base = frontier - vertex
            starts = arc_indptr[vertex]
            lengths = arc_indptr[vertex + 1] - starts
            for lo, hi in _runs(lengths, work):
                arc_index = _concat_ranges(starts[lo:hi], lengths[lo:hi])
                targets = np.repeat(base[lo:hi], lengths[lo:hi]) + arc_heads[arc_index]
                if seed_round:
                    # Every seed label is exactly 1.0: products are the
                    # arc probabilities themselves (multiplying by 1.0 is
                    # exact), all >= threshold by CSR construction.
                    products = arc_probs[arc_index]
                else:
                    products = (
                        np.repeat(labels[lo:hi], lengths[lo:hi]) * arc_probs[arc_index]
                    )
                    passing = products >= threshold
                    products = products[passing]
                    targets = targets[passing]
                keep = products > best[targets]
                targets = targets[keep]
                # Scatter-max per target key (same floats as any per-group
                # max); the rescan below collects the next frontier.
                improved[targets] = True
                np.maximum.at(best, targets, products[keep])
            seed_round = False
            frontier = np.flatnonzero(improved)
            improved[frontier] = False
            in_region[frontier] = True
        settled = np.flatnonzero(in_region)
        bounds = np.searchsorted(settled, np.arange(num_slots + 1, dtype=np.int64) * n)
        sums_per_radius.append(_score_sums(best[settled], bounds, thresholds, work))

    results = []
    for slot in range(num_slots):
        per_radius = {}
        for radius in range(1, max_radius + 1):
            per_radius[radius] = RadiusAggregates(
                radius=radius,
                bitvector=BitVector(bits_per_radius[radius - 1][slot], num_bits),
                support_upper_bound=bound_per_radius[radius - 1][slot],
                score_bounds=tuple(zip(thresholds, sums_per_radius[radius - 1][slot])),
            )
        results.append(per_radius)
    return results


#: Rows at least this wide are summed one at a time: their per-row numpy
#: calls (~4 us) then cost less than a padded batch's gather and scatter
#: (~10 ns per label).  On rows captured from the powerlaw-12000 and the
#: perfbench planted builds, switch points from 256 to 1024 timed alike;
#: batching every row doubled the powerlaw assembly time.
_WIDE_ROW = 512


def _score_sums(values, bounds, thresholds, work) -> list:
    """Per-slot, per-threshold score bounds over the settled labels of a block.

    ``values[bounds[s]:bounds[s + 1]]`` are slot ``s``'s labels, all
    ``>= thresholds[0]`` (the fixpoint keeps no smaller one).  Each slot's
    labels are negated and sorted ascending — descending order of the
    labels — and ``np.cumsum`` runs along them: a sequential prefix sum,
    the stdlib pass's running sum addition for addition with every sign
    flipped (exact under round-to-nearest).  The bound at ``theta`` is the
    prefix over the labels ``>= theta``.  Rows go through in order of
    width: narrow ones as the rows of zero-padded arrays of at most
    ``work`` entries whose widths differ by at most 2x, wide ones alone.
    Every slot holds its centre at label 1.0, so no row is empty
    (``reduceat`` sees no empty segment) and every count is at least 1.
    Returns one list of floats per slot.
    """
    starts = bounds[:-1]
    widths = np.diff(bounds)
    num_slots = widths.size
    counts = np.stack(
        [widths]
        + [np.add.reduceat(values >= theta, starts, dtype=np.int64) for theta in thresholds[1:]],
        axis=1,
    )
    sums = np.empty(counts.shape, dtype=np.float64)
    by_width = np.argsort(widths, kind="stable")
    sorted_widths = widths[by_width]
    lo = int(np.searchsorted(sorted_widths, _WIDE_ROW))
    for slot in by_width[lo:].tolist():
        row = -values[starts[slot] : bounds[slot + 1]]
        row.sort()
        sums[slot] = -np.cumsum(row)[counts[slot] - 1]
    narrow = lo
    lo = 0
    while lo < narrow:
        # The widest row of a batch is its last.
        padded_sizes = np.arange(1, narrow - lo + 1) * sorted_widths[lo:narrow]
        hi = min(
            lo + int(np.searchsorted(padded_sizes, work, "right")),
            int(np.searchsorted(sorted_widths[:narrow], 2 * sorted_widths[lo], "right")),
        )
        hi = max(hi, lo + 1)
        slots = by_width[lo:hi]
        slot_widths = widths[slots]
        width = int(slot_widths[-1])
        index = _concat_ranges(starts[slots], slot_widths)
        padded = np.zeros((hi - lo, width), dtype=np.float64)
        padded.ravel()[
            index + np.repeat(np.arange(hi - lo) * width - starts[slots], slot_widths)
        ] = -values[index]
        padded.sort(axis=1)
        running = np.cumsum(padded, axis=1)
        sums[slots] = -np.take_along_axis(running, counts[slots] - 1, axis=1)
        lo = hi
    return sums.tolist()
