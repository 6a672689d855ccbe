"""High-level engine: the library's main entry point.

:class:`InfluentialCommunityEngine` wraps the two-phase framework of the
paper (Algorithm 1): build it once over a social network — running the
offline pre-computation and constructing the tree index — then answer any
number of online TopL-ICDE and DTopL-ICDE queries against it.

Example
-------
>>> from repro import InfluentialCommunityEngine, datasets, make_topl_query
>>> graph = datasets.uni(num_vertices=500, rng=1)
>>> engine = InfluentialCommunityEngine.build(graph)
>>> query = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)
>>> result = engine.topl(query)
>>> [round(c.score, 2) for c in result]            # doctest: +SKIP
[41.87, 39.02, 36.55]
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.config import EngineConfig
from repro.exceptions import QueryParameterError, StaleGraphViewError
from repro.dynamic.maintenance import (
    UpdateReport,
    affected_centers,
    refresh_vertex_aggregates,
)
from repro.dynamic.truss_maintenance import IncrementalTrussState
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.fastgraph.csr import freeze
from repro.fastgraph.delta import DeltaCSR
from repro.graph.social_network import LazySocialNetwork, SocialNetwork
from repro.graph.validation import validate_graph
from repro.index.patch import patch_tree_index
from repro.index.precompute import precompute
from repro.index.tree import TreeIndex, build_tree_index
from repro.pruning.stats import PruningConfig
from repro.query.dtopl import DTopLProcessor
from repro.query.params import DTopLQuery, TopLQuery
from repro.query.results import DTopLResult, TopLResult
from repro.query.topl import TopLProcessor


class _EpochSnapshot:
    """The source a fast engine's lazy :attr:`~InfluentialCommunityEngine.graph`
    thaws: the snapshot of one epoch (the overlay mutates in place, so later
    epochs refuse)."""

    __slots__ = ("_engine", "_epoch", "name")

    def __init__(self, engine: "InfluentialCommunityEngine") -> None:
        self._engine = engine
        self._epoch = engine.epoch
        self.name = engine.graph_summary()["name"]

    def _current(self) -> "InfluentialCommunityEngine":
        engine = self._engine
        if engine.epoch != self._epoch:
            raise StaleGraphViewError(
                f"this graph view shows epoch {self._epoch} and was first read at "
                f"epoch {engine.epoch}; read engine.graph again"
            )
        return engine

    @property
    def num_vertices(self) -> int:
        return self._current().graph_summary()["num_vertices"]

    def thaw(self) -> SocialNetwork:
        return self._current().csr_snapshot().thaw()


class InfluentialCommunityEngine:
    """Offline pre-computation + online query answering in one object."""

    def __init__(
        self,
        graph: SocialNetwork,
        index: TreeIndex,
        config: EngineConfig,
    ) -> None:
        #: The graph :attr:`graph` hands out, and the epoch it shows.
        self._graph = graph
        self._graph_epoch = 0
        self.index = index
        self.config = config
        #: Bumped by every effective :meth:`apply_updates`; serving layers tag
        #: their cache keys with it so pre-update entries can never hit.
        self.epoch = 0
        self._truss_state: Optional[IncrementalTrussState] = None
        #: The fast refresh's per-vertex rows (``upp`` rows, keyword bits,
        #: support arcs), kept across batches and compactions — vertex ints
        #: are stable until a rebuild, which drops it with the truss state.
        self._refresh_cache = None
        #: The ``fast`` backend's snapshot, shared by all processors this
        #: engine creates: a pure :class:`~repro.fastgraph.csr.CSRGraph`
        #: until the first dynamic update, a mutable
        #: :class:`~repro.fastgraph.delta.DeltaCSR` overlay afterwards —
        #: incremental updates patch it *in place* (no re-freeze); only
        #: rebuilds and compactions swap the object.  The workspace (scratch
        #: arrays over the snapshot) is shared the same way and re-synced
        #: incrementally; it is single-threaded, which is safe because every
        #: query over this engine runs sequentially.
        self._frozen = None
        self._fast_workspace = None
        #: Reference backend's dynamic view (``AdjacencyCore``): the truss
        #: state applies every edit through it to ``graph``.
        self._reference_core = None
        #: Store anchoring (see :meth:`from_store` / :meth:`checkpoint_store`):
        #: the open :class:`~repro.store.StoreHandle` (keeps the mmap pages
        #: alive), its provenance dict, and the engine epoch the store file
        #: matches (``attached`` in :meth:`store_provenance`).
        self._store_handle = None
        self._store_info: Optional[dict] = None
        self._store_epoch: Optional[int] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        graph: SocialNetwork,
        config: Optional[EngineConfig] = None,
        validate: bool = True,
    ) -> "InfluentialCommunityEngine":
        """Run the offline phase over ``graph`` and return a ready engine.

        On the ``fast`` backend, :meth:`apply_updates` edits the engine's
        array snapshot and leaves ``graph`` as it was: read :attr:`graph`
        for the current network.  The ``reference`` backend edits ``graph``
        itself.

        Parameters
        ----------
        graph:
            The social network ``G``.
        config:
            Offline-phase configuration (defaults to the paper's settings).
        validate:
            Validate structural invariants of ``graph`` first (recommended;
            disable only for graphs produced by this library's generators).
        """
        config = config or EngineConfig()
        if validate:
            validate_graph(graph, strict=True)
        frozen = graph.freeze() if config.backend == "fast" else None
        precomputed = precompute(
            graph,
            max_radius=config.max_radius,
            thresholds=config.thresholds,
            num_bits=config.num_bits,
            backend=config.backend,
            frozen=frozen,
        )
        index = build_tree_index(
            graph,
            precomputed=precomputed,
            fanout=config.fanout,
            leaf_capacity=config.leaf_capacity,
            frozen=frozen,
        )
        engine = cls(graph=graph, index=index, config=config)
        # Reuse the offline phase's snapshot for online queries; one freeze
        # per epoch, not one per phase.
        engine._frozen = frozen
        return engine

    @classmethod
    def from_store(
        cls,
        path: Union[str, Path],
        config: Optional[EngineConfig] = None,
        config_overrides: Optional[dict] = None,
        mmap: bool = True,
        verify: bool = True,
    ) -> "InfluentialCommunityEngine":
        """Open a packed store file as a ready engine — no offline phase.

        The store carries the frozen graph, the pre-computed records and the
        tree layout; opening reconstructs all of them (the CSR buffers as
        zero-copy views into the store ``mmap`` by default) and assembles the
        tree the packing engine had, so the engine answers exactly as that
        engine did, ``center`` included.  On the ``fast`` backend the store's
        CSR *is* the engine snapshot: no ``freeze()`` is ever paid.

        The dict graph (:attr:`graph`) is a
        :class:`~repro.graph.social_network.LazySocialNetwork`: it is built
        from the store's CSR the first time something reads it.  Fast-backend
        reads, updates, checkpoints and :meth:`describe` never do, so a fast
        session never builds it unless its caller reads :attr:`graph`; the
        reference backend's first read or update does, once.

        ``config`` replaces the packed :class:`EngineConfig` wholesale;
        ``config_overrides`` patches individual fields of it (e.g.
        ``{"backend": "reference"}``).  The offline-shape fields
        (``max_radius`` / ``thresholds`` / ``num_bits``) cannot be changed
        this way — they are baked into the packed records.
        """
        from repro.store import open_store

        handle = open_store(path, mmap=mmap, verify=verify)
        engine_config = handle.config if config is None else config
        if config_overrides:
            engine_config = dataclasses.replace(engine_config, **config_overrides)
        for field in ("max_radius", "thresholds", "num_bits"):
            if getattr(engine_config, field) != getattr(handle.config, field):
                raise QueryParameterError(
                    f"cannot override {field} when opening a store (packed "
                    f"{getattr(handle.config, field)!r}, requested "
                    f"{getattr(engine_config, field)!r}); re-pack instead"
                )
        engine = cls(graph=handle.graph, index=handle.index, config=engine_config)
        if engine_config.backend == "fast":
            engine._frozen = handle.csr
        engine._store_handle = handle
        engine._store_info = {
            key: handle.info[key]
            for key in ("path", "format_version", "file_size", "residency", "generation")
        }
        engine._store_epoch = engine.epoch
        return engine

    def checkpoint_store(self, path: Union[str, Path]) -> dict:
        """Write the engine's *current* state as a fresh store generation.

        Works from any state — a pristine build, a store-backed session, or
        a dirty :class:`~repro.fastgraph.delta.DeltaCSR` overlay mid-stream
        (packing compacts a copy of the overlay, see :meth:`csr_snapshot`)
        — and re-anchors the engine on the new file: it reads as
        ``attached`` again until the next effective update.  Returns the
        pack info dict.
        """
        from repro.store import pack_store

        previous = self._store_info or {}
        generation = previous.get("generation", -1) + 1
        info = pack_store(self, path, generation=generation)
        self._store_info = {
            "path": info["path"],
            "format_version": info["format_version"],
            "file_size": info["file_size"],
            # A checkpoint anchors the session to the file; the engine's own
            # buffers stay where they were (an opened store keeps its
            # residency, an in-process build has no backing file pages).
            "residency": previous.get("residency", "in-process"),
            "generation": generation,
        }
        self._store_epoch = self.epoch
        return info

    def store_provenance(self) -> dict:
        """The storage-provenance block of :meth:`describe` (always present)."""
        if self._store_info is None:
            return {"store_backed": False}
        return {
            "store_backed": True,
            **self._store_info,
            "attached": self._store_epoch == self.epoch,
        }

    # ------------------------------------------------------------------ #
    # the graph
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> SocialNetwork:
        """The social network at the current epoch.

        Reference backend: the dict graph every update mutates.  Fast
        backend: the graph the engine was built or opened with until the
        first effective update (updates never mutate it), then one
        :class:`~repro.graph.social_network.LazySocialNetwork` per epoch
        over the snapshot.  A view first read after a later update raises
        :class:`~repro.exceptions.StaleGraphViewError`.
        """
        if self.config.backend == "fast" and self._graph_epoch != self.epoch:
            self._graph = LazySocialNetwork(_EpochSnapshot(self))
            self._graph_epoch = self.epoch
        return self._graph

    def graph_summary(self) -> dict:
        """``name``, ``num_vertices`` and ``num_edges`` of the current graph,
        read off the fast snapshot when there is one (no dict graph built)."""
        core = self._frozen if self.config.backend == "fast" else None
        if core is not None:
            name, vertices, edges = core.name, core.num_vertices, core.num_edges
        else:
            graph = self._graph
            name, vertices, edges = graph.name, graph.num_vertices(), graph.num_edges()
        return {"name": name, "num_vertices": vertices, "num_edges": edges}

    def csr_snapshot(self):
        """The current graph as a pure :class:`~repro.fastgraph.csr.CSRGraph`:
        the fast snapshot (an overlay compacted into a copy) or a freeze of
        the reference dict graph."""
        snapshot = self.frozen_graph()
        if snapshot is None:
            return freeze(self._graph)
        return snapshot.compact() if isinstance(snapshot, DeltaCSR) else snapshot

    # ------------------------------------------------------------------ #
    # online queries
    # ------------------------------------------------------------------ #
    def topl(
        self,
        query: TopLQuery,
        pruning: Optional[PruningConfig] = None,
    ) -> TopLResult:
        """Answer a TopL-ICDE query (Definition 4, Algorithm 3).

        ``pruning=None`` applies the full pruning stack; the configuration is
        constructed per call so no state is shared between unrelated queries.
        """
        processor = TopLProcessor(
            self.graph,
            index=self.index,
            pruning=pruning,
            backend=self.config.backend,
            workspace=self._workspace(),
        )
        return processor.query(query)

    def dtopl(
        self,
        query: DTopLQuery,
        pruning: Optional[PruningConfig] = None,
    ) -> DTopLResult:
        """Answer a DTopL-ICDE query (Definition 5, Algorithm 4)."""
        processor = DTopLProcessor(
            self.graph,
            index=self.index,
            pruning=pruning,
            backend=self.config.backend,
            workspace=self._workspace(),
        )
        return processor.query(query)

    def frozen_graph(self):
        """The engine's fast-core snapshot when the ``fast`` backend is active.

        Returns ``None`` on the reference backend.  The snapshot is built
        lazily and reused by every processor; after dynamic updates it is a
        :class:`~repro.fastgraph.delta.DeltaCSR` overlay patched in place —
        queries keep running against it with no re-freeze.
        """
        if self.config.backend != "fast":
            return None
        if self._frozen is None:
            self._frozen = self._graph.freeze()
        return self._frozen

    def _workspace(self):
        """Shared kernel scratch space over :meth:`frozen_graph` (fast only).

        Re-synced incrementally against the snapshot's mutation log; rebuilt
        only when the snapshot object itself was swapped (rebuild or
        compaction).
        """
        if self.config.backend != "fast":
            return None
        core = self.frozen_graph()
        workspace = self._fast_workspace
        if workspace is None or workspace.core is not core:
            from repro.fastgraph.kernels import CSRWorkspace

            workspace = CSRWorkspace(core)
            self._fast_workspace = workspace
        else:
            workspace.sync()
        return workspace

    def _dynamic_core(self):
        """The live :class:`~repro.graph.core.GraphCore` the dynamic layer runs over.

        Fast backend: the engine's snapshot, wrapped into a mutable
        :class:`~repro.fastgraph.delta.DeltaCSR` overlay on first use (the
        current workspace carries over — a pristine overlay has the same
        arcs).  Reference backend: a cached
        :class:`~repro.graph.core.AdjacencyCore` view.  Either way the truss
        state is re-bound when the core object changes.
        """
        if self.config.backend == "fast":
            frozen = self.frozen_graph()
            if not isinstance(frozen, DeltaCSR):
                frozen = DeltaCSR(frozen)
                workspace = self._fast_workspace
                if workspace is not None and workspace.core is self._frozen:
                    workspace.rebind(frozen)
                self._frozen = frozen
                if self._truss_state is not None:
                    self._truss_state.rebind_core(frozen)
            return frozen
        if self._reference_core is None:
            from repro.graph.core import AdjacencyCore

            self._reference_core = AdjacencyCore(self._graph)
            if self._truss_state is not None:
                self._truss_state.rebind_core(self._reference_core)
        return self._reference_core

    def overlay_dirt_ratio(self) -> float:
        """Dirt ratio of the snapshot overlay (0.0 when pure or reference)."""
        dirt_ratio = getattr(self._frozen, "dirt_ratio", None)
        return dirt_ratio() if dirt_ratio is not None else 0.0

    # ------------------------------------------------------------------ #
    # dynamic updates
    # ------------------------------------------------------------------ #
    def apply_updates(
        self,
        batch: Union[UpdateBatch, Iterable[EdgeUpdate]],
        damage_threshold: Optional[float] = None,
        rebuild: bool = False,
    ) -> UpdateReport:
        """Apply an edge edit script and bring the index back in sync.

        The batch is validated up front (all-or-nothing), applied to the live
        graph with incremental support/trussness maintenance, and then the
        pre-computed records of the *affected* centre vertices — those whose
        hop balls, support bounds or influence propagation the edits can
        reach — are recomputed and patched into the tree.  When the affected
        fraction exceeds the damage threshold (or ``rebuild=True``) the
        offline phase is re-run instead, which is cheaper past that point.

        Either way the engine's :attr:`epoch` is bumped, which invalidates
        every cache a :class:`~repro.serve.batch.BatchQueryEngine` holds over
        this engine.

        Parameters
        ----------
        batch:
            An :class:`~repro.dynamic.updates.UpdateBatch` (or any iterable
            of :class:`~repro.dynamic.updates.EdgeUpdate`).
        damage_threshold:
            Overrides ``config.damage_threshold`` for this call (same
            ``(0, 1]`` domain).
        rebuild:
            Force the full-rebuild path regardless of damage.  This skips
            the incremental bookkeeping entirely (it would be discarded), so
            the report's edge-change counters are 0 and its damage ratio 1.0.

        Returns
        -------
        UpdateReport
            What happened: mode, affected counts, damage ratio, timings.
        """
        if not isinstance(batch, UpdateBatch):
            batch = UpdateBatch(batch)
        threshold = (
            self.config.damage_threshold if damage_threshold is None else damage_threshold
        )
        if not 0.0 < threshold <= 1.0:
            # Same domain EngineConfig enforces for the persistent knob.
            raise QueryParameterError(
                f"damage_threshold must be in (0, 1], got {threshold}"
            )
        started = time.perf_counter()
        if len(batch) == 0:
            return UpdateReport(
                mode="noop", insertions=0, deletions=0, new_vertices=0,
                affected_vertices=0, total_vertices=self.graph_summary()["num_vertices"],
                support_changed_edges=0, truss_changed_edges=0,
                damage_ratio=0.0, damage_threshold=threshold, epoch=self.epoch,
                elapsed_seconds=time.perf_counter() - started,
                overlay_dirt_ratio=self.overlay_dirt_ratio(),
            )

        # The one graph an update mutates: the fast snapshot's overlay, or
        # the reference view that applies each edit to the dict graph.
        core = self._dynamic_core()
        if rebuild:
            # A forced rebuild discards all incremental bookkeeping, so skip
            # it: apply the batch to the core and re-run the offline phase.
            batch.validate_against(core)
            new_vertices = batch.apply_to(core)
            self._reset_dynamic_state()
            self._rebuild_offline()
            self.epoch += 1
            total = self.graph_summary()["num_vertices"]
            return UpdateReport(
                mode="rebuild",
                insertions=batch.num_insertions,
                deletions=batch.num_deletions,
                new_vertices=len(new_vertices),
                affected_vertices=total,
                total_vertices=total,
                support_changed_edges=0,
                truss_changed_edges=0,
                damage_ratio=1.0,
                damage_threshold=threshold,
                epoch=self.epoch,
                elapsed_seconds=time.perf_counter() - started,
            )

        state = self._truss_state
        if state is None:
            # First dynamic batch since (re)build: adopt the offline support
            # map by reference so it stays in sync, and pay one full peeling
            # to seed the trussness map.
            state = IncrementalTrussState(
                core, supports=self.index.precomputed.global_edge_support
            )
            self._truss_state = state
        # state.apply validates the whole script before mutating anything, so
        # an invalid batch raises here and leaves the engine untouched.  On
        # the fast backend the snapshot overlay is patched in place, with no
        # re-freeze.
        delta = state.apply(batch)
        if self.config.backend != "fast":
            # No workspace consumes the reference view's mutation log
            # (workspaces exist only over CSR cores); keep it from growing
            # across the lifetime of a long-lived session.
            core.mutation_log.clear()

        try:
            affected, influenced = affected_centers(
                core,
                delta,
                max_radius=self.index.max_radius,
                theta_min=min(self.index.thresholds),
            )
            total = self.graph_summary()["num_vertices"]
            ratio = len(affected) / total if total else 0.0
            dirt = 0.0
            compacted = False
            patched = 0

            if ratio > threshold:
                # The overlay tracked every edit, so the fallback folds it
                # into a pure CSR and rebuilds the offline phase over that.
                self._reset_dynamic_state()
                self._rebuild_offline()
                mode = "rebuild"
            else:
                new_vertices = list(delta.new_vertices)
                new_vertex_set = set(new_vertices)
                ordered = sorted(affected, key=repr)
                if self.config.backend == "fast":
                    from repro.fastgraph.offline import RefreshCache, fast_refresh_records

                    cache = self._refresh_cache
                    if cache is None:
                        cache = self._refresh_cache = RefreshCache()
                    cache.invalidate(core.table.index_of, influenced, delta)
                    fast_refresh_records(
                        core, self._workspace(), self.index.precomputed, ordered,
                        state.supports_by_edge_id(), state.trussness_of_vertex, cache,
                    )
                else:
                    refresh_vertex_aggregates(
                        self._graph, self.index.precomputed, ordered, state
                    )
                patched = patch_tree_index(
                    self.index,
                    changed_vertices=[v for v in ordered if v not in new_vertex_set],
                    added_vertices=new_vertices,
                )
                mode = "incremental"
                if self.config.backend == "fast":
                    dirt = core.dirt_ratio()
                    if dirt > self.config.compact_dirt_ratio:
                        self._compact_overlay(core)
                        compacted = True
        except Exception:
            # The core already carries the batch, but the records, the tree
            # and the refresh cache may not: rebuild over the core and bump
            # the epoch so no cache serves the old state.
            self._reset_dynamic_state()
            self._rebuild_offline()
            self.epoch += 1
            raise

        self.epoch += 1
        return UpdateReport(
            mode=mode,
            insertions=batch.num_insertions,
            deletions=batch.num_deletions,
            new_vertices=len(delta.new_vertices),
            affected_vertices=len(affected),
            total_vertices=total,
            support_changed_edges=len(delta.support_changed),
            truss_changed_edges=len(delta.truss_changed),
            damage_ratio=ratio,
            damage_threshold=threshold,
            epoch=self.epoch,
            elapsed_seconds=time.perf_counter() - started,
            overlay_dirt_ratio=dirt,
            compacted=compacted,
            patched_nodes=patched,
        )

    def _reset_dynamic_state(self) -> None:
        """Drop all incremental bookkeeping ahead of an offline rebuild, and
        fold the overlay (which carries every edit) into the CSR it runs over."""
        self._truss_state = None
        self._refresh_cache = None
        self._reference_core = None
        if isinstance(self._frozen, DeltaCSR):
            self._frozen = self._frozen.compact()
            self._fast_workspace = None

    def _compact_overlay(self, overlay) -> None:
        """Fold the snapshot overlay back into a pure CSR (amortized).

        Edge ids are renumbered by compaction, so the shared workspace is
        dropped (rebuilt lazily) and the truss state re-projects its id maps
        when the next update wraps a fresh overlay.
        """
        self._frozen = overlay.compact()
        self._fast_workspace = None

    def _rebuild_offline(self) -> None:
        """Re-run the offline phase over the current graph (in place); the
        fast passes read only the snapshot, never the dict graph."""
        frozen = self.frozen_graph()
        precomputed = precompute(
            self._graph,
            max_radius=self.config.max_radius,
            thresholds=self.config.thresholds,
            num_bits=self.config.num_bits,
            backend=self.config.backend,
            frozen=frozen,
        )
        self.index = build_tree_index(
            self._graph,
            precomputed=precomputed,
            fanout=self.config.fanout,
            leaf_capacity=self.config.leaf_capacity,
            frozen=frozen,
        )

    # ------------------------------------------------------------------ #
    # batch serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        result_cache_capacity: Optional[int] = None,
        propagation_cache_capacity: Optional[int] = None,
        pruning: Optional[PruningConfig] = None,
    ):
        """Return a :class:`~repro.serve.batch.BatchQueryEngine` over this engine.

        The serving engine keeps LRU caches (whole results and
        ``community_propagation`` scores) alive across batches; see
        :mod:`repro.serve.batch`.
        """
        from repro.serve.batch import (
            DEFAULT_PROPAGATION_CACHE_CAPACITY,
            DEFAULT_RESULT_CACHE_CAPACITY,
            BatchQueryEngine,
            ServingConfig,
        )

        config = ServingConfig(
            result_cache_capacity=(
                DEFAULT_RESULT_CACHE_CAPACITY
                if result_cache_capacity is None
                else result_cache_capacity
            ),
            propagation_cache_capacity=(
                DEFAULT_PROPAGATION_CACHE_CAPACITY
                if propagation_cache_capacity is None
                else propagation_cache_capacity
            ),
        )
        return BatchQueryEngine(self, config=config, pruning=pruning)

    def describe(self) -> dict:
        """Return a summary of the engine (graph size, index shape, configuration).

        Besides the graph/index/config shapes this carries the diagnostics a
        serving operator needs: the active ``backend``, the dynamic-update
        ``epoch`` (cache generation), and the ``store`` block (whether the
        session is store-backed, and the store's format version and path).
        ``repro stats`` on a store and the gateway's ``/v1/health`` both
        surface this document verbatim.
        """
        return {
            "backend": self.config.backend,
            "kernels": self._kernel_diagnostics(),
            "epoch": self.epoch,
            "graph": self.graph_summary(),
            "index": self.index.describe(),
            "dynamic": self._dynamic_diagnostics(),
            "config": self.config.describe(),
            "store": self.store_provenance(),
        }

    def _dynamic_diagnostics(self) -> dict:
        """The ``dynamic`` block of :meth:`describe`: the refresh cache's size.

        ``upp_rows`` / ``upp_entries`` count the cached single-source
        influence rows and their ``(vertex, upp)`` entries — the memory the
        fast refresh keeps between batches.  Both are ``None`` on the
        reference backend, which keeps no cache.
        """
        if self.config.backend != "fast":
            return {"upp_rows": None, "upp_entries": None}
        if self._refresh_cache is None:
            return {"upp_rows": 0, "upp_entries": 0}
        return self._refresh_cache.describe()

    def _kernel_diagnostics(self) -> dict:
        """The ``kernels`` block of :meth:`describe`.

        ``active`` is the kernel the fast backend's offline pass runs on:
        ``"vector"`` when numpy imports, ``"stdlib"`` otherwise (the
        platform decides; there is no setting).  It is ``None`` on the
        reference backend, which has one implementation.
        """
        from repro.fastgraph import offline
        from repro.fastgraph.csr import NUMPY_VERSION

        if self.config.backend != "fast":
            active = None
        else:
            active = "vector" if offline.NUMPY_AVAILABLE else "stdlib"
        return {"active": active, "numpy_version": NUMPY_VERSION}
