"""Service + serving wiring of the store: build-from-path, flat worker attach."""

from __future__ import annotations

import pytest

from repro.core import engine as engine_mod
from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.exceptions import MalformedRequestError
from repro.fastgraph.delta import DeltaCSR
from repro.graph.social_network import SocialNetwork
from repro.pruning.stats import PruningConfig
from repro.query.params import make_dtopl_query, make_topl_query
from repro.serve import batch as batch_mod
from repro.service.facade import CommunityService
from repro.service.schema import BuildRequest, ToplRequest


TOPL = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=3)
DTOPL = make_dtopl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=2)


def _fingerprint(result):
    return tuple(
        (community.vertices, round(community.score, 12)) for community in result
    )


# --------------------------------------------------------------------------- #
# BuildRequest validation
# --------------------------------------------------------------------------- #
class TestBuildRequestValidation:
    def test_no_source_rejected(self):
        with pytest.raises(MalformedRequestError, match="exactly one"):
            BuildRequest(session="s")

    def test_two_sources_rejected(self, packed_store):
        with pytest.raises(MalformedRequestError, match="exactly one"):
            BuildRequest(
                session="s", graph_path="graph.json", store_path=packed_store
            )

    def test_store_path_with_index_path_rejected(self, packed_store):
        with pytest.raises(MalformedRequestError, match="carries its own index"):
            BuildRequest(
                session="s", store_path=packed_store, index_path="index.json"
            )


# --------------------------------------------------------------------------- #
# facade: build a session straight from a store file
# --------------------------------------------------------------------------- #
class TestFacadeStoreBuild:
    def test_build_from_store_path(self, store_engine, packed_store):
        service = CommunityService()
        response = service.build(BuildRequest(session="cold", store_path=packed_store))
        assert response.epoch == 0
        store_block = response.engine["store"]
        assert store_block["store_backed"] is True
        assert store_block["attached"] is True
        assert store_block["residency"] == "mmap"

        served = service.topl(ToplRequest(query=TOPL, session="cold"))
        assert _fingerprint(served.communities) == _fingerprint(store_engine.topl(TOPL))

    def test_health_reports_store_provenance(self, packed_store):
        service = CommunityService()
        service.build(BuildRequest(session="cold", store_path=packed_store))
        (info,) = service.health().to_json()["sessions"]
        assert info["engine"]["store"]["store_backed"] is True
        assert info["engine"]["store"]["path"] == packed_store

    def test_backend_override_through_config(self, packed_store):
        service = CommunityService()
        response = service.build(
            BuildRequest(
                session="cold", store_path=packed_store, config={"backend": "fast"}
            )
        )
        assert response.engine["backend"] == "fast"

    def test_unknown_config_key_rejected(self, packed_store):
        service = CommunityService()
        with pytest.raises(MalformedRequestError):
            service.build(
                BuildRequest(
                    session="cold",
                    store_path=packed_store,
                    config={"warp_factor": 9},
                )
            )

    def test_missing_store_file_is_typed(self, tmp_path):
        from repro.exceptions import StoreFormatError

        service = CommunityService()
        with pytest.raises(StoreFormatError):
            service.build(
                BuildRequest(session="cold", store_path=str(tmp_path / "absent"))
            )


# --------------------------------------------------------------------------- #
# spawn workers: attach, don't rebuild
# --------------------------------------------------------------------------- #
class TestSpawnWorkerAttach:
    @pytest.fixture
    def counters(self, monkeypatch):
        """Count the two rebuild costs a store attach must never pay."""
        calls = {"freeze": 0, "graph_from_dict": 0}
        original_freeze = SocialNetwork.freeze

        def counting_freeze(self):
            calls["freeze"] += 1
            return original_freeze(self)

        def counting_graph_from_dict(document):
            calls["graph_from_dict"] += 1
            raise AssertionError("store-attached worker deserialized a graph")

        monkeypatch.setattr(SocialNetwork, "freeze", counting_freeze)
        monkeypatch.setattr(engine_mod, "graph_from_dict", counting_graph_from_dict)
        return calls

    @pytest.fixture(autouse=True)
    def reset_worker_globals(self):
        yield
        batch_mod._WORKER_PROCESSORS = None
        batch_mod._WORKER_ENGINE = None

    def test_payload_ships_only_the_store_path(self, packed_store):
        engine = InfluentialCommunityEngine.from_store(packed_store)
        payload = engine.to_payload()
        assert payload["store_path"] == packed_store
        assert "graph" not in payload and "precomputed" not in payload

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_worker_startup_is_flat(self, packed_store, counters, backend):
        """Worker start-up from a store payload neither freezes nor parses.

        This is the flat-startup property: attach cost is the mmap open, not
        a function of the graph size.  Run in-process so the counters see it.
        """
        engine = InfluentialCommunityEngine.from_store(
            packed_store, config_overrides={"backend": backend}
        )
        batch_mod._worker_init(engine.to_payload(), PruningConfig.all_enabled(), 0)
        assert counters == {"freeze": 0, "graph_from_dict": 0}
        # The worker's engine holds the store open for the worker's lifetime.
        assert batch_mod._WORKER_ENGINE.store_provenance()["store_backed"]

        position, result = batch_mod._worker_answer((0, TOPL))
        assert position == 0
        assert _fingerprint(result) == _fingerprint(engine.topl(TOPL))

    @pytest.mark.slow
    def test_spawn_batch_equals_sequential(self, packed_store):
        engine = InfluentialCommunityEngine.from_store(packed_store)
        queries = [
            make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=3),
            make_topl_query({"books"}, k=3, radius=2, theta=0.1, top_l=2),
            make_topl_query({"movies", "books"}, k=3, radius=1, theta=0.2, top_l=3),
        ]
        sequential = engine.serve(result_cache_capacity=0).run(queries)
        spawned = engine.serve(result_cache_capacity=0, start_method="spawn").run(
            queries, workers=2
        )
        assert [_fingerprint(r) for r in sequential.results] == [
            _fingerprint(r) for r in spawned.results
        ]


# --------------------------------------------------------------------------- #
# engine payload: store path when pristine, the live graph otherwise
# --------------------------------------------------------------------------- #
class TestShardedPoolAttach:
    def test_payload_and_rebuild_round_trip(self, packed_store):
        engine = InfluentialCommunityEngine.from_store(packed_store)
        payload = engine.to_payload()
        assert payload["store_path"] == packed_store
        assert "graph" not in payload

        replica = InfluentialCommunityEngine.from_payload(payload)
        assert replica.epoch == engine.epoch
        assert _fingerprint(replica.topl(TOPL)) == _fingerprint(engine.topl(TOPL))

    def test_dirty_engine_falls_back_to_serialized_payload(self, packed_store):
        engine = InfluentialCommunityEngine.from_store(packed_store)
        engine.apply_updates(
            UpdateBatch([EdgeUpdate.insert(0, 902, 0.9, 0.9, keywords_v={"movies"})]),
            damage_threshold=1.0,
        )
        payload = engine.to_payload()
        assert "store_path" not in payload
        assert "graph" in payload
        replica = InfluentialCommunityEngine.from_payload(payload)
        assert _fingerprint(replica.topl(TOPL)) == _fingerprint(engine.topl(TOPL))

    def test_overlay_engine_round_trips_bit_identically(self, store_graph_factory):
        """A fast engine mid-overlay ships its live graph; answers stay exact."""
        graph = store_graph_factory()
        u, v = next(iter(graph.edges()))
        engine = InfluentialCommunityEngine.build(
            graph, config=EngineConfig(max_radius=2, backend="fast"), validate=False
        )
        report = engine.apply_updates(
            UpdateBatch([
                EdgeUpdate.delete(u, v),
                EdgeUpdate.insert(0, 903, 0.9, 0.9, keywords_v={"movies"}),
            ]),
            damage_threshold=1.0,
        )
        assert report.mode == "incremental" and not report.compacted
        assert isinstance(engine.frozen_graph(), DeltaCSR)

        replica = InfluentialCommunityEngine.from_payload(engine.to_payload())
        assert replica.epoch == engine.epoch
        exact = lambda result: tuple((c.vertices, c.score) for c in result)  # noqa: E731
        assert exact(replica.topl(TOPL)) == exact(engine.topl(TOPL))
        ours, theirs = replica.dtopl(DTOPL), engine.dtopl(DTOPL)
        assert exact(ours) == exact(theirs)
        assert ours.diversity_score == theirs.diversity_score
