"""Service wiring of the store: build-from-path, flat open."""

from __future__ import annotations

import pytest

from repro.core.engine import InfluentialCommunityEngine
from repro.exceptions import MalformedRequestError
from repro.graph import io as graph_io
from repro.graph.social_network import SocialNetwork
from repro.query.params import make_topl_query
from repro.service.facade import CommunityService
from repro.service.schema import BuildRequest, ToplRequest


TOPL = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=3)


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
        # A store is the one persisted index; the wire has no field that
        # loads another one next to it.
        with pytest.raises(MalformedRequestError, match="index_path"):
            BuildRequest.from_json(
                {
                    "schema_version": 1,
                    "session": "s",
                    "store_path": packed_store,
                    "index_path": "index.json",
                }
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
# opening a store: attach, don't rebuild
# --------------------------------------------------------------------------- #
class TestSpawnWorkerAttach:
    @pytest.fixture
    def counters(self, monkeypatch):
        """Count the two rebuild costs a store open must never pay."""
        calls = {"freeze": 0, "graph_from_dict": 0}
        original_freeze = SocialNetwork.freeze

        def counting_freeze(self):
            calls["freeze"] += 1
            return original_freeze(self)

        def counting_graph_from_dict(document):
            calls["graph_from_dict"] += 1
            raise AssertionError("opening a store deserialized a graph")

        monkeypatch.setattr(SocialNetwork, "freeze", counting_freeze)
        monkeypatch.setattr(graph_io, "graph_from_dict", counting_graph_from_dict)
        return calls

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_worker_startup_is_flat(self, packed_store, store_engine, counters, backend):
        """Opening a store and answering from it neither freezes nor parses.

        This is the flat-startup property: open cost is the mmap, not a
        function of the graph size.  Answers equal the packing engine's.
        """
        engine = InfluentialCommunityEngine.from_store(
            packed_store, config_overrides={"backend": backend}
        )
        answer = engine.topl(TOPL)
        assert counters == {"freeze": 0, "graph_from_dict": 0}
        assert engine.store_provenance()["store_backed"]
        assert _fingerprint(answer) == _fingerprint(store_engine.topl(TOPL))
