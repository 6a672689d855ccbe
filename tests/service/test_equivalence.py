"""Service-vs-direct equivalence: the acceptance gate of the API redesign.

The full query lifecycle — build, topl, dtopl, update, batch — must
round-trip **bit-identically** through `CommunityService` JSON requests vs
calling the engine directly.  Every comparison here is on *wire forms*
pushed through real JSON text (``json.dumps``/``loads``), i.e. exactly what
a remote client receives, compared with ``==`` down to every float bit.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.graph.datasets import uni
from repro.graph.io import graph_to_dict
from repro.query.params import make_dtopl_query, make_topl_query
from repro.service.facade import CommunityService
from repro.service.schema import (
    BatchRequest,
    BuildRequest,
    DToplRequest,
    ToplRequest,
    community_to_wire,
    decode_request,
    result_to_wire,
)

QUERIES = [
    make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3),
    make_topl_query({"sports"}, k=3, radius=1, theta=0.1, top_l=5),
    make_dtopl_query({"movies", "music"}, k=3, radius=2, theta=0.2, top_l=2),
    make_dtopl_query({"books"}, k=4, radius=2, theta=0.1, top_l=3, candidate_factor=2),
]


def through_the_wire(request_document: dict, endpoint: str):
    """Serialise to JSON text and decode, as the gateway would."""
    return decode_request(endpoint, json.loads(json.dumps(request_document)))


def wire(result) -> dict:
    """Canonical wire form of a typed result, through real JSON text."""
    return json.loads(json.dumps(result_to_wire(result)))


@pytest.fixture(scope="module", params=["reference", "fast"])
def lifecycle(request):
    """A direct engine and a service session over the same graph + config."""
    backend = request.param
    graph = uni(num_vertices=150, rng=11)
    config = EngineConfig(max_radius=2, backend=backend)
    direct = InfluentialCommunityEngine.build(
        uni(num_vertices=150, rng=11), config=config, validate=False
    )
    service = CommunityService()
    service.build(
        through_the_wire(
            BuildRequest(
                session="eq",
                graph=graph_to_dict(graph),
                config={"max_radius": 2, "backend": backend},
                validate=False,
            ).to_json(),
            "build",
        )
    )
    return direct, service


class TestLifecycleEquivalence:
    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_single_queries_bit_identical(self, lifecycle, query_index):
        direct, service = lifecycle
        query = QUERIES[query_index]
        if query_index >= 2:
            request = through_the_wire(
                DToplRequest(query=query, session="eq").to_json(), "dtopl"
            )
            response = service.dtopl(request)
            direct_result = direct.dtopl(query)
            assert json.loads(json.dumps(response.to_json()))["diversity_score"] == (
                direct_result.diversity_score
            )
        else:
            request = through_the_wire(
                ToplRequest(query=query, session="eq").to_json(), "topl"
            )
            response = service.topl(request)
            direct_result = direct.topl(query)
        service_communities = json.loads(
            json.dumps([community_to_wire(c) for c in response.communities])
        )
        direct_communities = json.loads(
            json.dumps([community_to_wire(c) for c in direct_result.communities])
        )
        assert service_communities == direct_communities

    def test_batch_bit_identical_to_direct_calls(self, lifecycle):
        direct, service = lifecycle
        request = through_the_wire(
            BatchRequest(session="eq", queries=tuple(QUERIES)).to_json(), "batch"
        )
        response = service.batch(request)
        direct_results = [
            direct.dtopl(q) if hasattr(q, "candidate_factor") else direct.topl(q)
            for q in QUERIES
        ]
        service_wire = [
            {k: v for k, v in json.loads(json.dumps(r)).items() if k != "statistics"}
            for r in response.results
        ]
        direct_wire = [
            {k: v for k, v in wire(r).items() if k != "statistics"}
            for r in direct_results
        ]
        # Statistics legitimately differ (the serving path shares processors
        # and propagation caches); the *answers* may not.
        assert service_wire == direct_wire

    def test_update_then_queries_bit_identical(self, lifecycle):
        direct, service = lifecycle
        script = random_update_batch(
            direct.graph, 12, rng=3, insert_ratio=0.5, focus=0, focus_radius=2
        )
        edits = [edit.as_dict() for edit in script]

        direct_report = direct.apply_updates(
            UpdateBatch(script), damage_threshold=1.0
        )
        request = through_the_wire(
            {
                "schema_version": 1,
                "session": "eq",
                "edits": edits,
                "damage_threshold": 1.0,
            },
            "update",
        )
        response = service.update(request)

        # Reports agree on everything but wall-clock.
        direct_dict = direct_report.as_dict()
        service_dict = dict(response.report)
        direct_dict.pop("elapsed_seconds")
        service_dict.pop("elapsed_seconds")
        # Epochs advance independently per engine instance but must match
        # here: both started fresh and applied the same script once.
        assert service_dict == direct_dict

        # Post-update answers remain bit-identical.
        query = QUERIES[0]
        response = service.topl(
            through_the_wire(ToplRequest(query=query, session="eq").to_json(), "topl")
        )
        direct_result = direct.topl(query)
        assert json.loads(
            json.dumps([community_to_wire(c) for c in response.communities])
        ) == json.loads(
            json.dumps([community_to_wire(c) for c in direct_result.communities])
        )


class TestResultWireCompleteness:
    def test_result_wire_round_trips_through_text(self, lifecycle):
        """A community document survives JSON text and carries the whole result."""
        direct, _ = lifecycle
        graph = direct.graph
        every_keyword = set().union(*(graph.keywords(v) for v in graph.vertices()))
        query = make_topl_query(every_keyword, k=3, radius=2, theta=0.2, top_l=3)
        result = direct.topl(query)
        assert result.communities
        for community in result.communities:
            encoded = community_to_wire(community)
            document = json.loads(json.dumps(encoded))
            # Int and str vertex ids come back as themselves.
            assert document == encoded
            # Summing cpp in wire order gives the score bit for bit.
            assert sum(value for _, value in document["cpp"]) == document["score"]
            assert document["score"] == community.score
            cpp = {vertex: value for vertex, value in document["cpp"]}
            assert cpp == community.influenced.cpp
            assert all(cpp[vertex] == 1.0 for vertex in document["vertices"])
            assert set(document["vertices"]) == community.vertices
