"""Wire-schema tests: round trips, strictness, and error paths."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.dynamic.updates import EdgeUpdate
from repro.exceptions import (
    DynamicUpdateError,
    MalformedRequestError,
    QueryParameterError,
    UnsupportedSchemaVersionError,
)
from repro.query.params import DTopLQuery, TopLQuery, make_dtopl_query, make_topl_query
from repro.service.schema import (
    SCHEMA_VERSION,
    BatchRequest,
    BuildRequest,
    DToplRequest,
    ErrorResponse,
    ToplRequest,
    UpdateRequest,
    decode_request,
    query_from_wire,
    query_to_wire,
)
from repro.service.errors import ServiceError


def wire_round_trip(document: dict) -> dict:
    """Push a document through real JSON text, like the gateway does."""
    return json.loads(json.dumps(document))


TOPL = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)
DTOPL = make_dtopl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=2, candidate_factor=2)


class TestQueryWire:
    def test_topl_round_trip_is_lossless(self):
        restored = query_from_wire(wire_round_trip(query_to_wire(TOPL)))
        assert restored == TOPL

    def test_dtopl_round_trip_is_lossless(self):
        restored = query_from_wire(wire_round_trip(query_to_wire(DTOPL)))
        assert restored == DTOPL

    def test_unknown_type_rejected(self):
        wire = query_to_wire(TOPL)
        wire["type"] = "mystery"
        with pytest.raises(MalformedRequestError):
            query_from_wire(wire)

    def test_unknown_field_rejected(self):
        wire = query_to_wire(TOPL)
        wire["surprise"] = 1
        with pytest.raises(MalformedRequestError):
            query_from_wire(wire)

    def test_candidate_factor_only_valid_on_dtopl(self):
        wire = query_to_wire(TOPL)
        wire["candidate_factor"] = 3
        with pytest.raises(MalformedRequestError):
            query_from_wire(wire)

    def test_non_string_keywords_rejected(self):
        wire = query_to_wire(TOPL)
        wire["keywords"] = ["ok", 7]
        with pytest.raises(MalformedRequestError):
            query_from_wire(wire)

    @pytest.mark.parametrize(
        "field,value",
        [("k", 1), ("radius", 0), ("theta", 1.5), ("theta", -0.1), ("top_l", 0)],
    )
    def test_out_of_range_parameters_raise_query_parameter_error(self, field, value):
        """Domain validation is the library's own — no drift possible."""
        wire = query_to_wire(TOPL)
        wire[field] = value
        with pytest.raises(QueryParameterError):
            query_from_wire(wire)

    def test_out_of_range_candidate_factor(self):
        wire = query_to_wire(DTOPL)
        wire["candidate_factor"] = 0
        with pytest.raises(QueryParameterError):
            query_from_wire(wire)

    def test_wrong_type_k_rejected_before_domain_validation(self):
        wire = query_to_wire(TOPL)
        wire["k"] = "four"
        with pytest.raises(MalformedRequestError):
            query_from_wire(wire)

    def test_boolean_k_rejected(self):
        wire = query_to_wire(TOPL)
        wire["k"] = True
        with pytest.raises(MalformedRequestError):
            query_from_wire(wire)


class TestRequestCodecs:
    def test_build_request_round_trip(self, service_graph_doc):
        request = BuildRequest(
            session="s",
            graph=service_graph_doc,
            config={"max_radius": 2, "backend": "fast"},
            save_store_path="/tmp/x.repro-store",
            replace=True,
        )
        assert BuildRequest.from_json(wire_round_trip(request.to_json())) == request

    @pytest.mark.parametrize("removed", ["index_path", "save_index_path"])
    def test_build_request_rejects_removed_index_fields(self, service_graph_doc, removed):
        # The JSON index document is gone; a request that still names one of
        # its fields fails with a typed error naming the field, not silently.
        payload = {"schema_version": 1, "graph": service_graph_doc, removed: "x.json"}
        with pytest.raises(MalformedRequestError, match=removed):
            BuildRequest.from_json(payload)

    def test_build_request_requires_exactly_one_graph_source(self, service_graph_doc):
        with pytest.raises(MalformedRequestError):
            BuildRequest(session="s")
        with pytest.raises(MalformedRequestError):
            BuildRequest(session="s", graph=service_graph_doc, graph_path="x.json")

    def test_topl_request_round_trip(self):
        request = ToplRequest(query=TOPL, session="s", pruning={"score": False})
        assert ToplRequest.from_json(wire_round_trip(request.to_json())) == request

    def test_dtopl_request_round_trip(self):
        request = DToplRequest(query=DTOPL, session="s")
        assert DToplRequest.from_json(wire_round_trip(request.to_json())) == request

    def test_topl_request_rejects_dtopl_query_document(self):
        payload = ToplRequest(query=TOPL, session="s").to_json()
        payload["query"] = query_to_wire(DTOPL)
        with pytest.raises(MalformedRequestError):
            ToplRequest.from_json(payload)

    def test_update_request_round_trip(self):
        request = UpdateRequest(
            session="s",
            edits=(EdgeUpdate.insert(1, 2, 0.4, 0.3), EdgeUpdate.delete(1, 2)),
            damage_threshold=0.5,
        )
        assert UpdateRequest.from_json(wire_round_trip(request.to_json())) == request

    def test_update_request_malformed_edit_raises_dynamic_update_error(self):
        payload = UpdateRequest(session="s", edits=()).to_json()
        payload["edits"] = [{"op": "insert"}]  # missing endpoints
        with pytest.raises(DynamicUpdateError):
            UpdateRequest.from_json(payload)

    def test_batch_request_round_trip(self):
        request = BatchRequest(session="s", queries=(TOPL, DTOPL, TOPL), workers=2)
        restored = BatchRequest.from_json(wire_round_trip(request.to_json()))
        assert restored == request
        assert isinstance(restored.queries[1], DTopLQuery)
        assert isinstance(restored.queries[0], TopLQuery)

    def test_batch_request_rejects_bad_workers(self):
        with pytest.raises(MalformedRequestError):
            BatchRequest(session="s", queries=(TOPL,), workers=0)

    def test_pruning_validation(self):
        with pytest.raises(MalformedRequestError):
            ToplRequest(query=TOPL, session="s", pruning={"typo": True})
        with pytest.raises(MalformedRequestError):
            ToplRequest(query=TOPL, session="s", pruning={"score": "yes"})

    def test_empty_session_rejected(self):
        payload = ToplRequest(query=TOPL, session="s").to_json()
        payload["session"] = ""
        with pytest.raises(MalformedRequestError):
            ToplRequest.from_json(payload)


class TestSchemaVersionGate:
    @pytest.mark.parametrize("endpoint", ["build", "topl", "dtopl", "update", "batch"])
    def test_unknown_schema_version_rejected_everywhere(self, endpoint):
        with pytest.raises(UnsupportedSchemaVersionError):
            decode_request(endpoint, {"schema_version": SCHEMA_VERSION + 1})

    def test_missing_schema_version_rejected(self):
        payload = ToplRequest(query=TOPL, session="s").to_json()
        del payload["schema_version"]
        with pytest.raises(MalformedRequestError):
            ToplRequest.from_json(payload)

    @pytest.mark.parametrize("version", [True, "1", 1.0, None])
    def test_non_integer_schema_version_rejected(self, version):
        """Booleans must not pass as version 1 (bool == 1 in Python)."""
        payload = ToplRequest(query=TOPL, session="s").to_json()
        payload["schema_version"] = version
        with pytest.raises(MalformedRequestError):
            ToplRequest.from_json(payload)

    @pytest.mark.parametrize("endpoint", ["build", "topl", "dtopl", "update", "batch"])
    def test_session_defaults_to_default_on_every_endpoint(
        self, endpoint, service_graph_doc
    ):
        """The wire contract is uniform: omitting 'session' means \"default\"."""
        documents = {
            "build": BuildRequest(graph=service_graph_doc).to_json(),
            "topl": ToplRequest(query=TOPL).to_json(),
            "dtopl": DToplRequest(query=DTOPL).to_json(),
            "update": UpdateRequest(edits=()).to_json(),
            "batch": BatchRequest(queries=(TOPL,)).to_json(),
        }
        document = documents[endpoint]
        document.pop("session", None)
        assert decode_request(endpoint, document).session == "default"

    def test_non_object_payload_rejected(self):
        with pytest.raises(MalformedRequestError):
            decode_request("topl", ["not", "an", "object"])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(MalformedRequestError):
            decode_request("frobnicate", {})


class TestResponseEnvelopes:
    def test_error_response_round_trip(self):
        response = ErrorResponse(
            error=ServiceError(code="UNKNOWN_SESSION", message="gone"), session="s"
        )
        assert wire_round_trip(response.to_json()) == {
            "schema_version": SCHEMA_VERSION,
            "api_version": __version__,
            "error": {"code": "UNKNOWN_SESSION", "message": "gone"},
            "session": "s",
        }

    def test_error_response_carries_api_version(self):
        document = ErrorResponse(
            error=ServiceError(code="X", message="m")
        ).to_json()
        assert document["api_version"] == __version__
        assert document["schema_version"] == SCHEMA_VERSION
