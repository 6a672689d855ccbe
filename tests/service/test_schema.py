"""Wire-schema tests: round trips, strictness, and error paths."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

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
        request = BatchRequest(session="s", queries=(TOPL, DTOPL, TOPL))
        restored = BatchRequest.from_json(wire_round_trip(request.to_json()))
        assert restored == request
        assert isinstance(restored.queries[1], DTopLQuery)
        assert isinstance(restored.queries[0], TopLQuery)

    def test_batch_request_rejects_bad_workers(self):
        # The field is retired: naming it, with any value, fails loudly.
        for workers in (0, 1, 2):
            payload = BatchRequest(session="s", queries=(TOPL,)).to_json()
            payload["workers"] = workers
            with pytest.raises(MalformedRequestError, match="workers"):
                BatchRequest.from_json(payload)

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


# --------------------------------------------------------------------------- #
# the request contract, one table for all five request types
# --------------------------------------------------------------------------- #
#: One valid request of each type and the document it encodes to.  The
#: documents are pinned: clients build requests to exactly these shapes.
PINNED = [
    (
        BuildRequest(session="s", graph_path="graph.json", config={"max_radius": 2}, replace=True),
        {
            "schema_version": 1, "session": "s", "graph_path": "graph.json",
            "config": {"max_radius": 2}, "validate": True, "replace": True,
        },
    ),
    (
        ToplRequest(query=TOPL, session="s", pruning={"score": False}),
        {
            "schema_version": 1, "session": "s",
            "query": {
                "type": "topl", "keywords": ["books", "movies"],
                "k": 3, "radius": 2, "theta": 0.2, "top_l": 3,
            },
            "pruning": {"score": False},
        },
    ),
    (
        DToplRequest(query=DTOPL, session="s"),
        {
            "schema_version": 1, "session": "s",
            "query": {
                "type": "dtopl", "keywords": ["movies"], "k": 3, "radius": 2,
                "theta": 0.1, "top_l": 2, "candidate_factor": 2,
            },
        },
    ),
    (
        UpdateRequest(
            session="s",
            edits=(EdgeUpdate.insert(1, 2, 0.4, 0.3), EdgeUpdate.delete(1, 2)),
            damage_threshold=0.5,
        ),
        {
            "schema_version": 1, "session": "s",
            "edits": [
                {"op": "insert", "u": 1, "v": 2, "p_uv": 0.4, "p_vu": 0.3},
                {"op": "delete", "u": 1, "v": 2},
            ],
            "rebuild": False, "damage_threshold": 0.5,
        },
    ),
    (
        BatchRequest(session="s", queries=(TOPL, DTOPL), pruning={"keyword": False}),
        {
            "schema_version": 1, "session": "s",
            "queries": [
                {
                    "type": "topl", "keywords": ["books", "movies"],
                    "k": 3, "radius": 2, "theta": 0.2, "top_l": 3,
                },
                {
                    "type": "dtopl", "keywords": ["movies"], "k": 3, "radius": 2,
                    "theta": 0.1, "top_l": 2, "candidate_factor": 2,
                },
            ],
            "pruning": {"keyword": False},
        },
    ),
]

#: Every wire field of every request type, with a value of a JSON type the
#: field does not accept.
WRONG_JSON_TYPE = {
    BuildRequest: {
        "session": 7, "graph": [], "graph_path": 7, "store_path": {},
        "save_store_path": 1.5, "config": [], "validate": "yes", "replace": 1,
    },
    ToplRequest: {"query": [], "session": 7, "pruning": []},
    DToplRequest: {"query": "dtopl", "session": [], "pruning": 1.5},
    UpdateRequest: {"edits": {}, "session": 7, "damage_threshold": "high", "rebuild": 0},
    BatchRequest: {"queries": {}, "session": None, "pruning": "all"},
}

#: The fields a document must carry (the rest have defaults).
REQUIRED = {
    BuildRequest: (),
    ToplRequest: ("query",),
    DToplRequest: ("query",),
    UpdateRequest: ("edits",),
    BatchRequest: ("queries",),
}

#: The numeric fields, where a JSON boolean must not pass as a number.
NUMERIC = {UpdateRequest: ("damage_threshold",)}

#: Requests the constructors accept, beyond the pinned ones.
MINIMAL = [
    BuildRequest(store_path="packed.repro-store"),
    BuildRequest(session="g", graph={"vertices": [], "edges": []}, validate=False),
    ToplRequest(query=TOPL),
    DToplRequest(query=DTOPL, pruning={"keyword": False, "support": True, "score": False}),
    UpdateRequest(edits=(), rebuild=True),
    UpdateRequest(edits=(EdgeUpdate.insert("a", "b", 0.25, 0.75),), damage_threshold=1.0),
    BatchRequest(queries=()),
]

REQUEST_TYPE_IDS = [request_type.__name__ for request_type in WRONG_JSON_TYPE]
FIELD_ROWS = [
    (request_type, name, value)
    for request_type, rows in WRONG_JSON_TYPE.items()
    for name, value in rows.items()
]
FIELD_IDS = [f"{request_type.__name__}.{name}" for request_type, name, _ in FIELD_ROWS]


def _document(request_type) -> dict:
    return next(request for request, _ in PINNED if type(request) is request_type).to_json()


def _rejected(request_type, document, *names) -> None:
    with pytest.raises(MalformedRequestError) as caught:
        request_type.from_json(document)
    for name in (request_type.__name__,) + names:
        assert name in str(caught.value)


class TestRequestContract:
    @pytest.mark.parametrize("request_type", list(WRONG_JSON_TYPE), ids=REQUEST_TYPE_IDS)
    def test_the_tables_cover_every_field(self, request_type):
        fields = {f.name for f in dataclasses.fields(request_type)}
        assert set(WRONG_JSON_TYPE[request_type]) == fields
        assert set(REQUIRED[request_type]) <= fields
        assert set(NUMERIC.get(request_type, ())) <= fields

    @pytest.mark.parametrize("wire_request, document", PINNED, ids=REQUEST_TYPE_IDS)
    def test_encoding_is_pinned(self, wire_request, document):
        assert wire_request.to_json() == document
        assert type(wire_request).from_json(wire_round_trip(document)) == wire_request

    @pytest.mark.parametrize(
        "wire_request",
        [request for request, _ in PINNED] + MINIMAL,
        ids=REQUEST_TYPE_IDS + [type(request).__name__ for request in MINIMAL],
    )
    def test_every_accepted_request_round_trips(self, wire_request):
        restored = type(wire_request).from_json(wire_round_trip(wire_request.to_json()))
        assert restored == wire_request

    @pytest.mark.parametrize("request_type, name, value", FIELD_ROWS, ids=FIELD_IDS)
    def test_wrong_json_type_is_rejected_naming_the_field(self, request_type, name, value):
        document = _document(request_type)
        document[name] = value
        _rejected(request_type, document, name)

    @pytest.mark.parametrize(
        "request_type, name",
        [(t, name) for t, names in NUMERIC.items() for name in names],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_is_not_a_number(self, request_type, name, flag):
        document = _document(request_type)
        document[name] = flag
        _rejected(request_type, document, name)

    @pytest.mark.parametrize(
        "request_type, name",
        [(t, name) for t, names in REQUIRED.items() for name in names],
    )
    def test_missing_required_field_is_rejected_naming_it(self, request_type, name):
        document = _document(request_type)
        del document[name]
        _rejected(request_type, document, name)

    @pytest.mark.parametrize("request_type", list(WRONG_JSON_TYPE), ids=REQUEST_TYPE_IDS)
    def test_unknown_field_is_rejected_naming_it(self, request_type):
        document = _document(request_type)
        document["surprise"] = 1
        _rejected(request_type, document, "surprise")

    @pytest.mark.parametrize("request_type", list(WRONG_JSON_TYPE), ids=REQUEST_TYPE_IDS)
    def test_empty_session_is_rejected_at_construction(self, request_type):
        request = next(r for r, _ in PINNED if type(r) is request_type)
        with pytest.raises(MalformedRequestError, match="session"):
            dataclasses.replace(request, session="")


SERVICE_DOC = Path(__file__).resolve().parents[2] / "docs" / "service.md"


class TestDocumentedFieldTables:
    @pytest.mark.parametrize("request_type", list(WRONG_JSON_TYPE), ids=REQUEST_TYPE_IDS)
    def test_each_request_table_lists_exactly_its_wire_fields(self, request_type):
        """``docs/service.md`` has one field table per request type."""
        text = SERVICE_DOC.read_text(encoding="utf-8")
        heading = f"`{request_type.__name__}` fields:\n\n"
        assert text.count(heading) == 1, f"no single field table for {request_type.__name__}"
        table = text.split(heading, 1)[1].split("\n\n", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert sorted(documented) == sorted(f.name for f in dataclasses.fields(request_type))
