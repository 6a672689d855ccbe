"""Error-code contract: every library exception maps to a stable wire code."""

from __future__ import annotations

import inspect
import json

import pytest

from repro import exceptions
from repro.exceptions import (
    DatasetError,
    DynamicUpdateError,
    EdgeNotFoundError,
    GraphError,
    IndexError_,
    InvalidProbabilityError,
    MalformedRequestError,
    QueryParameterError,
    ReproError,
    ScenarioError,
    SerializationError,
    ServiceRequestError,
    ServingError,
    SessionExistsError,
    StaleGraphViewError,
    StoreFormatError,
    UnknownSessionError,
    UnsupportedSchemaVersionError,
    VertexNotFoundError,
)
from repro.service.errors import (
    ERROR_CODE_INTERNAL,
    ERROR_CODES,
    ServiceError,
    all_exception_codes,
    error_code_for,
    http_status_for,
    service_error_from_exception,
)

#: The stable contract: exception class -> wire code.  This table is
#: duplicated from the implementation ON PURPOSE — a code change here is an
#: API break and must be a conscious decision, not a refactor side-effect.
EXPECTED_CODES = {
    ReproError: "REPRO_ERROR",
    GraphError: "GRAPH_ERROR",
    VertexNotFoundError: "VERTEX_NOT_FOUND",
    EdgeNotFoundError: "EDGE_NOT_FOUND",
    InvalidProbabilityError: "INVALID_PROBABILITY",
    QueryParameterError: "QUERY_PARAMETER_INVALID",
    IndexError_: "INDEX_STATE_INVALID",
    DatasetError: "DATASET_ERROR",
    SerializationError: "SERIALIZATION_ERROR",
    StoreFormatError: "STORE_FORMAT_INVALID",
    ServingError: "SERVING_ERROR",
    DynamicUpdateError: "DYNAMIC_UPDATE_INVALID",
    ScenarioError: "SCENARIO_INVALID",
    ServiceRequestError: "SERVICE_REQUEST_INVALID",
    MalformedRequestError: "MALFORMED_REQUEST",
    UnsupportedSchemaVersionError: "UNSUPPORTED_SCHEMA_VERSION",
    UnknownSessionError: "UNKNOWN_SESSION",
    SessionExistsError: "SESSION_EXISTS",
    StaleGraphViewError: "STALE_GRAPH_VIEW",
}


class TestCodeMapping:
    @pytest.mark.parametrize(
        "exception_type,code", sorted(EXPECTED_CODES.items(), key=lambda kv: kv[1])
    )
    def test_exact_code_per_class(self, exception_type, code):
        assert error_code_for(exception_type) == code

    def test_every_library_exception_has_a_code(self):
        """New exceptions must get a stable code (or consciously inherit one)."""
        for name, obj in vars(exceptions).items():
            if inspect.isclass(obj) and issubclass(obj, ReproError):
                assert obj in EXPECTED_CODES, (
                    f"exception {name} has no entry in the stable code table; "
                    "add one (and document it in docs/service.md)"
                )

    def test_no_stale_entries_in_implementation(self):
        assert ERROR_CODES == EXPECTED_CODES

    def test_all_exception_codes_helper_matches(self):
        by_name = all_exception_codes()
        for exception_type, code in EXPECTED_CODES.items():
            assert by_name[exception_type.__name__] == code
        # IndexStateError is the public alias of IndexError_.
        assert by_name["IndexStateError"] == "INDEX_STATE_INVALID"

    def test_instance_and_class_agree(self):
        assert error_code_for(UnknownSessionError("x")) == error_code_for(
            UnknownSessionError
        )

    def test_future_subclass_inherits_parent_code(self):
        class BrandNewGraphProblem(GraphError):
            pass

        assert error_code_for(BrandNewGraphProblem("boom")) == "GRAPH_ERROR"

    def test_non_repro_exception_is_internal(self):
        assert error_code_for(ValueError("x")) == ERROR_CODE_INTERNAL
        assert error_code_for(RuntimeError) == ERROR_CODE_INTERNAL


class TestHttpStatuses:
    @pytest.mark.parametrize(
        "code,status",
        [
            ("UNKNOWN_SESSION", 404),
            ("VERTEX_NOT_FOUND", 404),
            ("EDGE_NOT_FOUND", 404),
            ("DATASET_ERROR", 404),
            ("SESSION_EXISTS", 409),
            ("QUERY_PARAMETER_INVALID", 422),
            ("DYNAMIC_UPDATE_INVALID", 422),
            ("MALFORMED_REQUEST", 400),
            ("UNSUPPORTED_SCHEMA_VERSION", 400),
            ("GRAPH_ERROR", 400),
            (ERROR_CODE_INTERNAL, 500),
        ],
    )
    def test_status_per_code(self, code, status):
        assert http_status_for(code) == status

    def test_unlisted_codes_default_to_400(self):
        assert http_status_for("SOME_FUTURE_CODE") == 400


class TestServiceErrorValue:
    def test_from_repro_error_keeps_message(self):
        error = service_error_from_exception(UnknownSessionError("ghost"))
        assert error.code == "UNKNOWN_SESSION"
        assert "ghost" in error.message
        assert error.http_status == 404

    def test_from_internal_error_hides_message(self):
        error = service_error_from_exception(ValueError("/secret/path leaked"))
        assert error.code == ERROR_CODE_INTERNAL
        assert "/secret/path" not in error.message
        assert "ValueError" in error.message

    def test_json_round_trip(self):
        error = ServiceError(code="UNKNOWN_SESSION", message="gone", detail={"s": "x"})
        assert json.loads(json.dumps(error.to_json())) == {
            "code": "UNKNOWN_SESSION",
            "message": "gone",
            "detail": {"s": "x"},
        }
        # An empty detail is left out of the document.
        assert ServiceError(code="X", message="m").to_json() == {"code": "X", "message": "m"}
