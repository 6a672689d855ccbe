"""Structured service errors: stable wire codes for every library exception.

Remote clients cannot catch Python exception classes, so the service maps
each :mod:`repro.exceptions` type to a *stable string code* that is part of
the versioned API contract (``docs/service.md`` carries the full table).
The mapping is most-derived-class-first: an exception is coded by the most
specific entry found along its MRO, so new subclasses inherit a sensible
code until they get their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro import exceptions as _exceptions
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

#: Code reported for exceptions that are not :class:`ReproError` at all —
#: the service never leaks raw tracebacks over the wire.
ERROR_CODE_INTERNAL = "INTERNAL"

#: Stable wire code per exception class.  Append-only: codes are API.
ERROR_CODES: dict[type, str] = {
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

#: HTTP status the gateway answers with, per code.  Anything absent is 400
#: (the request was understood but rejected); INTERNAL alone is 500.
_HTTP_STATUS: dict[str, int] = {
    "VERTEX_NOT_FOUND": 404,
    "EDGE_NOT_FOUND": 404,
    "UNKNOWN_SESSION": 404,
    "DATASET_ERROR": 404,
    "SESSION_EXISTS": 409,
    "QUERY_PARAMETER_INVALID": 422,
    "DYNAMIC_UPDATE_INVALID": 422,
    ERROR_CODE_INTERNAL: 500,
}


def error_code_for(error) -> str:
    """Return the stable wire code of an exception instance *or* class.

    The most-derived class with an entry in :data:`ERROR_CODES` wins, so a
    future subclass without its own code inherits its parent's.
    """
    klass = error if isinstance(error, type) else type(error)
    for base in klass.__mro__:
        code = ERROR_CODES.get(base)
        if code is not None:
            return code
    return ERROR_CODE_INTERNAL


def http_status_for(code: str) -> int:
    """HTTP status the gateway uses for a wire error code."""
    return _HTTP_STATUS.get(code, 400)


@dataclass(frozen=True)
class ServiceError:
    """A structured wire error: stable ``code``, human ``message``, detail.

    This is a value object, not an exception — it is what travels inside an
    :class:`~repro.service.schema.ErrorResponse` envelope.
    """

    code: str
    message: str
    detail: Mapping = field(default_factory=dict)

    @property
    def http_status(self) -> int:
        """The HTTP status the gateway answers with for this error."""
        return http_status_for(self.code)

    def to_json(self) -> dict:
        """JSON-compatible representation of the error."""
        payload: dict = {"code": self.code, "message": self.message}
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload


def service_error_from_exception(error: BaseException) -> ServiceError:
    """Build the :class:`ServiceError` describing a caught exception.

    :class:`ReproError` subclasses surface their message; anything else is
    reported as ``INTERNAL`` with only the exception type name (the message
    could contain paths or repr noise a remote caller has no business seeing).
    """
    code = error_code_for(error)
    if isinstance(error, ReproError):
        return ServiceError(code=code, message=str(error))
    return ServiceError(
        code=ERROR_CODE_INTERNAL,
        message=f"internal error ({type(error).__name__})",
    )


def all_exception_codes() -> dict[str, str]:
    """Map every public exception name in :mod:`repro.exceptions` to its code.

    Used by the error-path test-suite and the docs table generator: if a new
    exception is added without a stable code, both fail loudly.
    """
    mapping: dict[str, str] = {}
    for name in dir(_exceptions):
        obj = getattr(_exceptions, name)
        if isinstance(obj, type) and issubclass(obj, ReproError):
            mapping[name] = error_code_for(obj)
    return mapping
