"""Versioned service API: the library's single public serving boundary.

This package consolidates every consumer-facing surface — CLI, batch
serving, workload runner, remote clients — behind one stable, serializable
API:

* :mod:`repro.service.schema` — the wire schema: frozen request/response
  dataclasses carrying a ``schema_version`` field.  Requests decode
  strictly with ``from_json()``; responses only encode, with ``to_json()``.
* :mod:`repro.service.errors` — structured :class:`ServiceError` codes
  mapping every :mod:`repro.exceptions` type to a stable wire code.
* :mod:`repro.service.facade` — :class:`CommunityService`, which owns
  engine lifecycle behind *named sessions* so one process can host many
  graphs/indexes.
* :mod:`repro.service.agateway` — :class:`AsyncServiceGateway`, the
  stdlib HTTP front door exposing the facade as
  ``POST /v1/{build,topl,dtopl,update,batch}`` plus
  ``GET /v1/{sessions,health}``, with NDJSON streaming for batches,
  keep-alive, request coalescing and bounded-queue backpressure
  (``429`` + ``Retry-After``).

See ``docs/service.md`` for the endpoint reference and examples.
"""

from repro.service.errors import (
    ERROR_CODE_INTERNAL,
    ERROR_CODES,
    ServiceError,
    error_code_for,
    http_status_for,
    service_error_from_exception,
)
from repro.service.agateway import AsyncServiceGateway
from repro.service.facade import CommunityService, SessionInfo
from repro.service.schema import (
    SCHEMA_VERSION,
    BatchRequest,
    BatchResponse,
    BuildRequest,
    BuildResponse,
    DToplRequest,
    DToplResponse,
    ErrorResponse,
    HealthResponse,
    SessionsResponse,
    ToplRequest,
    ToplResponse,
    UpdateRequest,
    UpdateResponse,
    decode_request,
    query_from_wire,
    query_to_wire,
)

__all__ = [
    "SCHEMA_VERSION",
    "ServiceError",
    "ERROR_CODES",
    "ERROR_CODE_INTERNAL",
    "error_code_for",
    "http_status_for",
    "service_error_from_exception",
    "CommunityService",
    "SessionInfo",
    "AsyncServiceGateway",
    "BuildRequest",
    "BuildResponse",
    "ToplRequest",
    "ToplResponse",
    "DToplRequest",
    "DToplResponse",
    "UpdateRequest",
    "UpdateResponse",
    "BatchRequest",
    "BatchResponse",
    "SessionsResponse",
    "HealthResponse",
    "ErrorResponse",
    "decode_request",
    "query_to_wire",
    "query_from_wire",
]
