"""The wire schema: typed, versioned request/response documents.

Every request and response of the service API is a frozen dataclass.
Requests decode strictly (``from_json()``) and encode (``to_json()``)
through one codec, driven by each request's table of wire fields;
responses only encode — the server never reads one back:

* **versioned** — every document carries ``schema_version``; a request with
  a version this build does not speak is rejected with
  ``UNSUPPORTED_SCHEMA_VERSION`` before any field is interpreted.
* **strict** — unknown fields, missing fields and wrong types in a request
  raise :class:`~repro.exceptions.MalformedRequestError` (wire code
  ``MALFORMED_REQUEST``); domain validation (e.g. ``theta`` out of range)
  re-uses the library's own validators, so the wire layer can never accept
  a query the engine would reject.
* **lossless** — requests round-trip exactly, and a response document
  carries everything its result holds.  Floats survive JSON bit-identically
  (Python serialises them via ``repr`` round-trip), and per-vertex ``cpp``
  maps travel as sorted ``[vertex, value]`` pairs so int and str vertex ids
  stay distinguishable (JSON object keys would force both to strings).

Responses are *envelopes*: besides their payload they carry the schema
version, the serving build's ``api_version``, the session name, the
engine's :attr:`~repro.core.engine.InfluentialCommunityEngine.epoch` and
wall-clock timing, so a remote client can reason about cache freshness the
same way the in-process serving layer does.  A query answer's payload is
:func:`result_to_wire` of its result on every path: a single read, a
batch result, a streamed NDJSON line.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence, Union

from repro._version import __version__ as _API_VERSION
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.exceptions import (
    MalformedRequestError,
    UnsupportedSchemaVersionError,
)
from repro.query.params import DTopLQuery, TopLQuery
from repro.query.results import DTopLResult, SeedCommunity, TopLResult
from repro.service.errors import ServiceError

#: The wire schema version this build speaks.  Bump on any change a strict
#: decoder would not catch: a field whose meaning changes.  Additive optional
#: fields do not bump, nor does a removed request field, since a request that
#: still names it is rejected with the field's name (unknown fields are
#: refused).
SCHEMA_VERSION = 1

_MISSING = object()


# --------------------------------------------------------------------------- #
# strict decoding helpers
# --------------------------------------------------------------------------- #
def _require_object(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise MalformedRequestError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_schema_version(payload: dict, what: str) -> None:
    version = payload.get("schema_version", _MISSING)
    if version is _MISSING:
        raise MalformedRequestError(f"{what} is missing 'schema_version'")
    # isinstance check first: bool == 1 in Python, and `true` must not
    # silently pass as version 1 (the codec rejects bool-as-int everywhere).
    if isinstance(version, bool) or not isinstance(version, int):
        raise MalformedRequestError(
            f"{what}.schema_version must be an integer, got {version!r}"
        )
    if version != SCHEMA_VERSION:
        raise UnsupportedSchemaVersionError(version, SCHEMA_VERSION)


def _reject_unknown(payload: dict, allowed: Sequence[str], what: str) -> None:
    unknown = set(payload) - set(allowed)
    if unknown:
        raise MalformedRequestError(
            f"{what} carries unknown fields {sorted(unknown)}"
        )


def _field(payload: dict, name: str, types, what: str, default=_MISSING):
    value = payload.get(name, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise MalformedRequestError(f"{what} is missing field {name!r}")
        return default
    expected = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass; never accept it where a number is expected.
    if bool not in expected and isinstance(value, bool):
        raise MalformedRequestError(
            f"{what}.{name} must not be a boolean, got {value!r}"
        )
    if not isinstance(value, types):
        raise MalformedRequestError(
            f"{what}.{name} has the wrong type: "
            f"expected {'/'.join(t.__name__ for t in expected)}, "
            f"got {type(value).__name__}"
        )
    return value


def _sorted_vertices(vertices) -> list:
    """Deterministic vertex ordering for wire documents (mixed int/str safe)."""
    return sorted(vertices, key=repr)


# --------------------------------------------------------------------------- #
# queries on the wire
# --------------------------------------------------------------------------- #
def query_to_wire(query: Union[TopLQuery, DTopLQuery]) -> dict:
    """Serialise a TopL/DTopL query into its wire form (lossless)."""
    if isinstance(query, DTopLQuery):
        wire = query_to_wire(query.base)
        wire["type"] = "dtopl"
        wire["candidate_factor"] = query.candidate_factor
        return wire
    if not isinstance(query, TopLQuery):
        raise MalformedRequestError(
            f"expected a TopLQuery or DTopLQuery, got {type(query).__name__}"
        )
    return {
        "type": "topl",
        "keywords": sorted(query.keywords),
        "k": query.k,
        "radius": query.radius,
        "theta": query.theta,
        "top_l": query.top_l,
    }


def query_from_wire(payload) -> Union[TopLQuery, DTopLQuery]:
    """Parse a query wire document; domain validation runs in the dataclass.

    Out-of-range parameters therefore raise
    :class:`~repro.exceptions.QueryParameterError` exactly as a direct
    constructor call would — the wire layer adds no second validator that
    could drift.
    """
    payload = _require_object(payload, "query")
    kind = _field(payload, "type", str, "query")
    if kind not in ("topl", "dtopl"):
        raise MalformedRequestError(f"query.type must be 'topl' or 'dtopl', got {kind!r}")
    allowed = ["type", "keywords", "k", "radius", "theta", "top_l"]
    if kind == "dtopl":
        allowed.append("candidate_factor")
    _reject_unknown(payload, allowed, "query")
    keywords = _field(payload, "keywords", list, "query")
    for keyword in keywords:
        if not isinstance(keyword, str):
            raise MalformedRequestError(
                f"query.keywords must be strings, got {keyword!r}"
            )
    base = TopLQuery(
        keywords=frozenset(keywords),
        k=_field(payload, "k", int, "query"),
        radius=_field(payload, "radius", int, "query"),
        theta=float(_field(payload, "theta", (int, float), "query")),
        top_l=_field(payload, "top_l", int, "query"),
    )
    if kind == "topl":
        return base
    return DTopLQuery(
        base=base,
        candidate_factor=_field(payload, "candidate_factor", int, "query", default=3),
    )


# --------------------------------------------------------------------------- #
# results on the wire
# --------------------------------------------------------------------------- #
def community_to_wire(community: SeedCommunity) -> dict:
    """Serialise one seed community, including its full ``cpp`` map.

    Carrying the per-vertex propagation probabilities (not just the score)
    makes the wire form *complete*: two results are equal iff their wire
    forms are equal, which is what the service-vs-direct equivalence suite
    asserts.  The ``cpp`` pairs are emitted in canonical order — probability
    descending, then vertex — rather than the engine's heap pop order: the
    backends may pop *equal* probabilities in different orders (dict vs CSR
    neighbour iteration), and the wire form must not let a client tell the
    backends apart.  The canonical order preserves the non-increasing value
    sequence exactly (ties are equal values), so summing the pairs in wire
    order reproduces the influential score bit-identically.
    """
    return {
        "center": community.center,
        "vertices": _sorted_vertices(community.vertices),
        "k": community.k,
        "radius": community.radius,
        "score": community.score,
        "threshold": community.influenced.threshold,
        "cpp": [
            [vertex, value]
            for vertex, value in sorted(
                community.influenced.cpp.items(), key=lambda kv: (-kv[1], repr(kv[0]))
            )
        ],
    }


def result_to_wire(result: Union[TopLResult, DTopLResult]) -> dict:
    """Serialise a query result (communities + execution statistics)."""
    wire = {
        "type": "dtopl" if isinstance(result, DTopLResult) else "topl",
        "communities": [community_to_wire(c) for c in result.communities],
        "statistics": result.statistics.as_dict(),
    }
    if isinstance(result, DTopLResult):
        wire["diversity_score"] = result.diversity_score
        wire["increment_evaluations"] = result.increment_evaluations
        wire["candidates_considered"] = result.candidates_considered
    return wire


# --------------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------------- #
class _Field(NamedTuple):
    """One row of a request's wire table.

    ``types`` are the JSON types the field accepts; ``decode`` turns the
    JSON value into the attribute value and ``encode`` turns it back (both
    default to the identity).  ``check`` validates the attribute value and
    returns a problem (``None`` when valid): it runs on construction and as
    soon as the field is decoded, so a document fails on its first bad field
    in table order.  A field is required on the wire exactly when its
    dataclass attribute has no default.
    """

    name: str
    types: Union[type, tuple]
    decode: Optional[Callable] = None
    encode: Optional[Callable] = None
    check: Optional[Callable] = None


def _check(spec: _Field, value, what: str) -> None:
    problem = spec.check(value)
    if problem is not None:
        raise MalformedRequestError(f"{what}.{spec.name} {problem}")


@dataclass(frozen=True)
class _WireDocument:
    """The one strict codec of every request, driven by ``_WIRE_FIELDS``."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._WIRE_NAMES = ("schema_version",) + tuple(spec.name for spec in cls._WIRE_FIELDS)

    def __post_init__(self) -> None:
        what = type(self).__name__
        for spec in self._WIRE_FIELDS:
            if spec.check is not None:
                _check(spec, getattr(self, spec.name), what)

    def to_json(self) -> dict:
        payload = {"schema_version": SCHEMA_VERSION}
        for spec in self._WIRE_FIELDS:
            value = getattr(self, spec.name)
            if value is not None:
                payload[spec.name] = value if spec.encode is None else spec.encode(value)
        return payload

    @classmethod
    def from_json(cls, payload) -> "_WireDocument":
        what = cls.__name__
        payload = _require_object(payload, what)
        _check_schema_version(payload, what)
        _reject_unknown(payload, cls._WIRE_NAMES, what)
        kwargs = {}
        for spec in cls._WIRE_FIELDS:
            if spec.name not in payload:
                if cls.__dataclass_fields__[spec.name].default is MISSING:
                    raise MalformedRequestError(f"{what} is missing field {spec.name!r}")
                continue
            value = _field(payload, spec.name, spec.types, what)
            if spec.decode is not None:
                value = spec.decode(value)
            if spec.check is not None:
                _check(spec, value, what)
            kwargs[spec.name] = value
        return cls(**kwargs)


def _non_empty(session) -> Optional[str]:
    if isinstance(session, str) and session:
        return None
    return f"must be a non-empty string, got {session!r}"


_PRUNING_RULES = frozenset({"keyword", "support", "score"})


def _pruning_rules(pruning: Optional[dict]) -> Optional[str]:
    if pruning is None:
        return None
    unknown = set(pruning) - _PRUNING_RULES
    if unknown:
        return f"carries unknown rules {sorted(unknown)}"
    for rule, value in pruning.items():
        if not isinstance(value, bool):
            return f"rule {rule!r} must be a boolean, got {value!r}"
    return None


def _instance_of(kind, label: str) -> Callable:
    def check(value) -> Optional[str]:
        if isinstance(value, kind):
            return None
        return f"must be {label}, got {type(value).__name__}"

    return check


def _all_instances_of(kind, label: str) -> Callable:
    one = _instance_of(kind, label)

    def check(values) -> Optional[str]:
        for value in values:
            problem = one(value)
            if problem is not None:
                return problem
        return None

    return check


_SESSION = _Field("session", str, check=_non_empty)
_PRUNING = _Field("pruning", dict, check=_pruning_rules)


@dataclass(frozen=True)
class BuildRequest(_WireDocument):
    """Run the offline phase (or open a packed store) into a named session.

    Exactly one of ``graph`` (an inline graph document, the
    :func:`repro.graph.io.graph_to_dict` format), ``graph_path`` (a graph
    JSON on the server's filesystem) or ``store_path`` (a packed
    ``repro.store`` container, opened mmap-backed with no offline phase) is
    required.  ``save_store_path`` checkpoints the new session to a store
    file, which the session's ``engine.store`` block then reports.
    ``config`` carries :class:`~repro.core.config.EngineConfig` keyword
    arguments (overrides of the packed configuration when opening a store).
    """

    session: str = "default"
    graph: Optional[dict] = None
    graph_path: Optional[str] = None
    store_path: Optional[str] = None
    save_store_path: Optional[str] = None
    config: Optional[dict] = None
    validate: bool = True
    replace: bool = False

    _WIRE_FIELDS = (
        _SESSION,
        _Field("graph", dict),
        _Field("graph_path", str),
        _Field("store_path", str),
        _Field("save_store_path", str),
        _Field("config", dict),
        _Field("validate", bool),
        _Field("replace", bool),
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        sources = sum(
            source is not None for source in (self.graph, self.graph_path, self.store_path)
        )
        if sources != 1:
            raise MalformedRequestError(
                "BuildRequest requires exactly one of 'graph', 'graph_path' or "
                "'store_path'"
            )


@dataclass(frozen=True)
class ToplRequest(_WireDocument):
    """Answer one TopL-ICDE query against a session."""

    query: TopLQuery
    session: str = "default"
    pruning: Optional[dict] = None

    _WIRE_FIELDS = (
        _Field(
            "query", dict, decode=query_from_wire, encode=query_to_wire,
            check=_instance_of(TopLQuery, "a 'topl' query"),
        ),
        _SESSION,
        _PRUNING,
    )


@dataclass(frozen=True)
class DToplRequest(_WireDocument):
    """Answer one DTopL-ICDE query against a session."""

    query: DTopLQuery
    session: str = "default"
    pruning: Optional[dict] = None

    _WIRE_FIELDS = (
        _Field(
            "query", dict, decode=query_from_wire, encode=query_to_wire,
            check=_instance_of(DTopLQuery, "a 'dtopl' query"),
        ),
        _SESSION,
        _PRUNING,
    )


@dataclass(frozen=True)
class UpdateRequest(_WireDocument):
    """Apply an edge edit script to a session's graph and index.

    ``edits`` is the edit-script document of ``docs/dynamic.md`` (or a bare
    edit list); validation and sequential semantics are exactly those of
    :class:`~repro.dynamic.updates.UpdateBatch`.
    """

    edits: tuple
    session: str = "default"
    damage_threshold: Optional[float] = None
    rebuild: bool = False

    _WIRE_FIELDS = (
        _Field(
            "edits", list,
            decode=lambda edits: tuple(UpdateBatch.from_json(edits)),
            encode=lambda edits: [edit.as_dict() for edit in edits],
            check=_all_instances_of(EdgeUpdate, "EdgeUpdate objects"),
        ),
        _SESSION,
        _Field("damage_threshold", (int, float), decode=float),
        _Field("rebuild", bool),
    )


@dataclass(frozen=True)
class BatchRequest(_WireDocument):
    """Answer a mixed TopL/DTopL batch against a session (order-stable)."""

    queries: tuple
    session: str = "default"
    pruning: Optional[dict] = None

    _WIRE_FIELDS = (
        _SESSION,
        _Field(
            "queries", list,
            decode=lambda queries: tuple(query_from_wire(query) for query in queries),
            encode=lambda queries: [query_to_wire(query) for query in queries],
            check=_all_instances_of((TopLQuery, DTopLQuery), "TopLQuery/DTopLQuery objects"),
        ),
        _PRUNING,
    )


#: Request type per endpoint name; the gateway and `decode_request` share it.
REQUEST_TYPES = {
    "build": BuildRequest,
    "topl": ToplRequest,
    "dtopl": DToplRequest,
    "update": UpdateRequest,
    "batch": BatchRequest,
}


def decode_request(endpoint: str, payload):
    """Decode the request document of ``endpoint`` ('build', 'topl', ...)."""
    try:
        request_type = REQUEST_TYPES[endpoint]
    except KeyError:
        raise MalformedRequestError(
            f"unknown endpoint {endpoint!r}; expected one of {sorted(REQUEST_TYPES)}"
        ) from None
    return request_type.from_json(payload)


# --------------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------------- #
def _envelope(session: str, epoch: int, elapsed_seconds: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "api_version": _API_VERSION,
        "session": session,
        "epoch": epoch,
        "elapsed_seconds": elapsed_seconds,
    }


_ENVELOPE_FIELDS = ("schema_version", "api_version", "session", "epoch", "elapsed_seconds")


def response_tail(document: dict) -> bytes:
    """UTF-8 JSON of a response ``document`` after its envelope fields.

    :func:`response_body` joins a fresh envelope to it.  The join is byte
    for byte ``json.dumps`` of the whole document with that envelope:
    ``to_json`` puts the envelope first, and ``json.dumps`` encodes an
    object member by member.  ``document`` must carry a payload besides
    the envelope (every query response does).
    """
    payload = {
        name: value for name, value in document.items() if name not in _ENVELOPE_FIELDS
    }
    return json.dumps(payload).encode("utf-8")[1:]


def response_body(session: str, epoch: int, elapsed_seconds: float, tail: bytes) -> bytes:
    """A response body: a fresh envelope followed by an encoded ``tail``."""
    envelope = json.dumps(_envelope(session, epoch, elapsed_seconds))
    return envelope[:-1].encode("utf-8") + b", " + tail


@dataclass(frozen=True)
class _ResponseEnvelope:
    """Fields every successful response carries."""

    session: str
    epoch: int
    elapsed_seconds: float
    api_version: ClassVar[str] = _API_VERSION


@dataclass(frozen=True)
class BuildResponse(_ResponseEnvelope):
    """What a build produced: the engine summary of the new session."""

    engine: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        payload = _envelope(self.session, self.epoch, self.elapsed_seconds)
        payload["engine"] = self.engine
        return payload


@dataclass(frozen=True)
class _ReadResponse(_ResponseEnvelope):
    """A query answer: its result's wire document inside the envelope."""

    def to_json(self) -> dict:
        payload = _envelope(self.session, self.epoch, self.elapsed_seconds)
        payload.update(result_to_wire(self))
        return payload


@dataclass(frozen=True)
class ToplResponse(TopLResult, _ReadResponse):
    """A TopL-ICDE answer: a :class:`~repro.query.results.TopLResult` in an envelope."""


@dataclass(frozen=True)
class DToplResponse(DTopLResult, _ReadResponse):
    """A DTopL-ICDE answer: a :class:`~repro.query.results.DTopLResult` in an envelope."""


@dataclass(frozen=True)
class UpdateResponse(_ResponseEnvelope):
    """What an edit-script application did (mode, damage, timings)."""

    report: dict = field(default_factory=dict)
    graph: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        payload = _envelope(self.session, self.epoch, self.elapsed_seconds)
        payload["report"] = self.report
        payload["graph"] = self.graph
        return payload


@dataclass(frozen=True)
class BatchResponse(_ResponseEnvelope):
    """A batch answer: per-query results in input order + batch statistics."""

    results: tuple = ()
    statistics: dict = field(default_factory=dict)
    cache_statistics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        payload = _envelope(self.session, self.epoch, self.elapsed_seconds)
        payload["results"] = list(self.results)
        payload["statistics"] = self.statistics
        payload["cache_statistics"] = self.cache_statistics
        return payload


@dataclass(frozen=True)
class SessionsResponse:
    """The sessions a service hosts (``GET /v1/sessions``)."""

    sessions: tuple = ()
    api_version: ClassVar[str] = _API_VERSION

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "api_version": self.api_version,
            "sessions": list(self.sessions),
        }


@dataclass(frozen=True)
class HealthResponse:
    """Service liveness + per-session diagnostics (``GET /v1/health``)."""

    status: str = "ok"
    sessions: tuple = ()
    api_version: ClassVar[str] = _API_VERSION

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "api_version": self.api_version,
            "status": self.status,
            "sessions": list(self.sessions),
        }


@dataclass(frozen=True)
class ErrorResponse:
    """The error envelope: a structured :class:`ServiceError`, never a traceback."""

    error: ServiceError
    session: Optional[str] = None
    api_version: ClassVar[str] = _API_VERSION

    def to_json(self) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "api_version": self.api_version,
            "error": self.error.to_json(),
        }
        if self.session is not None:
            payload["session"] = self.session
        return payload
