"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses communicate *which*
subsystem rejected the input: graph construction, query parameters, index
state, or dataset loading.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised when a graph operation receives structurally invalid input."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class InvalidProbabilityError(GraphError):
    """Raised when an edge propagation probability is outside ``[0, 1]``."""

    def __init__(self, value: float) -> None:
        super().__init__(f"propagation probability must be in [0, 1], got {value!r}")
        self.value = value


class StaleGraphViewError(GraphError):
    """Raised when a fast engine's lazy graph view is first read after a
    later update changed the snapshot behind it; read ``engine.graph`` again."""


class QueryParameterError(ReproError):
    """Raised when TopL-ICDE / DTopL-ICDE query parameters are invalid."""


class IndexError_(ReproError):
    """Raised when the tree index is queried in an inconsistent state.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`; exported as ``IndexStateError`` from the package root.
    """


IndexStateError = IndexError_


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated, loaded, or parsed."""


class SerializationError(ReproError):
    """Raised when an index or graph cannot be serialised or deserialised."""


class StoreFormatError(SerializationError):
    """Raised when a ``repro.store`` container is structurally invalid.

    Covers every way a store file can be unusable — truncation, a foreign
    magic, an unsupported format version, a checksum mismatch, or a section
    table pointing outside the file.  The store reader validates all of these
    up front so corruption surfaces as this typed error, never as a struct
    unpack crash or silently garbled buffers.
    """


class ServingError(ReproError):
    """Raised when the batch serving layer is misconfigured or misused."""


class DynamicUpdateError(ReproError):
    """Raised when an edge edit script is malformed or inapplicable.

    Edit scripts have sequential semantics, so validation simulates the whole
    script against the current graph before anything is mutated: a failing
    script leaves the engine untouched.
    """


class ScenarioError(ReproError):
    """The error of the removed declarative scenario harness.

    Nothing in the tree raises it any more.  It stays because its wire code
    ``SCENARIO_INVALID`` is part of the append-only code table of
    :mod:`repro.service.errors`.
    """


class ServiceRequestError(ReproError):
    """Raised when a request is rejected at the service API boundary.

    Subclasses distinguish *why* the boundary rejected it; each maps to a
    stable wire error code (see :mod:`repro.service.errors`).
    """


class MalformedRequestError(ServiceRequestError):
    """Raised when a request document cannot be parsed or fails validation."""


class UnsupportedSchemaVersionError(ServiceRequestError):
    """Raised when a request carries a ``schema_version`` this build cannot serve."""

    def __init__(self, version: object, supported: int) -> None:
        super().__init__(
            f"unsupported schema_version {version!r}; this build speaks {supported}"
        )
        self.version = version
        self.supported = supported


class UnknownSessionError(ServiceRequestError):
    """Raised when a request names a session the service does not host."""

    def __init__(self, session: str) -> None:
        super().__init__(f"unknown session {session!r}")
        self.session = session


class SessionExistsError(ServiceRequestError):
    """Raised when a build would overwrite an existing session without ``replace``."""

    def __init__(self, session: str) -> None:
        super().__init__(
            f"session {session!r} already exists (pass replace=true to rebuild it)"
        )
        self.session = session
