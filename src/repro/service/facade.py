"""`CommunityService`: engine lifecycle behind named sessions.

The facade is the single in-process entry point of the service API.  It
owns a registry of *sessions* — each one a built
:class:`~repro.core.engine.InfluentialCommunityEngine` plus a persistent
:class:`~repro.serve.batch.BatchQueryEngine` whose epoch-tagged result and
propagation caches live as long as the session — and executes the typed
requests of :mod:`repro.service.schema` against them.  In-process callers
and remote clients bind to a session *name*, never to an engine object.

Single queries route through the session's serving engine (`answer`), so
they share the same caches as batches and absorb dynamic updates through
the same epoch mechanism; results are bit-identical to calling the engine
directly (the caches are exact).

Thread-safety: one lock per session serialises execution against it (the
engine's processors share scratch state), while different sessions run
concurrently on the HTTP gateway's executor threads.  The gateway's event
loop only ever *tries* a lock (:meth:`CommunityService.cached_body`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro._version import __version__ as _API_VERSION
from repro.core.config import EngineConfig, without_retired_settings
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import UpdateBatch
from repro.exceptions import (
    MalformedRequestError,
    SessionExistsError,
    UnknownSessionError,
)
from repro.graph.io import graph_from_dict, load_graph_json
from repro.pruning.stats import PruningConfig
from repro.query.results import DTopLResult
from repro.serve.batch import BatchQueryEngine, ServingConfig
from repro.service.errors import service_error_from_exception
from repro.service.schema import (
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
    response_body,
    response_tail,
    result_to_wire,
)

Request = Union[BuildRequest, ToplRequest, DToplRequest, UpdateRequest, BatchRequest]


@dataclass(frozen=True)
class SessionInfo:
    """Summary of one hosted session (what ``GET /v1/sessions`` reports)."""

    name: str
    engine: dict
    created_unix: float
    requests_served: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "engine": self.engine,
            "created_unix": self.created_unix,
            "requests_served": self.requests_served,
        }


class _Session:
    """One hosted engine + its persistent serving state."""

    def __init__(
        self,
        name: str,
        engine: InfluentialCommunityEngine,
        serving_config: Optional[ServingConfig] = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.serving = BatchQueryEngine(engine, config=serving_config)
        self.created_unix = time.time()
        self.requests_served = 0
        self.lock = threading.RLock()

    def info(self) -> SessionInfo:
        return SessionInfo(
            name=self.name,
            engine=self.engine.describe(),
            created_unix=self.created_unix,
            requests_served=self.requests_served,
        )


def _read_response(session: _Session, result, elapsed_seconds: float):
    """The ``topl``/``dtopl`` response that carries ``result``.

    A read response is its result's dataclass plus the envelope fields.
    """
    response_type = DToplResponse if isinstance(result, DTopLResult) else ToplResponse
    return response_type(
        session=session.name,
        epoch=session.engine.epoch,
        elapsed_seconds=elapsed_seconds,
        **vars(result),
    )


def _pruning_from_wire(pruning: Optional[dict]) -> Optional[PruningConfig]:
    if pruning is None:
        return None
    return PruningConfig(
        keyword=pruning.get("keyword", True),
        support=pruning.get("support", True),
        score=pruning.get("score", True),
    )


class CommunityService:
    """The versioned service facade: sessions in, typed responses out.

    Parameters
    ----------
    serving_config:
        Default :class:`~repro.serve.batch.ServingConfig` for the serving
        engine each session keeps (cache capacities).
    """

    def __init__(self, serving_config: Optional[ServingConfig] = None) -> None:
        self._serving_config = serving_config
        self._sessions: dict[str, _Session] = {}
        self._registry_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # session registry
    # ------------------------------------------------------------------ #
    def session_names(self) -> list[str]:
        """Names of the hosted sessions, sorted."""
        with self._registry_lock:
            return sorted(self._sessions)

    def has_session(self, name: str) -> bool:
        """Whether a session of this name is hosted."""
        with self._registry_lock:
            return name in self._sessions

    def engine(self, session: str = "default") -> InfluentialCommunityEngine:
        """The engine behind ``session`` (for in-process callers)."""
        return self._session(session).engine

    def serving(self, session: str = "default") -> BatchQueryEngine:
        """The persistent serving engine of ``session`` (caches included)."""
        return self._session(session).serving

    def adopt(
        self,
        engine: InfluentialCommunityEngine,
        session: str = "default",
        replace: bool = False,
        serving_config: Optional[ServingConfig] = None,
    ) -> str:
        """Register an already-built engine as a named session.

        The programmatic fast path for callers that hold an engine object —
        the workload runner, deprecation shims, tests — so they share the
        facade's serving machinery without a wire round trip.
        ``serving_config`` overrides the service-wide default for this
        session (cache capacities).
        """
        if not session:
            raise MalformedRequestError("session name must be non-empty")
        with self._registry_lock:
            if session in self._sessions and not replace:
                raise SessionExistsError(session)
            self._sessions[session] = _Session(
                session,
                engine,
                serving_config=(
                    self._serving_config if serving_config is None else serving_config
                ),
            )
        return session

    def drop_session(self, session: str) -> None:
        """Forget a session (its engine is garbage once callers release it)."""
        with self._registry_lock:
            if session not in self._sessions:
                raise UnknownSessionError(session)
            del self._sessions[session]

    def _session(self, name: str) -> _Session:
        with self._registry_lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise UnknownSessionError(name) from None

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def build(self, request: BuildRequest) -> BuildResponse:
        """``POST /v1/build``: offline phase (or store open) into a session."""
        started = time.perf_counter()
        # Fail fast: the offline phase is the expensive step, so a doomed
        # session name must be rejected before it runs (a concurrent build
        # racing for the same name is still caught by `adopt` below).
        if not request.replace and self.has_session(request.session):
            raise SessionExistsError(request.session)
        if request.graph is not None:
            graph = graph_from_dict(request.graph)
        elif request.graph_path is not None:
            graph = load_graph_json(request.graph_path)
        else:
            graph = None  # store-backed: the store carries the graph
        config_kwargs = without_retired_settings(request.config or {})
        known = {f.name for f in dataclasses.fields(EngineConfig)}
        unknown = set(config_kwargs) - known
        if unknown:
            raise MalformedRequestError(
                f"BuildRequest.config carries unknown settings {sorted(unknown)}"
            )
        if "thresholds" in config_kwargs:
            try:
                config_kwargs["thresholds"] = tuple(config_kwargs["thresholds"])
            except TypeError:
                raise MalformedRequestError(
                    "BuildRequest.config.thresholds must be a list of numbers, "
                    f"got {config_kwargs['thresholds']!r}"
                ) from None
        if request.store_path is not None:
            # Opening a packed store: no offline phase at all.  The store's
            # own shape parameters are authoritative (`from_store` rejects
            # overrides that would invalidate the packed records); backend
            # and serving knobs remain overridable.
            try:
                engine = InfluentialCommunityEngine.from_store(
                    request.store_path, config_overrides=config_kwargs or None
                )
            except TypeError as exc:
                raise MalformedRequestError(
                    f"BuildRequest.config is invalid: {exc}"
                ) from exc
        else:
            try:
                config = EngineConfig(**config_kwargs)
            except TypeError as exc:
                # e.g. a string where EngineConfig's validators compare ints.
                raise MalformedRequestError(
                    f"BuildRequest.config is invalid: {exc}"
                ) from exc
            engine = InfluentialCommunityEngine.build(
                graph, config=config, validate=request.validate
            )
        if request.save_store_path is not None:
            engine.checkpoint_store(request.save_store_path)
        self.adopt(engine, session=request.session, replace=request.replace)
        return BuildResponse(
            session=request.session,
            epoch=engine.epoch,
            elapsed_seconds=time.perf_counter() - started,
            engine=engine.describe(),
        )

    def topl(self, request: ToplRequest) -> ToplResponse:
        """``POST /v1/topl``: one TopL-ICDE query through the session caches."""
        return self._read(request)

    def dtopl(self, request: DToplRequest) -> DToplResponse:
        """``POST /v1/dtopl``: one DTopL-ICDE query through the session caches."""
        return self._read(request)

    def _read(self, request: Union[ToplRequest, DToplRequest]):
        session = self._session(request.session)
        started = time.perf_counter()
        with session.lock:
            result = self._answer(session, request.query, request.pruning)
            session.requests_served += 1
            return _read_response(session, result, time.perf_counter() - started)

    def cached_body(self, endpoint: str, payload) -> Optional[bytes]:
        """The response body of a ``topl``/``dtopl`` result-cache hit, or ``None``.

        The gateway calls this on its event loop before it hands a read to
        the executor, so it never waits on a lock.  It answers a plain hit
        only, and returns ``None`` for anything else, which
        :meth:`handle_json` then answers: another endpoint, a request that
        does not decode, a ``pruning`` override, an unknown session, a lock
        held by another thread, an engine updated since the session's last
        read, result caching off, or a miss.  A hit counts in the cache
        statistics and in ``requests_served`` exactly as :meth:`topl` would
        count it, and the body is ``json.dumps`` of :meth:`topl`'s document
        byte for byte, ``elapsed_seconds`` aside.  The entry keeps the
        encoded tail, so later hits dump only the envelope.
        """
        if endpoint not in ("topl", "dtopl"):
            return None
        from repro.service.schema import decode_request

        try:
            request = decode_request(endpoint, payload)
        except Exception:
            return None
        if request.pruning is not None:
            return None
        # `adopt` holds the registry lock while it builds a serving engine.
        if not self._registry_lock.acquire(blocking=False):
            return None
        try:
            session = self._sessions.get(request.session)
        finally:
            self._registry_lock.release()
        if session is None:
            return None
        started = time.perf_counter()
        if not session.lock.acquire(blocking=False):
            return None
        try:
            entry = session.serving.cached(request.query)
            if entry is None:
                return None
            session.requests_served += 1
            if entry.wire_tail is None:
                document = _read_response(session, entry.result, 0.0).to_json()
                entry.wire_tail = response_tail(document)
            return response_body(
                session.name,
                session.engine.epoch,
                time.perf_counter() - started,
                entry.wire_tail,
            )
        finally:
            session.lock.release()

    def _answer(self, session: _Session, query, pruning: Optional[dict]):
        """Route one query through the session's serving engine.

        A request-level pruning override bypasses the serving caches (their
        keys assume the serving engine's own pruning config) and queries the
        engine directly — correctness first, caching where it is sound.
        """
        override = _pruning_from_wire(pruning)
        if override is not None:
            from repro.query.params import DTopLQuery

            if isinstance(query, DTopLQuery):
                return session.engine.dtopl(query, pruning=override)
            return session.engine.topl(query, pruning=override)
        return session.serving.answer(query)

    def answer_one(self, session: str, query):
        """Answer one typed query through a session's caches (streaming path).

        The gateway's NDJSON batch streaming uses this per query so it takes
        the session lock around each answer instead of the whole batch —
        other requests interleave between streamed results.
        """
        state = self._session(session)
        with state.lock:
            result = state.serving.answer(query)
            state.requests_served += 1
            return result

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """``POST /v1/update``: apply an edit script, keep the index in sync."""
        session = self._session(request.session)
        started = time.perf_counter()
        with session.lock:
            report = session.engine.apply_updates(
                UpdateBatch(request.edits),
                damage_threshold=request.damage_threshold,
                rebuild=request.rebuild,
            )
            session.requests_served += 1
            return UpdateResponse(
                session=session.name,
                epoch=session.engine.epoch,
                elapsed_seconds=time.perf_counter() - started,
                report=report.as_dict(),
                graph=session.engine.graph_summary(),
            )

    def batch(self, request: BatchRequest) -> BatchResponse:
        """``POST /v1/batch``: a mixed batch through the session's serving engine."""
        session = self._session(request.session)
        started = time.perf_counter()
        with session.lock:
            serving = session.serving
            override = _pruning_from_wire(request.pruning)
            if override is not None:
                # A pruning override gets its own serving engine (cache keys
                # include the pruning config at construction time), but it
                # keeps the session's cache capacities, which must not
                # silently change per request.
                serving = BatchQueryEngine(
                    session.engine, config=session.serving.config, pruning=override
                )
            batch = serving.run(request.queries)
            session.requests_served += 1
            return BatchResponse(
                session=session.name,
                epoch=session.engine.epoch,
                elapsed_seconds=time.perf_counter() - started,
                results=tuple(result_to_wire(result) for result in batch),
                statistics=batch.statistics.as_dict(),
                cache_statistics=serving.cache_statistics(),
            )

    def sessions(self) -> SessionsResponse:
        """``GET /v1/sessions``: summaries of every hosted session."""
        with self._registry_lock:
            infos = [self._sessions[name].info() for name in sorted(self._sessions)]
        return SessionsResponse(sessions=tuple(info.to_json() for info in infos))

    def health(self) -> HealthResponse:
        """``GET /v1/health``: liveness + per-session engine diagnostics.

        Re-uses :meth:`InfluentialCommunityEngine.describe` per session, so
        backend, epoch and store provenance surface here without a
        second diagnostic path to keep in sync.
        """
        with self._registry_lock:
            sessions = tuple(
                {
                    "name": name,
                    "epoch": state.engine.epoch,
                    "engine": state.engine.describe(),
                }
                for name, state in sorted(self._sessions.items())
            )
        return HealthResponse(status="ok", sessions=sessions)

    # ------------------------------------------------------------------ #
    # generic dispatch (shared by the gateway and `handle_json`)
    # ------------------------------------------------------------------ #
    _DISPATCH = {
        BuildRequest: "build",
        ToplRequest: "topl",
        DToplRequest: "dtopl",
        UpdateRequest: "update",
        BatchRequest: "batch",
    }

    def dispatch(self, request: Request):
        """Execute any typed request; returns the matching typed response."""
        try:
            handler = self._DISPATCH[type(request)]
        except KeyError:
            raise MalformedRequestError(
                f"unsupported request type {type(request).__name__}"
            ) from None
        return getattr(self, handler)(request)

    def handle_json(self, endpoint: str, payload) -> tuple[dict, Optional[ErrorResponse]]:
        """Decode + dispatch one wire document; never raises for API errors.

        Returns ``(response_document, None)`` on success and
        ``(error_document, ErrorResponse)`` when the request was rejected —
        the second element lets the gateway pick the HTTP status without
        re-parsing the document it is about to send.
        """
        from repro.service.schema import decode_request

        session = payload.get("session") if isinstance(payload, dict) else None
        try:
            request = decode_request(endpoint, payload)
            response = self.dispatch(request)
            return response.to_json(), None
        except Exception as error:
            # ReproError carries its message onto the wire; anything else
            # becomes an opaque INTERNAL document — either way the client
            # gets a structured response, never a dropped connection.
            failure = ErrorResponse(
                error=service_error_from_exception(error),
                session=session if isinstance(session, str) else None,
            )
            return failure.to_json(), failure

    @property
    def api_version(self) -> str:
        """The version reported in every response envelope."""
        return _API_VERSION
