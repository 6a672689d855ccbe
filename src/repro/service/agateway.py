"""HTTP front door: the service API over the wire, stdlib only.

:class:`AsyncServiceGateway` exposes a
:class:`~repro.service.facade.CommunityService` from a single ``asyncio``
event loop:

================================  =============================================
endpoint                          request / response document
================================  =============================================
``POST /v1/build``                :class:`~repro.service.schema.BuildRequest`
``POST /v1/topl``                 :class:`~repro.service.schema.ToplRequest`
``POST /v1/dtopl``                :class:`~repro.service.schema.DToplRequest`
``POST /v1/update``               :class:`~repro.service.schema.UpdateRequest`
``POST /v1/batch``                :class:`~repro.service.schema.BatchRequest`
``GET  /v1/sessions``             :class:`~repro.service.schema.SessionsResponse`
``GET  /v1/health``               :class:`~repro.service.schema.HealthResponse`
================================  =============================================

Success responses are ``application/json``.  Errors are
:class:`~repro.service.schema.ErrorResponse` documents whose HTTP status
comes from the structured error code (404 for ``UNKNOWN_SESSION``, 422 for
``QUERY_PARAMETER_INVALID``, ...), so remote clients can branch on either.

* **keep-alive** — HTTP/1.1 with ``Content-Length`` responses; one
  connection carries any number of requests.  A request whose body cannot
  be delimited (no or malformed ``Content-Length``, any
  ``Transfer-Encoding``, an oversized body) is answered and the connection
  closed, so unread bytes are never parsed as the next request.
* **streaming** — ``POST /v1/batch?stream=1`` (or ``Accept:
  application/x-ndjson``) answers one ``{"kind": "result"}`` NDJSON line per
  query as it completes, then one ``{"kind": "summary"}`` line; the closed
  connection delimits the stream.
* **coalescing** — identical in-flight *read* requests (``topl``, ``dtopl``,
  buffered ``batch``) execute once; every waiter gets the same response
  document.  Mutations (``build``, ``update``) are never coalesced.
* **backpressure** — at most ``max_pending`` requests execute concurrently
  on the executor; beyond that the gateway answers ``429`` with a
  ``Retry-After`` header instead of piling up unbounded work.
* **cache hits on the loop** — a ``topl``/``dtopl`` read that hits the
  session's result cache is answered on the loop itself
  (:meth:`~repro.service.facade.CommunityService.cached_body`), from a
  body tail encoded once and kept with the cache entry.  The loop never
  waits on a lock: a read whose session is busy goes to the executor.  A
  hit holds no executor slot and is neither coalesced nor counted
  against ``max_pending``.
* every other request — misses, updates, builds, batches — runs the
  facade's blocking work on the default executor, so the loop itself never
  blocks and slow queries do not starve health probes.

Use it as a context manager (tests) or through ``serve_forever`` (the
CLI)::

    with AsyncServiceGateway(service, port=0) as gateway:
        urllib.request.urlopen(gateway.url + "/v1/health")

See ``docs/service.md`` for a curl walkthrough.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http import HTTPStatus
from typing import Optional
from urllib.parse import urlparse

from repro.exceptions import MalformedRequestError, ServingError
from repro.service.errors import ServiceError, service_error_from_exception
from repro.service.facade import CommunityService
from repro.service.schema import (
    SCHEMA_VERSION,
    BatchRequest,
    ErrorResponse,
    result_to_wire,
)

#: Largest request body the gateway will read, in bytes (64 MiB).  Inline
#: graph documents are the only legitimately large payloads.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a keep-alive connection may sit idle before its next request
#: starts; after that the gateway closes it.
IDLE_TIMEOUT_SECONDS = 75.0

#: Seconds a started request has to deliver the rest of its header block and
#: its whole body; a client that stalls mid-request is disconnected.
READ_TIMEOUT_SECONDS = 30.0

_POST_ENDPOINTS = ("build", "topl", "dtopl", "update", "batch")

#: Endpoints whose identical in-flight requests may share one execution.
#: Reads only: coalescing a mutation would acknowledge work it did once.
_COALESCABLE = ("topl", "dtopl", "batch")

#: Header block size limit (requests are JSON-over-POST; headers are small).
_MAX_HEADER_BYTES = 64 * 1024

#: Seconds a rejected client is told to back off before retrying.
RETRY_AFTER_SECONDS = 1

#: The TCP port the gateway listens on unless told otherwise.
DEFAULT_PORT = 8344


class AsyncServiceGateway:
    """One event loop, many connections, bounded concurrent work.

    Parameters
    ----------
    service:
        The :class:`CommunityService` to expose.
    max_pending:
        Concurrent-execution bound; further requests get ``429``.
        Coalesced waiters do not count — they hold no executor slot.
    """

    def __init__(
        self,
        service: Optional[CommunityService] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_pending: int = 64,
    ) -> None:
        self.service = service if service is not None else CommunityService()
        self._host = host
        self._requested_port = port
        self.max_pending = max_pending
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        # Loop-confined state (the single event-loop thread touches these).
        self._pending = 0
        self._inflight: dict = {}
        self._stats = {
            "requests": 0,
            "coalesced": 0,
            "rejected": 0,
            "streamed": 0,
            "connections": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._port is None:
            raise ServingError("gateway is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def statistics(self) -> dict:
        """Front-door counters (requests, coalesced, rejected, streams)."""
        return dict(self._stats)

    def start(self) -> "AsyncServiceGateway":
        """Run the event loop on a daemon thread; returns once bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-agateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover - hang guard
            raise ServingError("async gateway failed to start within 30s")
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        return self

    def shutdown(self) -> None:
        """Stop serving and release the port."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def serve_forever(self) -> None:
        """Foreground serving (the CLI path): start, then block until ^C."""
        self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.5)
        finally:
            self.shutdown()

    def __enter__(self) -> "AsyncServiceGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            self._loop = None
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_client,
                self._host,
                self._requested_port,
                limit=_MAX_HEADER_BYTES,
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop_event.wait()
        # Cancel still-open keep-alive connection handlers so the loop
        # closes without "task was destroyed but it is pending" noise.
        pending = [
            task for task in asyncio.all_tasks() if task is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader, writer) -> None:
        self._stats["connections"] += 1
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # the client went away, stalled or sent garbage framing: drop quietly
        except asyncio.CancelledError:
            pass  # gateway shutdown cancelled this keep-alive connection
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader, writer) -> Optional[dict]:
        """Parse one HTTP request; ``None`` on a clean EOF between requests.

        When the body cannot be delimited safely it is left unread and the
        request carries a ``framing_error`` ``(status, message)`` instead;
        the dispatcher answers it and closes the connection.

        The first byte of a request must arrive within
        :data:`IDLE_TIMEOUT_SECONDS`, the rest of it (header block and body)
        within :data:`READ_TIMEOUT_SECONDS`.  On expiry a timer aborts the
        transport, which ends the pending read as a client hang-up would.
        A timer handle rather than ``asyncio.wait_for`` keeps the keep-alive
        path free of a task per read.
        """
        loop = asyncio.get_running_loop()
        timer = loop.call_later(IDLE_TIMEOUT_SECONDS, writer.transport.abort)
        try:
            try:
                first = await reader.readexactly(1)
            except asyncio.IncompleteReadError:
                return None  # clean close (or idle timeout) between requests
            timer.cancel()
            timer = loop.call_later(READ_TIMEOUT_SECONDS, writer.transport.abort)
            return await self._read_rest_of_request(reader, first)
        finally:
            timer.cancel()

    async def _read_rest_of_request(self, reader, first: bytes) -> dict:
        head = first + await reader.readuntil(b"\r\n\r\n")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(partial=head, expected=None)
        method, target, version = parts
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        framing_error = None
        length = headers.get("content-length")
        if "transfer-encoding" in headers:
            framing_error = (400, "Transfer-Encoding is not supported; send Content-Length")
        elif length is None:
            if method == "POST":
                framing_error = (400, "a POST request requires a Content-Length header")
        elif not (length.isascii() and length.isdigit()):
            framing_error = (400, f"invalid Content-Length header {length!r}")
        elif int(length) > MAX_BODY_BYTES:
            framing_error = (
                413,
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit",
            )
        else:
            body = await reader.readexactly(int(length))
        return {
            "method": method,
            "target": target,
            "version": version,
            "headers": headers,
            "body": body,
            "framing_error": framing_error,
        }

    def _wants_close(self, request: dict) -> bool:
        connection = request["headers"].get("connection", "").lower()
        if "close" in connection:
            return True
        return request["version"] == "HTTP/1.0" and "keep-alive" not in connection

    # ------------------------------------------------------------------ #
    # responses
    # ------------------------------------------------------------------ #
    async def _send_json(
        self, writer, status: int, document: dict, extra_headers=(), close=False
    ) -> bool:
        body = json.dumps(document).encode("utf-8")
        return await self._send_body(
            writer, status, body, extra_headers=extra_headers, close=close
        )

    async def _send_body(
        self, writer, status: int, body: bytes, extra_headers=(), close=False
    ) -> bool:
        """Write one JSON response; ``False`` when the connection must end."""
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        head.extend(extra_headers)
        if close:
            head.append("Connection: close")
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False
        return not close

    async def _send_error(
        self, writer, status: int, code: str, message: str, extra_headers=(), close=False
    ) -> bool:
        document = ErrorResponse(error=ServiceError(code=code, message=message))
        return await self._send_json(
            writer, status, document.to_json(), extra_headers=extra_headers, close=close
        )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: dict, writer) -> bool:
        self._stats["requests"] += 1
        keep = not self._wants_close(request)
        method = request["method"]
        parsed = urlparse(request["target"])
        path = parsed.path.rstrip("/")

        if request["framing_error"] is not None:
            # The body was never read off the socket: must close.
            status, message = request["framing_error"]
            await self._send_error(writer, status, "MALFORMED_REQUEST", message, close=True)
            return False

        if method == "GET":
            loop = asyncio.get_running_loop()
            if path == "/v1/health":
                document = await loop.run_in_executor(
                    None, lambda: self.service.health().to_json()
                )
                return await self._send_json(writer, 200, document, close=not keep) and keep
            if path == "/v1/sessions":
                document = await loop.run_in_executor(
                    None, lambda: self.service.sessions().to_json()
                )
                return await self._send_json(writer, 200, document, close=not keep) and keep
            await self._send_error(
                writer, 404, "NOT_FOUND", f"no route for GET {path}", close=not keep
            )
            return keep

        if method != "POST":
            await self._send_error(
                writer,
                405,
                "METHOD_NOT_ALLOWED",
                f"{method} is not supported; use GET or POST",
                close=not keep,
            )
            return keep

        if not path.startswith("/v1/") or path[len("/v1/"):] not in _POST_ENDPOINTS:
            await self._send_error(
                writer, 404, "NOT_FOUND", f"no route for POST {path}", close=not keep
            )
            return keep
        endpoint = path[len("/v1/"):]

        try:
            payload = self._decode_body(request["body"])
        except MalformedRequestError as error:
            failure = ErrorResponse(error=service_error_from_exception(error))
            return (
                await self._send_json(
                    writer, failure.error.http_status, failure.to_json(), close=not keep
                )
                and keep
            )

        if endpoint == "batch" and self._wants_stream(request, parsed.query):
            await self._stream_batch(writer, payload)
            return False  # the closed connection delimits the stream

        body = self.service.cached_body(endpoint, payload)
        if body is not None:
            return await self._send_body(writer, 200, body, close=not keep) and keep

        if self._pending >= self.max_pending:
            self._stats["rejected"] += 1
            await self._send_error(
                writer,
                429,
                "OVERLOADED",
                f"{self._pending} requests already executing "
                f"(max_pending={self.max_pending}); retry shortly",
                extra_headers=(f"Retry-After: {RETRY_AFTER_SECONDS}",),
                close=not keep,
            )
            return keep

        document, failure = await self._execute(endpoint, payload)
        status = failure.error.http_status if failure is not None else 200
        return await self._send_json(writer, status, document, close=not keep) and keep

    def _decode_body(self, body: bytes) -> dict:
        if not body:
            raise MalformedRequestError("request body is required")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedRequestError(
                f"request body is not valid JSON: {exc}"
            ) from exc

    def _wants_stream(self, request: dict, query_string: str) -> bool:
        if "stream=1" in (query_string or "").split("&"):
            return True
        return "application/x-ndjson" in request["headers"].get("accept", "")

    async def _execute(self, endpoint: str, payload):
        """Run one facade call off-loop, coalescing identical in-flight reads."""
        loop = asyncio.get_running_loop()
        key = None
        if endpoint in _COALESCABLE:
            try:
                key = (endpoint, json.dumps(payload, sort_keys=True))
            except (TypeError, ValueError):  # unhashable/unserialisable: skip
                key = None
        if key is not None and key in self._inflight:
            self._stats["coalesced"] += 1
            return await asyncio.shield(self._inflight[key])

        future = loop.create_future()
        if key is not None:
            self._inflight[key] = future
        self._pending += 1
        try:
            outcome = await loop.run_in_executor(
                None, self.service.handle_json, endpoint, payload
            )
            future.set_result(outcome)
        except BaseException as error:  # pragma: no cover - executor failure
            future.set_exception(error)
            raise
        finally:
            self._pending -= 1
            if key is not None:
                self._inflight.pop(key, None)
        return outcome

    # ------------------------------------------------------------------ #
    # NDJSON streaming
    # ------------------------------------------------------------------ #
    async def _stream_batch(self, writer, payload) -> None:
        loop = asyncio.get_running_loop()
        try:
            request = BatchRequest.from_json(payload)
            if request.pruning is not None:
                raise MalformedRequestError(
                    "pruning overrides are not supported on the streaming batch path"
                )
            engine = self.service.engine(request.session)
        except Exception as error:
            failure = ErrorResponse(error=service_error_from_exception(error))
            await self._send_json(
                writer, failure.error.http_status, failure.to_json(), close=True
            )
            return

        self._stats["streamed"] += 1
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1"))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return

        async def write_line(document: dict) -> bool:
            try:
                writer.write(json.dumps(document).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return False
            return True

        started = time.perf_counter()
        answered = 0
        try:
            for position, query in enumerate(request.queries):
                result = await loop.run_in_executor(
                    None, self.service.answer_one, request.session, query
                )
                line = {
                    "kind": "result",
                    "position": position,
                    "result": result_to_wire(result),
                }
                if not await write_line(line):
                    return  # client gone mid-stream: drop quietly
                answered += 1
            await write_line(
                {
                    "kind": "summary",
                    "schema_version": SCHEMA_VERSION,
                    "api_version": self.service.api_version,
                    "session": request.session,
                    "epoch": engine.epoch,
                    "total_queries": len(request.queries),
                    "answered": answered,
                    "elapsed_seconds": time.perf_counter() - started,
                    "cache_statistics": self.service.serving(
                        request.session
                    ).cache_statistics(),
                }
            )
        except Exception as error:
            failure = ErrorResponse(error=service_error_from_exception(error))
            line = failure.to_json()
            line["kind"] = "error"
            await write_line(line)
