"""Front door: keep-alive, framing, coalescing, backpressure, streaming.

Besides the ``/v1`` surface (``test_gateway.py``), the
:class:`AsyncServiceGateway` owes its clients connection reuse, a closed
connection whenever a request body cannot be delimited (so unread bytes are
never parsed as the next request), quiet handling of clients that vanish,
single execution of identical in-flight reads, a bounded pending queue
that answers ``429`` with ``Retry-After`` instead of queueing without
limit, a closed connection for clients that stall mid-request or sit
idle between requests, and result-cache hits answered on the event loop
with the executor path's bytes and counters.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.dynamic.updates import EdgeUpdate
from repro.query.params import make_dtopl_query, make_topl_query
from repro.service import agateway as agateway_mod
from repro.service.agateway import MAX_BODY_BYTES, AsyncServiceGateway
from repro.service.facade import CommunityService
from repro.service.schema import (
    BatchRequest,
    BuildRequest,
    DToplRequest,
    ToplRequest,
    UpdateRequest,
    result_to_wire,
)

TOPL = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)


@pytest.fixture(scope="module")
def gateway(built_engine):
    service = CommunityService()
    service.adopt(built_engine, session="hosted")
    with AsyncServiceGateway(service, port=0) as running:
        yield running


def post(conn, path, document):
    conn.request(
        "POST",
        path,
        body=json.dumps(document),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestRoutesAndKeepAlive:
    def test_health_and_sessions(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200
            assert body["status"] == "ok"
            conn.request("GET", "/v1/sessions")
            response = conn.getresponse()
            assert response.status == 200
            assert "hosted" in [
                s["name"] for s in json.loads(response.read())["sessions"]
            ]
        finally:
            conn.close()

    def test_keep_alive_reuses_one_connection(self, gateway):
        """Two sequential requests travel over a single TCP connection."""
        before = gateway.statistics()["connections"]
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            document = ToplRequest(query=TOPL, session="hosted").to_json()
            status_1, body_1 = post(conn, "/v1/topl", document)
            status_2, body_2 = post(conn, "/v1/topl", document)
        finally:
            conn.close()
        assert status_1 == status_2 == 200
        assert body_1["communities"] == body_2["communities"]
        # http.client raises on an unexpectedly closed keep-alive socket, so
        # reaching here proves reuse; the counter pins it down exactly.
        assert gateway.statistics()["connections"] == before + 1

    def test_answers_match_the_facade(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            status, body = post(
                conn, "/v1/topl", ToplRequest(query=TOPL, session="hosted").to_json()
            )
        finally:
            conn.close()
        assert status == 200
        direct = gateway.service.engine("hosted").topl(TOPL)
        from repro.service.schema import community_to_wire

        assert body["communities"] == json.loads(
            json.dumps([community_to_wire(c) for c in direct.communities])
        )

    def test_unknown_routes_and_methods(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            conn.request("GET", "/v1/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"]["code"] == "NOT_FOUND"
            conn.request("PUT", "/v1/topl", body=b"{}")
            response = conn.getresponse()
            assert response.status == 405
            body = json.loads(response.read())
            assert body["error"]["code"] == "METHOD_NOT_ALLOWED"
        finally:
            conn.close()

    def test_malformed_body_is_a_structured_error(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/topl",
                body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert (
                json.loads(response.read())["error"]["code"] == "MALFORMED_REQUEST"
            )
            # ... and the connection is still usable afterwards.
            conn.request("GET", "/v1/health")
            assert conn.getresponse().status == 200
        finally:
            conn.close()


class TestStreaming:
    def test_ndjson_batch_stream(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            document = BatchRequest(session="hosted", queries=(TOPL, TOPL)).to_json()
            conn.request(
                "POST",
                "/v1/batch?stream=1",
                body=json.dumps(document),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            lines = [json.loads(line) for line in response.read().splitlines()]
        finally:
            conn.close()
        assert [line["kind"] for line in lines] == ["result", "result", "summary"]
        assert lines[-1]["answered"] == 2

    def test_disconnect_mid_stream_is_quiet(self, gateway):
        """A client that vanishes mid-stream must not wedge the gateway."""
        before = gateway.statistics()["streamed"]
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        document = BatchRequest(
            session="hosted", queries=tuple([TOPL] * 6)
        ).to_json()
        conn.request(
            "POST",
            "/v1/batch?stream=1",
            body=json.dumps(document),
            headers={"Content-Type": "application/json"},
        )
        # Read the status line, then hang up without draining the stream.
        response = conn.getresponse()
        assert response.status == 200
        conn.close()
        assert gateway.statistics()["streamed"] == before + 1
        # The gateway still answers new connections.
        probe = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            probe.request("GET", "/v1/health")
            assert probe.getresponse().status == 200
        finally:
            probe.close()


def test_disconnect_mid_stream_does_not_crash_the_handler(gateway):
    """Hang up mid-NDJSON-stream; the gateway must stay serviceable."""
    document = BatchRequest(session="hosted", queries=tuple([TOPL] * 8)).to_json()
    body = json.dumps(document).encode("utf-8")
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/batch?stream=1 HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        # Wait for the stream to start (status line + first result line),
        # then vanish abruptly (RST via SO_LINGER 0, the rudest way a
        # client can leave).
        raw.settimeout(10)
        data = b""
        while data.count(b"\n") < 2:
            chunk = raw.recv(4096)
            if not chunk:
                break
            data += chunk
        assert data.startswith(b"HTTP/1.1 200")
        raw.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    time.sleep(0.2)  # let the handler hit the broken pipe
    # The gateway answers follow-up requests: the handler died quietly.
    probe = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
    try:
        probe.request("GET", "/v1/health")
        assert probe.getresponse().status == 200
    finally:
        probe.close()


def _response_head(raw) -> str:
    raw.settimeout(10)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = raw.recv(4096)
        if not chunk:
            break
        data += chunk
    return data.split(b"\r\n\r\n", 1)[0].decode("latin-1")


def test_invalid_content_length_closes_the_connection(gateway):
    """An unconsumed body must not poison the keep-alive byte stream."""
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/topl HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: nonsense\r\n"
            b"\r\n"
        )
        head = _response_head(raw)
        assert " 400 " in head.splitlines()[0]
        assert "connection: close" in head.lower()
        # The server closes: recv drains to EOF instead of waiting for a
        # next request that would misparse leftover bytes.
        while True:
            chunk = raw.recv(4096)
            if not chunk:
                break


def test_oversized_content_length_closes_the_connection(gateway):
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/topl HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode() + b"\r\n"
            b"\r\n"
        )
        head = _response_head(raw)
        assert head.splitlines()[0] == "HTTP/1.1 413 Request Entity Too Large"
        assert "connection: close" in head.lower()


@pytest.mark.parametrize(
    "framing",
    [b"", b"Content-Length: -1\r\n", b"Transfer-Encoding: chunked\r\n"],
    ids=["no-content-length", "negative-content-length", "transfer-encoding"],
)
def test_undelimited_post_body_is_not_parsed_as_a_request(gateway, framing):
    """A body the gateway cannot delimit must not smuggle a second request."""
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/topl HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n"
            b"GET /v1/sessions HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        raw.shutdown(socket.SHUT_WR)
        raw.settimeout(10)
        data = b""
        while True:
            chunk = raw.recv(4096)
            if not chunk:
                break
            data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"connection: close" in head.lower()
    # Exactly one response, then EOF: the smuggled GET was never answered.
    assert b"HTTP/1.1" not in body
    assert json.loads(body)["error"]["code"] == "MALFORMED_REQUEST"


def _read_until_closed(raw) -> bytes:
    """Everything the server sends before it closes (fails after 10 s)."""
    raw.settimeout(10)
    data = b""
    while True:
        chunk = raw.recv(4096)
        if not chunk:
            return data
        data += chunk


class TestStalledClients:
    """Stalled and idle connections are closed, not held open forever."""

    @pytest.fixture(autouse=True)
    def short_timeouts(self, monkeypatch):
        monkeypatch.setattr(agateway_mod, "IDLE_TIMEOUT_SECONDS", 0.3)
        monkeypatch.setattr(agateway_mod, "READ_TIMEOUT_SECONDS", 0.5)

    def test_half_sent_header_is_closed(self, gateway):
        with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
            raw.sendall(b"POST /v1/topl HTTP/1.1\r\nHost: x\r\n")
            assert _read_until_closed(raw) == b""

    def test_body_that_never_arrives_is_closed(self, gateway):
        with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
            raw.sendall(
                b"POST /v1/topl HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: 100\r\n"
                b"\r\n"
                b'{"query":'
            )
            assert _read_until_closed(raw) == b""

    def test_idle_keep_alive_connection_is_closed(self, gateway):
        with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
            raw.sendall(b"GET /v1/sessions HTTP/1.1\r\nHost: x\r\n\r\n")
            head, body = _read_until_closed(raw).split(b"\r\n\r\n", 1)
            # One keep-alive answer, then the idle connection is closed.
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"connection: close" not in head.lower()
            assert json.loads(body)["sessions"]

    def test_slow_client_within_the_limit_is_answered(self, gateway, monkeypatch):
        monkeypatch.setattr(agateway_mod, "READ_TIMEOUT_SECONDS", 5.0)
        body = json.dumps(ToplRequest(query=TOPL, session="hosted").to_json()).encode()
        request = (
            b"POST /v1/topl HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Connection: close\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
            # Each pause is under the idle timeout, and the whole request
            # arrives well inside the read timeout.
            for start in range(0, len(request), len(request) // 4 + 1):
                raw.sendall(request[start : start + len(request) // 4 + 1])
                time.sleep(0.2)
            head, answer = _read_until_closed(raw).split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(answer)["communities"]


class _SlowService(CommunityService):
    """Counts executions and holds each one until released."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.release = threading.Event()

    def handle_json(self, endpoint, payload):
        self.calls += 1
        self.release.wait(timeout=10)
        return {"ok": True, "calls": self.calls}, None


def _fetch(gateway, results, index):
    conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
    try:
        status, body = post(conn, "/v1/topl", {"same": "payload"})
        results[index] = (status, body)
    finally:
        conn.close()


class TestCoalescingAndBackpressure:
    def test_identical_inflight_requests_execute_once(self):
        service = _SlowService()
        with AsyncServiceGateway(service, port=0) as gateway:
            results = {}
            threads = [
                threading.Thread(target=_fetch, args=(gateway, results, index))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            deadline = time.time() + 5
            while service.calls == 0 and time.time() < deadline:
                time.sleep(0.01)
            # Give the stragglers time to land on the in-flight future.
            time.sleep(0.3)
            service.release.set()
            for thread in threads:
                thread.join(timeout=10)
            assert service.calls == 1
            assert [results[i] for i in range(4)] == [(200, {"ok": True, "calls": 1})] * 4
            assert gateway.statistics()["coalesced"] == 3

    def test_mutations_are_never_coalesced(self):
        service = _SlowService()
        service.release.set()  # no need to block for this one
        with AsyncServiceGateway(service, port=0) as gateway:
            conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                post(conn, "/v1/update", {"same": "payload"})
                post(conn, "/v1/update", {"same": "payload"})
            finally:
                conn.close()
            assert service.calls == 2
            assert gateway.statistics()["coalesced"] == 0

    def test_overload_answers_429_with_retry_after(self):
        service = _SlowService()
        with AsyncServiceGateway(service, port=0, max_pending=1) as gateway:
            results = {}
            # Two *different* payloads so coalescing cannot absorb the second.
            blocker = threading.Thread(
                target=lambda: _fetch(gateway, results, 0)
            )
            blocker.start()
            deadline = time.time() + 5
            while service.calls == 0 and time.time() < deadline:
                time.sleep(0.01)
            conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/v1/topl",
                    body=json.dumps({"different": "payload"}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            service.release.set()
            blocker.join(timeout=10)
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert body["error"]["code"] == "OVERLOADED"
            assert gateway.statistics()["rejected"] == 1


class _CountingService(CommunityService):
    """Records the endpoint of every request that reaches ``handle_json``."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def handle_json(self, endpoint, payload):
        self.executed.append(endpoint)
        return super().handle_json(endpoint, payload)


def _raw_post(conn, path, document):
    conn.request(
        "POST",
        path,
        body=json.dumps(document),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, response.read()


def _requests_served(service, session):
    (info,) = [s for s in service.sessions().sessions if s["name"] == session]
    return info["requests_served"]


def _zipf_stream(count, seed):
    """Reads over a small query pool, repeated with Zipf-like weights."""
    keyword_sets = (
        {"movies", "books"},
        {"technology"},
        {"skincare"},
        {"crafts", "fitness"},
        {"sports"},
        {"movies"},
        {"cooking", "home-decor"},
    )
    pool = []
    for keywords in keyword_sets:
        pool.append(("topl", make_topl_query(keywords, k=3, radius=2, theta=0.2, top_l=3)))
        pool.append(
            ("dtopl", make_dtopl_query(keywords, k=3, radius=2, theta=0.2, top_l=2))
        )
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    return random.Random(seed).choices(pool, weights=weights, k=count)


def _wire_request(endpoint, query, session):
    request_type = DToplRequest if endpoint == "dtopl" else ToplRequest
    return request_type(query=query, session=session).to_json()


class TestCacheHitsOnTheLoop:
    """Result-cache hits are answered on the event loop, misses on the executor."""

    def test_zipf_stream_matches_an_in_process_twin(self, built_engine):
        service = _CountingService()
        service.adopt(built_engine, session="hosted")
        twin = CommunityService()
        twin.adopt(built_engine, session="hosted")
        stream = _zipf_stream(80, seed=11)
        with AsyncServiceGateway(service, port=0) as gateway:
            conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                for endpoint, query in stream:
                    document = _wire_request(endpoint, query, "hosted")
                    status, body = _raw_post(conn, f"/v1/{endpoint}", document)
                    expected, failure = twin.handle_json(endpoint, document)
                    assert status == 200 and failure is None
                    served = json.loads(body)
                    expected["elapsed_seconds"] = served["elapsed_seconds"]
                    expected["statistics"]["elapsed_seconds"] = served["statistics"][
                        "elapsed_seconds"
                    ]
                    assert body == json.dumps(expected).encode("utf-8")
            finally:
                conn.close()
            counters = gateway.statistics()
        assert counters["requests"] == len(stream)
        assert counters["coalesced"] == 0
        assert counters["rejected"] == 0
        cache = service.serving("hosted").cache_statistics()
        assert cache == twin.serving("hosted").cache_statistics()
        assert _requests_served(service, "hosted") == len(stream)
        assert _requests_served(twin, "hosted") == len(stream)
        # Only the misses took the executor; every hit was answered on the loop.
        misses = cache["result_cache"]["misses"]
        assert 0 < misses < len(stream)
        assert len(service.executed) == misses
        assert cache["result_cache"]["hits"] == len(stream) - misses

    def test_a_held_session_lock_does_not_block_the_loop(self, built_engine):
        service = CommunityService()
        service.adopt(built_engine, session="hosted")
        document = ToplRequest(query=TOPL, session="hosted").to_json()
        with AsyncServiceGateway(service, port=0) as gateway:
            conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                status, warm = _raw_post(conn, "/v1/topl", document)
                assert status == 200
                results = {}

                def read():
                    reader_conn = http.client.HTTPConnection(
                        gateway.host, gateway.port, timeout=30
                    )
                    try:
                        results["read"] = _raw_post(reader_conn, "/v1/topl", document)
                    finally:
                        reader_conn.close()

                lock = service._session("hosted").lock
                lock.acquire()
                try:
                    before = gateway.statistics()["requests"]
                    reader = threading.Thread(target=read)
                    reader.start()
                    deadline = time.time() + 5
                    while gateway.statistics()["requests"] == before and time.time() < deadline:
                        time.sleep(0.01)
                    # The cached read is parked behind the lock: health still answers.
                    started = time.perf_counter()
                    conn.request("GET", "/v1/health")
                    health = conn.getresponse()
                    assert json.loads(health.read())["status"] == "ok"
                    assert time.perf_counter() - started < 5
                    reader.join(timeout=0.3)
                    assert reader.is_alive() and "read" not in results
                finally:
                    lock.release()
                reader.join(timeout=10)
            finally:
                conn.close()
        status, body = results["read"]
        assert status == 200
        assert json.loads(body)["communities"] == json.loads(warm)["communities"]
        assert service.serving("hosted").cache_statistics()["result_cache"]["hits"] == 1

    def test_cached_body_never_waits_on_a_lock(self, built_engine):
        service = CommunityService()
        service.adopt(built_engine, session="hosted")
        document = ToplRequest(query=TOPL, session="hosted").to_json()
        service.handle_json("topl", document)
        assert service.cached_body("topl", document) is not None
        for lock in (service._session("hosted").lock, service._registry_lock):
            held, release = threading.Event(), threading.Event()

            def hold(lock=lock):
                with lock:
                    held.set()
                    release.wait(timeout=10)

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert held.wait(timeout=5)
                assert service.cached_body("topl", document) is None
            finally:
                release.set()
                holder.join(timeout=10)
        assert service.cached_body("topl", document) is not None

    def test_an_update_retires_the_cached_body(self, service_graph_doc):
        service = CommunityService()
        service.build(
            BuildRequest(session="live", graph=service_graph_doc, config={"max_radius": 2})
        )
        document = ToplRequest(query=TOPL, session="live").to_json()
        with AsyncServiceGateway(service, port=0) as gateway:
            conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                post(conn, "/v1/topl", document)
                status, before = post(conn, "/v1/topl", document)
                assert status == 200 and before["epoch"] == 0
                status, updated = post(
                    conn,
                    "/v1/update",
                    UpdateRequest(
                        session="live",
                        edits=(EdgeUpdate.insert(0, 61, 0.4),),
                        damage_threshold=1.0,
                    ).to_json(),
                )
                assert status == 200 and updated["epoch"] == 1
                # The serving engine has not seen the new epoch yet.
                assert service.cached_body("topl", document) is None
                status, after = post(conn, "/v1/topl", document)
            finally:
                conn.close()
        assert status == 200 and after["epoch"] == 1
        assert after["communities"] == json.loads(
            json.dumps(result_to_wire(service.engine("live").topl(TOPL))["communities"])
        )
        cache = service.serving("live").cache_statistics()["result_cache"]
        assert (cache["hits"], cache["misses"]) == (1, 2)

    def test_overrides_and_malformed_requests_reach_handle_json(self, built_engine):
        service = _CountingService()
        service.adopt(built_engine, session="hosted")
        plain = ToplRequest(query=TOPL, session="hosted").to_json()
        override = ToplRequest(
            query=TOPL, session="hosted", pruning={"score": False}
        ).to_json()
        malformed = {"schema_version": 1, "session": "hosted"}
        with AsyncServiceGateway(service, port=0) as gateway:
            conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                assert post(conn, "/v1/topl", plain)[0] == 200
                assert post(conn, "/v1/topl", plain)[0] == 200
                assert post(conn, "/v1/topl", override)[0] == 200
                assert post(conn, "/v1/topl", override)[0] == 200
                status, body = post(conn, "/v1/topl", malformed)
            finally:
                conn.close()
        assert status == 400
        assert body["error"]["code"] == "MALFORMED_REQUEST"
        # The second plain read was a hit on the loop; nothing else was.
        assert service.executed == ["topl"] * 4
