"""HTTP gateway tests: routing, error statuses, NDJSON streaming.

Driven through ``urllib`` (one connection per request); the keep-alive,
framing, coalescing and backpressure behaviours live in
``test_agateway.py``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.query.params import make_dtopl_query, make_topl_query
from repro.service.agateway import AsyncServiceGateway
from repro.service.facade import CommunityService
from repro.service.schema import (
    SCHEMA_VERSION,
    BatchRequest,
    BuildRequest,
    DToplRequest,
    ToplRequest,
    UpdateRequest,
    community_to_wire,
)
from repro.dynamic.updates import EdgeUpdate

TOPL = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)
DTOPL = make_dtopl_query({"movies"}, k=3, radius=2, theta=0.2, top_l=2)


@pytest.fixture(scope="module")
def gateway(built_engine):
    service = CommunityService()
    service.adopt(built_engine, session="hosted")
    with AsyncServiceGateway(service, port=0) as running:
        yield running


def http(gateway, method, path, document=None, headers=None):
    """One HTTP round trip; returns (status, parsed_body_bytes)."""
    data = None if document is None else json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        gateway.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def http_json(gateway, method, path, document=None, headers=None):
    status, body = http(gateway, method, path, document, headers)
    return status, json.loads(body)


class TestRoutes:
    def test_health_reports_sessions_and_diagnostics(self, gateway):
        status, body = http_json(gateway, "GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        (session,) = [s for s in body["sessions"] if s["name"] == "hosted"]
        assert session["engine"]["backend"] == "reference"
        assert session["engine"]["store"] == {"store_backed": False}
        assert session["engine"]["dynamic"] == {"upp_rows": None, "upp_entries": None}

    def test_sessions_listing(self, gateway):
        status, body = http_json(gateway, "GET", "/v1/sessions")
        assert status == 200
        assert "hosted" in [s["name"] for s in body["sessions"]]

    def test_topl_round_trip(self, gateway):
        status, body = http_json(
            gateway, "POST", "/v1/topl",
            ToplRequest(query=TOPL, session="hosted").to_json(),
        )
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["session"] == "hosted"
        assert len(body["communities"]) <= TOPL.top_l
        # The gateway answer is bit-identical to the in-process one.
        direct = gateway.service.engine("hosted").topl(TOPL)
        assert body["communities"] == json.loads(
            json.dumps([community_to_wire(c) for c in direct.communities])
        )

    def test_dtopl_round_trip(self, gateway):
        status, body = http_json(
            gateway, "POST", "/v1/dtopl",
            DToplRequest(query=DTOPL, session="hosted").to_json(),
        )
        assert status == 200
        assert body["diversity_score"] >= 0.0

    def test_build_update_query_lifecycle(self, gateway, service_graph_doc):
        status, body = http_json(
            gateway, "POST", "/v1/build",
            BuildRequest(
                session="lifecycle",
                graph=service_graph_doc,
                config={"max_radius": 2},
            ).to_json(),
        )
        assert status == 200
        assert body["epoch"] == 0
        status, body = http_json(
            gateway, "POST", "/v1/update",
            UpdateRequest(
                session="lifecycle",
                edits=(EdgeUpdate.insert(0, 61, 0.4),),
                damage_threshold=1.0,
            ).to_json(),
        )
        assert status == 200
        assert body["epoch"] == 1
        status, body = http_json(
            gateway, "POST", "/v1/topl",
            ToplRequest(query=TOPL, session="lifecycle").to_json(),
        )
        assert status == 200
        assert body["epoch"] == 1

    def test_batch_buffered(self, gateway):
        status, body = http_json(
            gateway, "POST", "/v1/batch",
            BatchRequest(session="hosted", queries=(TOPL, DTOPL)).to_json(),
        )
        assert status == 200
        assert [r["type"] for r in body["results"]] == ["topl", "dtopl"]
        assert body["statistics"]["total_queries"] == 2
        assert "result_cache" in body["cache_statistics"]


class TestBatchWorkersField:
    """``BatchRequest.workers`` is retired: a batch that names it fails as
    ``MALFORMED_REQUEST`` with the field named, whatever its value."""

    @pytest.mark.parametrize(
        "workers", [1, 2, 64, 0, True], ids=["one", "two", "sixty-four", "zero", "true"]
    )
    def test_invalid_values_stay_malformed(self, gateway, workers):
        document = BatchRequest(session="hosted", queries=(TOPL,)).to_json()
        document["workers"] = workers
        status, body = http_json(gateway, "POST", "/v1/batch", document)
        assert status == 400
        assert body["error"]["code"] == "MALFORMED_REQUEST"
        assert "workers" in body["error"]["message"]

    def test_statistics_report_no_workers_or_mode(self, gateway):
        request = BatchRequest(session="hosted", queries=(TOPL, DTOPL, TOPL))
        status, body = http_json(gateway, "POST", "/v1/batch", request.to_json())
        assert status == 200
        assert body["statistics"]["total_queries"] == 3
        assert "workers" not in body["statistics"]
        assert "mode" not in body["statistics"]


class TestStreaming:
    def test_batch_ndjson_via_query_parameter(self, gateway):
        status, raw = http(
            gateway, "POST", "/v1/batch?stream=1",
            BatchRequest(session="hosted", queries=(TOPL, DTOPL, TOPL)).to_json(),
        )
        assert status == 200
        lines = [json.loads(line) for line in raw.splitlines()]
        assert [line["kind"] for line in lines] == [
            "result", "result", "result", "summary",
        ]
        assert [line["position"] for line in lines[:-1]] == [0, 1, 2]
        summary = lines[-1]
        assert summary["total_queries"] == 3
        assert summary["answered"] == 3
        assert summary["session"] == "hosted"
        assert "cache_statistics" in summary

    def test_batch_ndjson_via_accept_header(self, gateway):
        status, raw = http(
            gateway, "POST", "/v1/batch",
            BatchRequest(session="hosted", queries=(TOPL,)).to_json(),
            headers={"Accept": "application/x-ndjson"},
        )
        assert status == 200
        lines = [json.loads(line) for line in raw.splitlines()]
        assert [line["kind"] for line in lines] == ["result", "summary"]

    def test_streamed_results_match_buffered(self, gateway):
        document = BatchRequest(session="hosted", queries=(TOPL, DTOPL)).to_json()
        _, buffered = http_json(gateway, "POST", "/v1/batch", document)
        _, raw = http(gateway, "POST", "/v1/batch?stream=1", document)
        streamed = [
            json.loads(line)["result"]
            for line in raw.splitlines()
            if json.loads(line)["kind"] == "result"
        ]
        drop = lambda r: {k: v for k, v in r.items() if k != "statistics"}  # noqa: E731
        assert [drop(r) for r in streamed] == [drop(r) for r in buffered["results"]]

    def test_streaming_unknown_session_fails_before_stream(self, gateway):
        status, body = http_json(
            gateway, "POST", "/v1/batch?stream=1",
            BatchRequest(session="ghost", queries=(TOPL,)).to_json(),
        )
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_SESSION"


class TestErrorStatuses:
    def test_unknown_session_404(self, gateway):
        status, body = http_json(
            gateway, "POST", "/v1/topl",
            ToplRequest(query=TOPL, session="ghost").to_json(),
        )
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_SESSION"

    def test_malformed_json_400(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/v1/topl", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "MALFORMED_REQUEST"

    def test_empty_body_400(self, gateway):
        status, body = http_json(gateway, "POST", "/v1/topl", {})
        assert status == 400  # missing schema_version -> malformed
        assert body["error"]["code"] == "MALFORMED_REQUEST"

    def test_unsupported_schema_version_400(self, gateway):
        document = ToplRequest(query=TOPL, session="hosted").to_json()
        document["schema_version"] = 999
        status, body = http_json(gateway, "POST", "/v1/topl", document)
        assert status == 400
        assert body["error"]["code"] == "UNSUPPORTED_SCHEMA_VERSION"

    def test_out_of_range_query_parameter_422(self, gateway):
        document = ToplRequest(query=TOPL, session="hosted").to_json()
        document["query"]["k"] = 1
        status, body = http_json(gateway, "POST", "/v1/topl", document)
        assert status == 422
        assert body["error"]["code"] == "QUERY_PARAMETER_INVALID"

    def test_invalid_edit_script_422(self, gateway):
        document = UpdateRequest(session="hosted", edits=()).to_json()
        document["edits"] = [{"op": "delete", "u": 0, "v": 0}]
        status, body = http_json(gateway, "POST", "/v1/update", document)
        assert status == 422
        assert body["error"]["code"] == "DYNAMIC_UPDATE_INVALID"

    def test_unknown_route_404(self, gateway):
        status, body = http_json(gateway, "GET", "/v1/frobnicate")
        assert status == 404
        assert body["error"]["code"] == "NOT_FOUND"
        status, body = http_json(gateway, "POST", "/v1/frobnicate", {})
        assert status == 404

    def test_method_not_allowed_405(self, gateway):
        status, body = http_json(gateway, "DELETE", "/v1/health")
        assert status == 405
        assert body["error"]["code"] == "METHOD_NOT_ALLOWED"

    def test_duplicate_build_conflict_409(self, gateway, service_graph_doc):
        document = BuildRequest(session="hosted", graph=service_graph_doc).to_json()
        status, body = http_json(gateway, "POST", "/v1/build", document)
        assert status == 409
        assert body["error"]["code"] == "SESSION_EXISTS"
