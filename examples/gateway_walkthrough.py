"""Gateway walkthrough: a build -> topl -> update -> topl HTTP round trip.

Starts an in-process :class:`repro.service.AsyncServiceGateway`, then talks to it
purely over HTTP with :mod:`urllib` — exactly what a remote client would do.
Each step's request and response documents are captured as JSON transcripts
(the CI gateway-smoke job uploads them as an artifact)::

    PYTHONPATH=src python examples/gateway_walkthrough.py --out transcripts/

The script asserts the lifecycle invariants along the way: the update bumps
the engine epoch, and the post-update answer differs from a stale cache
(the epoch-tagged caches make serving a pre-update result impossible).
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from pathlib import Path

from repro.graph.datasets import uni
from repro.graph.io import graph_to_dict
from repro.query.params import make_topl_query
from repro.service.agateway import AsyncServiceGateway
from repro.service.facade import CommunityService
from repro.service.schema import (
    BuildRequest,
    ToplRequest,
    UpdateRequest,
    query_to_wire,
)


def post(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=150)
    parser.add_argument(
        "--out", default=None, help="directory for the JSON transcripts"
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="build the session from a packed repro.store file instead of an "
        "inline graph document (exercises the mmap cold-start path)",
    )
    args = parser.parse_args(argv)

    transcripts: list[tuple[str, dict, dict]] = []

    def step(name: str, request_document: dict, response_document: dict) -> dict:
        transcripts.append((name, request_document, response_document))
        print(f"[{name}] -> epoch {response_document.get('epoch', '-')}")
        return response_document

    graph = uni(num_vertices=args.vertices, rng=7)
    query = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)

    service = CommunityService()

    store_dir = None
    store_path = None
    if args.store:
        # Pack the offline phase into a store file up front; the gateway
        # session then cold-starts from it (no offline phase server-side).
        import tempfile

        from repro.core.config import EngineConfig
        from repro.core.engine import InfluentialCommunityEngine
        from repro.store import pack_store

        store_dir = tempfile.TemporaryDirectory(prefix="repro-store-")
        store_path = str(Path(store_dir.name) / "walkthrough.repro-store")
        packed = InfluentialCommunityEngine.build(graph, config=EngineConfig(max_radius=2))
        info = pack_store(packed, store_path)
        print(f"packed store: {info['sections']} sections, {info['file_size']} bytes")

    with AsyncServiceGateway(service, port=0) as gateway:
        print(f"gateway listening on {gateway.url}")

        if args.store:
            build_doc = BuildRequest(
                session="walkthrough", store_path=store_path
            ).to_json()
        else:
            build_doc = BuildRequest(
                session="walkthrough",
                graph=graph_to_dict(graph),
                config={"max_radius": 2},
            ).to_json()
        build = step("build", build_doc, post(gateway.url + "/v1/build", build_doc))
        assert build["epoch"] == 0, build
        if args.store:
            provenance = build["engine"]["store"]
            assert provenance["store_backed"] and provenance["attached"], provenance
            assert provenance["residency"] == "mmap", provenance

        topl_doc = ToplRequest(query=query, session="walkthrough").to_json()
        before = step("topl", topl_doc, post(gateway.url + "/v1/topl", topl_doc))
        assert before["epoch"] == 0

        # Attach a strongly-influenced new user to the best community's
        # centre: the update must be visible in the next answer (the new
        # vertex joins g_inf, so the score changes — a stale cache hit
        # would be caught immediately).
        best = before["communities"][0]
        update_doc = UpdateRequest(session="walkthrough", edits=()).to_json()
        update_doc["edits"] = [
            {
                "op": "insert",
                "u": best["center"],
                "v": "walkthrough-new-user",
                "p_uv": 0.9,
                "p_vu": 0.9,
                "keywords_v": ["movies"],
            }
        ]
        update_doc["damage_threshold"] = 1.0
        update = step(
            "update", update_doc, post(gateway.url + "/v1/update", update_doc)
        )
        assert update["epoch"] == 1, update

        after = step("topl-after", topl_doc, post(gateway.url + "/v1/topl", topl_doc))
        assert after["epoch"] == 1
        assert after["communities"] != before["communities"], (
            "post-update answer identical to the pre-update one - stale cache?"
        )

        health = get(gateway.url + "/v1/health")
        transcripts.append(("health", {"query": query_to_wire(query)}, health))
        (session,) = [s for s in health["sessions"] if s["name"] == "walkthrough"]
        assert session["epoch"] == 1
        if args.store:
            # Still store-backed, but the update moved the engine past the
            # packed generation — provenance must say so.
            provenance = session["engine"]["store"]
            assert provenance["store_backed"], provenance
            assert not provenance["attached"], provenance

    if store_dir is not None:
        store_dir.cleanup()

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for position, (name, request_document, response_document) in enumerate(
            transcripts
        ):
            path = out_dir / f"{position:02d}-{name}.json"
            path.write_text(
                json.dumps(
                    {"request": request_document, "response": response_document},
                    indent=2,
                )
            )
        print(f"{len(transcripts)} transcripts written to {out_dir}/")

    print("walkthrough OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
