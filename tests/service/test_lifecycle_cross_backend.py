"""Cross-backend lifecycle property test through :class:`CommunityService`.

Seeded edit scripts drive the full service lifecycle — build → update →
topl/dtopl → update → batch — against two sessions over the same graph, one
per backend, asserting every response **bit-identical** on the wire: the
fast session's snapshot is patched in place (DeltaCSR overlay, no
re-freeze) while the reference session patches dict structures, and a
remote client must not be able to tell them apart — with the default
pruning stack and with a request-level pruning override alike.
"""

from __future__ import annotations

import random

import pytest

from repro.dynamic.updates import random_update_batch
from repro.graph.generators import planted_community_graph
from repro.graph.io import graph_to_dict
from repro.query.params import make_dtopl_query, make_topl_query
from repro.service.facade import CommunityService
from repro.service.schema import BatchRequest, BuildRequest, DToplRequest, ToplRequest, UpdateRequest
from tests.service.conftest import wire

QUERIES = [
    make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3),
    make_topl_query({"sports"}, k=3, radius=1, theta=0.1, top_l=5),
    make_topl_query({"movies"}, k=4, radius=2, theta=0.1, top_l=4),
    make_dtopl_query({"movies", "music"}, k=3, radius=2, theta=0.2, top_l=2),
    make_dtopl_query({"books"}, k=4, radius=2, theta=0.1, top_l=3, candidate_factor=2),
]

#: Request-level pruning override: answered off a per-request serving engine.
NO_SCORE_PRUNING = {"score": False}


def _lifecycle_graph(seed: int):
    """Nine planted communities of 12, two of the query keywords per vertex.

    Dense enough that every lifecycle query has communities to return, so
    the cross-backend comparisons are over real answers.
    """
    graph = planted_community_graph(
        [12] * 9, intra_probability=0.5, inter_probability=0.01, rng=7 + seed,
        name="lifecycle",
    )
    rng = random.Random(seed)
    for vertex in graph.vertices():
        graph.set_keywords(vertex, rng.sample(("movies", "books", "sports", "music"), 2))
    return graph


def _answer_both(service: CommunityService, query) -> dict:
    """One query on both sessions, as timing-free wire documents."""
    if isinstance(query, type(QUERIES[0])):
        request_type = ToplRequest
    else:
        request_type = DToplRequest
    return {
        backend: wire(service.dispatch(request_type(session=backend, query=query)))
        for backend in ("reference", "fast")
    }


def _build_sessions(service: CommunityService, graph_doc: dict) -> None:
    for backend in ("reference", "fast"):
        service.build(
            BuildRequest(
                session=backend,
                graph=graph_doc,
                config={"max_radius": 2, "backend": backend},
                validate=False,
            )
        )


def _run_lifecycle(service: CommunityService, seed: int) -> None:
    graph = _lifecycle_graph(seed)
    _build_sessions(service, graph_to_dict(graph))
    nonempty = 0
    for query in QUERIES:
        answered = _answer_both(service, query)
        assert answered["reference"] == answered["fast"], (seed, "before updates", query)
        nonempty += bool(answered["fast"]["communities"])
    assert nonempty >= 1, seed
    script = random_update_batch(
        graph, 14, rng=seed, insert_ratio=0.5, grow_probability=0.2,
        keyword_pool=("movies", "books", "sports"),
    )
    half = len(script) // 2
    chunks = [tuple(script[:half]), tuple(script[half:])]

    for round_index, edits in enumerate(chunks):
        responses = {}
        for backend in ("reference", "fast"):
            responses[backend] = service.update(
                UpdateRequest(session=backend, edits=edits, damage_threshold=1.0)
            )
        ours, theirs = (wire(responses[b]) for b in ("reference", "fast"))
        # Reports agree on everything except the backend-specific overlay
        # fields (the reference backend has no overlay to dirty).
        for report in (ours["report"], theirs["report"]):
            report.pop("overlay_dirt_ratio")
            report.pop("compacted")
            report.pop("applied_mode")
        assert ours == theirs, (seed, round_index)

        for query in QUERIES:
            answered = _answer_both(service, query)
            assert answered["reference"] == answered["fast"], (seed, round_index, query)

        overridden = {
            backend: wire(
                service.batch(
                    BatchRequest(
                        session=backend, queries=tuple(QUERIES), pruning=NO_SCORE_PRUNING
                    )
                )
            )
            for backend in ("reference", "fast")
        }
        assert overridden["reference"] == overridden["fast"], (
            seed, round_index, "pruning override",
        )

    batch_responses = {
        backend: service.batch(
            BatchRequest(session=backend, queries=tuple(QUERIES))
        )
        for backend in ("reference", "fast")
    }
    ours, theirs = (wire(batch_responses[b]) for b in ("reference", "fast"))
    for document in (ours, theirs):
        document.pop("cache_statistics", None)
    assert ours == theirs, seed

    for backend in ("reference", "fast"):
        service.drop_session(backend)


@pytest.mark.parametrize("seed", range(3))
def test_lifecycle_bit_identical_across_backends(seed):
    """build → update → topl/dtopl → update → batch: fast ≡ reference."""
    _run_lifecycle(CommunityService(), seed)


def test_fast_session_snapshot_is_patched_not_refrozen():
    """The service update path must never re-freeze the fast session's graph."""
    import repro.graph.social_network as social_network_module

    service = CommunityService()
    graph = _lifecycle_graph(3)
    _build_sessions(service, graph_to_dict(graph))
    script = random_update_batch(graph, 8, rng=5, insert_ratio=0.5)

    calls = []
    original = social_network_module.SocialNetwork.freeze

    def counting_freeze(self):
        calls.append(self.name)
        return original(self)

    social_network_module.SocialNetwork.freeze = counting_freeze
    try:
        response = service.update(
            UpdateRequest(session="fast", edits=tuple(script), damage_threshold=1.0)
        )
        answer = service.topl(ToplRequest(session="fast", query=QUERIES[0]))
    finally:
        social_network_module.SocialNetwork.freeze = original
    assert response.report["mode"] == "incremental"
    assert answer.communities is not None
    assert calls == [], f"freeze() was called on the incremental fast path: {calls}"
    for backend in ("reference", "fast"):
        service.drop_session(backend)
