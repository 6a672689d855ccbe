"""Cross-backend replay of the graph-family catalog through CommunityService.

Seven cases cross the paper's graph families (planted communities, power
law, small world, two-mode, G(n, p) and the DBLP/Amazon stand-ins) with
three edge-probability models and three traffic shapes.  Each case builds
its network and a mixed read/update trace deterministically from its seed,
replays the trace on a ``reference`` and a ``fast`` session, and asserts:

* every timing-free wire document ``==`` across the two backends (update
  reports and the build summary modulo the fields only one backend has);
* the same final epoch and edge count on both sides;
* at least the case's floor of non-empty answers on the reference side, so
  a case cannot pass by comparing empty answers.

The pinned sha256 digests fix each case's graph and trace byte for byte.
The four small cases run in every tier; the three larger ones are ``slow``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.graph.core import AdjacencyCore
from repro.graph.datasets import amazon_like, dblp_like
from repro.graph.generators import (
    assign_trivalency,
    assign_weighted_cascade,
    barabasi_albert_graph,
    bipartite_ish_graph,
    erdos_renyi_graph,
    newman_watts_strogatz_graph,
    planted_community_graph,
)
from repro.graph.io import graph_to_dict
from repro.graph.keyword_assignment import assign_keywords
from repro.graph.social_network import SocialNetwork
from repro.graph.validation import largest_connected_component
from repro.query.params import make_dtopl_query, make_topl_query
from repro.service.facade import CommunityService
from repro.service.schema import (
    BuildRequest,
    DToplRequest,
    ToplRequest,
    UpdateRequest,
    query_to_wire,
)
from repro.store import pack_store
from tests.service.conftest import wire

#: Offline-phase settings shared by both sessions of every case.
MAX_RADIUS = 2
THRESHOLDS = (0.1, 0.2, 0.3)
#: 1.0 keeps every trace update on the incremental path.
DAMAGE_THRESHOLD = 1.0

#: Edge-probability models, each a ``(graph, rng) -> None`` step applied last.
MODELS = {
    "as_generated": lambda graph, rng: None,
    "weighted_cascade": lambda graph, rng: assign_weighted_cascade(graph),
    "trivalency": lambda graph, rng: assign_trivalency(graph, rng=rng),
}

#: Update-report fields only the fast backend's CSR overlay has values for.
_BACKEND_SPECIFIC_REPORT_FIELDS = ("overlay_dirt_ratio", "compacted", "applied_mode")


@dataclass(frozen=True)
class Case:
    """One catalog case: recipe × probability model × trace × query shape."""

    seed: int
    recipe: partial
    keyword_domain: int
    model: str
    trace: dict
    queries: dict
    floor: int
    graph_sha256: str
    trace_sha256: str


CASES = [
    pytest.param(
        Case(
            seed=101,
            recipe=partial(
                planted_community_graph,
                [44] * 5,
                intra_probability=0.3,
                inter_probability=0.01,
                name="planted-5x44",
            ),
            keyword_domain=12,
            model="weighted_cascade",
            trace=dict(kind="bursty", operations=18, burst_length=3),
            queries=dict(num_keywords=4, k=3, radius=2, theta=0.01, top_l=3),
            floor=3,
            graph_sha256="d3c8da1368c131a914c6af4149ff82a3be085126f5b9853921ef6af99b4f0184",
            trace_sha256="ba53b59fadf45c8fb6275c55d6fc0d48903bba661e4d98d26987b336f8db6add",
        ),
        id="planted-wc-bursty",
    ),
    pytest.param(
        Case(
            seed=102,
            recipe=partial(barabasi_albert_graph, 240, edges_per_vertex=4, name="power-law"),
            keyword_domain=12,
            model="trivalency",
            trace=dict(kind="hot_key_skew", operations=18, hot_keys=4),
            queries=dict(num_keywords=4, k=3, radius=2, theta=0.005, top_l=3),
            floor=3,
            graph_sha256="188386ff6a9376cc8cecbf8cb8fb8f450aeb735875d04469f3eaaa257d6127c7",
            trace_sha256="d47e608fd6fa6bf6f9fc8f39e282a6f6cc5a2f1316500509762b33e8efc980ed",
        ),
        id="powerlaw-tri-hotkey",
    ),
    pytest.param(
        Case(
            seed=103,
            recipe=partial(
                newman_watts_strogatz_graph,
                200,
                ring_neighbors=6,
                shortcut_probability=0.2,
                name="small-world",
            ),
            keyword_domain=10,
            model="as_generated",
            trace=dict(kind="bursty", operations=18, dtopl_share=0.35),
            queries=dict(num_keywords=3, k=3, radius=2, theta=0.1, top_l=3),
            floor=3,
            graph_sha256="db3e0c8d4abd8a4ccc4716a67f0c5b42246e8ab880670ae11b8be90be56f6f9d",
            trace_sha256="33ae9dc85a4a9688b2a0db86c0a57c9d058d5abcd1b968bf5fbe1777c70bcb70",
        ),
        id="smallworld-asgen-bursty",
    ),
    pytest.param(
        Case(
            seed=104,
            recipe=partial(
                bipartite_ish_graph,
                100,
                100,
                edges_per_right=3,
                closure_probability=0.35,
                name="bipartite-ish",
            ),
            keyword_domain=10,
            model="weighted_cascade",
            trace=dict(
                kind="adversarial_churn", operations=18, update_share=0.25, edits_per_update=5
            ),
            queries=dict(num_keywords=4, k=3, radius=2, theta=0.01, top_l=3),
            floor=1,
            graph_sha256="55bf0de7a394c77fc8e818cd961805b7627ca70c40dd22e0834316be8dab6bbf",
            trace_sha256="774ee385d787f8de529a9cc5223738bdf53c70ca55c8fa27dd464e9ec44f84b8",
        ),
        id="bipartite-wc-churn",
    ),
    pytest.param(
        Case(
            seed=105,
            recipe=partial(dblp_like, num_vertices=300, keywords_per_vertex=3, domain_size=14),
            keyword_domain=14,
            model="trivalency",
            trace=dict(
                kind="adversarial_churn", operations=24, update_share=0.2, edits_per_update=8
            ),
            queries=dict(num_keywords=4, k=3, radius=2, theta=0.005, top_l=5),
            floor=5,
            graph_sha256="5bcc499da7a6f77d155b95e82a7067e1a36df6e69b490fe42f4de72bccb5ef5a",
            trace_sha256="39dd5a32fa5bd3eee11de425a168f0bd0b0ba0ac9091f49fbeb94534c09555af",
        ),
        id="dblp-tri-churn",
        marks=pytest.mark.slow,
    ),
    pytest.param(
        Case(
            seed=106,
            recipe=partial(amazon_like, num_vertices=400, keywords_per_vertex=3, domain_size=14),
            keyword_domain=14,
            model="weighted_cascade",
            trace=dict(kind="hot_key_skew", operations=30, hot_keys=6),
            queries=dict(num_keywords=4, k=3, radius=2, theta=0.01, top_l=5),
            floor=5,
            graph_sha256="685ab8ab59e2339acb152b3d2895b6e47b3fd4a1f9c04ed3561d9fc53e327c97",
            trace_sha256="ece65f1722a448cc185df509de6022d4f2f3b5bb8c77764f103f060ba759d24d",
        ),
        id="amazon-wc-hotkey",
        marks=pytest.mark.slow,
    ),
    pytest.param(
        Case(
            seed=107,
            recipe=partial(erdos_renyi_graph, 320, 10.0 / 319, name="erdos-renyi"),
            keyword_domain=12,
            model="as_generated",
            trace=dict(kind="bursty", operations=24, burst_length=4),
            queries=dict(num_keywords=3, k=3, radius=2, theta=0.1, top_l=3),
            floor=3,
            graph_sha256="64773b3d024e1169f211f17cc377578e97d15cac3a3e6097b73175b779304056",
            trace_sha256="5d420ea209d2aed50515f0fe5d75246e74cf46ca1934bb5778fb587cf7c63c3b",
        ),
        id="erdosrenyi-asgen-bursty",
        marks=pytest.mark.slow,
    ),
]


def _case(name: str) -> Case:
    return next(param.values[0] for param in CASES if param.id == name)


# --------------------------------------------------------------------------- #
# graph and trace synthesis
# --------------------------------------------------------------------------- #
def build_graph(recipe: partial, *, seed: int, keyword_domain: int, model: str) -> SocialNetwork:
    """Recipe → largest connected component → keywords → probability model.

    Each step draws from its own ``random.Random(f"{seed}:<step>")``.
    """
    graph = recipe(rng=random.Random(f"{seed}:graph"))
    name = graph.name
    graph = largest_connected_component(graph)
    graph.name = name
    assign_keywords(
        graph,
        keywords_per_vertex=3,
        distribution="uniform",
        domain_size=keyword_domain,
        rng=random.Random(f"{seed}:keywords"),
    )
    MODELS[model](graph, random.Random(f"{seed}:probabilities"))
    return graph


def _spread(total: int, picks: int):
    """Yield ``picks`` evenly spread positions in ``range(total)`` (Bresenham)."""
    for index in range(total):
        if (index * picks) // total != ((index + 1) * picks) // total:
            yield index


def _harmonic_choice(rng: random.Random, count: int) -> int:
    """Pick an index in ``range(count)`` with probability ∝ 1 / (index + 1)."""
    weights = [1.0 / (rank + 1) for rank in range(count)]
    threshold = rng.random() * sum(weights)
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if threshold < cumulative:
            return index
    return count - 1


def synthesize_trace(
    graph: SocialNetwork,
    *,
    seed: int,
    kind: str,
    operations: int,
    num_keywords: int,
    k: int,
    radius: int,
    theta: float,
    top_l: int,
    update_share: float = 0.15,
    edits_per_update: int = 6,
    dtopl_share: float = 0.25,
    burst_length: int = 4,
    hot_keys: int = 4,
    focus_radius: int = 2,
    candidate_factor: int = 3,
) -> list:
    """The ``[(op, payload)]`` trace: ``("topl"|"dtopl", query)`` or ``("update", batch)``.

    ``kind`` shapes the reads: ``bursty`` repeats one keyword set
    ``burst_length`` times; ``hot_key_skew`` draws from ``hot_keys`` sets
    under a 1/rank skew; ``adversarial_churn`` samples fresh sets while every
    edit batch churns the highest-degree vertex's neighbourhood.  Batches
    are drawn against an evolving copy of ``graph`` (which is not mutated),
    so the trace replays without an invalid edit.
    """
    num_updates = min(operations, round(operations * update_share))
    num_queries = operations - num_updates
    num_dtopl = min(num_queries, round(num_queries * dtopl_share))

    domain = sorted(graph.keyword_domain())
    if not domain:
        raise ValueError("cannot sample queries from a graph with no keywords")
    sample_size = min(num_keywords, len(domain))
    query_rng = random.Random(f"{seed}:queries")
    update_rng = random.Random(f"{seed}:updates")

    def sample_keywords() -> frozenset:
        return frozenset(query_rng.sample(domain, sample_size))

    # Drawn first, so pool membership does not depend on the reads before it.
    hot_pool = [sample_keywords() for _ in range(hot_keys)]
    update_slots = set(_spread(operations, num_updates))
    dtopl_slots = set(_spread(num_queries, num_dtopl))

    focus = None
    if kind == "adversarial_churn":
        focus = max(graph.vertices(), key=lambda v: (graph.degree(v), str(v)))
    evolving = graph.copy()
    evolving_core = AdjacencyCore(evolving)

    def next_batch() -> UpdateBatch:
        if focus is not None and evolving.has_vertex(focus):
            batch = random_update_batch(
                evolving,
                edits_per_update,
                rng=update_rng,
                insert_ratio=0.5,
                focus=focus,
                focus_radius=focus_radius,
            )
        else:
            batch = random_update_batch(
                evolving,
                edits_per_update,
                rng=update_rng,
                insert_ratio=0.6,
                grow_probability=0.1,
                keyword_pool=domain,
            )
        batch.apply_to(evolving_core)
        return batch

    trace = []
    query_index = 0
    burst_keywords: Optional[frozenset] = None
    for position in range(operations):
        if position in update_slots:
            trace.append(("update", next_batch()))
            continue
        if kind == "bursty":
            if query_index % burst_length == 0:
                burst_keywords = sample_keywords()
            keywords = burst_keywords
        elif kind == "hot_key_skew":
            keywords = hot_pool[_harmonic_choice(query_rng, len(hot_pool))]
        else:
            keywords = sample_keywords()
        if query_index in dtopl_slots:
            query = make_dtopl_query(
                keywords, k=k, radius=radius, theta=theta, top_l=top_l,
                candidate_factor=candidate_factor,
            )
            trace.append(("dtopl", query))
        else:
            query = make_topl_query(keywords, k=k, radius=radius, theta=theta, top_l=top_l)
            trace.append(("topl", query))
        query_index += 1
    return trace


def trace_to_json(trace) -> list:
    return [
        {"op": op, "edits": payload.to_json()}
        if op == "update"
        else {"op": op, "query": query_to_wire(payload)}
        for op, payload in trace
    ]


def _sha256(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_inputs(case: Case):
    graph = build_graph(
        case.recipe, seed=case.seed, keyword_domain=case.keyword_domain, model=case.model
    )
    return graph, synthesize_trace(graph, seed=case.seed, **case.trace, **case.queries)


# --------------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------------- #
def _comparable(op: str, document: dict) -> dict:
    if op == "update":
        for key in _BACKEND_SPECIFIC_REPORT_FIELDS:
            document["report"].pop(key, None)
    elif op == "build":
        # The summary names its backend and carries that backend's diagnostics.
        engine = document["engine"]
        for key in ("backend", "kernels", "dynamic"):
            engine.pop(key, None)
        engine["config"].pop("backend", None)
    return document


def replay(service: CommunityService, backend: str, trace, **source) -> dict:
    """Build a ``backend`` session from ``source`` and replay ``trace`` on it.

    ``source`` is ``graph=<graph document>`` or ``store_path=<packed store>``.
    """
    if "store_path" in source:
        request = BuildRequest(session=backend, config={"backend": backend}, replace=True, **source)
    else:
        request = BuildRequest(
            session=backend,
            config={"backend": backend, "max_radius": MAX_RADIUS, "thresholds": list(THRESHOLDS)},
            validate=False,
            replace=True,
            **source,
        )
    response = service.build(request)
    documents = [_comparable("build", wire(response))]
    num_edges = response.engine["graph"]["num_edges"]
    nonempty = 0
    for op, payload in trace:
        if op == "update":
            response = service.update(
                UpdateRequest(
                    session=backend, edits=tuple(payload), damage_threshold=DAMAGE_THRESHOLD
                )
            )
            num_edges = response.graph["num_edges"]
        elif op == "topl":
            response = service.topl(ToplRequest(session=backend, query=payload))
            nonempty += bool(response.communities)
        else:
            response = service.dtopl(DToplRequest(session=backend, query=payload))
            nonempty += bool(response.communities)
        documents.append(_comparable(op, wire(response)))
    return {
        "documents": documents,
        "epoch": response.epoch,
        "num_edges": num_edges,
        "nonempty": nonempty,
    }


def assert_backends_agree(trace, floor: int, **source) -> None:
    service = CommunityService()
    reference, fast = (replay(service, backend, trace, **source) for backend in ("reference", "fast"))
    assert len(reference["documents"]) == len(fast["documents"]) == len(trace) + 1
    for position, (ours, theirs) in enumerate(zip(reference["documents"], fast["documents"])):
        assert ours == theirs, f"backends diverged at trace operation {position}"
    assert reference["epoch"] == fast["epoch"] >= 1
    assert reference["num_edges"] == fast["num_edges"]
    assert reference["nonempty"] >= floor


@pytest.mark.parametrize("case", CASES)
def test_catalog_case_replays_identically_on_both_backends(case):
    graph, trace = case_inputs(case)
    assert_backends_agree(trace, case.floor, graph=graph_to_dict(graph))


def test_store_backed_replay_agrees(tmp_path):
    """Both sessions cold-start from one packed store and still agree."""
    case = _case("bipartite-wc-churn")
    graph, trace = case_inputs(case)
    store_path = str(tmp_path / "catalog.repro-store")
    packed = InfluentialCommunityEngine.build(
        graph, config=EngineConfig(max_radius=MAX_RADIUS, thresholds=THRESHOLDS), validate=False
    )
    pack_store(packed, store_path)
    assert_backends_agree(trace, case.floor, store_path=store_path)


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case", [pytest.param(p.values[0], id=p.id) for p in CASES])
def test_case_inputs_are_pinned(case):
    graph, trace = case_inputs(case)
    assert _sha256(graph_to_dict(graph)) == case.graph_sha256
    assert _sha256(trace_to_json(trace)) == case.trace_sha256


def test_case_table_covers_every_recipe_model_and_shape():
    cases = [param.values[0] for param in CASES]
    assert {case.recipe.func for case in cases} == {
        planted_community_graph,
        barabasi_albert_graph,
        newman_watts_strogatz_graph,
        bipartite_ish_graph,
        erdos_renyi_graph,
        dblp_like,
        amazon_like,
    }
    assert {case.model for case in cases} == set(MODELS)
    assert {case.trace["kind"] for case in cases} == {
        "bursty",
        "hot_key_skew",
        "adversarial_churn",
    }


SMALL_QUERIES = dict(num_keywords=4, k=3, radius=2, theta=0.1, top_l=3)


@pytest.fixture(scope="module")
def small_graph():
    return build_graph(
        partial(newman_watts_strogatz_graph, 80, name="small-world"),
        seed=11,
        keyword_domain=8,
        model="as_generated",
    )


def _small_trace(graph, seed=11, **trace):
    knobs = dict(kind="bursty", operations=12, update_share=0.25, edits_per_update=3)
    knobs.update(trace)
    return synthesize_trace(graph, seed=seed, **knobs, **SMALL_QUERIES)


def test_different_seed_changes_the_trace(small_graph):
    assert trace_to_json(_small_trace(small_graph, seed=11)) == trace_to_json(
        _small_trace(small_graph, seed=11)
    )
    assert trace_to_json(_small_trace(small_graph, seed=11)) != trace_to_json(
        _small_trace(small_graph, seed=12)
    )


@pytest.mark.parametrize("kind", ["bursty", "hot_key_skew", "adversarial_churn"])
def test_every_trace_shape_applies_sequentially(small_graph, kind):
    trace = _small_trace(small_graph, kind=kind)
    evolving = small_graph.copy()
    batches = [payload for op, payload in trace if op == "update"]
    assert batches
    core = AdjacencyCore(evolving)
    for batch in batches:
        batch.apply_to(core)


def test_trace_composition(small_graph):
    trace = _small_trace(small_graph, dtopl_share=0.25)
    ops = [op for op, _ in trace]
    assert len(ops) == 12
    assert ops.count("update") == 3  # round(12 * 0.25)
    assert ops.count("dtopl") == 2  # round(9 * 0.25)
    assert ops.count("topl") == 7


def test_trace_requires_keywords(small_graph):
    bare = small_graph.copy()
    for vertex in bare.vertices():
        bare.set_keywords(vertex, ())
    with pytest.raises(ValueError, match="keyword"):
        _small_trace(bare)
