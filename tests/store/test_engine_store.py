"""Engine-level store behaviour: provenance, attach/dirty, checkpoints."""

from __future__ import annotations

import dataclasses
import types

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.exceptions import QueryParameterError
from repro.query.params import make_topl_query
from repro.store import arena, open_store, pack_store
from repro.store.container import RawStore


TOPL = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=3)


def _fingerprint(result):
    return tuple(
        (community.vertices, round(community.score, 12)) for community in result
    )


def test_provenance_of_built_engine(store_engine):
    assert store_engine.store_provenance() == {"store_backed": False}
    assert store_engine.describe()["store"] == {"store_backed": False}


def test_provenance_of_store_backed_engine(packed_store):
    engine = InfluentialCommunityEngine.from_store(packed_store)
    provenance = engine.store_provenance()
    assert provenance["store_backed"] is True
    assert provenance["path"] == packed_store
    assert provenance["format_version"] == 2
    assert provenance["residency"] == "mmap"
    assert provenance["generation"] == 0
    assert provenance["attached"] is True
    assert provenance["file_size"] > 0
    assert engine.describe()["store"] == provenance


@pytest.mark.parametrize("backend", ("reference", "fast"))
def test_store_packed_with_kernel_tier_opens(store_graph, tmp_path, monkeypatch, backend):
    """Stores packed while ``kernel_tier`` was a setting carry it in their config.

    Such a file opens, the retired key is ignored, and the engine answers
    ``==`` a fresh build of the same graph.
    """
    config = EngineConfig(max_radius=2, backend=backend)
    built = InfluentialCommunityEngine.build(store_graph.copy(), config=config, validate=False)
    monkeypatch.setattr(
        arena,
        "dataclasses",
        types.SimpleNamespace(
            asdict=lambda value: {**dataclasses.asdict(value), "kernel_tier": "stdlib"}
        ),
    )
    path = str(tmp_path / "kernel-tier.repro-store")
    pack_store(built, path)
    monkeypatch.undo()
    packed = RawStore.open(path, use_mmap=False).json_section("meta")["config"]
    assert packed["kernel_tier"] == "stdlib"

    assert open_store(path).config == config
    opened = InfluentialCommunityEngine.from_store(path)
    fresh = InfluentialCommunityEngine.build(store_graph.copy(), config=config, validate=False)
    assert opened.config == fresh.config
    assert opened.index.precomputed.vertex_aggregates == fresh.index.precomputed.vertex_aggregates
    answers = [
        [(c.center, c.vertices, c.score) for c in engine.topl(TOPL)]
        for engine in (opened, fresh)
    ]
    assert answers[0] == answers[1] and answers[0]


def test_heap_residency(packed_store):
    engine = InfluentialCommunityEngine.from_store(packed_store, mmap=False)
    assert engine.store_provenance()["residency"] == "heap"


@pytest.mark.parametrize(
    "overrides",
    [
        {"max_radius": 1},
        {"thresholds": (0.5,)},
        {"num_bits": 32},
    ],
)
def test_shape_overrides_rejected(packed_store, overrides):
    """The packed records bake in the shape parameters — overriding them lies."""
    with pytest.raises(QueryParameterError, match="re-pack"):
        InfluentialCommunityEngine.from_store(packed_store, config_overrides=overrides)


def test_backend_override_allowed(packed_store):
    engine = InfluentialCommunityEngine.from_store(
        packed_store, config_overrides={"backend": "fast"}
    )
    assert engine.config.backend == "fast"
    # The fast backend never pays a freeze: the CSR is the store's own.
    assert engine.frozen_graph() is engine._store_handle.csr


def test_update_detaches_the_store(packed_store):
    engine = InfluentialCommunityEngine.from_store(packed_store)
    batch = UpdateBatch(
        [EdgeUpdate.insert(0, 900, 0.9, 0.9, keywords_v={"movies"})]
    )
    engine.apply_updates(batch, damage_threshold=1.0)
    assert engine.epoch == 1
    provenance = engine.store_provenance()
    assert provenance["store_backed"] is True  # origin is still the store...
    assert provenance["attached"] is False  # ...but no longer matches the file


def test_checkpoint_reanchors_the_attachment(packed_store, tmp_path):
    engine = InfluentialCommunityEngine.from_store(packed_store)
    batch = UpdateBatch(
        [EdgeUpdate.insert(0, 900, 0.9, 0.9, keywords_v={"movies"})]
    )
    assert engine.store_provenance()["attached"] is True
    engine.apply_updates(batch, damage_threshold=1.0)
    assert engine.store_provenance()["attached"] is False

    checkpoint = tmp_path / "gen1.repro-store"
    info = engine.checkpoint_store(str(checkpoint))
    assert info["generation"] == 1
    provenance = engine.store_provenance()
    assert provenance["attached"] is True
    assert provenance["path"] == str(checkpoint)
    assert provenance["generation"] == 1

    # The checkpoint captures the post-update state: a fresh attach answers
    # like the updated engine, including the inserted vertex.
    attached = InfluentialCommunityEngine.from_store(str(checkpoint))
    assert 900 in set(attached.graph.vertices())
    assert _fingerprint(attached.topl(TOPL)) == _fingerprint(engine.topl(TOPL))


def test_dynamic_updates_on_store_backed_fast_engine(store_graph_factory, packed_store):
    """DeltaCSR layers over the store-backed frozen core unchanged."""
    attached = InfluentialCommunityEngine.from_store(
        packed_store, config_overrides={"backend": "fast"}
    )
    rebuilt = InfluentialCommunityEngine.build(
        store_graph_factory(), config=attached.config, validate=False
    )
    batch = UpdateBatch(
        [EdgeUpdate.insert(1, 901, 0.8, 0.8, keywords_v={"movies"})]
    )
    report = attached.apply_updates(batch, damage_threshold=1.0)
    rebuilt.apply_updates(batch, damage_threshold=1.0)
    assert report.epoch == 1
    assert _fingerprint(attached.topl(TOPL)) == _fingerprint(rebuilt.topl(TOPL))


def test_checkpoint_generation_chain(packed_store, tmp_path):
    engine = InfluentialCommunityEngine.from_store(packed_store)
    first = tmp_path / "gen1.repro-store"
    second = tmp_path / "gen2.repro-store"
    assert engine.checkpoint_store(str(first))["generation"] == 1
    assert engine.checkpoint_store(str(second))["generation"] == 2
    assert open_store(str(second)).info["generation"] == 2


def test_fast_reads_never_build_the_dict_graph(packed_store, monkeypatch):
    """Reads, batches, describe, health and updates run on the store's CSR alone.

    The dict graph is never built: after an update ``engine.graph`` is a
    fresh lazy view, still unbuilt.  A store-opened fast session then
    applies 60 batches through ``CommunityService`` (compactions and a
    forced rebuild among them), and after every batch its answers and its
    ``UpdateResponse.graph`` block equal a reference session's replaying
    the same requests.
    """
    import random

    from repro.dynamic.updates import random_update_batch
    from repro.fastgraph.csr import CSRGraph
    from repro.graph.social_network import LazySocialNetwork
    from repro.query.params import make_dtopl_query
    from repro.service import CommunityService
    from repro.service.schema import (
        BatchRequest,
        BuildRequest,
        DToplRequest,
        ToplRequest,
        UpdateRequest,
    )

    dtopl = make_dtopl_query({"movies", "books"}, k=3, radius=2, theta=0.1, top_l=2)
    reference = InfluentialCommunityEngine.from_store(
        packed_store, config_overrides={"backend": "reference"}
    )
    engine = InfluentialCommunityEngine.from_store(
        packed_store, config_overrides={"backend": "fast"}
    )
    service = CommunityService()
    reference_service = CommunityService()
    reference_service.build(
        BuildRequest(session="s", store_path=packed_store, config={"backend": "reference"})
    )
    # The reference session runs on its dict graph: build it before thaw is refused.
    reference_graph = reference_service.engine("s").graph
    reference_graph.num_edges()

    def refuse(self):
        raise AssertionError("the fast session built the dict graph")

    with monkeypatch.context() as patch:
        patch.setattr(CSRGraph, "thaw", refuse)
        answers = [engine.topl(TOPL).communities, engine.dtopl(dtopl).communities]
        served = engine.serve().run([TOPL, dtopl])
        described = engine.describe()
        service.build(
            BuildRequest(
                session="s", store_path=packed_store, config={"backend": "fast"}
            )
        )
        service.topl(ToplRequest(session="s", query=TOPL))
        service.dtopl(DToplRequest(session="s", query=dtopl))
        service.batch(BatchRequest(session="s", queries=(TOPL, dtopl)))
        service.health()
        service.sessions()
    assert type(engine.graph) is LazySocialNetwork
    assert type(service.engine("s").graph) is LazySocialNetwork

    expected = [reference.topl(TOPL).communities, reference.dtopl(dtopl).communities]
    assert answers[0]
    assert answers == expected
    assert [result.communities for result in served] == expected
    assert described["graph"] == reference.describe()["graph"]

    batch = UpdateBatch([EdgeUpdate.insert(1, 901, 0.8, 0.8, keywords_v={"movies"})])
    with monkeypatch.context() as patch:
        patch.setattr(CSRGraph, "thaw", refuse)
        engine.apply_updates(batch, damage_threshold=1.0)
        answers = [engine.topl(TOPL).communities, engine.dtopl(dtopl).communities]
        described = engine.describe()
    reference.apply_updates(batch, damage_threshold=1.0)
    assert type(engine.graph) is LazySocialNetwork
    assert answers == [reference.topl(TOPL).communities, reference.dtopl(dtopl).communities]
    assert described["graph"] == reference.describe()["graph"]
    assert described["graph"]["num_vertices"] == 29

    rng = random.Random(17)
    reads = (
        ("topl", ToplRequest(session="s", query=TOPL)),
        ("dtopl", DToplRequest(session="s", query=dtopl)),
    )
    reports = []
    with monkeypatch.context() as patch:
        patch.setattr(CSRGraph, "thaw", refuse)
        for step in range(60):
            edits = random_update_batch(
                reference_graph, 4, rng=rng,
                focus=rng.choice(sorted(reference_graph.vertices(), key=repr)),
                focus_radius=1, grow_probability=0.2, keyword_pool=("movies", "books"),
            )
            request = UpdateRequest(
                session="s",
                edits=tuple(edits),
                damage_threshold=1.0 if step % 10 else None,
                rebuild=step == 30,
            )
            ours = service.update(request)
            theirs = reference_service.update(request)
            reports.append(ours.report)
            assert ours.graph == theirs.graph, step
            assert ours.report["mode"] == theirs.report["mode"], step
            for endpoint, read in reads:
                answer = getattr(service, endpoint)(read).communities
                assert answer == getattr(reference_service, endpoint)(read).communities, (
                    step, endpoint,
                )
    assert type(service.engine("s").graph) is LazySocialNetwork
    assert any(report["compacted"] for report in reports)
    assert reports[30]["mode"] == "rebuild"
    assert (
        service.engine("s").graph_summary()
        == reference_service.engine("s").graph_summary()
    )
