"""Engine-level store behaviour: provenance, attach/dirty, checkpoints."""

from __future__ import annotations

import pytest

from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.exceptions import QueryParameterError
from repro.query.params import make_topl_query
from repro.store import open_store


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
    assert provenance["format_version"] == 1
    assert provenance["residency"] == "mmap"
    assert provenance["generation"] == 0
    assert provenance["attached"] is True
    assert provenance["file_size"] > 0
    assert engine.describe()["store"] == provenance


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
