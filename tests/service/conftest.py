"""Shared fixtures for the service-layer tests."""

from __future__ import annotations

import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.graph.datasets import uni
from repro.graph.io import graph_to_dict

_TIMING_FIELDS = ("elapsed_seconds", "elapsed_ms", "queries_per_second")


def _strip_timings(node) -> None:
    if isinstance(node, dict):
        for key in _TIMING_FIELDS:
            node.pop(key, None)
        for value in node.values():
            _strip_timings(value)
    elif isinstance(node, list):
        for value in node:
            _strip_timings(value)


def wire(response) -> dict:
    """Timing- and session-free canonical wire form, through real JSON text.

    Two sessions that must answer alike (one per backend) compare ``==`` on
    this form; imported as ``from tests.service.conftest import wire``.
    """
    document = json.loads(json.dumps(response.to_json()))
    document.pop("session", None)
    _strip_timings(document)
    return document


@pytest.fixture(scope="session")
def service_graph():
    """One small graph shared (read-only) by the service tests."""
    return uni(num_vertices=120, rng=5)


@pytest.fixture(scope="session")
def service_graph_doc(service_graph):
    return graph_to_dict(service_graph)


@pytest.fixture(scope="session")
def built_engine(service_graph):
    """A pre-built engine for tests that adopt instead of building."""
    return InfluentialCommunityEngine.build(
        service_graph, config=EngineConfig(max_radius=2), validate=False
    )
