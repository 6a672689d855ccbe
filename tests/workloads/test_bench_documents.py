"""The BENCH envelope contract: every committed ``BENCH_*.json`` carries it."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads.reporting import bench_envelope, check_bench_envelope, check_bench_file

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = sorted(REPO_ROOT.glob("BENCH_*.json"))
REQUIRED = ("bench", "recorded_unix", "cpu_count", "seed", "speedup", "equivalence")


def envelope(**overrides) -> dict:
    document = bench_envelope("unit", seed=1, speedup_factor=2.0, equivalence=True)
    document.update(overrides)
    return document


def test_committed_documents_exist():
    assert COMMITTED, "no committed BENCH_*.json documents found"


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
def test_committed_document_carries_the_envelope(path):
    assert check_bench_file(path) == []


def test_uniform_envelope_validates():
    assert check_bench_envelope(envelope()) == []


@pytest.mark.parametrize("missing", REQUIRED)
def test_each_required_field_is_enforced(missing):
    document = envelope()
    del document[missing]
    errors = check_bench_envelope(document)
    assert len(errors) == 1 and missing in errors[0]


@pytest.mark.parametrize(
    "field, value",
    [
        ("bench", 3),
        ("recorded_unix", 1.5),
        ("cpu_count", "four"),
        ("seed", None),
        ("speedup", "2x"),
        ("equivalence", 1),
        # A boolean is not a number, although bool subclasses int.
        ("recorded_unix", True),
        ("speedup", True),
    ],
)
def test_wrong_types_are_reported(field, value):
    errors = check_bench_envelope(envelope(**{field: value}))
    assert len(errors) == 1 and field in errors[0]


@pytest.mark.parametrize(
    "field, value", [("cpu_count", 0), ("speedup", -0.5), ("recorded_unix", -1)]
)
def test_minimum_bounds_are_enforced(field, value):
    errors = check_bench_envelope(envelope(**{field: value}))
    assert len(errors) == 1 and "minimum" in errors[0]


def test_bounds_are_inclusive():
    assert check_bench_envelope(envelope(cpu_count=1, speedup=0, recorded_unix=0)) == []


def test_extra_top_level_fields_are_allowed():
    # Recorders carry bench-specific payloads beside the envelope.
    assert check_bench_envelope(envelope(dataset="x", measurements={})) == []


def test_non_object_document_is_rejected():
    assert check_bench_envelope([envelope()])


def test_missing_file_is_reported(tmp_path):
    errors = check_bench_file(tmp_path / "absent.json")
    assert len(errors) == 1 and "not found" in errors[0]


def test_malformed_json_is_reported(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    errors = check_bench_file(broken)
    assert len(errors) == 1 and "invalid JSON" in errors[0]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(envelope()))
    assert check_bench_file(good) == []
