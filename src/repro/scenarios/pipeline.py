"""End-to-end scenario execution: build → trace replay → gates, per backend.

:func:`run_scenario` is the harness core.  For one
:class:`~repro.scenarios.spec.ScenarioSpec` it materialises the graph and
trace once, then replays the *identical* operation sequence through
:class:`~repro.service.facade.CommunityService` twice — one session on the
``reference`` backend, one on ``fast`` — and compares every response on the
wire (timing-free canonical JSON, the same idiom as the cross-backend
lifecycle suite).  The scenario's gates then judge the outcome:

* ``require_equivalence`` — every operation's wire document bit-identical
  across backends (update reports compared modulo the backend-specific
  overlay fields, which the reference backend does not have);
* ``min_nonempty_results`` — at least this many queries returned a
  non-empty community list, guarding against degenerate specs that would
  "pass" by measuring nothing.

The result is a :class:`ScenarioReport` — a plain JSON-able value carrying
the spec, graph/trace shape, per-backend timings, the speedup, and the gate
verdicts.  ``BENCH_scenarios.json`` is a collection of these
(:mod:`repro.scenarios.report`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ScenarioError
from repro.graph.io import graph_to_dict
from repro.scenarios.generators import build_scenario_graph
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.traces import OP_DTOPL, OP_TOPL, OP_UPDATE, synthesize_trace
from repro.service.facade import CommunityService
from repro.service.schema import BuildRequest, DToplRequest, ToplRequest, UpdateRequest

#: Backends every scenario runs on, in run order (reference first: it is
#: the ground truth the fast backend is compared against).
BACKENDS = ("reference", "fast")

#: Update-report fields that legitimately differ across backends (the
#: reference backend has no CSR overlay to dirty or compact).
_BACKEND_SPECIFIC_REPORT_FIELDS = ("overlay_dirt_ratio", "compacted", "applied_mode")

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


def _wire(response) -> dict:
    """Timing- and session-free canonical wire form, through real JSON text."""
    document = json.loads(json.dumps(response.to_json()))
    document.pop("session", None)
    _strip_timings(document)
    return document


def _comparable(kind: str, document: dict) -> dict:
    if kind == OP_UPDATE:
        report = document.get("report", {})
        for key in _BACKEND_SPECIFIC_REPORT_FIELDS:
            report.pop(key, None)
    elif kind == "build":
        # The engine summary names its backend (that is the one thing the
        # two sessions are *supposed* to disagree on), and with it the
        # backend-only diagnostics.
        engine = document.get("engine", {})
        engine.pop("backend", None)
        engine.pop("kernels", None)
        engine.pop("dynamic", None)
        engine.get("config", {}).pop("backend", None)
        engine.get("config", {}).pop("kernel_tier", None)
    return document


@dataclass(frozen=True)
class BackendRun:
    """One backend's replay measurements (all timings wall-clock seconds)."""

    backend: str
    build_seconds: float
    trace_seconds: float
    final_epoch: int
    final_num_edges: int
    nonempty_results: int

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.trace_seconds

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "build_seconds": round(self.build_seconds, 6),
            "trace_seconds": round(self.trace_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "final_epoch": self.final_epoch,
            "final_num_edges": self.final_num_edges,
            "nonempty_results": self.nonempty_results,
        }


@dataclass(frozen=True)
class ScenarioReport:
    """The machine-readable outcome of one scenario run.

    ``to_json`` / ``from_json`` round-trip exactly; the JSON form is what
    lands in ``BENCH_scenarios.json`` (one section per scenario) and what
    the ``bench-schema`` CI step validates.
    """

    scenario: str
    seed: int
    smoke: bool
    recorded_unix: int
    cpu_count: int
    speedup: float
    equivalence: bool
    spec: dict
    graph: dict
    trace: dict
    backends: dict
    gates: dict
    first_mismatch: Optional[int] = None

    _FIELDS = (
        "scenario",
        "seed",
        "smoke",
        "recorded_unix",
        "cpu_count",
        "speedup",
        "equivalence",
        "spec",
        "graph",
        "trace",
        "backends",
        "gates",
        "first_mismatch",
    )

    @property
    def passed(self) -> bool:
        """Whether every declared gate held."""
        return bool(self.gates.get("passed", False))

    def to_json(self) -> dict:
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "smoke": self.smoke,
            "recorded_unix": self.recorded_unix,
            "cpu_count": self.cpu_count,
            "speedup": self.speedup,
            "equivalence": self.equivalence,
            "spec": self.spec,
            "graph": self.graph,
            "trace": self.trace,
            "backends": self.backends,
            "gates": self.gates,
        }
        if self.first_mismatch is not None:
            payload["first_mismatch"] = self.first_mismatch
        return payload

    @classmethod
    def from_json(cls, payload) -> "ScenarioReport":
        if not isinstance(payload, dict):
            raise ScenarioError(
                f"scenario report must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(cls._FIELDS)
        if unknown:
            raise ScenarioError(
                f"scenario report carries unknown fields {sorted(unknown)}"
            )
        missing = {name for name in cls._FIELDS if name != "first_mismatch"} - set(
            payload
        )
        if missing:
            raise ScenarioError(
                f"scenario report is missing fields {sorted(missing)}"
            )
        return cls(
            scenario=str(payload["scenario"]),
            seed=int(payload["seed"]),
            smoke=bool(payload["smoke"]),
            recorded_unix=int(payload["recorded_unix"]),
            cpu_count=int(payload["cpu_count"]),
            speedup=float(payload["speedup"]),
            equivalence=bool(payload["equivalence"]),
            spec=dict(payload["spec"]),
            graph=dict(payload["graph"]),
            trace=dict(payload["trace"]),
            backends=dict(payload["backends"]),
            gates=dict(payload["gates"]),
            first_mismatch=payload.get("first_mismatch"),
        )


@dataclass
class _Replay:
    """Accumulator for one backend's pass over the trace."""

    run: BackendRun
    wire_documents: list = field(default_factory=list)


def _replay_backend(
    service: CommunityService,
    backend: str,
    spec: ScenarioSpec,
    graph_doc: dict,
    trace,
    store_path: Optional[str] = None,
) -> _Replay:
    session = f"scenario:{spec.name}:{backend}"
    started = time.perf_counter()
    if store_path is not None:
        # engine.store = true: cold-start from the shared packed store
        # (the backend stays a per-session override; the trace is unchanged).
        build_request = BuildRequest(
            session=session,
            store_path=store_path,
            config={"backend": backend},
            replace=True,
        )
    else:
        build_request = BuildRequest(
            session=session,
            graph=graph_doc,
            config={
                "backend": backend,
                "max_radius": spec.engine.max_radius,
                "thresholds": list(spec.engine.thresholds),
            },
            validate=False,
            replace=True,
        )
    build = service.build(build_request)
    build_seconds = time.perf_counter() - started

    wire_documents = [("build", _comparable("build", _wire(build)))]
    nonempty = 0
    final_epoch = build.epoch
    final_edges = int(build.engine.get("graph", {}).get("num_edges", 0))

    started = time.perf_counter()
    for op in trace:
        if op.kind == OP_TOPL:
            response = service.topl(ToplRequest(session=session, query=op.query))
            nonempty += 1 if response.communities else 0
        elif op.kind == OP_DTOPL:
            response = service.dtopl(DToplRequest(session=session, query=op.query))
            nonempty += 1 if response.communities else 0
        elif op.kind == OP_UPDATE:
            response = service.update(
                UpdateRequest(
                    session=session,
                    edits=tuple(op.edits),
                    damage_threshold=spec.engine.damage_threshold,
                )
            )
            final_edges = int(response.graph.get("num_edges", final_edges))
        else:  # pragma: no cover - trace synthesis only emits the three kinds
            raise ScenarioError(f"unknown trace op kind {op.kind!r}")
        final_epoch = response.epoch
        wire_documents.append((op.kind, _comparable(op.kind, _wire(response))))
    trace_seconds = time.perf_counter() - started

    service.drop_session(session)
    return _Replay(
        run=BackendRun(
            backend=backend,
            build_seconds=build_seconds,
            trace_seconds=trace_seconds,
            final_epoch=final_epoch,
            final_num_edges=final_edges,
            nonempty_results=nonempty,
        ),
        wire_documents=wire_documents,
    )


def run_scenario(
    spec: ScenarioSpec,
    service: Optional[CommunityService] = None,
    enforce_gates: bool = False,
) -> ScenarioReport:
    """Execute one scenario end-to-end on both backends and gate the result.

    Parameters
    ----------
    spec:
        The validated scenario.
    service:
        Optional shared :class:`CommunityService` (sessions are namespaced
        per scenario and backend, and dropped on completion).
    enforce_gates:
        When true, a failed gate raises :class:`ScenarioError` instead of
        only being recorded in the report — this is what the CI smoke job
        and the pytest gates use.
    """
    service = service if service is not None else CommunityService()
    graph = build_scenario_graph(spec)
    trace = synthesize_trace(graph, spec)
    graph_doc = graph_to_dict(graph)

    store_dir = None
    store_path: Optional[str] = None
    if spec.engine.store:
        # Pack the offline phase once; both backend sessions cold-start from
        # the same store file (mmap attach instead of re-running it).
        import tempfile

        from repro.core.config import EngineConfig
        from repro.core.engine import InfluentialCommunityEngine
        from repro.store import pack_store

        store_dir = tempfile.TemporaryDirectory(prefix="repro-scenario-store-")
        store_path = os.path.join(store_dir.name, "scenario.repro-store")
        packed = InfluentialCommunityEngine.build(
            graph,
            config=EngineConfig(
                max_radius=spec.engine.max_radius,
                thresholds=tuple(spec.engine.thresholds),
            ),
            validate=False,
        )
        pack_store(packed, store_path)

    try:
        replays = {
            backend: _replay_backend(
                service, backend, spec, graph_doc, trace, store_path=store_path
            )
            for backend in BACKENDS
        }
    finally:
        if store_dir is not None:
            store_dir.cleanup()

    reference, fast = (replays[b] for b in BACKENDS)
    first_mismatch: Optional[int] = None
    for index, ((_, ours), (_, theirs)) in enumerate(
        zip(reference.wire_documents, fast.wire_documents)
    ):
        if ours != theirs:
            first_mismatch = index
            break
    equivalence = first_mismatch is None

    nonempty = reference.run.nonempty_results
    equivalence_ok = equivalence or not spec.gates.require_equivalence
    nonempty_ok = nonempty >= spec.gates.min_nonempty_results
    gates = {
        "require_equivalence": spec.gates.require_equivalence,
        "equivalence_ok": equivalence_ok,
        "min_nonempty_results": spec.gates.min_nonempty_results,
        "nonempty_results": nonempty,
        "nonempty_ok": nonempty_ok,
        "passed": equivalence_ok and nonempty_ok,
    }

    fast_total = fast.run.total_seconds
    speedup = reference.run.total_seconds / fast_total if fast_total > 0 else 0.0

    report = ScenarioReport(
        scenario=spec.name,
        seed=spec.seed,
        smoke=spec.smoke,
        recorded_unix=int(time.time()),
        cpu_count=os.cpu_count() or 1,
        speedup=round(speedup, 3),
        equivalence=equivalence,
        spec=spec.to_dict(),
        graph={
            "name": graph.name,
            "recipe": spec.graph.recipe,
            "num_vertices": graph.num_vertices(),
            "num_edges": graph.num_edges(),
            "keyword_domain": len(graph.keyword_domain()),
        },
        trace=trace.summary(),
        backends={backend: replays[backend].run.to_json() for backend in BACKENDS},
        gates=gates,
        first_mismatch=first_mismatch,
    )
    if enforce_gates and not report.passed:
        failures = []
        if not equivalence_ok:
            failures.append(
                f"backends diverged at trace operation {first_mismatch}"
            )
        if not nonempty_ok:
            failures.append(
                f"only {nonempty} non-empty results "
                f"(gate requires >= {spec.gates.min_nonempty_results})"
            )
        raise ScenarioError(
            f"scenario {spec.name!r} failed its gates: " + "; ".join(failures)
        )
    return report


__all__ = ["BACKENDS", "BackendRun", "ScenarioReport", "run_scenario"]
