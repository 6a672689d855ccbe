"""Correctness gate: replay the run's requests on the reference backend.

The reference backend is the repository's equivalence oracle.  Answers are
compared as wire documents after timing fields and work counters are
stripped; everything else (communities with their full ``cpp`` maps,
diversity scores, update reports, epochs) must match exactly.
"""

from __future__ import annotations

import hashlib
import json

#: Response fields that measure time or work, not the answer.
STRIPPED = ("elapsed_seconds", "statistics", "increment_evaluations", "api_version")

#: Update-report fields that describe the fast backend's overlay bookkeeping.
REPORT_STRIPPED = ("elapsed_seconds", "overlay_dirt_ratio", "compacted", "applied_mode")


class Mismatch(AssertionError):
    """An answer differs from the reference backend's."""


def strip(document: dict) -> dict:
    """The answer part of a response document."""
    answer = {key: value for key, value in document.items() if key not in STRIPPED}
    report = answer.get("report")
    if isinstance(report, dict):
        answer["report"] = {
            key: value for key, value in report.items() if key not in REPORT_STRIPPED
        }
    return answer


def reference_service(graph: dict, config: dict, sessions=("default",)):
    """A reference-backend service hosting one engine under every session name."""
    from repro.service import CommunityService

    service = CommunityService()
    reference_config = dict(config, backend="reference")
    reference_config.pop("kernel_tier", None)
    document, error = service.handle_json(
        "build",
        {"schema_version": 1, "session": sessions[0], "graph": graph, "config": reference_config},
    )
    if error is not None:
        raise Mismatch(f"reference build failed: {document}")
    engine = service.engine(sessions[0])
    for session in sessions[1:]:
        service.adopt(engine, session=session)
    return service


def digest(document: dict) -> str:
    """Digest of a response's answer: what a run keeps instead of the document."""
    canonical = json.dumps(strip(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check(service, exchanges) -> int:
    """Replay ``(endpoint, payload, answer digest)`` triples in order; return the count.

    Raises :class:`Mismatch` on the first answer that differs.
    """
    checked = 0
    for endpoint, payload, answer in exchanges:
        expected, _ = service.handle_json(endpoint, payload)
        if digest(expected) != answer:
            raise Mismatch(
                f"{endpoint} answer {checked} differs from the reference backend; "
                f"request {json.dumps(payload)[:300]}, expected {repr(strip(expected))[:400]}"
            )
        checked += 1
    return checked


def replay(graph: dict, config: dict, sessions, exchanges) -> int:
    """Check ``exchanges`` on a fresh reference engine, in this process; return the count.

    The exchanges are replayed in order, so they must hold whatever depends
    on order (the writes of a session, and the reads that follow them).
    """
    return check(reference_service(graph, config, sessions), exchanges)
