"""Plain-text report formatting for experiment results.

The benches print the same rows/series the paper's tables and figures report;
these helpers format lists of dict rows as aligned ASCII tables so the output
of ``pytest benchmarks/ --benchmark-only`` is directly readable and easy to
copy into EXPERIMENTS.md.  :func:`bench_envelope` writes the header every
``BENCH_*.json`` document starts with and :func:`check_bench_envelope`
checks it.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable, Sequence


def bench_envelope(bench: str, seed: int, speedup_factor: float, equivalence: bool) -> dict:
    """The uniform header every ``BENCH_*.json`` document must carry.

    All recorders start their document from this envelope so the fields
    (``bench``, ``recorded_unix``, ``cpu_count``, ``seed``, ``speedup``,
    ``equivalence``) are present and shaped the same everywhere;
    :func:`check_bench_envelope` checks exactly this contract.

    ``speedup_factor`` is the document's *headline* ratio (each bench
    declares which comparison that is); ``equivalence`` records whether the
    run proved cross-backend bit-identical answers (pass ``True`` for benches
    with no second backend to compare — there is nothing to disprove).
    """
    return {
        "bench": str(bench),
        "recorded_unix": int(time.time()),
        "cpu_count": os.cpu_count() or 1,
        "seed": int(seed),
        "speedup": round(float(speedup_factor), 3),
        "equivalence": bool(equivalence),
    }


#: The envelope's fields: name -> (accepted JSON type, inclusive lower bound).
_ENVELOPE_FIELDS = {
    "bench": (str, None),
    "recorded_unix": (int, 0),
    "cpu_count": (int, 1),
    "seed": (int, None),
    "speedup": ((int, float), 0),
    "equivalence": (bool, None),
}


def check_bench_envelope(document) -> list[str]:
    """Every way ``document`` breaks the :func:`bench_envelope` contract.

    Returns one message per problem (empty = conforming): a missing field, a
    field of the wrong JSON type (a boolean is not a number) or a number
    below its bound.  Keys beyond the envelope are the recorder's payload
    and are allowed.
    """
    if not isinstance(document, dict):
        return [f"expected a JSON object, got {type(document).__name__}"]
    errors = []
    for name, (kind, minimum) in _ENVELOPE_FIELDS.items():
        if name not in document:
            errors.append(f"missing required field {name!r}")
            continue
        value = document[name]
        if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
            errors.append(f"{name}: wrong type {type(value).__name__}")
        elif minimum is not None and value < minimum:
            errors.append(f"{name}: {value} is below minimum {minimum}")
    return errors


def check_bench_file(path) -> list[str]:
    """:func:`check_bench_envelope` for a ``BENCH_*.json`` file on disk."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return [f"{path}: file not found"]
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    return [f"{path}: {error}" for error in check_bench_envelope(document)]


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Format ``rows`` (list of dicts) as an aligned ASCII table.

    Parameters
    ----------
    rows:
        The data rows; missing keys render as empty cells.
    columns:
        Column order; defaults to the keys of the first row.
    title:
        Optional caption printed above the table.
    """
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [[_render_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max((len(cells[i]) for cells in rendered_rows), default=0))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for cells in rendered_rows:
        lines.append(" | ".join(cells[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _render_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".") if value else "0"
    return str(value)


def format_series(label: str, points: Iterable[tuple]) -> str:
    """Format an (x, y) series like one curve of a paper figure."""
    parts = [f"{x}={_render_cell(y)}" for x, y in points]
    return f"{label}: " + ", ".join(parts)


def speedup(baseline_seconds: float, method_seconds: float) -> float:
    """Return the speed-up factor ``baseline / method`` (0 when the method took no time)."""
    if method_seconds <= 0:
        return float("inf") if baseline_seconds > 0 else 1.0
    return baseline_seconds / method_seconds
