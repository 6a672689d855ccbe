"""Spans around the program's public functions, installed from outside.

Only the traced run installs these wrappers.  Each wrapper replaces a
function at the name where its caller looks it up (a module attribute or a
class attribute), records a span — name, start, end, parent span and
request id — and hands the return value to an optional counter hook.
Spans stay in memory as flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """In-memory span store plus the counters read from return values."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_kinds: list = []
        self.counters: dict = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin_request(self, kind: str) -> int:
        """Start a request on this thread; later spans carry its id."""
        with self._lock:
            request_id = len(self.request_kinds)
            self.request_kinds.append(kind)
        self._local.request = request_id
        return request_id

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:
                name_id = self._name_ids.setdefault(name, len(self.names))
                if name_id == len(self.names):
                    self.names.append(name)
        return name_id

    def enter(self, name_id: int) -> int:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else NO_PARENT
        request = getattr(local, "request", NO_PARENT)
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.request.append(request)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` of the current request's kind."""
        request = getattr(self._local, "request", NO_PARENT)
        kind = self.request_kinds[request] if request != NO_PARENT else "none"
        with self._lock:
            self.counters[f"{name}@{kind}"] += value

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def wrap(self, target: str, span: str, on_result=None, new_request=None) -> None:
        """Wrap ``target`` (``"pkg.module:Attr.path"``) in a span named ``span``.

        ``on_result(args, result)`` sees every return value (the counters
        come from there).  ``new_request(args)`` may name a request kind, and
        each call then starts a request of that kind (the server's entry
        point, where no client loop marks requests).
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        own = attr in vars(owner)
        name_id = self._name_id(span)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if new_request is not None:
                kind = new_request(args)
                if kind is not None:
                    tracer.begin_request(kind)
            index = tracer.enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(index)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def spans(self) -> list:
        """Closed spans as ``(name, start, end, parent, request)`` tuples."""
        return [
            (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.request[i])
            for i in range(len(self.start))
        ]

    def dump(self, path) -> None:
        """Write the spans, request kinds and counters as gzipped JSON columns."""
        document = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "request_kinds": self.request_kinds,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle)


def self_times(spans) -> list:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are ``(name, start, end, parent_index, request)`` tuples.
    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent != NO_PARENT:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        current_start = current_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if current_end is None or child_start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = child_start, child_end
            else:
                current_end = max(current_end, child_end)
        if current_end is not None:
            covered += current_end - current_start
        result.append((end - start) - covered)
    return result


def totals_by_kind(spans, request_kinds) -> dict:
    """``{(span name, request kind): [self seconds, inclusive seconds, calls]}``."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: [0.0, 0.0, 0])
    for (name, start, end, _, request), own in zip(spans, selfs):
        kind = request_kinds[request] if request != NO_PARENT else "none"
        entry = totals[(name, kind)]
        entry[0] += own
        entry[1] += end - start
        entry[2] += 1
    return totals


def _probe():
    return None


def span_cost_seconds(tracer: Tracer, calls: int = 20000) -> float:
    """Measured cost one wrapper adds to a call (the tracing overhead per span).

    Times calls to a no-op before and after wrapping it like any traced
    function, then unwraps it and drops the spans it recorded.
    """
    module = sys.modules[__name__]
    started = time.perf_counter()
    for _ in range(calls):
        module._probe()
    bare = time.perf_counter() - started
    mark = len(tracer.start)
    tracer.wrap(f"{__name__}:_probe", "trace.calibration")
    try:
        started = time.perf_counter()
        for _ in range(calls):
            module._probe()
        wrapped = time.perf_counter() - started
    finally:
        owner, attr, original, _ = tracer._installed.pop()
        setattr(owner, attr, original)
        for column in (tracer.start, tracer.end, tracer.name, tracer.parent, tracer.request):
            del column[mark:]
    return max(wrapped - bare, 0.0) / calls
