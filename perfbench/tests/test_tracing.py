import sys
import types

import pytest

from perfbench import tracing
from perfbench.tracing import NO_PARENT, Tracer, self_times, totals_by_kind


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, NO_PARENT, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),  # overlaps a: covered once
        ("c", 7.0, 8.0, 0, 0),
        ("d", 7.2, 7.5, 3, 0),  # grandchild: only reduces c
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3])


def test_children_are_clipped_to_their_parent():
    spans = [("root", 0.0, 4.0, NO_PARENT, 0), ("late", 3.0, 6.0, 0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 3.0])


def test_totals_group_self_and_inclusive_time_by_request_kind():
    spans = [
        ("query", 0.0, 4.0, NO_PARENT, 0),
        ("hop", 1.0, 2.0, 0, 0),
        ("query", 5.0, 6.0, NO_PARENT, 1),
    ]
    totals = totals_by_kind(spans, ["topl", "update"])
    assert totals[("query", "topl")] == pytest.approx([3.0, 4.0, 1])
    assert totals[("hop", "topl")] == pytest.approx([1.0, 1.0, 1])
    assert totals[("query", "update")] == pytest.approx([1.0, 1.0, 1])


@pytest.fixture
def toy_module():
    module = types.ModuleType("perfbench_toy")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    class Box:
        def method(self):
            return module.leaf(1)

    module.leaf, module.outer, module.Box = leaf, outer, Box
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_wrappers_record_nested_spans_with_request_ids(toy_module):
    tracer = Tracer()
    seen = []
    tracer.wrap("perfbench_toy:leaf", "toy.leaf", on_result=lambda _, result: seen.append(result))
    tracer.wrap("perfbench_toy:outer", "toy.outer")
    tracer.wrap("perfbench_toy:Box.method", "toy.method")
    tracer.begin_request("topl")
    assert toy_module.outer(1) == 4
    tracer.begin_request("update")
    assert toy_module.Box().method() == 2
    spans = tracer.spans()
    assert [(name, parent, request) for name, _, _, parent, request in spans] == [
        ("toy.outer", NO_PARENT, 0),
        ("toy.leaf", 0, 0),
        ("toy.method", NO_PARENT, 1),
        ("toy.leaf", 2, 1),
    ]
    assert all(end >= start for _, start, end, _, _ in spans)
    assert seen == [2, 2]
    tracer.uninstall()
    assert toy_module.outer.__name__ == "outer"
    assert "method" in vars(toy_module.Box) and toy_module.Box().method() == 2
    assert len(tracer.spans()) == 4  # uninstalled: nothing more recorded


def test_counters_are_kept_per_request_kind():
    tracer = Tracer()
    tracer.begin_request("topl")
    tracer.count("query.executed")
    tracer.begin_request("warmup")
    tracer.count("query.executed")
    tracer.begin_request("topl")
    tracer.count("query.executed", 2)
    assert dict(tracer.counters) == {"query.executed@topl": 3.0, "query.executed@warmup": 1.0}


def test_request_kind_can_come_from_the_call(toy_module):
    tracer = Tracer()
    tracer.wrap("perfbench_toy:leaf", "toy.leaf", new_request=lambda args: f"k{args[0]}")
    toy_module.leaf(7)
    toy_module.leaf(8)
    assert tracer.request_kinds == ["k7", "k8"]
    tracer.uninstall()


def test_span_cost_is_measured_and_leaves_no_spans():
    tracer = Tracer()
    cost = tracing.span_cost_seconds(tracer, calls=2000)
    assert 0.0 <= cost < 1e-3
    assert tracer.spans() == []
