import random

import pytest

from perfbench import httpload, inprocess, inputs


def test_poisson_schedule_is_determined_by_the_seed():
    first = inputs.poisson_schedule(random.Random(4), rate=100.0, seconds=12.0)
    again = inputs.poisson_schedule(random.Random(4), rate=100.0, seconds=12.0)
    other = inputs.poisson_schedule(random.Random(5), rate=100.0, seconds=12.0)
    assert first == again
    assert first != other
    assert len(first) == len(other) == 1200
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 12.0


def test_poisson_gaps_average_the_inverse_rate():
    schedule = inputs.poisson_schedule(random.Random(9), rate=100.0, seconds=60.0)
    gaps = [b - a for a, b in zip(schedule, schedule[1:])]
    assert sum(gaps) / len(gaps) == pytest.approx(0.01, rel=0.05)


def test_zipf_draws_are_determined_by_the_seed_and_skewed():
    first = inputs.zipf_draws(random.Random(1), pool_size=128, count=2000)
    assert first == inputs.zipf_draws(random.Random(1), pool_size=128, count=2000)
    assert first != inputs.zipf_draws(random.Random(2), pool_size=128, count=2000)
    assert all(0 <= index < 128 for index in first)
    hottest = max(set(first), key=first.count)
    assert first.count(hottest) > 2000 / 128 * 5


def test_repeat_share_counts_items_seen_before():
    assert inputs.repeat_share([]) == 0.0
    assert inputs.repeat_share([1, 2, 3]) == 0.0
    assert inputs.repeat_share([1, 1, 2, 1]) == pytest.approx(0.5)


def test_smallworld_reads_mostly_repeat():
    spec = httpload.smallworld_http(seed=3, seconds=20.0)
    reads = [(kind, slot) for kind, slot, _ in spec["arrivals"] if kind != "update"]
    assert len(spec["arrivals"]) == len(spec["schedule"]) == 20 * httpload.RATE_PER_S == 1200
    assert sum(kind == "update" for kind, _, _ in spec["arrivals"]) == 1200 // httpload.WRITE_EVERY
    assert sum(kind == "dtopl" for kind, _ in reads) * 3 == sum(kind == "topl" for kind, _ in reads)
    assert 0.75 < inputs.repeat_share(reads) < 0.85
    again = httpload.smallworld_http(seed=3, seconds=20.0)
    assert inputs.fingerprint(spec["graph"], spec["arrivals"]) == inputs.fingerprint(
        again["graph"], again["arrivals"]
    )


def test_planted_query_inputs_match_the_stated_sizes_and_are_distinct():
    spec = inprocess.planted_query(seed=2, seconds=20.0)
    graph = spec["graph"]
    assert len(graph["vertices"]) == 700
    assert 4800 < len(graph["edges"]) < 5800
    reads = [
        payload["query"] for step in spec["steps"] for kind, _, payload in step if kind != "update"
    ]
    keys = {(query["type"], tuple(query["keywords"])) for query in reads}
    assert len(keys) == len(reads)
    assert len(spec["steps"]) == 1 + inprocess.MINIMUM_STEPS
    assert inprocess.planted_query(seed=2, seconds=20.0)["steps"][:5] == spec["steps"][:5]
    assert inprocess.planted_query(seed=3, seconds=20.0)["graph"] != graph


def test_churn_script_is_valid_against_the_evolving_graph():
    network = inputs.planted_graph(
        7, communities=40, size=50, p_in=0.1, p_out=0.00005, weights=(0.05, 0.3), name="t"
    )
    edges = {frozenset((edge["u"], edge["v"])) for edge in network.to_wire()["edges"]}
    assert 1900 < len(network.adjacency) == 2000 and 4500 < len(edges) < 5500
    start = len(edges)
    script = inputs.churn_script(
        random.Random(7), network, steps=150, reads=("topl",),
        read_params={"k": 3, "radius": 2, "top_l": 5}, keywords_per_read=2,
    )
    for step in script:
        edits = step["update"]["edits"]
        assert len(edits) == 10
        assert len(step["reads"]) == 1 and len(step["reads"][0]["keywords"]) == 2
        for edit in edits:
            key = frozenset((edit["u"], edit["v"]))
            if edit["op"] == "insert":
                assert key not in edges
                edges.add(key)
            else:
                assert key in edges
                edges.remove(key)
    assert abs(len(edges) - start) < 0.03 * start
    assert edges == {frozenset(pair) for pair in network.probability}
