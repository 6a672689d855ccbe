import pytest

from perfbench.measure import (
    PROBE_REFERENCE_MS,
    InsufficientSamples,
    RunInvalid,
    check_lateness,
    host_scale,
    median,
    percentile,
    probe_ms,
    required_samples,
    slo_met_fraction,
)


def test_sample_rule_keeps_ten_samples_beyond_the_percentile():
    assert required_samples(95) == 200
    assert required_samples(90) == 100
    assert required_samples(50) == 20
    assert required_samples(99) == 1000


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 95) == 190
    assert percentile(values, 50) == 100
    assert percentile(list(reversed(values)), 95) == 190


def test_percentile_refuses_too_few_samples():
    with pytest.raises(InsufficientSamples):
        percentile(range(199), 95)
    with pytest.raises(InsufficientSamples):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == 89


def test_median_of_even_and_odd_counts():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(InsufficientSamples):
        median([])


def test_failures_count_as_slo_misses():
    assert slo_met_fraction([1.0, 2.0, 30.0], failures=0, limit=25.0) == pytest.approx(2 / 3)
    assert slo_met_fraction([1.0, 2.0, 30.0], failures=1, limit=25.0) == pytest.approx(2 / 4)
    with pytest.raises(InsufficientSamples):
        slo_met_fraction([], failures=0, limit=1.0)


def test_late_generator_invalidates_the_run():
    on_time = [0.5] * 190 + [3.0] * 10
    assert check_lateness(on_time, bound_ms=5.0) == 0.5
    late = [0.5] * 180 + [80.0] * 20
    with pytest.raises(RunInvalid):
        check_lateness(late, bound_ms=50.0)



def test_host_scale_maps_the_median_probe_to_the_reference():
    assert probe_ms() > 0.0
    slow = [PROBE_REFERENCE_MS * 2.0] * 4 + [PROBE_REFERENCE_MS * 100.0]
    assert host_scale(slow) == pytest.approx(0.5)
