"""Latency attribution: exact sums, no perturbation, histogram math.

The load-bearing guarantee is **exactness**: for every traced load the
critical-path components sum to the observed latency, across SRAM
multi-port, banked, duplicate, and DRAM-cache organizations.  The
accumulator enforces the invariant at record time, so these tests both
check the traced event paths directly and prove the enforcement
tripwire works.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core.experiment import ExperimentSettings, Observe, _simulate
from repro.core.organizations import KB, banked, dram_cache, duplicate, ideal_ports
from repro.observability import events, trace
from repro.observability.attribution import (
    BUCKET_BOUNDS,
    AttributionAccumulator,
    LatencyHistogram,
    critical_path,
)
from repro.robustness.errors import SimulationInvariantError
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)
ATTRIBUTED = replace(FAST, observe=Observe(attribution=True))

#: One organization per hardware style the taxonomy must decompose.
ORGANIZATIONS = [
    pytest.param(ideal_ports(32 * KB, ports=2), id="sram-multiport"),
    pytest.param(banked(32 * KB, banks=4), id="banked"),
    pytest.param(duplicate(32 * KB, line_buffer=True), id="duplicate-lb"),
    pytest.param(dram_cache(line_buffer=True), id="dram-cache"),
]


def _attributed_run(organization, bench="gcc"):
    with trace.tracing(capacity=500_000) as tracer:
        result = _simulate(organization, benchmark(bench), ATTRIBUTED)
    assert tracer.dropped == 0, "test capacity must retain the whole stream"
    return result, tracer


class TestExactSums:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_every_load_path_sums_to_its_latency(self, organization):
        result, tracer = _attributed_run(organization)
        loads = tracer.events(events.MEM_LOAD)
        assert loads, "expected traced loads"
        for event in loads:
            path = event.fields.get("path")
            assert path is not None, f"missing path on {event}"
            latency = event.fields["done"] - event.cycle
            assert sum(path.values()) == latency, event

    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_component_totals_equal_aggregate_load_latency(self, organization):
        result, _ = _attributed_run(organization)
        metrics = result.metrics
        assert (
            metrics["attribution.latency.cycles"]
            == metrics["memory.load_latency_total"]
        )
        component_total = sum(
            value
            for name, value in metrics.items()
            if name.startswith("attribution.component.")
            and name.endswith(".cycles")
        )
        assert component_total == metrics["attribution.latency.cycles"]
        assert metrics["attribution.loads"] == metrics["memory.loads"]

    def test_banked_point_attributes_bank_conflicts(self):
        result, _ = _attributed_run(banked(32 * KB, banks=1), "tomcatv")
        metrics = result.metrics
        conflicts = metrics.get("attribution.component.bank_conflict.cycles", 0)
        assert conflicts > 0
        # The arbiter's wait counter covers loads AND stores; the
        # load-only attribution view must stay within it.
        assert conflicts <= metrics["memory.ports.wait_cycles"]

    def test_outcome_split_covers_every_load(self):
        result, _ = _attributed_run(duplicate(32 * KB, line_buffer=True))
        metrics = result.metrics
        outcome_loads = sum(
            value
            for name, value in metrics.items()
            if name.startswith("attribution.outcome.") and name.endswith(".loads")
        )
        assert outcome_loads == metrics["attribution.loads"]


class TestNoPerturbation:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_attribution_changes_no_simulated_number(self, organization):
        plain = _simulate(organization, benchmark("gcc"), FAST)
        attributed = _simulate(organization, benchmark("gcc"), ATTRIBUTED)
        assert attributed.cycles == plain.cycles
        assert attributed.instructions == plain.instructions
        stripped = {
            name: value
            for name, value in attributed.metrics.items()
            if not name.startswith("attribution.")
        }
        assert stripped == plain.metrics

    def test_disabled_runs_carry_no_attribution_keys(self):
        result = _simulate(duplicate(32 * KB), benchmark("gcc"), FAST)
        assert not any(
            name.startswith("attribution.") for name in result.metrics
        )


class TestEnableSwitch:
    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTRIBUTION", "1")
        assert Observe.from_env() == Observe(attribution=True)
        monkeypatch.setenv("REPRO_ATTRIBUTION", "0")
        assert Observe.from_env() is None
        monkeypatch.setenv("REPRO_ATTRIBUTION", "")
        assert Observe.from_env() is None


class TestAccumulatorGuards:
    def test_mismatched_sum_raises(self):
        accumulator = AttributionAccumulator()
        with pytest.raises(SimulationInvariantError, match="sum to 3"):
            accumulator.record("l1_hit", 5, [("l1_access", 3)])

    def test_unknown_component_raises(self):
        accumulator = AttributionAccumulator()
        with pytest.raises(SimulationInvariantError, match="unknown"):
            accumulator.record("l1_hit", 1, [("warp_drive", 1)])

    def test_negative_component_raises(self):
        accumulator = AttributionAccumulator()
        with pytest.raises(SimulationInvariantError, match="negative"):
            accumulator.record("l1_hit", 0, [("l1_access", 1), ("memory", -1)])

    def test_reset_zeroes_everything(self):
        accumulator = AttributionAccumulator()
        accumulator.record("l1_hit", 2, [("l1_access", 2)])
        accumulator.reset()
        assert accumulator.loads == 0
        assert accumulator.to_metrics()["attribution.latency.cycles"] == 0

    def test_critical_path_drops_zero_terms(self):
        path = critical_path(l2_access=10, bus_queue=0, bus_transfer=3)
        assert path == (("l2_access", 10), ("bus_transfer", 3))


class TestHistogram:
    @given(st.lists(st.integers(min_value=0, max_value=5_000), min_size=1))
    @hyp_settings(max_examples=60, deadline=None)
    def test_percentiles_are_monotone_and_bounded(self, values):
        histogram = LatencyHistogram()
        for value in values:
            histogram.record(value)
        p50 = histogram.percentile(0.50)
        p95 = histogram.percentile(0.95)
        p99 = histogram.percentile(0.99)
        # Percentiles interpolate inside fixed buckets, so the upper
        # bound is the observed max rounded up to its bucket ceiling
        # (overflow values report the exact max instead).
        top = max(values)
        ceiling = next((b for b in BUCKET_BOUNDS if b >= top), top)
        assert 0 <= p50 <= p95 <= p99 <= ceiling
        assert histogram.total == len(values)
        assert histogram.sum == sum(values)
        assert sum(histogram.counts) + histogram.overflow == len(values)

    def test_interpolation_in_uniform_bucket(self):
        histogram = LatencyHistogram()
        for value in (1, 2, 3, 4):
            histogram.record(value)
        assert histogram.percentile(0.5) == pytest.approx(2.0)
        assert histogram.percentile(1.0) == pytest.approx(4.0)

    def test_overflow_reports_observed_maximum(self):
        histogram = LatencyHistogram()
        histogram.record(99_999)
        assert histogram.percentile(0.99) == 99_999
        assert histogram.overflow == 1

    def test_fraction_validation(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_metrics_export_shape(self):
        accumulator = AttributionAccumulator()
        accumulator.record("l1_hit", 2, [("l1_access", 2)])
        accumulator.record("miss_alloc", 80, [("l1_access", 2), ("memory", 78)])
        metrics = accumulator.to_metrics()
        assert metrics["attribution.loads"] == 2
        assert metrics["attribution.latency.cycles"] == 82
        assert metrics["attribution.latency.le_0002"] == 1
        assert metrics["attribution.component.memory.cycles"] == 78
        assert metrics["attribution.outcome.miss_alloc.loads"] == 1
        assert all(
            isinstance(value, (int, float)) for value in metrics.values()
        )
