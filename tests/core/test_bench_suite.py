"""Unit tests for the perf-regression comparator in bench_suite.py.

Only the pure comparison logic runs here -- ``measure()`` costs minutes
of wall clock and belongs to the CI perf job, not the test suite.  The
module lives outside the package, so it is loaded by file path.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SUITE_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_suite.py"
)
_spec = importlib.util.spec_from_file_location("bench_suite", _SUITE_PATH)
bench_suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_suite)


def _payload(
    headline=10.0,
    tracing=11.0,
    attribution=11.3,
    overhead=0.03,
    scale=0.5,
    schema=bench_suite.BENCH_SCHEMA,
):
    return {
        "schema": schema,
        "command": "python -m repro headlines --jobs 1",
        "scale": scale,
        "headline": {"mean_seconds": headline},
        "tracing": {"mean_seconds": tracing},
        "attribution": {
            "mean_seconds": attribution,
            "overhead_vs_tracing": overhead,
        },
    }


class TestComparePayloads:
    def test_identical_payloads_pass(self):
        assert bench_suite.compare_payloads(_payload(), _payload()) == []

    def test_within_tolerance_passes(self):
        fresh = _payload(headline=11.4)  # +14% < 15%
        assert bench_suite.compare_payloads(fresh, _payload()) == []

    def test_regression_beyond_tolerance_fails(self):
        fresh = _payload(headline=11.6)  # +16% > 15%
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert len(failures) == 1
        assert "headline regressed" in failures[0]

    def test_each_mode_is_gated(self):
        fresh = _payload(headline=12.0, tracing=13.0, attribution=13.5)
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert [failure.split()[0] for failure in failures] == [
            "headline",
            "tracing",
            "attribution",
        ]

    def test_custom_tolerance(self):
        fresh = _payload(headline=11.4)
        failures = bench_suite.compare_payloads(
            fresh, _payload(), tolerance=0.10
        )
        assert failures and ">10%" in failures[0]

    def test_attribution_gate_is_absolute(self):
        # Overhead is judged on the fresh run alone, even when wall
        # clocks beat the baseline.
        fresh = _payload(headline=9.0, tracing=9.5, attribution=10.2, overhead=0.07)
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert len(failures) == 1
        assert "attribution overhead" in failures[0]
        assert "5% gate" in failures[0]

    def test_telemetry_gate_is_absolute_and_optional(self):
        # The committed baseline may predate the telemetry mode; the
        # gate judges the fresh payload alone and tolerates absence.
        fresh = _payload()
        fresh["telemetry"] = {
            "mean_seconds": 11.2,
            "overhead_vs_headline": 0.12,
        }
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert len(failures) == 1
        assert "telemetry overhead" in failures[0]
        assert "10% gate" in failures[0]
        fresh["telemetry"]["overhead_vs_headline"] = 0.08
        assert bench_suite.compare_payloads(fresh, _payload()) == []
        assert bench_suite.compare_payloads(_payload(), _payload()) == []

    def test_faster_runs_never_fail(self):
        fresh = _payload(headline=5.0, tracing=5.5, attribution=5.6, overhead=0.02)
        assert bench_suite.compare_payloads(fresh, _payload()) == []

    def test_backend_gate_is_absolute_and_optional(self):
        # The committed baseline may predate the backend mode; the
        # speedup is a property of the fresh run alone.
        fresh = _payload()
        fresh["backend"] = {"mean_seconds": 4.0, "speedup_vs_reference": 2.5}
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert len(failures) == 1
        assert "fast backend speedup" in failures[0]
        assert "3.0x gate" in failures[0]
        fresh["backend"]["speedup_vs_reference"] = 4.8
        assert bench_suite.compare_payloads(fresh, _payload()) == []
        assert bench_suite.compare_payloads(_payload(), _payload()) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 1.0},
            {"schema": bench_suite.BENCH_SCHEMA + 1},
        ],
        ids=["scale", "schema"],
    )
    def test_parameter_mismatch_refuses_to_compare(self, kwargs):
        failures = bench_suite.compare_payloads(_payload(), _payload(**kwargs))
        assert len(failures) == 1
        assert "baseline mismatch" in failures[0]
        assert "regenerate the baseline" in failures[0]

    def test_command_mismatch_refuses_to_compare(self):
        baseline = _payload()
        baseline["command"] = "python -m repro all"
        failures = bench_suite.compare_payloads(_payload(), baseline)
        assert failures and "command" in failures[0]

    def test_mismatch_reported_before_timings(self):
        # A mismatched baseline must short-circuit: comparing timings
        # taken at different scales would be meaningless noise.
        fresh = _payload(headline=99.0)
        failures = bench_suite.compare_payloads(fresh, _payload(scale=1.0))
        assert len(failures) == 1
        assert "baseline mismatch" in failures[0]


def _scaling(cores=4, walls=None, speedups=None):
    walls = walls or {"1": 30.0, "2": 16.0, "4": 9.0}
    speedups = speedups or {
        jobs: round(walls["1"] / wall, 2) for jobs, wall in walls.items()
    }
    return {"cores": cores, "walls": walls, "speedups": speedups}


class TestScalingGate:
    def test_scaling_section_is_optional(self):
        # A baseline (or run) from before the mode existed still passes.
        assert bench_suite.compare_payloads(_payload(), _payload()) == []

    def test_multicore_speedup_above_gate_passes(self):
        fresh = _payload()
        fresh["scaling"] = _scaling(cores=4)
        assert bench_suite.compare_payloads(fresh, _payload()) == []

    def test_multicore_speedup_below_gate_fails(self):
        fresh = _payload()
        fresh["scaling"] = _scaling(
            cores=4, walls={"1": 30.0, "2": 25.0, "4": 24.0}
        )
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert len(failures) == 1
        assert "--jobs 2 speedup" in failures[0]
        assert "1.5x gate" in failures[0]

    def test_single_core_is_gated_on_overhead_not_speedup(self):
        # 1.0x "speedup" on one core is the physical ceiling; it must
        # not fail the multi-core gate.
        fresh = _payload()
        fresh["scaling"] = _scaling(
            cores=1, walls={"1": 30.0, "2": 31.0, "4": 31.5}
        )
        assert bench_suite.compare_payloads(fresh, _payload()) == []

    def test_single_core_excess_overhead_fails(self):
        fresh = _payload()
        fresh["scaling"] = _scaling(
            cores=1, walls={"1": 30.0, "2": 40.0, "4": 41.0}
        )
        failures = bench_suite.compare_payloads(fresh, _payload())
        assert len(failures) == 1
        assert "single-core" in failures[0]
        assert "overhead gate" in failures[0]

    def test_single_core_overhead_gate_is_configurable(self):
        fresh = _payload()
        fresh["scaling"] = _scaling(
            cores=1, walls={"1": 30.0, "2": 33.0, "4": 33.5}
        )
        failures = bench_suite.compare_payloads(
            fresh, _payload(), scaling_overhead_gate=0.05
        )
        assert failures and "overhead gate" in failures[0]

    def test_multicore_gate_is_configurable(self):
        fresh = _payload()
        fresh["scaling"] = _scaling(cores=4)  # 1.88x at --jobs 2
        failures = bench_suite.compare_payloads(
            fresh, _payload(), scaling_gate=1.95
        )
        assert failures and "speedup" in failures[0]


class TestModeStats:
    def test_mean_and_stddev(self):
        stats = bench_suite._mode_stats([10.0, 11.0, 12.0])
        assert stats["mean_seconds"] == 11.0
        assert stats["stddev_seconds"] == pytest.approx(0.816, abs=1e-3)
        assert stats["samples"] == [10.0, 11.0, 12.0]

    def test_single_sample_has_zero_stddev(self):
        assert bench_suite._mode_stats([3.0])["stddev_seconds"] == 0.0


class TestEnv:
    def test_env_strips_trace_and_attribution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "/tmp/leak.jsonl")
        monkeypatch.setenv("REPRO_ATTRIBUTION", "1")
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        env = bench_suite._env(tmp_path, 0.5)
        assert "REPRO_TRACE" not in env
        assert "REPRO_ATTRIBUTION" not in env
        assert env["REPRO_BACKEND"] == "reference"
        assert env["REPRO_CACHE_DIR"] == str(tmp_path)

    def test_env_extras_reapply(self, tmp_path):
        env = bench_suite._env(tmp_path, 0.5, {"REPRO_ATTRIBUTION": "1"})
        assert env["REPRO_ATTRIBUTION"] == "1"
