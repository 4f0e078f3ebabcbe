"""Per-design-point isolation: retries, gaps, and the failure summary."""

import math

import pytest

from repro.cli import main
from repro.core import experiment
from repro.core.experiment import ExperimentSettings, clear_cache, run_experiment
from repro.core.organizations import duplicate
from repro.robustness import (
    DeadlineExceededError,
    FailureLog,
    SimulationInvariantError,
    current_failure_log,
    resilient_sweeps,
)
from repro.robustness.runner import BUDGET_DIVISOR
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestContext:
    def test_inactive_by_default(self):
        assert current_failure_log() is None

    def test_active_inside_and_restored_after(self):
        with resilient_sweeps() as log:
            assert current_failure_log() is log
        assert current_failure_log() is None

    def test_nested_contexts_share_the_outermost_log(self):
        with resilient_sweeps() as outer:
            with resilient_sweeps() as inner:
                assert inner is outer

    def test_restored_even_on_error(self):
        with pytest.raises(RuntimeError):
            with resilient_sweeps():
                raise RuntimeError("boom")
        assert current_failure_log() is None


class TestIsolation:
    def test_errors_propagate_without_context(self, monkeypatch):
        def boom(org, spec, settings):
            raise SimulationInvariantError("injected")

        monkeypatch.setattr(experiment, "_simulate", boom)
        with pytest.raises(SimulationInvariantError):
            run_experiment(duplicate(), "gcc", FAST)

    def test_persistent_failure_becomes_a_gap(self, monkeypatch):
        calls = []

        def boom(org, spec, settings):
            calls.append(settings.instructions)
            raise SimulationInvariantError("injected")

        monkeypatch.setattr(experiment, "_simulate", boom)
        with resilient_sweeps() as log:
            result = run_experiment(duplicate(), "gcc", FAST)
        assert result.failed
        assert math.isnan(result.ipc)
        assert len(calls) == 2  # full budget + one reduced retry
        assert calls[1] < calls[0]
        (record,) = log.records
        assert record.resolution == "gap"
        assert record.error_type == "SimulationInvariantError"
        assert record.workload == "gcc"

    def test_transient_failure_recovers_at_reduced_budget(self, monkeypatch):
        real = experiment._simulate
        state = {"failed": False}

        def flaky(org, spec, settings):
            if not state["failed"]:
                state["failed"] = True
                raise SimulationInvariantError("transient")
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", flaky)
        with resilient_sweeps() as log:
            result = run_experiment(duplicate(), "gcc", FAST)
        assert not result.failed
        assert result.ipc > 0
        (record,) = log.records
        assert record.resolution == "recovered"
        assert record.attempts == 2

    def test_failures_are_never_cached(self, monkeypatch):
        def boom(org, spec, settings):
            raise SimulationInvariantError("injected")

        monkeypatch.setattr(experiment, "_simulate", boom)
        with resilient_sweeps():
            assert run_experiment(duplicate(), "gcc", FAST).failed
        monkeypatch.undo()
        result = run_experiment(duplicate(), "gcc", FAST)
        assert not result.failed

    def test_healthy_points_are_untouched(self):
        with resilient_sweeps() as log:
            result = run_experiment(duplicate(), "gcc", FAST)
        assert not result.failed
        assert log.records == []


class TestRetryReduced:
    """One retry at reduced budget; the returned resolution is the
    one the single failure record carries."""

    @pytest.mark.parametrize(
        "first_error, retry, resolution, attempts",
        [
            ("SimulationInvariantError", "recover", "recovered", 2),
            ("SimulationInvariantError", "fail", "gap", 2),
            ("SimulationInvariantError", "overrun", "timeout", 2),
            ("DeadlineExceededError", "fail", "timeout", 1),
        ],
    )
    def test_returns_the_resolution_it_records(
        self, monkeypatch, first_error, retry, resolution, attempts
    ):
        real = experiment._simulate
        budgets = []

        def retried(org, spec, settings):
            budgets.append(settings.instructions)
            if retry == "recover":
                return real(org, spec, settings)
            if retry == "overrun":
                raise DeadlineExceededError("retry overran", seconds=1.0)
            raise SimulationInvariantError("still broken")

        monkeypatch.setattr(experiment, "_simulate", retried)
        log = FailureLog()
        result, returned = experiment._retry_reduced(
            duplicate(), benchmark("gcc"), FAST, log, first_error, "first try"
        )
        (record,) = log.records
        assert returned == record.resolution == resolution
        assert record.attempts == attempts
        assert result.failed == (resolution != "recovered")
        reduced = max(1_000, FAST.instructions // BUDGET_DIVISOR)
        assert budgets == ([] if attempts == 1 else [reduced])
        if retry == "overrun":
            assert record.error_type == "DeadlineExceededError"
            assert record.message == "retry overran"
        else:
            assert record.error_type == first_error
            assert record.message == "first try"


class TestFailureSummary:
    def test_clean_log_renders_empty(self):
        assert FailureLog().summary() == ""

    def test_summary_lists_points_and_tail(self, monkeypatch):
        def boom(org, spec, settings):
            raise SimulationInvariantError("injected defect")

        monkeypatch.setattr(experiment, "_simulate", boom)
        with resilient_sweeps() as log:
            run_experiment(duplicate(), "gcc", FAST)
        text = log.summary()
        assert "Failure summary" in text
        assert "gcc" in text
        assert "injected defect" in text
        assert "NaN" in text


class TestCliResilience:
    def test_forced_failure_yields_summary_and_exit_3(self, monkeypatch, capsys):
        def boom(org, spec, settings):
            raise SimulationInvariantError("forced design-point failure")

        monkeypatch.setattr(experiment, "_simulate", boom)
        code = main(
            [
                "figure4",
                "--benchmarks",
                "gcc",
                "--instructions",
                "1500",
                "--functional-warmup",
                "20000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "Figure 4" in captured.out  # the sweep still completed
        assert "Failure summary" in captured.err
        assert "forced design-point failure" in captured.err

    def test_clean_run_exits_zero(self, capsys):
        code = main(
            [
                "figure4",
                "--benchmarks",
                "gcc",
                "--instructions",
                "1500",
                "--functional-warmup",
                "20000",
            ]
        )
        assert code == 0
        assert "Failure summary" not in capsys.readouterr().err
