"""Per-point wall-clock deadlines: arming, expiry, env configuration."""

import pytest

from repro.robustness.deadline import (
    POINT_TIMEOUT_ENV,
    _TICK_MASK,
    Deadline,
    active_deadline,
    clear_deadline,
    configured_timeout,
    point_deadline,
)
from repro.robustness.errors import DeadlineExceededError


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.now


@pytest.fixture(autouse=True)
def _no_leaked_deadline():
    clear_deadline()
    yield
    clear_deadline()


class TestDeadline:
    def test_positive_budget_required(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_check_quiet_before_expiry(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.now += 9.9
        deadline.check(cycle=5)  # no raise
        assert deadline.remaining() == pytest.approx(0.1)
        assert not deadline.expired()

    def test_check_raises_at_expiry(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.now += 10.0
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check(cycle=42)
        assert excinfo.value.seconds == 10.0
        assert "cycle 42" in str(excinfo.value)
        assert "timeout gap" in str(excinfo.value)

    def test_tick_reads_clock_once_per_mask_window(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        reads_after_arm = clock.reads
        for _ in range(_TICK_MASK):
            deadline.tick()
        assert clock.reads == reads_after_arm  # masked calls are free
        deadline.tick()  # the (mask+1)-th call pays the clock read
        assert clock.reads == reads_after_arm + 1

    def test_tick_raises_once_expired(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.now += 2.0
        with pytest.raises(DeadlineExceededError):
            for _ in range(_TICK_MASK + 1):
                deadline.tick()


class TestConfiguration:
    def test_unset_means_unbounded(self, monkeypatch):
        monkeypatch.delenv(POINT_TIMEOUT_ENV, raising=False)
        assert configured_timeout() is None

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "12.5")
        assert configured_timeout() == 12.5

    @pytest.mark.parametrize("raw", ["0", "-3", "soon", ""])
    def test_bad_values_disable_not_fail(self, monkeypatch, raw):
        monkeypatch.setenv(POINT_TIMEOUT_ENV, raw)
        assert configured_timeout() is None


class TestPointDeadlineScope:
    def test_nothing_installed_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv(POINT_TIMEOUT_ENV, raising=False)
        with point_deadline() as armed:
            assert armed is None
            assert active_deadline() is None

    def test_env_budget_arms_and_restores(self, monkeypatch):
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "30")
        with point_deadline() as armed:
            assert armed is not None
            assert armed.seconds == 30.0
            assert active_deadline() is armed
        assert active_deadline() is None

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "30")
        with point_deadline(5.0) as armed:
            assert armed.seconds == 5.0

    def test_nested_scopes_restore_outer(self):
        with point_deadline(10.0) as outer:
            with point_deadline(1.0) as inner:
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with point_deadline(10.0):
                raise RuntimeError("boom")
        assert active_deadline() is None


class TestCoreIntegration:
    def test_expired_deadline_ends_a_simulation(self):
        from repro.core.experiment import ExperimentSettings, _simulate
        from repro.core.organizations import duplicate
        from repro.workloads.catalog import benchmark

        settings = ExperimentSettings(
            instructions=100_000, timing_warmup=0, functional_warmup=0
        )
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.now += 1.0  # already expired when the hot loop first ticks
        from repro.robustness.deadline import install_deadline

        install_deadline(deadline)
        with pytest.raises(DeadlineExceededError):
            _simulate(duplicate(32 * 1024), benchmark("gcc"), settings)
