"""Retry backoff: exponential, capped, deterministically jittered."""

from repro.robustness.runner import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    RETRIES,
    RETRY_BUDGET_SECONDS,
    FailureLog,
    FailureRecord,
    retry_backoff,
)


class TestRetryBackoff:
    def test_first_attempt_never_waits(self):
        assert retry_backoff(0) == 0.0
        assert retry_backoff(1) == 0.0

    def test_deterministic_for_same_seed_and_attempt(self):
        a = retry_backoff(3, seed="1~ duplicate 32K/gcc")
        b = retry_backoff(3, seed="1~ duplicate 32K/gcc")
        assert a == b

    def test_different_seeds_desynchronize(self):
        delays = {retry_backoff(2, seed=f"point-{i}") for i in range(8)}
        assert len(delays) > 1  # jitter spreads the herd

    def test_jitter_stays_inside_the_band(self):
        for attempt in (2, 3, 4):
            nominal = min(
                BACKOFF_CAP,
                BACKOFF_BASE * 2.0 ** (attempt - 2),
            )
            for seed in ("a", "b", "c"):
                delay = retry_backoff(attempt, seed=seed)
                assert 0.75 * nominal <= delay < 1.25 * nominal

    def test_exponential_growth_until_the_cap(self):
        # The nominal delay doubles from BACKOFF_BASE per attempt until
        # it reaches BACKOFF_CAP, then stays there.
        assert BACKOFF_BASE < BACKOFF_CAP
        assert retry_backoff(2, seed="s") < 1.25 * BACKOFF_BASE
        assert retry_backoff(3, seed="s") >= 0.75 * 2 * BACKOFF_BASE
        for attempt in (20, 40):
            capped = retry_backoff(attempt, seed="s")
            assert 0.75 * BACKOFF_CAP <= capped < 1.25 * BACKOFF_CAP


class TestFailureLogBackoff:
    def test_default_retry_budget(self):
        # The budget covers every retry's longest possible delay.
        assert RETRIES * 1.25 * BACKOFF_CAP < RETRY_BUDGET_SECONDS

    def test_timeout_records_count_as_gaps(self):
        log = FailureLog()
        log.record(
            FailureRecord(
                label="p1",
                workload="gcc",
                error_type="DeadlineExceededError",
                message="overran",
                attempts=1,
                resolution="timeout",
            )
        )
        log.record(
            FailureRecord(
                label="p2",
                workload="gcc",
                error_type="SimulationInvariantError",
                message="boom",
                attempts=2,
                resolution="gap",
            )
        )
        assert len(log.gaps) == 2
        assert [r.label for r in log.timeouts] == ["p1"]
        summary = log.summary()
        assert "1 of them wall-clock timeouts" in summary
