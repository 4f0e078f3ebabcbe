"""Failure records: timeouts count among a sweep's gaps."""

from repro.robustness.runner import FailureLog, FailureRecord


class TestFailureLogBackoff:
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
        summary = log.summary()
        assert "Failure summary: 2 design point(s) hit an error" in summary
        assert "0 point(s) recovered at reduced budget, 2 left as gaps" in summary
        assert "1 of them wall-clock timeouts" in summary
