"""Telemetry for the recovery subsystem: timeout and resume counters."""

from repro.observability.telemetry import (
    TelemetryHub,
    render_progress_lines,
)


class TestTimeoutAccounting:
    def test_timeout_counts_as_failed_and_gap_and_timeout(self):
        hub = TelemetryHub()
        hub.batch_started(2)
        hub.point_started("p1", "org / gcc")
        hub.point_finished("p1", "org / gcc", "timeout")
        hub.point_started("p2", "org / li")
        hub.point_finished("p2", "org / li", "done")
        snapshot = hub.snapshot()
        assert snapshot["done"] == 2
        assert snapshot["gaps"] == 1
        assert snapshot["timeouts"] == 1
        assert snapshot["in_flight"] == []

    def test_resumed_points_surface_in_snapshot(self):
        hub = TelemetryHub()
        hub.batch_started(5)
        hub.sweep_resumed(3)
        assert hub.snapshot()["resumed"] == 3

    def test_progress_line_names_timeouts_and_resumed(self):
        hub = TelemetryHub()
        hub.batch_started(4)
        hub.sweep_resumed(2)
        hub.point_started("p1", "org / gcc")
        hub.point_finished("p1", "org / gcc", "timeout")
        lines = render_progress_lines(hub.snapshot())
        joined = "\n".join(lines)
        assert "1 timed out" in joined
        assert "2 resumed" in joined

    def test_quiet_runs_stay_quiet(self):
        hub = TelemetryHub()
        hub.batch_started(1)
        hub.point_started("p1", "org / gcc")
        hub.point_finished("p1", "org / gcc", "done")
        joined = "\n".join(render_progress_lines(hub.snapshot()))
        assert "timed out" not in joined
        assert "resumed" not in joined

