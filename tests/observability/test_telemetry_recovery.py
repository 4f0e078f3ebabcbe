"""Telemetry for the recovery subsystem: timeout counters and reruns."""

from repro.observability.telemetry import (
    TelemetryHub,
    render_progress_lines,
)


class TestTimeoutAccounting:
    def test_timeout_counts_as_failed_and_gap_and_timeout(self):
        hub = TelemetryHub()
        hub.batch_started(2)
        hub.handle({"type": "start", "point": "p1", "label": "org / gcc"})
        hub.point_finished("p1", "org / gcc", "timeout")
        hub.handle({"type": "start", "point": "p2", "label": "org / li"})
        hub.point_finished("p2", "org / li", "done")
        snapshot = hub.snapshot()
        assert snapshot["done"] == 2
        assert snapshot["gaps"] == 1
        assert snapshot["timeouts"] == 1
        assert snapshot["in_flight"] == []

    def test_progress_line_names_timeouts(self):
        hub = TelemetryHub()
        hub.batch_started(4)
        hub.handle({"type": "start", "point": "p1", "label": "org / gcc"})
        hub.point_finished("p1", "org / gcc", "timeout")
        lines = render_progress_lines(hub.snapshot())
        joined = "\n".join(lines)
        assert "1 timed out" in joined

    def test_quiet_runs_stay_quiet(self):
        hub = TelemetryHub()
        hub.batch_started(1)
        hub.handle({"type": "start", "point": "p1", "label": "org / gcc"})
        hub.point_finished("p1", "org / gcc", "done")
        joined = "\n".join(render_progress_lines(hub.snapshot()))
        assert "timed out" not in joined
        assert "resumed" not in joined


class TestRerunAfterGaps:
    def test_rerun_counts_store_hits_once_as_cached(
        self, tmp_path, monkeypatch, capsys
    ):
        """A rerun after a gap run is the resume: the earlier run's
        stored points are store hits, reported once, as ``cached``."""
        from repro.cli import main
        from repro.core import experiment
        from repro.engine.store import CACHE_DIR_ENV
        from repro.robustness.chaos import CHAOS_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
        argv = [
            "figure7",
            "--benchmarks",
            "gcc",
            "tomcatv",
            "--instructions",
            "1200",
            "--timing-warmup",
            "200",
            "--functional-warmup",
            "5000",
        ]
        experiment.clear_cache()
        try:
            monkeypatch.setenv(CHAOS_ENV, "stuck-mshr:tomcatv")
            assert main([*argv, "--no-progress"]) == 3  # tomcatv: gaps
            capsys.readouterr()
            monkeypatch.delenv(CHAOS_ENV)
            experiment.clear_cache()
            assert main([*argv, "--progress"]) == 0
            err = capsys.readouterr().err
        finally:
            experiment.clear_cache()
        progress = [line for line in err.splitlines() if line.startswith("sweep: ")]
        assert progress[-1].startswith("sweep: 12/12 points · 6 cached · ")
        assert "resumed" not in err
