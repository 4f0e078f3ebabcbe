"""Live sweep telemetry: beacon, hub, progress display and recap."""

import io

import pytest

from repro.core.experiment import ExperimentSettings
from repro.core.organizations import duplicate
from repro.engine.key import ExperimentKey
from repro.observability import telemetry
from repro.observability.telemetry import (
    _BEAT_CALL_MASK,
    ProgressDisplay,
    TelemetryBeacon,
    TelemetryHub,
    render_final_summary,
    render_progress_lines,
    sweep_telemetry,
)

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


def _key(workload: str = "gcc") -> ExperimentKey:
    return ExperimentKey(duplicate(32 * 1024, line_buffer=True), workload, FAST)


def _hub(**kwargs) -> TelemetryHub:
    return TelemetryHub(**kwargs)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestBeacon:
    def test_start_carries_identity(self):
        sent = []
        beacon = TelemetryBeacon("abc123", "org / gcc", sent.append, budget=1800)
        beacon.start()
        assert [m["type"] for m in sent] == ["start"]
        assert sent[0]["point"] == "abc123"
        assert sent[0]["label"] == "org / gcc"
        assert sent[0]["budget"] == 1800
        assert sent[0]["worker"].startswith("pid:")

    def test_progress_is_rate_limited_by_call_mask(self):
        sent = []
        beacon = TelemetryBeacon("p", "l", sent.append, interval=0.0)
        beacon.start()
        for i in range(_BEAT_CALL_MASK):
            beacon.progress(i)
        assert [m["type"] for m in sent] == ["start"]  # mask swallows all
        beacon.progress(64)  # call 64: mask passes, interval 0 passes
        assert sent[-1]["type"] == "beat"
        assert sent[-1]["instructions"] == 64

    def test_progress_is_rate_limited_by_wall_clock(self):
        sent = []
        beacon = TelemetryBeacon("p", "l", sent.append, interval=3600.0)
        beacon.start()
        for i in range(5 * (_BEAT_CALL_MASK + 1)):
            beacon.progress(i)
        # The mask passes five times but the hour-long interval never does.
        assert [m["type"] for m in sent] == ["start"]

    def test_send_error_disables_beacon_not_simulation(self):
        calls = []

        def explode(message):
            calls.append(message)
            raise OSError("queue torn down")

        beacon = TelemetryBeacon("p", "l", explode, interval=0.0)
        beacon.start()
        assert len(calls) == 1
        beacon.stall(stalled_cycles=10)  # must not raise, must not retry
        assert len(calls) == 1

    def test_stall_reports_evidence(self):
        sent = []
        beacon = TelemetryBeacon("p", "l", sent.append)
        beacon.stall(stalled_cycles=100_000)
        assert sent[-1]["type"] == "stall"
        assert sent[-1]["stalled_cycles"] == 100_000


class TestBeaconGlobals:
    def test_beaconing_is_a_noop_without_send(self):
        with telemetry.beaconing(_key(), None):
            assert telemetry._BEACON is None

    def test_beaconing_start_names_point_and_budget(self):
        sent = []
        with telemetry.beaconing(_key(), sent.append):
            pass
        assert [m["type"] for m in sent] == ["start"]
        assert sent[0]["point"] == _key().digest[:12]
        assert sent[0]["budget"] == FAST.timing_warmup + FAST.instructions

    def test_beaconing_installs_and_uninstalls(self):
        sent = []
        with telemetry.beaconing(_key(), sent.append, attempt=2):
            assert telemetry._BEACON is not None
            assert telemetry._BEACON.attempt == 2
        assert telemetry._BEACON is None
        assert [m["type"] for m in sent] == ["start"]
        assert sent[0]["attempt"] == 2

    def test_beaconing_uninstalls_when_the_body_raises(self):
        sent = []
        with pytest.raises(KeyError):
            with telemetry.beaconing(_key(), sent.append):
                raise KeyError("boom")
        assert telemetry._BEACON is None
        assert [m["type"] for m in sent] == ["start"]

    def test_notify_stall_routes_through_active_beacon(self):
        sent = []
        with telemetry.beaconing(_key(), sent.append):
            telemetry.notify_stall(1000)
        assert sent[-1]["type"] == "stall"
        assert sent[-1]["stalled_cycles"] == 1000
        telemetry.notify_stall(1)  # no beacon: a no-op, not an error


class TestQuietWorker:
    def _hub_quiet_for(self, seconds: float) -> TelemetryHub:
        clock = FakeClock()
        hub = _hub(clock=clock)
        hub.batch_started(1)
        hub.handle(
            {
                "type": "beat",
                "point": "p1",
                "label": "org / gcc",
                "worker": "pid:7",
                "instructions": 300,
            }
        )
        clock.now += seconds
        return hub

    def test_running_point_names_a_silent_worker(self):
        lines = render_progress_lines(self._hub_quiet_for(6.0).snapshot())
        assert "org / gcc [pid:7]" in lines[1]
        assert "no heartbeat for 6s" in lines[1]

    def test_recent_heartbeat_is_not_flagged(self):
        lines = render_progress_lines(self._hub_quiet_for(4.0).snapshot())
        assert "no heartbeat" not in lines[1]


class TestHubLifecycle:
    def test_cached_and_finished_points_reach_totals(self):
        hub = _hub()
        hub.batch_started(3)
        hub.point_cached("a" * 12, "org / gcc", "store")
        hub.point_queued("b" * 12, "org / tomcatv")
        hub.handle({"type": "start", "point": "b" * 12, "label": "org / tomcatv"})
        hub.point_finished("b" * 12, "org / tomcatv", "simulated")
        hub.handle({"type": "start", "point": "c" * 12, "label": "org / swim"})
        hub.point_finished("c" * 12, "org / swim", "gap")
        snapshot = hub.snapshot()
        assert snapshot["total"] == 3
        assert snapshot["done"] == 3
        assert snapshot["cached"] == 1
        assert snapshot["simulated"] == 1
        assert snapshot["gaps"] == 1
        assert snapshot["in_flight"] == []

    def test_heartbeats_track_progress_and_worker_rate(self):
        clock = FakeClock()
        hub = _hub(clock=clock)
        hub.batch_started(1)
        hub.handle(
            {
                "type": "start",
                "point": "p1",
                "label": "org / gcc",
                "worker": "pid:1",
                "budget": 1800,
                "attempt": 1,
            }
        )
        clock.now += 1.0
        hub.handle(
            {
                "type": "beat",
                "point": "p1",
                "label": "org / gcc",
                "worker": "pid:1",
                "instructions": 600,
            }
        )
        clock.now += 1.0
        hub.handle(
            {
                "type": "beat",
                "point": "p1",
                "label": "org / gcc",
                "worker": "pid:1",
                "instructions": 1200,
            }
        )
        snapshot = hub.snapshot()
        (point,) = snapshot["in_flight"]
        assert point["status"] == "running"
        assert point["instructions"] == 1200
        assert point["fraction"] == pytest.approx(1200 / 1800)

    def test_stall_heartbeat_marks_point_stalled(self):
        hub = _hub()
        hub.batch_started(1)
        hub.handle({"type": "start", "point": "p1", "label": "org / gcc"})
        hub.handle(
            {
                "type": "stall",
                "point": "p1",
                "label": "org / gcc",
                "worker": "pid:9",
                "stalled_cycles": 100_000,
            }
        )
        snapshot = hub.snapshot()
        assert snapshot["stalled"] == ["org / gcc"]
        assert snapshot["in_flight"][0]["stalled_cycles"] == 100_000

    def test_late_heartbeat_cannot_resurrect_terminal_point(self):
        hub = _hub()
        hub.batch_started(1)
        hub.handle({"type": "start", "point": "p1", "label": "org / gcc"})
        hub.point_finished("p1", "org / gcc", "simulated")
        hub.handle(
            {
                "type": "beat",
                "point": "p1",
                "label": "org / gcc",
                "worker": "pid:1",
                "instructions": 10,
            }
        )
        snapshot = hub.snapshot()
        assert snapshot["done"] == 1
        assert snapshot["in_flight"] == []

    def test_retry_bumps_attempt(self):
        hub = _hub()
        hub.batch_started(1)
        hub.handle({"type": "start", "point": "p1", "label": "org / gcc"})
        hub.handle(
            {"type": "start", "point": "p1", "label": "org / gcc", "attempt": 2}
        )
        snapshot = hub.snapshot()
        assert snapshot["in_flight"][0]["attempt"] == 2

    def test_eta_scales_with_remaining_points(self):
        clock = FakeClock()
        hub = _hub(clock=clock)
        hub.batch_started(4)
        clock.now += 10.0
        hub.point_finished("p1", "a", "simulated")
        snapshot = hub.snapshot()
        assert snapshot["elapsed"] == 10.0
        assert snapshot["eta"] == pytest.approx(30.0)

    def test_eta_ignores_cached_points(self):
        # Store hits resolve instantly: 80 of them, then one simulated
        # point 5 s later, leave 9 points at 5 s each.
        clock = FakeClock()
        hub = _hub(clock=clock)
        hub.batch_started(90)
        for index in range(80):
            hub.point_cached(f"c{index}", "org / gcc", "store")
        assert hub.snapshot()["eta"] == 0.0  # no rate until a point ran
        clock.now += 5.0
        hub.point_finished("p1", "org / gcc", "simulated")
        snapshot = hub.snapshot()
        assert snapshot["done"] == 81
        assert snapshot["eta"] == pytest.approx(45.0)
        assert "ETA 45s" in render_progress_lines(snapshot)[0]

    def test_bad_message_in_handle_is_tolerated_by_drain_contract(self):
        hub = _hub()
        # handle() itself may raise on garbage; the drain loop catches it.
        # The contract tested here: a well-formed-but-unknown type is a
        # silent no-op, not a crash.
        hub.handle({"type": "mystery", "point": "p", "label": "l"})
        assert hub.snapshot()["in_flight"][0]["status"] == "running"

class TestProgressDisplay:
    def _busy_hub(self) -> TelemetryHub:
        hub = _hub()
        hub.batch_started(2)
        hub.point_cached("p1", "org / gcc", "memo")
        hub.handle(
            {
                "type": "start",
                "point": "p2",
                "label": "org / tomcatv",
                "worker": "pid:3",
                "budget": 1800,
            }
        )
        hub.handle(
            {
                "type": "beat",
                "point": "p2",
                "label": "org / tomcatv",
                "worker": "pid:3",
                "instructions": 900,
            }
        )
        return hub

    def test_render_lines_summarize_sweep_and_points(self):
        lines = render_progress_lines(self._busy_hub().snapshot())
        assert lines[0].startswith("sweep: 1/2 points")
        assert "1 cached" in lines[0]
        assert "org / tomcatv" in lines[1]
        assert "900/1800 instr (50%)" in lines[1]

    def test_stalled_point_is_called_out(self):
        hub = self._busy_hub()
        hub.handle(
            {
                "type": "stall",
                "point": "p2",
                "label": "org / tomcatv",
                "stalled_cycles": 100_000,
            }
        )
        lines = render_progress_lines(hub.snapshot())
        assert any(
            "STALLED: no commit for 100000 cycles" in line for line in lines
        )

    def test_plain_mode_appends_only_on_done_change(self):
        hub = self._busy_hub()
        stream = io.StringIO()
        display = ProgressDisplay(hub, stream, ansi=False)
        display.render()
        display.render()  # same done count: no new line
        hub.point_finished("p2", "org / tomcatv", "simulated")
        display.render()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("sweep: 1/2")
        assert lines[1].startswith("sweep: 2/2")

    def test_ansi_mode_redraws_in_place(self):
        hub = self._busy_hub()
        stream = io.StringIO()
        display = ProgressDisplay(hub, stream, ansi=True)
        display.render()
        first = stream.getvalue()
        assert "\x1b[2K" in first
        assert "\x1b[" not in first.split("\x1b[2K")[0]  # no cursor-up yet
        display.render()
        assert "\x1b[2F" in stream.getvalue()  # moved up over the 2-line block

    def test_close_is_idempotent_and_renders_final_state(self):
        hub = self._busy_hub()
        stream = io.StringIO()
        display = ProgressDisplay(hub, stream, ansi=False)
        display.start()
        display.close()
        display.close()
        assert "sweep: 1/2" in stream.getvalue()


class TestDispatchSurface:
    """The engine's dispatch summary flows through every telemetry view."""

    _PROFILE = {
        "workers": 2,
        "chunks": 4,
        "utilization": 0.913,
        "pool_reused": False,
    }

    def _hub_with_dispatch(self) -> TelemetryHub:
        hub = _hub()
        hub.batch_started(6)
        hub.record_dispatch(dict(self._PROFILE))
        return hub

    def test_record_dispatch_round_trips_through_snapshot(self):
        snapshot = self._hub_with_dispatch().snapshot()
        assert snapshot["dispatch"] == self._PROFILE

    def test_no_dispatch_recorded_means_none_in_snapshot(self):
        hub = _hub()
        hub.batch_started(1)
        assert hub.snapshot()["dispatch"] is None

    def test_progress_block_gains_a_pool_line(self):
        lines = render_progress_lines(self._hub_with_dispatch().snapshot())
        pool = [line for line in lines if line.startswith("  pool:")]
        assert len(pool) == 1
        assert "2 workers" in pool[0]
        assert "4 chunks" in pool[0]
        assert "91% busy" in pool[0]
        assert "pool cold" in pool[0]  # pool_reused is False

    def test_warm_pool_with_no_steals_renders_lean(self):
        profile = dict(self._PROFILE, pool_reused=True)
        hub = _hub()
        hub.batch_started(6)
        hub.record_dispatch(profile)
        (pool,) = [
            line
            for line in render_progress_lines(hub.snapshot())
            if line.startswith("  pool:")
        ]
        assert "pool cold" not in pool


class TestSweepTelemetryScope:
    def test_off_state_installs_nothing(self):
        stream = io.StringIO()  # not a TTY: progress auto-off
        with sweep_telemetry(stream=stream) as hub:
            assert hub is None
            assert telemetry.active_hub() is None
        assert stream.getvalue() == ""

    def test_explicit_off_beats_tty(self):
        with sweep_telemetry(progress=False) as hub:
            assert hub is None

    def test_progress_installs_and_clears_hub(self):
        stream = io.StringIO()
        with sweep_telemetry(progress=True, stream=stream) as hub:
            assert hub is not None
            assert telemetry.active_hub() is hub
            hub.batch_started(1)
            hub.point_finished("p", "org / gcc", "simulated")
        assert telemetry.active_hub() is None
        assert "sweep: 1/1 points" in stream.getvalue()


class TestFinalSummary:
    def test_recap_line(self):
        hub = _hub()
        hub.batch_started(3)
        hub.point_finished("p1", "a", "simulated")
        hub.point_finished("p2", "b", "simulated")
        hub.point_finished("p3", "c", "gap")
        hub.record_dispatch(
            {"workers": 2, "utilization": 0.75, "chunks": 2}
        )
        line = render_final_summary(hub.snapshot())
        assert line.startswith("sweep finished: 3/3 points in ")
        assert "1 FAILED" in line
        assert "2 workers 75% busy" in line

    def test_minimal_recap_without_extras(self):
        hub = _hub()
        hub.batch_started(1)
        hub.point_finished("p1", "a", "simulated")
        line = render_final_summary(hub.snapshot())
        assert "FAILED" not in line
        assert "workers" not in line
        assert "spans" not in line

    def test_progress_close_prints_the_recap_once(self):
        hub = _hub()
        hub.batch_started(1)
        hub.point_finished("p1", "a", "simulated")
        stream = io.StringIO()
        display = ProgressDisplay(hub, stream, ansi=False)
        display.start()
        display.close()
        display.close()
        output = stream.getvalue()
        assert output.count("sweep finished:") == 1


class TestProgressThroughTheCli:
    def test_progress_leaves_stdout_alone(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.core import experiment

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        argv = [
            "figure4",
            "--benchmarks",
            "li",
            "--instructions",
            str(FAST.instructions),
            "--timing-warmup",
            str(FAST.timing_warmup),
            "--functional-warmup",
            str(FAST.functional_warmup),
            "--jobs",
            "2",
        ]
        experiment.clear_cache()
        try:
            assert main([*argv, "--progress"]) == 0
            live = capsys.readouterr()
            assert main([*argv, "--no-progress"]) == 0
            quiet = capsys.readouterr()
        finally:
            experiment.clear_cache()
        assert live.out == quiet.out
        (recap,) = [
            line
            for line in live.err.splitlines()
            if line.startswith("sweep finished:")
        ]
        done, planned = recap.split()[2].split("/")
        assert done == planned
        assert "[serving" not in live.err
