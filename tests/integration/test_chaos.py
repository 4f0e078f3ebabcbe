"""Process-level chaos: every failure ends in a clean resume or a
marked gap -- never a hang, never a stack trace.

In-process cases drive the engine directly with ``REPRO_CHAOS``
directives; subprocess cases deliver the failures only a real process
boundary can express (SIGKILL of a pool worker, SIGKILL of the parent).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core import experiment
from repro.core.experiment import ExperimentSettings, run_experiment
from repro.core.organizations import duplicate
from repro.engine.executor import ExecutionPlan, configure_engine
from repro.engine.store import CACHE_DIR_ENV, ResultStore
from repro.robustness.chaos import CHAOS_ENV, child_pids, corrupt_entry, kill_process
from repro.robustness import deadline
from repro.robustness.deadline import POINT_TIMEOUT_ENV
from repro.robustness.runner import resilient_sweeps

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)

REPO_SRC = str(Path(repro.__file__).resolve().parents[1])

FIGURE_ARGS = [
    "figure4",
    "--benchmarks",
    "gcc",
    "li",
    "--instructions",
    "1200",
    "--timing-warmup",
    "200",
    "--functional-warmup",
    "5000",
    "--no-progress",
]


@pytest.fixture(autouse=True)
def fresh_memo():
    experiment.clear_cache()
    yield
    experiment.clear_cache()


def _figure_lines(captured: str) -> list[str]:
    return [
        line for line in captured.splitlines() if "regenerated in" not in line
    ]


def _cli_env(cache_dir, **extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env[CACHE_DIR_ENV] = str(cache_dir)
    env.pop(CHAOS_ENV, None)
    env.update(extra)
    return env


def _popen(args, env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestHangAndTimeout:
    def test_hang_is_ended_by_the_deadline_within_budget_plus_grace(
        self, monkeypatch
    ):
        """A silent spin the watchdog cannot see becomes a timeout gap."""
        monkeypatch.setenv(CHAOS_ENV, "hang:gcc")
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "0.5")
        started = time.monotonic()
        with resilient_sweeps() as log:
            result = run_experiment(duplicate(32 * 1024), "gcc", FAST)
        elapsed = time.monotonic() - started
        assert result.failed
        assert [r.resolution for r in log.records] == ["timeout"]
        assert log.records[0].error_type == "DeadlineExceededError"
        assert elapsed < 0.5 + deadline.GRACE_SECONDS

    def test_unscoped_points_are_untouched_by_scoped_chaos(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:gcc")
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "0.5")
        with resilient_sweeps() as log:
            result = run_experiment(duplicate(32 * 1024), "li", FAST)
        assert not result.failed
        assert log.records == []

    def test_sleeping_worker_is_killed_after_budget_plus_grace(
        self, monkeypatch
    ):
        """A worker stuck outside the simulation loop (where cooperative
        deadline ticks never run) is killed by the parent's backstop."""
        monkeypatch.setenv(CHAOS_ENV, "sleep=10:gcc")
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "0.5")
        monkeypatch.setattr(deadline, "GRACE_SECONDS", 0.5)
        previous = configure_engine(jobs=2, store=None)
        try:
            started = time.monotonic()
            with resilient_sweeps() as log:
                plan = ExecutionPlan()
                stuck = plan.add(duplicate(32 * 1024), "gcc", FAST)
                healthy = plan.add(duplicate(32 * 1024), "li", FAST)
                results = plan.execute()
            elapsed = time.monotonic() - started
        finally:
            configure_engine(jobs=previous[0], store=previous[1])
        assert results[stuck].failed
        assert not results[healthy].failed
        assert [r.resolution for r in log.records] == ["timeout"]
        assert "killed by the parent" in log.records[0].message
        assert elapsed < 10.0  # nobody waited out the sleep

    def test_stuck_mshr_chaos_becomes_a_diagnosed_gap(self, monkeypatch):
        """The watchdog-visible flavor: DeadlockError, retried, gapped."""
        monkeypatch.setenv(CHAOS_ENV, "stuck-mshr:gcc")
        with resilient_sweeps() as log:
            result = run_experiment(duplicate(32 * 1024), "gcc", FAST)
        assert result.failed
        assert log.records[-1].resolution == "gap"
        assert log.records[-1].error_type == "DeadlockError"


class TestWorkerSigkill:
    def test_sweep_survives_a_worker_killed_mid_flight(self, tmp_path):
        """kill -9 on a pool worker: the sweep still finishes, exit 0."""
        env = _cli_env(tmp_path / "cache", **{CHAOS_ENV: "sleep=0.2"})
        proc = _popen(FIGURE_ARGS + ["--jobs", "2"], env)
        try:
            deadline = time.monotonic() + 30.0
            victims = []
            while time.monotonic() < deadline and not victims:
                victims = child_pids(proc.pid)
                time.sleep(0.05)
            assert victims, "the pool never spawned workers"
            kill_process(max(victims), signal.SIGKILL)
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "Figure 4" in out
        assert "Traceback" not in err


class TestParentSigkill:
    def test_kill_minus_nine_then_resume_is_bit_identical(self, tmp_path):
        """SIGKILL the whole sweep, then a plain rerun re-executes only
        the missing points and the final output matches an
        uninterrupted run byte for byte."""
        cache_dir = tmp_path / "cache"
        env = _cli_env(cache_dir, **{CHAOS_ENV: "sleep=0.2"})
        proc = _popen(FIGURE_ARGS, env)
        time.sleep(3.0)  # startup + a few 0.2s-stretched points
        proc.kill()  # SIGKILL: no handler, no flush, no goodbye
        proc.communicate(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        store = ResultStore(cache_dir)
        finished_early = store.info()["entries"]
        assert 0 < finished_early < 24, "SIGKILL missed the mid-sweep window"

        # Resume without chaos; count re-simulations via store entries.
        resume = subprocess.run(
            [sys.executable, "-m", "repro", *FIGURE_ARGS],
            env=_cli_env(cache_dir),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert store.info()["entries"] == 24

        fresh = subprocess.run(
            [sys.executable, "-m", "repro", *FIGURE_ARGS],
            env=_cli_env(tmp_path / "fresh-cache"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert _figure_lines(resume.stdout) == _figure_lines(fresh.stdout)

    def test_runs_resume_reports_store_served_points(self, tmp_path):
        cache_dir = tmp_path / "cache"
        env = _cli_env(cache_dir, **{CHAOS_ENV: "sleep=0.2"})
        proc = _popen(FIGURE_ARGS, env)
        time.sleep(3.0)
        proc.kill()
        proc.communicate(timeout=30)

        resume = subprocess.run(
            [sys.executable, "-m", "repro", "runs", "resume", "last",
             "--no-progress"],
            env=_cli_env(cache_dir),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert "resuming sweep" in resume.stdout
        served = int(
            resume.stdout.split("resume complete: ")[1].split(" point")[0]
        )
        assert served > 0  # the dead run's work was not repeated


class TestOnDiskRot:
    def test_cache_verify_quarantines_and_the_sweep_self_heals(
        self, tmp_path, monkeypatch, capsys
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        assert main(FIGURE_ARGS) == 0
        baseline = _figure_lines(capsys.readouterr().out)
        store = ResultStore(cache_dir)
        entries = store._entry_paths()
        assert len(entries) == 24

        # Rot three entries three different ways and tear the ledger.
        corrupt_entry(entries[0], "truncate")
        corrupt_entry(entries[1], "garbage")
        corrupt_entry(entries[2], "schema")
        from repro.robustness.chaos import tear_trailing_line

        tear_trailing_line(store.ledger().path)

        assert main(["cache", "verify"]) == 0
        verify_out = capsys.readouterr().out
        assert verify_out.count("quarantined") == 3
        assert "torn trailing record" in verify_out
        quarantined = list(store.quarantine_dir.iterdir())
        assert len(quarantined) == 4  # 3 entries + 1 ledger fragment

        # The damaged points re-simulate; output matches the baseline.
        experiment.clear_cache()
        assert main(FIGURE_ARGS) == 0
        assert _figure_lines(capsys.readouterr().out) == baseline
        assert store.info()["entries"] == 24

    def test_verify_is_idempotent(self, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        assert main(FIGURE_ARGS) == 0
        capsys.readouterr()
        corrupt_entry(ResultStore(cache_dir)._entry_paths()[0], "garbage")
        assert main(["cache", "verify"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify"]) == 0
        assert "no damage found" in capsys.readouterr().out
