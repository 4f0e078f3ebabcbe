"""Signal handling end to end: SIGINT -> exit 4 -> rerun, identically.

The in-process tests drive :func:`repro.cli.main` on the pytest main
thread (so ``ShutdownController`` installs real handlers) and deliver
genuine signals with ``os.kill``; the chaos ``sleep`` directive
stretches the sweep so the signal reliably lands mid-run.
"""

import os
import shlex
import signal
import threading

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.core import experiment
from repro.engine.checkpoint import list_checkpoints
from repro.engine.store import CACHE_DIR_ENV, ResultStore
from repro.robustness.chaos import CHAOS_ENV

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


def _figure_lines(captured: str) -> list[str]:
    return [
        line for line in captured.splitlines() if "regenerated in" not in line
    ]


@pytest.fixture(autouse=True)
def fresh_memo():
    experiment.clear_cache()
    yield
    experiment.clear_cache()


def _sigint_after(delay: float) -> threading.Timer:
    timer = threading.Timer(delay, os.kill, (os.getpid(), signal.SIGINT))
    timer.daemon = True
    timer.start()
    return timer


class TestSigintResume:
    def test_sigint_exits_4_keeps_checkpoint_then_resumes_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        interrupted_dir = tmp_path / "interrupted"
        fresh_dir = tmp_path / "fresh"

        # Baseline: the uninterrupted output this sweep must converge to.
        monkeypatch.setenv(CACHE_DIR_ENV, str(fresh_dir))
        assert main(FIGURE_ARGS) == 0
        baseline = _figure_lines(capsys.readouterr().out)

        # Interrupted run: sleep chaos stretches every point so the
        # signal lands mid-sweep, without touching simulated numbers.
        experiment.clear_cache()
        monkeypatch.setenv(CACHE_DIR_ENV, str(interrupted_dir))
        monkeypatch.setenv(CHAOS_ENV, "sleep=0.2")
        timer = _sigint_after(1.0)
        try:
            code = main(FIGURE_ARGS)
        finally:
            timer.cancel()
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in captured.err

        # The checkpoint survived and is loadable.
        checkpoints = list_checkpoints(ResultStore(interrupted_dir).root)
        assert len(checkpoints) == 1
        status = checkpoints[0].status()
        assert status["planned"] == 24  # 2 benchmarks x 12 grid points
        assert 0 < status["completed"] < status["planned"]
        assert checkpoints[0].keys()  # header rebuilds the plan

        # Rerun (chaos off): exit clean, output identical to baseline.
        experiment.clear_cache()
        monkeypatch.delenv(CHAOS_ENV)
        assert main(FIGURE_ARGS) == 0
        resumed = capsys.readouterr()
        assert _figure_lines(resumed.out) == baseline
        # A clean completion deletes the checkpoint.
        assert list_checkpoints(interrupted_dir) == []

        # Every planned point now holds a stored result.
        assert ResultStore(interrupted_dir).info()["entries"] == status["planned"]

    def test_interrupt_hint_repeats_the_flags(self, tmp_path, monkeypatch, capsys):
        # Rerunning the bare verb would plan other benchmarks and
        # budgets; the hint must name the interrupted plan's command.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.setenv(CHAOS_ENV, "sleep=0.2")
        timer = _sigint_after(1.0)
        try:
            code = main(FIGURE_ARGS)
        finally:
            timer.cancel()
        assert code == EXIT_INTERRUPTED
        hint = f"continue with: python -m repro {shlex.join(FIGURE_ARGS)} "
        assert hint in capsys.readouterr().err

    def test_point_timeout_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(FIGURE_ARGS + ["--point-timeout", "0"])
        assert "--point-timeout" in capsys.readouterr().err


class TestRunsResume:
    def test_runs_resume_finishes_an_interrupted_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        monkeypatch.setenv(CHAOS_ENV, "sleep=0.2")
        timer = _sigint_after(1.0)
        try:
            code = main(FIGURE_ARGS)
        finally:
            timer.cancel()
        capsys.readouterr()
        assert code == EXIT_INTERRUPTED

        experiment.clear_cache()
        monkeypatch.delenv(CHAOS_ENV)
        assert main(["runs", "resume", "last", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "resuming sweep" in out
        assert "resume complete" in out
        assert list_checkpoints(cache_dir) == []
        # Every planned point now holds a stored result.
        assert ResultStore(cache_dir).info()["entries"] == 24

    def test_runs_resume_with_nothing_to_resume(self, capsys):
        assert main(["runs", "resume"]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_interrupted_run_lands_in_the_ledger(
        self, tmp_path, monkeypatch, capsys
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        monkeypatch.setenv(CHAOS_ENV, "sleep=0.2")
        timer = _sigint_after(1.0)
        try:
            code = main(FIGURE_ARGS)
        finally:
            timer.cancel()
        capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        records = ResultStore(cache_dir).ledger().records()
        assert len(records) == 1
        assert records[0].get("interrupted") is True
        assert records[0]["summary"]["points"] > 0
        # The partial record is visible in `runs list` and `runs show`.
        assert main(["runs", "list"]) == 0
        assert "interrupted" in capsys.readouterr().out
        assert main(["runs", "show", "last"]) == 0
        assert "interrupted:  yes" in capsys.readouterr().out
