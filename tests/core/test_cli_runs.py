"""CLI integration: the run ledger verbs and JSON metric output."""

import json

import pytest

from repro.cli import main
from repro.core import experiment
from repro.core.experiment import ExperimentSettings
from repro.core.organizations import duplicate
from repro.cpu.result import SimulationResult
from repro.engine.key import ExperimentKey
from repro.engine.ledger import RunLedger, build_record
from repro.engine.store import ResultStore

FIGURE_ARGS = [
    "figure4",
    "--benchmarks",
    "gcc",
    "--instructions",
    "1200",
    "--timing-warmup",
    "200",
    "--functional-warmup",
    "5000",
]

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


@pytest.fixture(autouse=True)
def fresh_memo():
    experiment.clear_cache()
    yield
    experiment.clear_cache()


def _ledger() -> RunLedger:
    return ResultStore().ledger()


def _seed_run(cycles: int = 1000, workloads=("gcc", "tomcatv")) -> str:
    """Append one handcrafted record; returns its run id."""
    points = {
        ExperimentKey(
            duplicate(32 * 1024, line_buffer=True), workload, FAST
        ): SimulationResult(instructions=1500, cycles=cycles)
        for workload in workloads
    }
    outcomes = {key: "simulated" for key in points}
    return _ledger().append(
        build_record(points, outcomes, wall_seconds=2.0, jobs=1, store_schema=3)
    )


class TestRunsList:
    def test_empty_ledger(self, capsys):
        assert main(["runs"]) == 0
        assert "no runs recorded yet" in capsys.readouterr().out

    def test_table_lists_every_run(self, capsys):
        first = _seed_run()
        second = _seed_run()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert first in out
        assert second in out
        assert "2 sim" in out

    def test_json_omits_per_point_rows(self, capsys):
        _seed_run()
        assert main(["runs", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert "points" not in payload[0]
        assert payload[0]["summary"]["points"] == 2


class TestRunsShow:
    def test_show_last_renders_header_and_points(self, capsys):
        run_id = _seed_run()
        assert main(["runs", "show", "last"]) == 0
        out = capsys.readouterr().out
        assert f"run:          {run_id}" in out
        assert "plan digest:" in out
        assert "mean IPC:     1.5000" in out
        assert "2 design point(s)" in out

    def test_show_defaults_to_last(self, capsys):
        run_id = _seed_run()
        assert main(["runs", "show"]) == 0
        assert run_id in capsys.readouterr().out

    def test_show_json_round_trips_the_record(self, capsys):
        run_id = _seed_run()
        assert main(["runs", "show", "last", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == run_id
        assert len(payload["points"]) == 2

    def test_unknown_ref_is_usage_error(self, capsys):
        _seed_run()
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "show", "r9999"])
        assert excinfo.value.code == 2
        assert "no run matches 'r9999'" in capsys.readouterr().err


class TestRunsCompare:
    def test_identical_runs_have_no_drift(self, capsys):
        _seed_run(cycles=1000)
        _seed_run(cycles=1000)
        assert main(["runs", "compare"]) == 0
        out = capsys.readouterr().out
        assert "no drift: 2 design point(s)" in out

    def test_single_run_has_nothing_to_compare(self, capsys):
        _seed_run()
        assert main(["runs", "compare"]) == 2
        assert "nothing to compare" in capsys.readouterr().err

    def test_empty_ledger_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "compare"])
        assert excinfo.value.code == 2

    def test_drift_is_reported_and_exits_3(self, capsys):
        first = _seed_run(cycles=1000)
        second = _seed_run(cycles=1001)
        assert main(["runs", "compare", first, second]) == 3
        captured = capsys.readouterr()
        assert "DRIFT" in captured.out
        assert "cycles 1000 -> 1001" in captured.out
        assert "drifting metric(s)" in captured.err

    def test_rel_tol_absorbs_small_drift(self, capsys):
        first = _seed_run(cycles=1000)
        second = _seed_run(cycles=1001)
        assert main(["runs", "compare", first, second, "--rel-tol", "0.01"]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_json_format_keeps_exit_codes(self, capsys):
        _seed_run(cycles=1000)
        _seed_run(cycles=1001)
        assert main(["runs", "compare", "1", "2", "--format", "json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert {d["metric"] for d in payload["drifts"]} == {"ipc", "cycles"}

    def test_three_refs_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "compare", "1", "2", "3"])
        assert excinfo.value.code == 2

    def test_compare_skips_runs_of_other_plans(self, capsys):
        anchor = _seed_run(workloads=("gcc",))
        _seed_run(workloads=("tomcatv",))  # a different plan in between
        _seed_run(workloads=("gcc",))
        assert main(["runs", "compare"]) == 0
        out = capsys.readouterr().out
        assert f"comparing {anchor} (older)" in out


class TestLedgerThroughFigures:
    def test_figure_run_appends_and_reruns_compare_clean(self, capsys):
        assert main(FIGURE_ARGS) == 0
        capsys.readouterr()
        assert _ledger().info()["runs"] == 1

        experiment.clear_cache()
        assert main(FIGURE_ARGS) == 0
        capsys.readouterr()
        assert _ledger().info()["runs"] == 2

        assert main(["runs", "compare"]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_no_cache_run_records_nothing(self, capsys):
        assert main(FIGURE_ARGS + ["--no-cache"]) == 0
        capsys.readouterr()
        assert _ledger().info()["runs"] == 0


class TestCacheInfoLedger:
    def test_info_reports_empty_ledger(self, capsys):
        assert main(["cache", "info"]) == 0
        assert "run ledger:      no runs recorded" in capsys.readouterr().out

    def test_info_reports_ledger_stats(self, capsys):
        run_id = _seed_run()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "run ledger:      1 run(s)" in out
        assert run_id in out

    def test_clear_preserves_run_history(self, capsys):
        assert main(FIGURE_ARGS) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert _ledger().info()["runs"] == 1
        assert main(["runs", "list"]) == 0
        assert "r0001-" in capsys.readouterr().out


class TestFormatValidation:
    def test_unknown_runs_format(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "list", "--format", "BOGUS"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --format: invalid choice: 'bogus'" in err
        assert "choose from 'table', 'json'" in err

    def test_format_rejected_on_figure_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "--format", "json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_refs_rejected_on_figure_commands(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "extra-ref"])
        assert excinfo.value.code == 2


class TestMetricsJson:
    def test_metrics_json_is_parseable(self, capsys):
        args = [
            "metrics",
            "gcc",
            "--instructions",
            "1200",
            "--timing-warmup",
            "200",
            "--functional-warmup",
            "5000",
        ]
        assert main(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "gcc"
        assert payload["summary"]["instructions"] >= 1200
        assert payload["metrics"]["cpu.instructions"] == (
            payload["summary"]["instructions"]
        )
