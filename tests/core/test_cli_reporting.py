"""Tests for the CLI and the text reporting layer."""

import pytest

from repro.cli import main
from repro.core import reporting
from repro.core.exec_time import ExecutionTimePoint


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = reporting.format_table(
            ["a", "long-header"], [["1", "2"], ["333", "4"]], "T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) <= {"-", " "}
        assert lines[1].index("long-header") == lines[3].index("2".ljust(1))

    def test_no_title(self):
        text = reporting.format_table(["x"], [["1"]])
        assert text.splitlines()[0].startswith("x")


class TestRenderers:
    def test_render_figure1(self):
        text = reporting.render_figure1(
            {"single_ported": [(4096, 23.3), (8192, 25.0)]}
        )
        assert "4K" in text and "25.0" in text

    def test_render_table2(self):
        rows = [
            {
                "benchmark": "gcc",
                "kernel_pct": 10.0,
                "user_pct": 90.0,
                "idle_pct": 0.0,
                "load_pct": 28.1,
                "store_pct": 12.2,
            }
        ]
        text = reporting.render_table2(rows)
        assert "28.1" in text and "gcc" in text

    def test_render_figure3(self):
        text = reporting.render_figure3({"li": [(4096, 0.0204)]})
        assert "2.04%" in text

    def test_render_ipc_grid(self):
        data = {"li": {(1, 1): 1.5, (1, 2): 1.4, (2, 1): 1.6, (2, 2): 1.5}}
        text = reporting.render_ipc_grid(data, "ports", "Grid")
        assert "1.600" in text and "ports" in text

    def test_render_figure6(self):
        cells = {
            (style, lb, hit): 1.0
            for style in ("banked", "duplicate")
            for lb in (False, True)
            for hit in (1, 2, 3)
        }
        text = reporting.render_figure6({"gcc": cells})
        assert "duplicate.LB" in text

    def test_render_figure7(self):
        cells = {(hit, lb): 1.2 for hit in (6, 7, 8) for lb in (True, False)}
        text = reporting.render_figure7({"gcc": cells})
        assert "no LB" in text and "6~ IPC" in text

    def test_render_figure9(self):
        points = [
            ExecutionTimePoint("gcc", 25.0, 2, 512 * 1024, 1.5, 100.0, 1.1)
        ]
        text = reporting.render_figure9({"gcc": points})
        assert "512K" in text and "1.100" in text

    def test_render_headlines(self):
        numbers = {
            "port_gain": {"1->2": 0.08},
            "pipeline_loss": {"gcc": {"2_cycles": 0.1, "3_cycles": 0.2}},
            "line_buffer_gain": {"duplicate": 0.03},
            "lb_pipeline_recovery": {"gcc": 0.5},
            "dram_loss_per_cycle": 0.007,
        }
        text = reporting.render_headlines(numbers)
        assert "+8.0%" in text and "50%" in text


class TestCli:
    def test_figure1_runs(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "single_ported" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_small_simulated_figure(self, capsys):
        code = main(
            [
                "figure4",
                "--benchmarks",
                "li",
                "--instructions",
                "1500",
                "--functional-warmup",
                "40000",
            ]
        )
        assert code == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure42"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'figure42'" in err
        assert "figure1" in err and "headlines" in err  # lists valid names
        assert "Traceback" not in err

    def test_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure4", "--benchmarks", "doom"])
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err
        assert "gcc" in err and "tomcatv" in err  # lists valid names
        assert "Traceback" not in err

    def test_benchmark_names_are_case_insensitive(self, capsys):
        code = main(
            [
                "table2",
                "--benchmarks",
                "GCC",
            ]
        )
        assert code == 0
        assert "Table 2" in capsys.readouterr().out
