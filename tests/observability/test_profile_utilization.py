"""The pipeline-utilization breakdown table."""

from repro.core.experiment import ExperimentSettings, run_experiment
from repro.core.organizations import banked, duplicate
from repro.cpu.result import SimulationResult
from repro.observability.utilization import utilization_rows, utilization_summary

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


class TestUtilizationRowMath:
    def test_zero_cycle_metrics_render_dashes_not_zerodiv(self):
        rows = utilization_rows({})
        as_map = {(row[0], row[1]): row[2] for row in rows}
        assert as_map[("pipeline", "IPC")] == "-"
        assert as_map[("fetch stalls", "window full")] == "-"
        assert as_map[("cache ports", "avg wait (cycles)")] == "-"

    def test_served_by_rows_only_for_populated_levels(self):
        metrics = {
            "cpu.cycles": 100,
            "cpu.instructions": 100,
            "memory.loads": 10,
            "memory.stores": 0,
            "memory.served_by.l1": 8,
            "memory.served_by.memory": 2,
            "memory.served_by.l2": 0,
        }
        rows = utilization_rows(metrics)
        served = [row[1] for row in rows if row[0] == "data served by"]
        assert served == ["l1", "memory"]

    def test_bus_rows_require_the_metric_to_exist(self):
        base = {"cpu.cycles": 100, "cpu.instructions": 100}
        assert not any(
            row[0].startswith("bus") for row in utilization_rows(base)
        )
        with_bus = dict(
            base,
            **{
                "memory.bus.chip.busy_cycles": 40,
                "memory.bus.chip.queue_cycles": 5,
            },
        )
        rows = utilization_rows(with_bus)
        bus_rows = [row for row in rows if row[0] == "bus chip<->L2"]
        assert ["bus chip<->L2", "busy", "40.0%"] in bus_rows
        assert ["bus chip<->L2", "queue cycles", "5"] in bus_rows

    def test_line_buffer_hit_rate_row(self):
        metrics = {
            "cpu.cycles": 100,
            "cpu.instructions": 100,
            "memory.line_buffer.load_lookups": 50,
            "memory.line_buffer.load_hits": 25,
        }
        rows = utilization_rows(metrics)
        assert ["line buffer", "load hit rate", "50.0%"] in rows


class TestUtilization:
    def test_rows_cover_the_paper_breakdown(self):
        result = run_experiment(duplicate(line_buffer=True), "gcc", FAST)
        rows = utilization_rows(result.metrics)
        sections = {row[0] for row in rows}
        assert {"pipeline", "fetch stalls", "data served by", "cache ports", "MSHRs"} <= sections
        assert ["pipeline", "IPC", f"{result.ipc:.2f}"] in rows

    def test_bank_conflicts_only_for_banked_caches(self):
        banked_rows = utilization_rows(
            run_experiment(banked(banks=2), "tomcatv", FAST).metrics
        )
        assert any(row[1] == "bank conflicts" for row in banked_rows)

    def test_summary_renders_and_handles_edge_results(self):
        result = run_experiment(duplicate(line_buffer=True), "gcc", FAST)
        text = utilization_summary(result, "Utilization: gcc")
        assert "Utilization: gcc" in text
        assert "line buffer" in text
        failed = SimulationResult(instructions=0, cycles=1, failed=True)
        assert "simulation failed" in utilization_summary(failed)
        bare = SimulationResult(instructions=1, cycles=1)
        assert "no metrics snapshot" in utilization_summary(bare)
