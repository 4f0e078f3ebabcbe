"""The simulation snapshot and its value/name checks."""

import pytest

from repro.core.experiment import ExperimentSettings, run_experiment
from repro.core.organizations import banked, dram_cache, duplicate
from repro.observability.metrics import _snap

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


class TestSnapshotChecks:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _snap({}, "x", leaf=-3)

    def test_bad_names_rejected(self):
        for bad in ("", ".x", "x.", "a..b"):
            with pytest.raises(ValueError, match="bad metric name"):
                _snap({}, bad, leaf=1)


class TestSimulationSnapshot:
    def test_core_populates_metrics(self):
        result = run_experiment(duplicate(line_buffer=True), "gcc", FAST)
        metrics = result.metrics
        assert metrics  # populated by the core at end of run
        # headline identities against the legacy stats objects
        assert metrics["cpu.instructions"] == result.instructions
        assert metrics["cpu.cycles"] == result.cycles
        assert metrics["memory.loads"] == result.memory.loads
        assert metrics["memory.l1.load_hits"] == result.memory.l1_load_hits
        assert (
            metrics["cpu.pipeline.window_full_stalls"]
            == result.pipeline.window_full_stalls
        )
        # previously-discarded component counters are now exported
        assert metrics["memory.ports.requests"] > 0
        assert "memory.mshr.primary_misses" in metrics
        assert "memory.line_buffer.load_hits" in metrics
        assert "memory.bus.chip.transfers" in metrics
        # every exported value is a deterministic, JSON-exact int
        assert all(isinstance(v, int) for v in metrics.values())
        assert all(v >= 0 for v in metrics.values())

    def test_served_by_sums_to_accesses(self):
        result = run_experiment(banked(), "tomcatv", FAST)
        served = sum(
            value
            for name, value in result.metrics.items()
            if name.startswith("memory.served_by.")
        )
        assert served == result.metrics["memory.loads"] + result.metrics[
            "memory.stores"
        ]

    def test_dram_mode_exports_dram_tree(self):
        result = run_experiment(dram_cache(), "gcc", FAST)
        metrics = result.metrics
        assert "memory.dram.hits" in metrics
        assert "memory.bus.memory.transfers" in metrics
        assert "memory.l2.hits" not in metrics  # no off-chip L2 in DRAM mode

    def test_sram_mode_has_no_dram_tree(self):
        result = run_experiment(duplicate(), "gcc", FAST)
        assert "memory.dram.hits" not in result.metrics
        assert "memory.l2.hits" in result.metrics
