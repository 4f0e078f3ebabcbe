"""Fast tests for the sweep/ablation helpers (small budgets)."""

from repro.core import ExperimentSettings
from repro.core.sweeps import (
    associativity_sweep,
    bank_interleave_sweep,
    direct_mapped_equivalence,
    issue_width_sweep,
    line_buffer_size_sweep,
    mshr_sweep,
    prefetch_sweep,
    victim_vs_line_buffer,
    window_size_sweep,
    write_policy_sweep,
)

TINY = ExperimentSettings(
    instructions=2_500, timing_warmup=500, functional_warmup=80_000
)


class TestSweepShapes:
    def test_mshr_sweep_keys_and_positive(self):
        data = mshr_sweep("li", mshr_counts=(1, 4), settings=TINY)
        assert set(data) == {1, 4}
        assert all(v > 0 for v in data.values())
        assert data[4] >= data[1] * 0.98

    def test_line_buffer_size_hit_rate_monotone(self):
        data = line_buffer_size_sweep("li", entry_counts=(4, 32), settings=TINY)
        assert data[32][1] >= data[4][1] - 0.03

    def test_associativity_reduces_misses(self):
        data = associativity_sweep(
            "gcc", sizes=(8 * 1024,), ways=(1, 2), settings=TINY
        )
        assert data[(8 * 1024, 2)] <= data[(8 * 1024, 1)] * 1.1

    def test_direct_mapped_equivalence_keys(self):
        data = direct_mapped_equivalence("li", size=8 * 1024, settings=TINY)
        assert set(data) == {"direct_S", "twoway_S", "direct_2S"}
        # On a 2,500-instruction sample 2-way LRU can trail direct-mapped
        # by a hair; the equivalence claim only needs rough parity here.
        assert data["twoway_S"] <= data["direct_S"] * 1.25

    def test_bank_interleave_line_at_least_page(self):
        data = bank_interleave_sweep("tomcatv", settings=TINY)
        assert data["line"][0] >= data["page"][0] * 0.95

    def test_write_policy_variants(self):
        data = write_policy_sweep("li", settings=TINY)
        assert set(data) == {
            "write-back",
            "write-through",
            "write-through/no-allocate",
        }
        assert all(v > 0 for v in data.values())

    def test_victim_vs_line_buffer_variants(self):
        data = victim_vs_line_buffer("gcc", settings=TINY)
        assert set(data) == {"plain", "line-buffer", "victim-cache", "both"}
        assert data["line-buffer"] >= data["plain"] * 0.97

    def test_prefetch_sweep_structure(self):
        data = prefetch_sweep(workloads=("li",), settings=TINY)
        assert set(data["li"]) == {"off", "on"}

    def test_window_size_monotone_ish(self):
        data = window_size_sweep(
            "tomcatv", window_sizes=(16, 64), settings=TINY
        )
        assert data[64] >= data[16] * 0.98

    def test_issue_width_scales(self):
        data = issue_width_sweep("tomcatv", widths=(1, 4), settings=TINY)
        assert data[4] > data[1]

    def test_settings_threading(self):
        """Sweeps must respect the provided settings (measured length)."""
        from repro.core import duplicate, run_experiment

        result = run_experiment(duplicate(), "li", TINY)
        assert result.instructions == TINY.instructions


class TestLineSizeSweep:
    def test_structure_and_spatial_benefit(self):
        from repro.core.sweeps import line_size_sweep

        data = line_size_sweep("tomcatv", settings=TINY)
        assert set(data) == {16, 32, 64}
        # Streaming code: longer lines cut the miss rate.
        assert data[64][1] < data[16][1]


class TestFuRestrictionSweep:
    def test_restriction_never_helps(self):
        from repro.core.sweeps import fu_restriction_sweep

        data = fu_restriction_sweep(workloads=("li",), settings=TINY)
        cells = data["li"]
        assert cells["r10000_units"] <= cells["unrestricted"] * 1.02
