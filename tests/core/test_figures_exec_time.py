"""Smoke/shape tests for the figure entry points and Figure 9 logic."""

import pytest

from repro.core import (
    ExperimentSettings,
    baseline_time_fo4,
    best_point,
    execution_time_curves,
    figure1,
    figure3,
    scaled_backside,
    table1,
    table2,
)
from repro.core.exec_time import ExecutionTimePoint
from repro.core.figures import figure4, figure6, figure7, figure8
from repro.analysis import monotone_non_increasing

FAST = ExperimentSettings(
    instructions=3_000, timing_warmup=800, functional_warmup=100_000
)


class TestStaticFigures:
    def test_figure1_shape(self):
        curves = figure1()
        assert set(curves) == {"single_ported", "eight_way_banked"}
        assert len(curves["single_ported"]) == 9

    def test_table1_contents(self):
        rows = table1()
        assert len(rows) == 9
        assert {row["group"] for row in rows} == {
            "SPECint95",
            "SPECfp95",
            "multiprogramming",
        }

    def test_table2_matches_specs(self):
        rows = table2(sample_instructions=20_000)
        by_name = {row["benchmark"]: row for row in rows}
        assert by_name["database"]["idle_pct"] == pytest.approx(64.6)
        assert by_name["gcc"]["load_pct"] == pytest.approx(28.1, abs=2.0)
        assert by_name["VCS"]["store_pct"] == pytest.approx(15.1, abs=2.0)

    def test_figure3_miss_curves(self):
        curves = figure3(
            sizes=(8 * 1024, 64 * 1024, 512 * 1024),
            instructions=60_000,
            warmup_instructions=60_000,
            benchmarks=("li", "database"),
        )
        for series in curves.values():
            values = [miss for _, miss in series]
            assert monotone_non_increasing(values, tolerance=0.002)
        assert curves["database"][0][1] > curves["li"][0][1]

    def test_figure3_pinned_miss_counts(self):
        # Misses per size (4 KB .. 1 MB) of every benchmark at seed 1,
        # so a change to how Figure 3 reads its streams shows here.
        pinned = {
            "gcc": (776, 627, 445, 383, 324, 323, 322, 322, 322),
            "li": (440, 255, 185, 176, 174, 173, 173, 173, 173),
            "compress": (1099, 1010, 906, 782, 722, 720, 700, 700, 700),
            "tomcatv": (1135, 1054, 1000, 925, 918, 918, 918, 918, 918),
            "su2cor": (1005, 904, 840, 788, 777, 777, 777, 777, 777),
            "apsi": (1761, 1608, 1501, 1422, 483, 449, 449, 449, 449),
            "pmake": (1016, 950, 863, 738, 703, 637, 633, 632, 631),
            "database": (1539, 1482, 1423, 1354, 1299, 1279, 1271, 1265, 1262),
            "VCS": (1301, 1251, 1189, 1106, 1036, 990, 977, 972, 971),
        }
        curves = figure3(instructions=20_000, warmup_instructions=20_000)
        sizes = [4 * 1024 << k for k in range(9)]
        assert curves == {
            name: [(size, miss / 20_000) for size, miss in zip(sizes, misses)]
            for name, misses in pinned.items()
        }


class TestTimingFigures:
    def test_figure4_grid_complete(self):
        data = figure4(("li",), ports=(1, 2), hit_times=(1, 2), settings=FAST)
        assert set(data["li"]) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert data["li"][(2, 1)] >= data["li"][(1, 1)] * 0.98

    def test_figure6_line_buffer_column(self):
        data = figure6(("li",), hit_times=(1,), settings=FAST)
        cells = data["li"]
        assert cells[("duplicate", True, 1)] >= cells[("duplicate", False, 1)] * 0.99

    def test_figure7_dram_grid(self):
        data = figure7(("li",), dram_hit_times=(6, 8), settings=FAST)
        assert data["li"][(6, True)] >= data["li"][(8, True)] * 0.98

    def test_figure8_series_and_average(self):
        data = figure8(
            ("li", "tomcatv"),
            sizes=(8 * 1024, 64 * 1024),
            hit_times=(1,),
            settings=FAST,
        )
        assert "average" in data
        series = data["average"][("duplicate", 1)]
        assert len(series) == 2
        li = data["li"][("duplicate", 1)]
        tom = data["tomcatv"][("duplicate", 1)]
        for (s, avg), (_, a), (_, b) in zip(series, li, tom):
            assert avg == pytest.approx((a + b) / 2)


class TestExecutionTime:
    def test_scaled_backside_reference_clock(self):
        backside = scaled_backside(25.0)
        assert backside.l2_hit_cycles == 10
        assert backside.memory_cycles == 60
        assert backside.chip_bus_bytes_per_cycle == pytest.approx(12.5)

    def test_scaled_backside_fast_clock(self):
        backside = scaled_backside(10.0)
        assert backside.l2_hit_cycles == 25
        assert backside.memory_cycles == 150
        assert backside.chip_bus_bytes_per_cycle == pytest.approx(5.0)

    def test_baseline_positive(self):
        assert baseline_time_fo4("li", FAST) > 0

    def test_curves_skip_unrealizable_points(self):
        points = execution_time_curves(
            "li", cycle_times=(10.0, 25.0), settings=FAST
        )
        # at 10 FO4 only depth 3 is realizable; at 25 FO4 all three are
        assert sum(1 for p in points if p.cycle_time_fo4 == 10.0) == 1
        assert sum(1 for p in points if p.cycle_time_fo4 == 25.0) == 3

    def test_normalization_is_relative_to_baseline(self):
        points = execution_time_curves("li", cycle_times=(10.0,), settings=FAST)
        baseline = baseline_time_fo4("li", FAST)
        for point in points:
            assert point.normalized_time == pytest.approx(
                point.execution_time_fo4 / baseline
            )

    def test_larger_cache_selected_at_slower_clock(self):
        points = execution_time_curves(
            "li", cycle_times=(15.0, 29.0), settings=FAST
        )
        depth1 = {p.cycle_time_fo4: p.cache_size for p in points if p.depth == 3}
        assert depth1[29.0] >= depth1[15.0]

    def test_best_point(self):
        points = [
            ExecutionTimePoint("li", 25.0, 1, 8192, 1.0, 100.0, 1.2),
            ExecutionTimePoint("li", 25.0, 2, 524288, 1.1, 90.0, 1.0),
        ]
        assert best_point(points).depth == 2
        with pytest.raises(ValueError):
            best_point([])
