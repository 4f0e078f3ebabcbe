"""Tests for the L2 + main-memory backside and the DRAM-cache backside."""

import pytest

from repro.memory import (
    BacksideConfig,
    BacksideMemory,
    DramCacheBackside,
    DramCacheConfig,
    ServedBy,
)


def make_backside(**overrides):
    config = BacksideConfig(**overrides)
    return BacksideMemory(config, l1_line_bytes=32)


class TestBacksideMemory:
    def test_cold_miss_goes_to_memory(self):
        backside = make_backside()
        response = backside.fetch_line(0, cycle=0)
        assert response.served_by is ServedBy.MEMORY
        # >= L2 lookup (10) + memory (60) + 64B over 8 B/cy (8) + 32B over 12.5 (3)
        assert response.ready_cycle >= 81

    def test_second_access_hits_l2(self):
        backside = make_backside()
        backside.fetch_line(0, cycle=0)
        response = backside.fetch_line(0, cycle=200)
        assert response.served_by is ServedBy.L2
        # 10-cycle L2 + 3-cycle 32 B transfer on an idle bus
        assert response.ready_cycle == 213

    def test_adjacent_l1_lines_share_l2_line(self):
        """64 B L2 lines cover two 32 B L1 lines."""
        backside = make_backside()
        backside.fetch_line(0, cycle=0)
        response = backside.fetch_line(1, cycle=200)
        assert response.served_by is ServedBy.L2

    def test_l2_hit_latency_is_configured(self):
        backside = make_backside(l2_hit_cycles=20)
        backside.fetch_line(0, cycle=0)
        response = backside.fetch_line(0, cycle=500)
        assert response.ready_cycle == 500 + 20 + 3

    def test_bus_contention_delays_back_to_back_misses(self):
        backside = make_backside()
        first = backside.fetch_line(0, cycle=0)
        second = backside.fetch_line(1000, cycle=0)
        assert second.ready_cycle > first.ready_cycle

    def test_writeback_counts(self):
        backside = make_backside()
        backside.writeback_line(5, cycle=0)
        assert backside.stats.writebacks_in == 1

    def test_l2_miss_rate_stat(self):
        backside = make_backside()
        backside.fetch_line(0, 0)
        backside.fetch_line(0, 200)
        assert backside.stats.l2_miss_rate == pytest.approx(0.5)

    def test_rejects_l1_line_larger_than_l2_line(self):
        with pytest.raises(ValueError):
            BacksideMemory(BacksideConfig(l2_line=16), l1_line_bytes=32)


class TestDramCacheBackside:
    def test_dram_hit_timing(self):
        dram = DramCacheBackside(DramCacheConfig(dram_hit_cycles=6))
        dram.fetch_line(0, cycle=0)  # cold: goes to memory and fills
        response = dram.fetch_line(0, cycle=500)
        assert response.served_by is ServedBy.DRAM_CACHE
        assert response.ready_cycle == 506

    def test_dram_miss_goes_to_memory(self):
        dram = DramCacheBackside(DramCacheConfig())
        response = dram.fetch_line(0, cycle=0)
        assert response.served_by is ServedBy.MEMORY
        # 6 (DRAM) + 60 (memory) + 512B/8 = 64 cycles transfer
        assert response.ready_cycle >= 130

    def test_bank_busy_for_full_access(self):
        """DRAM banks are not pipelined: same-bank accesses serialize."""
        config = DramCacheConfig(dram_hit_cycles=6, dram_banks=8)
        dram = DramCacheBackside(config)
        dram.fetch_line(0, cycle=0)
        dram.fetch_line(8, cycle=500)  # warm both lines (same bank 0)
        first = dram.fetch_line(0, cycle=1000)
        second = dram.fetch_line(8, cycle=1000)
        assert first.ready_cycle == 1006
        assert second.ready_cycle == 1012
        assert dram.stats.bank_wait_cycles >= 6

    def test_different_banks_overlap(self):
        dram = DramCacheBackside(DramCacheConfig())
        dram.fetch_line(0, cycle=0)
        dram.fetch_line(1, cycle=500)
        a = dram.fetch_line(0, cycle=1000)
        b = dram.fetch_line(1, cycle=1000)
        assert a.ready_cycle == b.ready_cycle == 1006

    def test_hit_time_sweep_changes_latency(self):
        """Figure 7 varies the DRAM hit time from six to eight cycles."""
        latencies = []
        for hit in (6, 7, 8):
            dram = DramCacheBackside(DramCacheConfig(dram_hit_cycles=hit))
            dram.fetch_line(0, cycle=0)
            latencies.append(dram.fetch_line(0, cycle=500).ready_cycle - 500)
        assert latencies == [6, 7, 8]

    def test_writeback_row(self):
        dram = DramCacheBackside(DramCacheConfig())
        dram.writeback_line(3, cycle=0)
        assert dram.dram.is_dirty(3)
