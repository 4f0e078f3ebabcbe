"""Tests for the full MemorySystem facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    ConfigurationError,
    DramCacheConfig,
    MemoryConfig,
    MemorySystem,
    ServedBy,
)


def make_system(**overrides) -> MemorySystem:
    return MemorySystem(MemoryConfig(**overrides))


class TestBasicLoadPath:
    def test_hit_latency_is_hit_cycles(self):
        system = make_system(l1_hit_cycles=1)
        system.load(0, 0)  # cold miss warms the line
        result = system.load(0, 500)
        assert result.served_by is ServedBy.L1
        assert result.completion_cycle == 501

    def test_pipelined_cache_hit_latency(self):
        for hit in (1, 2, 3):
            system = make_system(l1_hit_cycles=hit)
            system.load(0, 0)
            result = system.load(0, 500)
            assert result.completion_cycle == 500 + hit

    def test_cold_miss_served_by_memory(self):
        system = make_system()
        result = system.load(0, 0)
        assert result.served_by is ServedBy.MEMORY
        assert result.completion_cycle > 70

    def test_spatial_hit_within_line(self):
        system = make_system()
        system.load(0, 0)
        result = system.load(24, 500)  # same 32 B line
        assert result.served_by is ServedBy.L1

    def test_l2_serves_l1_victims(self):
        system = make_system(l1_size=4096)
        system.load(0, 0)
        # Evict line 0 from the 2-way set by loading two conflicting lines.
        sets = 4096 // (2 * 32)
        system.load(sets * 32 * 1, 200)
        system.load(sets * 32 * 2, 400)
        result = system.load(0, 1000)
        assert result.served_by is ServedBy.L2

    def test_stats_accounting(self):
        system = make_system()
        system.load(0, 0)
        system.load(0, 500)
        system.store(64, 600)
        stats = system.stats
        assert stats.loads == 2 and stats.stores == 1
        assert stats.l1_load_hits == 1 and stats.l1_load_misses == 1
        assert stats.l1_hits + stats.l1_misses == stats.accesses


class TestPortContention:
    def test_single_port_serializes_loads(self):
        system = make_system(port_policy="ideal", ports=1)
        system.load(0, 0)
        system.load(64, 0)
        for addr in (0, 64):
            system.load(addr, 500)
        a = system.load(0, 1000)
        b = system.load(64, 1000)
        assert a.port_start_cycle == 1000
        assert b.port_start_cycle == 1001

    def test_two_ports_parallel_loads(self):
        system = make_system(port_policy="ideal", ports=2)
        for addr in (0, 64):
            system.load(addr, 0)
        a = system.load(0, 1000)
        b = system.load(64, 1000)
        assert a.port_start_cycle == b.port_start_cycle == 1000

    def test_banked_conflict(self):
        system = make_system(port_policy="banked", banks=8)
        line = system.line_bytes
        for addr in (0, 8 * line):
            system.load(addr, 0)
        a = system.load(0, 1000)
        b = system.load(8 * line, 1000)  # same bank
        assert b.port_start_cycle == a.port_start_cycle + 1

    def test_duplicate_store_blocks_both_ports(self):
        system = make_system(port_policy="duplicate")
        system.load(0, 0)
        system.load(64, 0)
        system.store(0, 1000)
        a = system.load(64, 1000)
        assert a.port_start_cycle == 1001


class TestLineBufferBehavior:
    def test_lb_hit_is_one_cycle_no_port(self):
        system = make_system(line_buffer=True, port_policy="ideal", ports=1)
        system.load(0, 0)
        result = system.load(8, 500)  # same line: LB hit
        assert result.served_by is ServedBy.LINE_BUFFER
        assert result.completion_cycle == 501
        # The port was not consumed: another load starts immediately.
        other = system.load(64, 500)
        assert other.port_start_cycle == 500

    def test_lb_filled_on_load_completion(self):
        system = make_system(line_buffer=True)
        system.load(0, 0)
        assert system.line_buffer is not None
        assert len(system.line_buffer) == 1

    def test_lb_invalidated_on_l1_eviction(self):
        system = make_system(line_buffer=True, l1_size=4096)
        system.load(0, 0)
        sets = 4096 // (2 * 32)
        system.load(sets * 32, 200)
        system.load(2 * sets * 32, 400)  # evicts line 0 from L1
        result = system.load(0, 1000)
        assert result.served_by is not ServedBy.LINE_BUFFER

    def test_no_lb_by_default(self):
        assert make_system().line_buffer is None


class TestMshrBehavior:
    def test_merged_miss_uses_pending_fill(self):
        system = make_system(port_policy="ideal", ports=2)
        first = system.load(0, 0)
        merged = system.load(8, 0)  # same line, still in flight
        assert merged.completion_cycle <= first.completion_cycle + 1
        assert system.mshrs.stats.merged_misses == 1

    def test_mshr_exhaustion_delays_fifth_miss(self):
        system = make_system(port_policy="ideal", ports=4, mshrs=4)
        results = [system.load(i * 4096, 0) for i in range(5)]
        assert results[4].completion_cycle > max(
            r.completion_cycle for r in results[:4]
        )
        assert system.mshrs.stats.full_stall_cycles > 0


class TestStores:
    def test_store_hit_marks_dirty(self):
        system = make_system()
        system.load(0, 0)
        system.store(0, 500)
        assert system.l1.is_dirty(0)

    def test_store_miss_allocates(self):
        system = make_system()
        result = system.store(0, 0)
        assert result.served_by is ServedBy.MEMORY
        assert system.l1.probe(0)
        assert system.l1.is_dirty(0)

    def test_dirty_eviction_writes_back(self):
        system = make_system(l1_size=4096)
        system.store(0, 0)
        sets = 4096 // (2 * 32)
        system.load(sets * 32, 200)
        system.load(2 * sets * 32, 400)  # evicts dirty line 0
        from repro.memory import BacksideMemory

        assert isinstance(system.backside, BacksideMemory)
        assert system.backside.stats.writebacks_in == 1


class TestDramMode:
    def make_dram(self, **dram_overrides):
        return make_system(dram=DramCacheConfig(**dram_overrides))

    def test_row_buffer_cache_geometry(self):
        system = self.make_dram()
        assert system.l1.size_bytes == 16 * 1024
        assert system.l1.line_bytes == 512
        assert system.config.l1_hit_cycles == 1

    def test_row_buffer_hit_one_cycle(self):
        system = self.make_dram()
        system.load(0, 0)
        result = system.load(100, 500)  # same 512 B row
        assert result.served_by is ServedBy.ROW_BUFFER
        assert result.completion_cycle == 501

    def test_row_miss_pays_dram_hit(self):
        system = self.make_dram(dram_hit_cycles=6)
        system.load(0, 0)  # warm DRAM
        # Evict row 0 from the 16 KB row cache (16 sets, 2 ways of 512 B).
        sets = 16 * 1024 // (2 * 512)
        system.load(sets * 512, 200)
        system.load(2 * sets * 512, 400)
        result = system.load(0, 1000)
        assert result.served_by is ServedBy.DRAM_CACHE
        assert result.completion_cycle == 1000 + 1 + 6

    def test_longer_dram_hit_time_slower(self):
        completions = []
        for hit in (6, 8):
            system = self.make_dram(dram_hit_cycles=hit)
            system.load(0, 0)
            sets = 16 * 1024 // (2 * 512)
            system.load(sets * 512, 200)
            system.load(2 * sets * 512, 400)
            completions.append(system.load(0, 1000).completion_cycle)
        assert completions[1] > completions[0]


class TestValidation:
    def test_rejects_unknown_port_policy(self):
        with pytest.raises(ConfigurationError):
            make_system(port_policy="psychic")

    def test_rejects_bad_line_size(self):
        with pytest.raises(ConfigurationError):
            make_system(l1_line=24)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=1 << 16)),
            min_size=1,
            max_size=120,
        )
    )
    def test_completion_never_precedes_issue(self, accesses):
        system = make_system(line_buffer=True)
        cycle = 0
        for is_store, addr in accesses:
            result = (
                system.store(addr, cycle) if is_store else system.load(addr, cycle)
            )
            assert result.completion_cycle > cycle
            assert result.port_start_cycle >= cycle
            cycle += 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=100)
    )
    def test_served_by_totals_match_accesses(self, addrs):
        system = make_system()
        for i, addr in enumerate(addrs):
            system.load(addr, i * 2)
        assert sum(system.stats.served_by.values()) == system.stats.accesses
