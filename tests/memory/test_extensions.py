"""Tests for the extension features: victim cache, write policies,
bank-interleaving options."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    BankedPorts,
    ConfigurationError,
    DramCacheConfig,
    MemoryConfig,
    MemorySystem,
    ServedBy,
    VictimCache,
)


def make_system(**overrides) -> MemorySystem:
    return MemorySystem(MemoryConfig(**overrides))


class TestVictimCacheUnit:
    def test_swap_hit_removes_line(self):
        victim = VictimCache(4)
        victim.insert(7, dirty=False)
        hit, dirty = victim.probe_and_take(7)
        assert hit and not dirty
        hit, _ = victim.probe_and_take(7)
        assert not hit

    def test_dirty_travels_with_line(self):
        victim = VictimCache(4)
        victim.insert(7, dirty=True)
        hit, dirty = victim.probe_and_take(7)
        assert hit and dirty

    def test_displacement_reports_dirty(self):
        victim = VictimCache(1)
        victim.insert(1, dirty=True)
        displaced = victim.insert(2, dirty=False)
        assert displaced == (1, True)

    def test_hit_rate_stat(self):
        victim = VictimCache(2)
        victim.insert(1, dirty=False)
        victim.probe_and_take(1)
        victim.probe_and_take(9)
        assert victim.stats.hit_rate == pytest.approx(0.5)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            VictimCache(0)


class TestVictimCacheInHierarchy:
    def conflict_addresses(self, system, n=3):
        """n addresses that collide in one L1 set."""
        sets = system.l1.num_sets
        return [i * sets * 32 for i in range(n)]

    def test_conflict_miss_becomes_swap(self):
        system = make_system(l1_size=4096, victim_entries=4)
        a, b, c = self.conflict_addresses(system)
        system.load(a, 0)
        system.load(b, 100)
        system.load(c, 200)  # evicts a into the victim cache
        result = system.load(a, 1000)
        assert result.served_by is ServedBy.VICTIM_CACHE
        # hit time + 1 swap cycle, far cheaper than an L2 trip
        assert result.completion_cycle == 1000 + 1 + 1

    def test_victim_swap_preserves_dirty_data(self):
        system = make_system(l1_size=4096, victim_entries=4)
        a, b, c = self.conflict_addresses(system)
        system.store(a, 0)  # dirty line
        system.load(b, 100)
        system.load(c, 200)  # dirty 'a' parked in the victim cache
        system.load(a, 1000)  # swapped back
        assert system.l1.is_dirty(system.line_of(a))

    def test_displaced_dirty_victim_written_back(self):
        system = make_system(l1_size=4096, victim_entries=1)
        sets = system.l1.num_sets
        addrs = [i * sets * 32 for i in range(5)]
        system.store(addrs[0], 0)
        for i, addr in enumerate(addrs[1:], 1):
            system.load(addr, i * 100)
        from repro.memory import BacksideMemory

        assert isinstance(system.backside, BacksideMemory)
        assert system.backside.stats.writebacks_in >= 1

    def test_no_victim_cache_by_default(self):
        assert make_system().victim_cache is None

    def test_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            make_system(victim_entries=-1)


class TestWriteThrough:
    def test_store_hit_stays_clean(self):
        system = make_system(write_policy="write-through")
        system.load(0, 0)
        system.store(0, 500)
        assert not system.l1.is_dirty(0)

    def test_store_reaches_l2(self):
        system = make_system(write_policy="write-through")
        system.load(0, 0)
        from repro.memory import BacksideMemory

        assert isinstance(system.backside, BacksideMemory)
        before = system.backside.chip_bus.stats.transfers
        system.store(0, 500)
        assert system.backside.chip_bus.stats.transfers == before + 1

    def test_no_allocate_store_miss_skips_l1(self):
        system = make_system(write_policy="write-through", write_allocate=False)
        system.store(0, 0)
        assert not system.l1.probe(0)
        assert system.stats.l1_store_misses == 1

    def test_allocate_store_miss_fills_l1(self):
        system = make_system(write_policy="write-through", write_allocate=True)
        system.store(0, 0)
        assert system.l1.probe(0)
        assert not system.l1.is_dirty(0)  # data also went through

    def test_eviction_never_needs_writeback(self):
        """Write-through caches hold no dirty data."""
        system = make_system(l1_size=4096, write_policy="write-through")
        sets = system.l1.num_sets
        for i in range(4):
            system.store(i * sets * 32, i * 100)
            system.load(i * sets * 32, i * 100 + 50)
        from repro.memory import BacksideMemory

        assert isinstance(system.backside, BacksideMemory)
        assert system.backside.stats.writebacks_in == 0

    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            make_system(write_policy="write-sideways")

    def test_dram_mode_requires_write_back(self):
        with pytest.raises(ConfigurationError):
            make_system(write_policy="write-through", dram=DramCacheConfig())


class TestBankInterleaving:
    def test_line_interleave_spreads_stream(self):
        banks = BankedPorts(8, "line")
        assert {banks.bank_of(i) for i in range(8)} == set(range(8))

    def test_page_interleave_keeps_pages_together(self):
        banks = BankedPorts(8, "page")
        assert len({banks.bank_of(i) for i in range(32)}) == 1
        assert banks.bank_of(0) != banks.bank_of(32)

    def test_page_interleave_serializes_streams(self):
        """Sequential lines conflict under page interleaving."""
        line_banks = BankedPorts(8, "line")
        page_banks = BankedPorts(8, "page")
        for line in range(16):
            line_banks.reserve(line, 0)
            page_banks.reserve(line, 0)
        assert page_banks.stats.bank_conflicts > line_banks.stats.bank_conflicts

    def test_rejects_unknown_interleave(self):
        with pytest.raises(ValueError):
            BankedPorts(8, "diagonal")

    def test_config_plumbs_interleave(self):
        system = make_system(port_policy="banked", bank_interleave="page")
        assert isinstance(system.arbiter, BankedPorts)
        assert system.arbiter.interleave == "page"


class TestExtensionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=1 << 15)),
            min_size=1,
            max_size=100,
        ),
        st.sampled_from(["write-back", "write-through"]),
        st.sampled_from([0, 4]),
    )
    def test_all_variants_accounting_holds(self, accesses, policy, victims):
        system = make_system(
            l1_size=4096, write_policy=policy, victim_entries=victims
        )
        for i, (is_store, addr) in enumerate(accesses):
            result = (
                system.store(addr, i * 2) if is_store else system.load(addr, i * 2)
            )
            assert result.completion_cycle > i * 2
        stats = system.stats
        assert stats.l1_hits + stats.l1_misses == stats.accesses
        assert sum(stats.served_by.values()) == stats.accesses
