"""Differential tests: the timed hierarchy against functional oracles.

The MemorySystem layers timing (ports, MSHRs, buses) on top of
functional cache state.  Whatever the timing does, the *hit/miss
decisions* must match a plain reference cache fed the same stream --
these tests run both side by side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import MemoryConfig, MemorySystem, SetAssociativeCache
from repro.memory.sram import FullyAssociativeCache

ACCESS = st.tuples(
    st.booleans(), st.integers(min_value=0, max_value=1 << 14)
)


def _oracle_access(l1, buffer, is_store, line):
    """One reference on plain caches, as the hierarchy orders them.

    A load that hits the line buffer never reaches the L1; a store
    refreshes a buffered copy and always writes the L1.  An L1 fill's
    victim leaves the buffer, and a load that reached the L1 is
    buffered after it.
    """
    if buffer is not None and buffer.lookup(line) and not is_store:
        return
    if not l1.lookup(line, write=is_store):
        victim = l1.fill(line, dirty=is_store)
        if victim is not None and buffer is not None:
            buffer.invalidate(victim.line)
    if buffer is not None and not is_store:
        buffer.fill(line)


@pytest.mark.parametrize("line_buffer", [False, True], ids=["no-lb", "lb"])
@pytest.mark.parametrize("assoc", [1, 2, 4])
class TestLookupOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(ACCESS, min_size=1, max_size=300))
    def test_lru_order_and_dirty_bits_match(self, assoc, line_buffer, accesses):
        """The L1 the hierarchy drives equals a plain cache fed the same
        references: the same lines in the same MRU order within each
        set, and the same dirty bit on every line."""
        config = MemoryConfig(
            l1_size=2048, l1_assoc=assoc, line_buffer=line_buffer,
            line_buffer_entries=8,
        )
        system = MemorySystem(config)
        l1 = SetAssociativeCache(2048, assoc, 32)
        buffer = FullyAssociativeCache(8, 32) if line_buffer else None
        for i, (is_store, address) in enumerate(accesses):
            _oracle_access(l1, buffer, is_store, address >> 5)
            if is_store:
                system.store(address, i * 200)  # spaced: no fills in flight
            else:
                system.load(address, i * 200)
        assert system.l1.resident_lines() == l1.resident_lines()
        for line in l1.resident_lines():
            assert system.l1.is_dirty(line) == l1.is_dirty(line), line
        if line_buffer:
            assert system.line_buffer.resident_lines() == buffer.resident_lines()


class TestHitMissOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(ACCESS, min_size=1, max_size=300))
    def test_writeback_matches_reference_cache(self, accesses):
        """Same stream, same geometry: identical hit/miss sequence.

        Delayed hits (line present but fill in flight) are counted as
        hits by the system and as hits by the oracle, so the comparison
        is exact.
        """
        system = MemorySystem(MemoryConfig(l1_size=2048))
        oracle = SetAssociativeCache(2048, 2, 32)
        mism = 0
        for i, (is_store, address) in enumerate(accesses):
            line = address >> 5
            oracle_hit = oracle.lookup(line, write=is_store)
            if not oracle_hit:
                oracle.fill(line, dirty=is_store)
            before_hits = system.stats.l1_hits
            if is_store:
                system.store(address, i * 200)  # spaced: no fills in flight
            else:
                system.load(address, i * 200)
            system_hit = system.stats.l1_hits == before_hits + 1
            mism += system_hit != oracle_hit
        assert mism == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ACCESS, min_size=1, max_size=200))
    def test_dirty_state_matches_reference(self, accesses):
        system = MemorySystem(MemoryConfig(l1_size=2048))
        oracle = SetAssociativeCache(2048, 2, 32)
        for i, (is_store, address) in enumerate(accesses):
            line = address >> 5
            if not oracle.lookup(line, write=is_store):
                oracle.fill(line, dirty=is_store)
            if is_store:
                system.store(address, i * 200)
            else:
                system.load(address, i * 200)
        for line in oracle.resident_lines():
            assert system.l1.probe(line)
            assert system.l1.is_dirty(line) == oracle.is_dirty(line)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ACCESS, min_size=1, max_size=200))
    def test_warm_equals_replaying_loads(self, accesses):
        """warm() must leave the L1 in the same state as timed access."""
        warmed = MemorySystem(MemoryConfig(l1_size=2048))
        warmed.warm([(s, a) for s, a in accesses])
        timed = MemorySystem(MemoryConfig(l1_size=2048))
        for i, (is_store, address) in enumerate(accesses):
            if is_store:
                timed.store(address, i * 200)
            else:
                timed.load(address, i * 200)
        assert sorted(warmed.l1.resident_lines()) == sorted(
            timed.l1.resident_lines()
        )


class TestTimingMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(ACCESS, min_size=5, max_size=120))
    def test_slower_hit_time_never_faster_overall(self, accesses):
        """Total latency with 3-cycle hits >= with 1-cycle hits."""
        totals = []
        for hit in (1, 3):
            system = MemorySystem(MemoryConfig(l1_hit_cycles=hit))
            total = 0
            for i, (is_store, address) in enumerate(accesses):
                result = (
                    system.store(address, i * 4)
                    if is_store
                    else system.load(address, i * 4)
                )
                total += result.completion_cycle - i * 4
            totals.append(total)
        assert totals[1] >= totals[0]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(ACCESS, min_size=5, max_size=120))
    def test_bigger_cache_never_more_l1_misses(self, accesses):
        counts = []
        for size in (1024, 8192):
            system = MemorySystem(MemoryConfig(l1_size=size, l1_assoc=8))
            for i, (is_store, address) in enumerate(accesses):
                if is_store:
                    system.store(address, i * 4)
                else:
                    system.load(address, i * 4)
            counts.append(system.stats.l1_misses)
        # 8-way LRU caches nest: the bigger one cannot miss more.
        assert counts[1] <= counts[0]
