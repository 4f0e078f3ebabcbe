"""Tests for the functional set-associative / fully-associative caches."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import FullyAssociativeCache, SetAssociativeCache
from repro.memory.common import line_address


class TestLineAddress:
    def test_basic(self):
        assert line_address(0, 32) == 0
        assert line_address(31, 32) == 0
        assert line_address(32, 32) == 1
        assert line_address(1024, 32) == 32

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            line_address(100, 24)


class TestSetAssociativeCache:
    def make(self, size=1024, assoc=2, line=32):
        return SetAssociativeCache(size, assoc, line)

    def test_geometry(self):
        cache = self.make()
        assert cache.num_sets == 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 2, 32)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(3 * 64, 2, 32)  # 3 sets

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert not cache.lookup(5)
        assert cache.fill(5) is None
        assert cache.lookup(5)

    def test_probe_does_not_touch_lru(self):
        cache = self.make(size=128, assoc=2, line=32)  # 2 sets
        cache.fill(0)  # set 0
        cache.fill(2)  # set 0; LRU order: 2, 0
        assert cache.probe(0)
        # 0 is still LRU because probe didn't promote it
        evicted = cache.fill(4)  # set 0, evicts LRU
        assert evicted is not None and evicted.line == 0

    def test_lru_eviction_order(self):
        cache = self.make(size=128, assoc=2, line=32)
        cache.fill(0)
        cache.fill(2)
        cache.lookup(0)  # promote 0; victim should now be 2
        evicted = cache.fill(4)
        assert evicted is not None and evicted.line == 2

    def test_dirty_tracking(self):
        cache = self.make()
        cache.fill(7)
        assert not cache.is_dirty(7)
        cache.lookup(7, write=True)
        assert cache.is_dirty(7)

    def test_dirty_eviction_reported(self):
        cache = self.make(size=128, assoc=2, line=32)
        cache.fill(0, dirty=True)
        cache.fill(2)
        cache.fill(4)
        # 0 was LRU and dirty
        assert not cache.probe(0)

    def test_fill_dirty_flag(self):
        cache = self.make(size=128, assoc=2, line=32)
        cache.fill(0, dirty=True)
        cache.fill(2)
        evicted = cache.fill(4)
        assert evicted is not None and evicted.line == 0 and evicted.dirty

    def test_refill_resident_line_keeps_single_copy(self):
        cache = self.make()
        cache.fill(3)
        assert cache.fill(3) is None
        assert len(cache) == 1

    def test_invalidate(self):
        cache = self.make()
        cache.fill(9, dirty=True)
        assert cache.invalidate(9)
        assert not cache.probe(9)
        assert not cache.is_dirty(9)
        assert not cache.invalidate(9)

    def test_set_isolation(self):
        """Lines mapping to different sets never evict each other."""
        cache = self.make(size=128, assoc=2, line=32)  # 2 sets
        cache.fill(0)  # set 0
        cache.fill(1)  # set 1
        cache.fill(2)  # set 0
        cache.fill(3)  # set 1
        assert len(cache) == 4

    def test_resident_lines_roundtrip(self):
        cache = self.make()
        lines = [0, 1, 17, 34]  # sets 0, 1, 1, 2 in a 16-set cache
        for line in lines:
            cache.fill(line)
        assert sorted(cache.resident_lines()) == sorted(lines)

    def test_capacity_never_exceeded(self):
        cache = self.make(size=256, assoc=2, line=32)
        for line in range(100):
            cache.fill(line)
        assert len(cache) <= 8


class TestSetAssociativeProperties:
    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
    def test_inclusion_larger_cache_never_misses_more(self, trace):
        """LRU stack property: a bigger cache's misses are a subset."""
        small = SetAssociativeCache(256, 8, 32)  # fully assoc: 8 lines
        big = SetAssociativeCache(512, 16, 32)  # fully assoc: 16 lines
        small_misses = big_misses = 0
        for line in trace:
            if not small.lookup(line):
                small_misses += 1
                small.fill(line)
            if not big.lookup(line):
                big_misses += 1
                big.fill(line)
        assert big_misses <= small_misses

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=200))
    def test_occupancy_bounded(self, trace):
        cache = SetAssociativeCache(512, 2, 32)
        for line in trace:
            if not cache.lookup(line):
                cache.fill(line)
        assert len(cache) <= 16

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=200))
    def test_hit_iff_resident(self, trace):
        """A lookup hits exactly when a previous fill is still resident."""
        cache = SetAssociativeCache(256, 2, 32)
        reference: set[int] = set()
        for line in trace:
            hit = cache.lookup(line)
            assert hit == (line in set(cache.resident_lines()) | set())
            if not hit:
                evicted = cache.fill(line)
                if evicted is not None:
                    reference.discard(evicted.line)
            reference.add(line)


class OracleCache:
    """List-of-lists LRU cache: one MRU-first Python list per set.

    The straightforward model of set-associative LRU state, kept here as
    the specification that the flat tag array must reproduce exactly.
    """

    def __init__(self, size_bytes, associativity, line_bytes):
        self.associativity = associativity
        self.num_sets = size_bytes // (associativity * line_bytes)
        self.shift = self.num_sets.bit_length() - 1
        self.ways = [[] for _ in range(self.num_sets)]
        self.dirty = set()

    def _set(self, line):
        return self.ways[line & (self.num_sets - 1)], line >> self.shift

    def lookup(self, line, write=False):
        ways, tag = self._set(line)
        if tag not in ways:
            return False
        ways.remove(tag)
        ways.insert(0, tag)
        if write:
            self.dirty.add(line)
        return True

    def probe(self, line):
        ways, tag = self._set(line)
        return tag in ways

    def fill(self, line, dirty=False):
        ways, tag = self._set(line)
        if tag in ways:
            self.lookup(line, write=dirty)
            return None
        evicted = None
        if len(ways) == self.associativity:
            victim = (ways.pop() << self.shift) | (line & (self.num_sets - 1))
            evicted = (victim, victim in self.dirty)
            self.dirty.discard(victim)
        ways.insert(0, tag)
        if dirty:
            self.dirty.add(line)
        return evicted

    def invalidate(self, line):
        ways, tag = self._set(line)
        if tag not in ways:
            return False
        ways.remove(tag)
        self.dirty.discard(line)
        return True

    def resident_lines(self):
        return [
            (tag << self.shift) | index
            for index, ways in enumerate(self.ways)
            for tag in ways
        ]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "fill", "fill_dirty", "invalidate", "probe"]),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=300,
)


class TestCacheState:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 4, 8]), _OPS)
    def test_matches_list_of_lists_oracle(self, assoc, ops):
        cache = SetAssociativeCache(4 * assoc * 32, assoc, 32)  # 4 sets
        oracle = OracleCache(4 * assoc * 32, assoc, 32)
        for op, line in ops:
            if op in ("read", "write"):
                write = op == "write"
                assert cache.lookup(line, write=write) == oracle.lookup(line, write)
            elif op.startswith("fill"):
                dirty = op == "fill_dirty"
                evicted = cache.fill(line, dirty=dirty)
                expected = oracle.fill(line, dirty)
                got = None if evicted is None else (evicted.line, evicted.dirty)
                assert got == expected
            elif op == "invalidate":
                assert cache.invalidate(line) == oracle.invalidate(line)
            else:
                assert cache.probe(line) == oracle.probe(line)
            assert cache.resident_lines() == oracle.resident_lines()
            assert len(cache) == len(oracle.resident_lines())
            assert all(cache.is_dirty(n) == (n in oracle.dirty) for n in range(64))
        assert cache.audit() == []

    def _warm(self, cache, lines=range(0, 4000, 3)):
        for line in lines:
            cache.fill(line, dirty=line % 2 == 0)
        return cache

    def test_snapshot_roundtrip(self):
        warm = self._warm(SetAssociativeCache(4096, 2, 32))
        clone = SetAssociativeCache(4096, 2, 32)
        clone.restore_state(warm.snapshot_state())
        assert clone.resident_lines() == warm.resident_lines()
        assert len(clone) == len(warm)
        assert all(clone.is_dirty(n) == warm.is_dirty(n) for n in range(4000))
        assert clone.audit() == []

    def test_restored_caches_share_nothing(self):
        """One snapshot restored into two caches: mutating one leaves the
        other cache and the snapshot itself untouched."""
        warm = self._warm(SetAssociativeCache(4096, 2, 32))
        snapshot = warm.snapshot_state()
        frozen = (list(snapshot[1]), set(snapshot[2]), snapshot[3])
        first = SetAssociativeCache(4096, 2, 32)
        second = SetAssociativeCache(4096, 2, 32)
        first.restore_state(snapshot)
        second.restore_state(snapshot)
        expected = second.resident_lines()
        for line in range(5000, 5400):
            first.fill(line, dirty=True)
        for line in expected[:20]:
            first.invalidate(line)
            first.lookup(line + 1, write=True)
        assert second.resident_lines() == expected
        assert not any(second.is_dirty(n) for n in range(5000, 5400))
        assert (snapshot[1], snapshot[2], snapshot[3]) == frozen
        third = SetAssociativeCache(4096, 2, 32)
        third.restore_state(snapshot)
        assert third.resident_lines() == expected

    def test_big_cache_state_is_a_handful_of_objects(self):
        """Building or restoring the 4 MB two-way L2 allocates no per-set
        containers for the cyclic garbage collector to walk."""
        warm = self._warm(SetAssociativeCache(4 << 20, 2, 64), range(0, 200_000, 5))
        snapshot = warm.snapshot_state()
        gc.collect()
        before = len(gc.get_objects())
        cache = SetAssociativeCache(4 << 20, 2, 64)
        assert len(gc.get_objects()) - before < 10
        before = len(gc.get_objects())
        cache.restore_state(snapshot)
        assert len(gc.get_objects()) - before < 10
        assert len(cache) == len(warm)

    @pytest.mark.parametrize(
        "source, target",
        [
            ((16 * 1024, 1, 32), (32 * 1024, 2, 32)),  # both 512 sets
            ((16 * 1024, 1, 32), (16 * 1024, 2, 32)),  # both 512 tag slots
            ((16 * 1024, 2, 32), (32 * 1024, 2, 64)),  # same sets and ways
        ],
    )
    def test_restore_rejects_another_geometry(self, source, target):
        snapshot = SetAssociativeCache(*source).snapshot_state()
        cache = SetAssociativeCache(*target)
        with pytest.raises(ValueError, match="does not fit"):
            cache.restore_state(snapshot)

    def test_audit_flags_a_hole(self):
        cache = SetAssociativeCache(128, 2, 32)  # 2 sets
        cache.fill(0)
        cache._tags[0], cache._tags[1] = cache._tags[1], cache._tags[0]
        assert any("empty way" in p for p in cache.audit())

    def test_audit_flags_duplicates_and_counts(self):
        cache = SetAssociativeCache(256, 4, 32)  # 2 sets
        cache.fill(0)
        cache._tags[1] = cache._tags[0]
        problems = cache.audit()
        assert any("duplicate" in p for p in problems)
        assert any("resident count" in p for p in problems)


class TestFullyAssociativeCache:
    def test_lru_behavior(self):
        cache = FullyAssociativeCache(2, 32)
        cache.fill(1)
        cache.fill(2)
        cache.lookup(1)
        evicted = cache.fill(3)
        assert evicted == 2

    def test_capacity(self):
        cache = FullyAssociativeCache(4, 32)
        for line in range(10):
            cache.fill(line)
        assert len(cache) == 4

    def test_invalidate_and_clear(self):
        cache = FullyAssociativeCache(4, 32)
        cache.fill(5)
        assert cache.invalidate(5)
        assert not cache.invalidate(5)
        cache.fill(6)
        cache.clear()
        assert len(cache) == 0

    def test_refill_no_duplicate(self):
        cache = FullyAssociativeCache(4, 32)
        cache.fill(1)
        assert cache.fill(1) is None
        assert len(cache) == 1

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            FullyAssociativeCache(0, 32)
