"""End-to-end fault injection: every fault class must be caught.

Each test corrupts one live component of a real simulation the way a
simulator bug would and asserts that the matching guard rail raises a
structured, state-dumping error instead of letting the run silently
hang or produce garbage numbers.
"""

import pytest

from repro.cpu import OutOfOrderCore, ProcessorConfig
from repro.memory import MemoryConfig, MemorySystem
from repro.memory.bus import Transfer
from repro.memory.dram_cache import DramCacheBackside, DramCacheConfig
from repro.robustness import (
    FAULT_CLASSES,
    DeadlockError,
    RobustnessError,
    SimulationInvariantError,
    inject_corrupt_lru,
    inject_dropped_bus_grant,
    inject_lost_port_release,
    inject_stuck_mshr,
)
from repro.workloads import WorkloadGenerator, benchmark

#: Short leash so deadlock tests finish in milliseconds.
GUARDED = ProcessorConfig(watchdog_stall_cycles=20_000, audit_interval_commits=256)


def run_guarded(memory: MemorySystem, instructions: int = 4_000) -> None:
    generator = WorkloadGenerator(benchmark("gcc"), seed=1)
    core = OutOfOrderCore(GUARDED, memory)
    core.run(generator.instructions(), instructions)


def make_system(**overrides) -> MemorySystem:
    return MemorySystem(MemoryConfig(**overrides))


class TestFaultCatalog:
    def test_catalog_covers_four_classes(self):
        assert len(FAULT_CLASSES) == 4
        assert len({f.name for f in FAULT_CLASSES}) == 4
        for fault in FAULT_CLASSES:
            assert fault.description
            assert fault.caught_by


class TestStuckMshr:
    def test_watchdog_catches_stuck_fill(self):
        system = make_system()
        inject_stuck_mshr(system)
        with pytest.raises(DeadlockError) as info:
            run_guarded(system)
        assert "no instruction committed" in str(info.value)
        assert "MSHR file" in info.value.state
        assert "stalled window" in info.value.state


class TestDroppedBusGrant:
    def test_causality_invariant_catches_teleporting_fill(self):
        system = make_system()
        inject_dropped_bus_grant(system)
        with pytest.raises(SimulationInvariantError, match="acausal"):
            run_guarded(system)

    def test_l1_victim_writeback_is_checked(self):
        system = make_system()
        inject_dropped_bus_grant(system)
        with pytest.raises(SimulationInvariantError, match="acausal"):
            system.backside.writeback_line(5, cycle=10)

    def test_dirty_dram_row_writeback_is_checked(self):
        # One-way, two-row DRAM array: rows 0 and 2 share a set.
        dram = DramCacheBackside(DramCacheConfig(dram_size=1024, dram_assoc=1))
        dram.writeback_line(0, cycle=0)  # allocates row 0 dirty
        dram.memory_bus.transfer = lambda cycle, nbytes: Transfer(cycle, cycle)
        with pytest.raises(SimulationInvariantError, match="acausal"):
            dram.writeback_line(2, cycle=100)  # writes dirty row 0 to memory


class TestLostPortRelease:
    def test_held_reservation_deadlocks_and_is_caught(self):
        system = make_system()
        inject_lost_port_release(system, mode="hold")
        with pytest.raises(DeadlockError):
            run_guarded(system)

    @pytest.mark.parametrize("policy", ["ideal", "banked", "duplicate"])
    def test_forgotten_booking_trips_grant_ledger(self, policy):
        system = make_system(port_policy=policy)
        inject_lost_port_release(system, mode="regrant")
        with pytest.raises(SimulationInvariantError, match="per-cycle capacity"):
            run_guarded(system)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            inject_lost_port_release(make_system(), mode="gremlins")


class TestCorruptLru:
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_duplicate_way_caught_by_audit(self, assoc):
        system = make_system(l1_assoc=assoc)
        system.load(0, 0)  # populate one set
        inject_corrupt_lru(system)
        with pytest.raises(SimulationInvariantError, match="audit failed"):
            run_guarded(system)

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_phantom_dirty_caught_by_audit(self, assoc):
        system = make_system(l1_assoc=assoc)
        system.load(0, 0)
        inject_corrupt_lru(system, phantom_dirty=True)
        with pytest.raises(SimulationInvariantError, match="audit failed"):
            run_guarded(system)

    def test_empty_cache_cannot_be_corrupted(self):
        with pytest.raises(RuntimeError, match="warm it first"):
            inject_corrupt_lru(make_system())


class TestErrorsAreStructured:
    def test_every_guard_rail_error_is_a_robustness_error(self):
        for exc in (DeadlockError, SimulationInvariantError):
            assert issubclass(exc, RobustnessError)

    def test_unfaulted_runs_are_unaffected(self):
        # The guard rails must be silent on a healthy simulation.
        run_guarded(make_system(line_buffer=True, victim_entries=4))
