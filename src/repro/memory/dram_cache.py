"""On-chip DRAM cache with a row-buffer first-level cache (section 2.4).

Models the [Saul96]-style organization the paper evaluates in Figure 7:

* a 4 MB on-chip DRAM array used as the only cache level (the large DRAM
  cache replaces the off-chip L2 entirely);
* the DRAM banks' row buffers are combined into a 16 KB two-way
  set-associative first-level data cache with **512-byte lines** (each
  row buffer holds one 512 B row) and a one-cycle hit time;
* a row-buffer miss pays the DRAM array hit time, varied 6-8 cycles;
* a DRAM cache miss goes to main memory.

The DRAM array is eight-way banked ("the DRAM's row buffers act as
banks") and a bank is busy for the whole DRAM access (DRAM arrays are
not pipelined the way SRAM is).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.bus import Bus
from repro.memory.common import ServedBy, new_record
from repro.memory.sram import Eviction, SetAssociativeCache
from repro.observability.attribution import critical_path


@dataclass(frozen=True)
class DramCacheConfig:
    dram_size: int = 4 * 1024 * 1024
    dram_assoc: int = 2
    row_bytes: int = 512  #: DRAM row == row-buffer cache line
    dram_hit_cycles: int = 6  #: varied 6-8 in Figure 7
    dram_banks: int = 8
    row_cache_size: int = 16 * 1024
    row_cache_assoc: int = 2
    row_cache_hit_cycles: int = 1
    memory_cycles: int = 60
    memory_bus_bytes_per_cycle: float = 8.0


@dataclass
class DramStats:
    hits: int = 0  #: row fetches the DRAM array held
    misses: int = 0  #: row fetches that went to main memory
    writebacks_out: int = 0  #: dirty DRAM rows written to memory
    bank_wait_cycles: int = 0


class DramFill(NamedTuple):
    """Timing of a row fill delivered to the row-buffer cache."""

    ready_cycle: int
    served_by: ServedBy
    #: Critical-path decomposition of ``ready_cycle - request_cycle``
    #: (same contract as :class:`repro.memory.backside.FillResponse`,
    #: empty unless the back side is ``attributed``).
    path: tuple[tuple[str, int], ...] = ()


class DramCacheBackside:
    """The DRAM array + main memory behind the row-buffer cache.

    The row-buffer cache itself lives in the hierarchy frontend (it is
    the primary data cache in DRAM mode); this class serves its misses.
    It has :class:`~repro.memory.backside.BacksideMemory`'s interface:
    in DRAM mode an L1 line *is* a row, so ``line_shift`` is 0.
    """

    line_shift = 0

    def __init__(self, config: DramCacheConfig, *, attributed: bool = False):
        self.config = config
        #: Build each fill's critical path; only attribution reads it.
        self.attributed = attributed
        self.dram = SetAssociativeCache(
            config.dram_size, config.dram_assoc, config.row_bytes
        )
        self.array = self.dram
        self.memory_bus = Bus(config.memory_bus_bytes_per_cycle, "DRAM<->memory")
        self.stats = DramStats()
        self._bank_free = [0] * config.dram_banks

    def stat_owners(self) -> list[tuple[str, object]]:
        """This back side's counters, under their metric prefixes."""
        return [("memory.dram", self), ("memory.bus.memory", self.memory_bus)]

    def fetch_line(self, row_line: int, cycle: int) -> DramFill:
        """Fetch a 512 B row into a row buffer; returns arrival timing."""
        bank = row_line % self.config.dram_banks
        start = max(cycle, self._bank_free[bank])
        self.stats.bank_wait_cycles += start - cycle
        done = start + self.config.dram_hit_cycles
        self._bank_free[bank] = done  # bank busy for the full access
        if self.dram.lookup(row_line):
            self.stats.hits += 1
            if not self.attributed:
                return new_record(DramFill, (done, ServedBy.DRAM_CACHE, ()))
            path = critical_path(
                dram_bank_wait=start - cycle,
                dram_access=self.config.dram_hit_cycles,
            )
            return DramFill(done, ServedBy.DRAM_CACHE, path)
        self.stats.misses += 1
        mem_ready = done + self.config.memory_cycles
        transfer = self.memory_bus.checked_transfer(mem_ready, self.config.row_bytes)
        self._write_victim(self.dram.fill(row_line), transfer.done_cycle)
        self._bank_free[bank] = max(self._bank_free[bank], transfer.done_cycle)
        if not self.attributed:
            return new_record(
                DramFill, (transfer.done_cycle, ServedBy.MEMORY, ())
            )
        path = critical_path(
            dram_bank_wait=start - cycle,
            dram_access=self.config.dram_hit_cycles,
            memory=self.config.memory_cycles,
            bus_queue=transfer.start_cycle - mem_ready,
            bus_transfer=transfer.done_cycle - transfer.start_cycle,
        )
        return DramFill(transfer.done_cycle, ServedBy.MEMORY, path)

    def writeback_line(self, row_line: int, cycle: int) -> None:
        """A dirty row-buffer victim is written back into the DRAM array."""
        bank = row_line % self.config.dram_banks
        start = max(cycle, self._bank_free[bank])
        self._bank_free[bank] = start + self.config.dram_hit_cycles
        if self.dram.probe(row_line):
            self.dram.lookup(row_line, write=True)
        else:
            self._write_victim(self.dram.fill(row_line, dirty=True), start)

    def _write_victim(self, victim: Eviction | None, cycle: int) -> None:
        """Write a dirty DRAM row back to memory over the memory bus."""
        if victim is not None and victim.dirty:
            self.stats.writebacks_out += 1
            self.memory_bus.checked_transfer(cycle, self.config.row_bytes)
