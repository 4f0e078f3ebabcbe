"""The off-L1 memory path: unified L2 cache, buses, and main memory.

Section 3.1: the second level cache is 4 MB, two-way set-associative
with 64-byte lines and a ten cycle (50 ns) access time; main memory has
a sixty cycle (300 ns) access time; the chip-to-L2 bus peaks at
2.5 GB/s and the L2-to-memory bus at 1.6 GB/s.

A primary-cache miss for line ``L`` proceeds: request crosses to the
L2 -> L2 lookup (hit time) -> on hit, the L1 line crosses the chip bus
back; on miss, the L2 line is fetched from memory over the memory bus
(memory latency + transfer), installed in the L2 (possibly writing back
a dirty victim), and the L1 line then crosses the chip bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.bus import Bus
from repro.memory.common import ServedBy, new_record
from repro.memory.sram import Eviction, SetAssociativeCache
from repro.observability.attribution import critical_path


@dataclass
class BacksideStats:
    line_requests: int = 0  #: L1 line fetches sent to the L2
    hits: int = 0
    misses: int = 0
    writebacks_in: int = 0  #: dirty L1 victims written to the L2
    writebacks_out: int = 0  #: dirty L2 victims written to memory

    @property
    def l2_miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class FillResponse(NamedTuple):
    """Timing of a line fill delivered to the primary cache."""

    ready_cycle: int  #: cycle the full L1 line has arrived on chip
    served_by: ServedBy
    #: Critical-path decomposition of ``ready_cycle - request_cycle``
    #: as ``((component, cycles), ...)``; components sum exactly to the
    #: fill latency (the attribution invariant).  Empty unless the back
    #: side is ``attributed``.
    path: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class BacksideConfig:
    l2_size: int = 4 * 1024 * 1024
    l2_assoc: int = 2
    l2_line: int = 64
    l2_hit_cycles: int = 10
    memory_cycles: int = 60
    chip_bus_bytes_per_cycle: float = 12.5  #: 2.5 GB/s at 200 MHz
    memory_bus_bytes_per_cycle: float = 8.0  #: 1.6 GB/s at 200 MHz


class BacksideMemory:
    """L2 + main memory serving primary-cache line fills.

    Shares its interface with
    :class:`~repro.memory.dram_cache.DramCacheBackside`, so the hierarchy
    and the kernels never ask which back side they hold: ``fetch_line``
    and ``writeback_line`` serve the primary cache, ``array`` is the
    cache functional warm-up fills, ``line_shift`` maps an L1 line to
    an ``array`` line, and :meth:`stat_owners` lists the counters.
    """

    def __init__(
        self, config: BacksideConfig, l1_line_bytes: int, *, attributed: bool = False
    ):
        self.config = config
        #: Build each fill's critical path; only attribution reads it.
        self.attributed = attributed
        self.l1_line_bytes = l1_line_bytes
        if l1_line_bytes > config.l2_line:
            raise ValueError(
                f"L1 line ({l1_line_bytes}B) larger than L2 line ({config.l2_line}B)"
            )
        self.l2 = SetAssociativeCache(config.l2_size, config.l2_assoc, config.l2_line)
        self.array = self.l2
        self.chip_bus = Bus(config.chip_bus_bytes_per_cycle, "chip<->L2")
        self.memory_bus = Bus(config.memory_bus_bytes_per_cycle, "L2<->memory")
        self.stats = BacksideStats()
        self.line_shift = (config.l2_line // l1_line_bytes).bit_length() - 1

    def stat_owners(self) -> list[tuple[str, object]]:
        """This back side's counters, under their metric prefixes."""
        return [
            ("memory.l2", self),
            ("memory.bus.chip", self.chip_bus),
            ("memory.bus.memory", self.memory_bus),
        ]

    def fetch_line(self, l1_line: int, cycle: int) -> FillResponse:
        """Fetch an L1 line requested at ``cycle``; returns arrival timing."""
        self.stats.line_requests += 1
        l2_line = l1_line >> self.line_shift
        lookup_done = cycle + self.config.l2_hit_cycles
        if self.l2.lookup(l2_line):
            self.stats.hits += 1
            transfer = self.chip_bus.checked_transfer(lookup_done, self.l1_line_bytes)
            if not self.attributed:
                return new_record(FillResponse, (transfer.done_cycle, ServedBy.L2, ()))
            path = critical_path(
                l2_access=self.config.l2_hit_cycles,
                bus_queue=transfer.start_cycle - lookup_done,
                bus_transfer=transfer.done_cycle - transfer.start_cycle,
            )
            return FillResponse(transfer.done_cycle, ServedBy.L2, path)
        self.stats.misses += 1
        # Miss determined after the L2 lookup; go to main memory.
        mem_ready = lookup_done + self.config.memory_cycles
        mem_xfer = self.memory_bus.checked_transfer(mem_ready, self.config.l2_line)
        # A dirty victim's write-back occupies the memory bus but is off
        # the critical path.
        self._write_victim(self.l2.fill(l2_line), mem_xfer.done_cycle)
        transfer = self.chip_bus.checked_transfer(
            mem_xfer.done_cycle, self.l1_line_bytes
        )
        if not self.attributed:
            return new_record(
                FillResponse, (transfer.done_cycle, ServedBy.MEMORY, ())
            )
        path = critical_path(
            l2_access=self.config.l2_hit_cycles,
            memory=self.config.memory_cycles,
            bus_queue=(mem_xfer.start_cycle - mem_ready)
            + (transfer.start_cycle - mem_xfer.done_cycle),
            bus_transfer=(mem_xfer.done_cycle - mem_xfer.start_cycle)
            + (transfer.done_cycle - transfer.start_cycle),
        )
        return FillResponse(transfer.done_cycle, ServedBy.MEMORY, path)

    def write_word_through(self, l1_line: int, cycle: int) -> int:
        """A write-through store word crosses the chip bus into the L2.

        Returns the cycle the write has retired at the L2.  If the line
        is absent from the L2 it is allocated dirty (the fetch from
        memory is off the store's critical path and not modeled).
        """
        transfer = self.chip_bus.checked_transfer(cycle, 8)
        self._write_l2(l1_line, transfer.done_cycle)
        return transfer.done_cycle

    def writeback_line(self, l1_line: int, cycle: int) -> None:
        """A dirty L1 victim crosses the chip bus and updates the L2."""
        self.stats.writebacks_in += 1
        self.chip_bus.checked_transfer(cycle, self.l1_line_bytes)
        self._write_l2(l1_line, cycle)

    def _write_l2(self, l1_line: int, cycle: int) -> None:
        """Mark an L1 line's L2 line dirty, allocating it if absent."""
        l2_line = l1_line >> self.line_shift
        if self.l2.probe(l2_line):
            self.l2.lookup(l2_line, write=True)
        else:
            self._write_victim(self.l2.fill(l2_line, dirty=True), cycle)

    def _write_victim(self, victim: Eviction | None, cycle: int) -> None:
        """Write a dirty L2 victim back to memory over the memory bus."""
        if victim is not None and victim.dirty:
            self.stats.writebacks_out += 1
            self.memory_bus.checked_transfer(cycle, self.config.l2_line)
