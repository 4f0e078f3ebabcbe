"""Bandwidth-limited transfer buses (section 3.1).

The memory organization supports 2.5 GB/s peak between the processor
chip and the L2, and 1.6 GB/s peak between the L2 and main memory.  At
the reference 200 MHz clock that is 12.5 and 8 bytes per cycle.  A bus
is a serially reusable resource: each line transfer occupies it for
``ceil(bytes / bytes_per_cycle)`` cycles, and later transfers queue.

Every transfer in the simulator goes through :meth:`Bus.checked_transfer`,
so the causality check and the ``mem.bus.transfer`` trace stream see
exactly the transfers the bus counters count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.common import new_record
from repro.observability import trace
from repro.observability.events import MEM_BUS_TRANSFER
from repro.robustness import invariants
from repro.robustness.errors import SimulationInvariantError


@dataclass
class BusStats:
    transfers: int = 0
    bytes_moved: int = 0
    busy_cycles: int = 0
    queue_cycles: int = 0  #: total cycles transfers waited for the bus


class Transfer(NamedTuple):
    """The window a bus transfer holds the bus: ``[start, done)``."""

    start_cycle: int
    done_cycle: int


class Bus:
    """A single bus with a fixed peak bandwidth in bytes/cycle."""

    def __init__(self, bytes_per_cycle: float, name: str = "bus"):
        if bytes_per_cycle <= 0:
            raise ValueError(f"bandwidth must be positive: {bytes_per_cycle}")
        self.bytes_per_cycle = bytes_per_cycle
        self.name = name
        self._what = f"{name} transfer"  #: how the causality check names it
        self.stats = BusStats()
        self._next_free = 0
        #: Transfer size -> :meth:`occupancy`, filled on first use.
        self._busy: dict[int, int] = {}

    def occupancy(self, nbytes: int) -> int:
        """Cycles the bus is held by a transfer of ``nbytes``."""
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive: {nbytes}")
        return max(1, math.ceil(nbytes / self.bytes_per_cycle))

    def transfer(self, cycle: int, nbytes: int) -> Transfer:
        """Schedule a transfer requested at ``cycle``; returns its window."""
        busy = self._busy.get(nbytes)
        if busy is None:
            busy = self._busy[nbytes] = self.occupancy(nbytes)
        start = max(cycle, self._next_free)
        self._next_free = start + busy
        self.stats.transfers += 1
        self.stats.bytes_moved += nbytes
        self.stats.busy_cycles += busy
        self.stats.queue_cycles += start - cycle
        # Bandwidth accounting: a serially reusable bus can never have
        # spent more busy cycles than its occupancy rules allow for the
        # bytes it moved.  Broken occupancy math surfaces here.
        if self.stats.busy_cycles < self.stats.bytes_moved / self.bytes_per_cycle:
            raise SimulationInvariantError(
                f"{self.name}: {self.stats.busy_cycles} busy cycles cannot "
                f"have moved {self.stats.bytes_moved} bytes at "
                f"{self.bytes_per_cycle} bytes/cycle"
            )
        return new_record(Transfer, (start, start + busy))

    def checked_transfer(self, cycle: int, nbytes: int) -> Transfer:
        """Schedule a transfer, check its window, then show it to the tracer.

        The one way the memory models move data.  ``self.transfer`` is
        looked up on the instance, so a fault injection that replaces it
        (``inject_dropped_bus_grant``) is still checked.  The causality
        check sees the window before the active tracer does; the fields
        dict is built only for a tracer, which sees it after
        ``invariants.bus_causality_tap`` has checked the same values --
        the check-then-capture order of the port arbiters' grants.
        """
        window = self.transfer(cycle, nbytes)
        start, done = window
        tracer = trace._ACTIVE
        if tracer is None:
            invariants.check_causality(self._what, cycle, start, done)
            return window
        fields = {"bus": self.name, "start": start, "done": done, "bytes": nbytes}
        invariants.bus_causality_tap(cycle, fields)
        tracer.capture(MEM_BUS_TRANSFER, cycle, fields)
        return window

    def utilization(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the bus spent busy."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / total_cycles)


def bytes_per_cycle(bandwidth_bytes_per_s: float, cycle_time_fo4: float) -> float:
    """Convert a physical bandwidth to bytes/cycle for a given clock.

    Figure 9 varies the processor cycle time; the physical bus bandwidth
    stays fixed, so faster clocks see fewer bytes per cycle.
    """
    from repro.timing.process import fo4_to_ns

    if bandwidth_bytes_per_s <= 0 or cycle_time_fo4 <= 0:
        raise ValueError("bandwidth and cycle time must be positive")
    return bandwidth_bytes_per_s * fo4_to_ns(cycle_time_fo4) * 1e-9
