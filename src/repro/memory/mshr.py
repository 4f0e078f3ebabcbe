"""Miss status handling registers (lockup-free cache support) [Fark94].

The paper's primary data cache has four MSHRs: up to four distinct lines
may be outstanding to the L2/memory at once, and further references to a
pending line merge into its MSHR (secondary misses) instead of issuing a
new request.  When all four registers hold distinct pending lines, a new
primary miss must wait for the earliest register to retire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.common import new_record
from repro.observability import events, trace


@dataclass
class MshrStats:
    primary_misses: int = 0
    merged_misses: int = 0  #: secondary misses absorbed by a pending entry
    full_stall_cycles: int = 0  #: cycles a primary miss waited for a register


class MshrGrant(NamedTuple):
    """Outcome of asking the MSHR file to track a missing line."""

    start_cycle: int  #: when the miss request may go to the next level
    merged: bool  #: True if an existing entry for the line was joined
    pending_ready: int | None  #: for merged grants, the existing fill time


class MshrFile:
    """A fixed-size file of miss status handling registers."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError(f"need at least one MSHR, got {entries}")
        self.entries = entries
        self.stats = MshrStats()
        # line -> cycle at which its fill completes and the register frees
        self._pending: dict[int, int] = {}
        #: High-water pending-fill count; read-and-reset by the interval
        #: counter sampler at each boundary and by
        #: ``MemorySystem.reset_stats``.
        self.occupancy_peak = 0

    def outstanding(self, cycle: int) -> int:
        """Number of registers still busy at ``cycle``."""
        return sum(1 for ready in self._pending.values() if ready > cycle)

    def full(self) -> bool:
        """Every register holds a tracked line (as of the latest request).

        A prefetch that finds the file full is dropped; :meth:`request`
        makes the same test inline, and a primary miss that finds the
        file full waits for a register.
        """
        return len(self._pending) >= self.entries

    def request(self, line: int, cycle: int) -> MshrGrant:
        """Ask to track a miss on ``line`` observed at ``cycle``.

        Registers whose fills have arrived by ``cycle`` retire first, so
        a full file's earliest register is still busy at ``cycle``.
        """
        pending = self._pending
        # Most requests find no fill retired; list lines only when one has.
        if pending and min(pending.values()) <= cycle:
            for done in [done for done, ready in pending.items() if ready <= cycle]:
                del pending[done]
        tracer = trace._ACTIVE
        ready = pending.get(line)
        if ready is not None:
            self.stats.merged_misses += 1
            if tracer is not None:
                tracer.capture(events.MEM_MSHR_MERGE, cycle, {"line": line})
            return new_record(MshrGrant, (cycle, True, ready))
        stats = self.stats
        stats.primary_misses += 1
        start = cycle
        if len(pending) >= self.entries:
            # Wait for the earliest outstanding fill to retire its register.
            start = pending.pop(min(pending, key=pending.__getitem__))
            stats.full_stall_cycles += start - cycle
        if tracer is not None:
            tracer.capture(events.MEM_MSHR_ALLOC, cycle, {"line": line, "start": start})
        return new_record(MshrGrant, (start, False, None))

    def pending_ready(self, line: int, cycle: int) -> int | None:
        """If ``line``'s fill is still in flight at ``cycle``, its ready time.

        Used to model *delayed hits*: the functional cache state is
        updated as soon as a miss is processed, so a later reference can
        find the line present even though its data has not physically
        arrived; such a reference must wait for the outstanding fill.
        """
        ready = self._pending.get(line)
        if ready is not None and ready > cycle:
            return ready
        return None

    def complete(
        self, line: int, fill_cycle: int, alloc_cycle: int | None = None
    ) -> None:
        """Record when the fill for ``line`` will arrive (frees the MSHR).

        ``alloc_cycle`` (the grant's start cycle) rides the fill event
        as an allocation->fill pair, so trace consumers (the Chrome
        exporter's async arrows) get the whole in-flight window from
        one event even when the alloc event has fallen off the ring.
        """
        self._pending[line] = fill_cycle
        if len(self._pending) > self.occupancy_peak:
            self.occupancy_peak = len(self._pending)
        tracer = trace._ACTIVE
        if tracer is not None:
            fields = {"line": line, "ready": fill_cycle}
            if alloc_cycle is not None:
                fields["alloc"] = alloc_cycle
            tracer.capture(events.MEM_MSHR_FILL, fill_cycle, fields)

    def tracked_lines(self) -> frozenset[int]:
        """Lines whose fills this file still tracks (possibly in flight)."""
        return frozenset(self._pending)
