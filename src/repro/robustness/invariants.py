"""Always-on internal-consistency checks for the simulator.

Two kinds of guard live here:

* **incremental checks** — O(1) helpers the hot paths call every access
  (:class:`GrantLedger` for per-cycle port/bank grant capacity,
  :func:`check_causality` for bus/fill timestamps);
* **structural audit** — :func:`audit_memory`, a full sweep of the
  memory system's cross-structure invariants (LRU bookkeeping, line
  buffer and victim-cache coherence, MSHR balance, served-by
  accounting) that the core runs periodically and at end of run.

All violations raise
:class:`repro.robustness.errors.SimulationInvariantError` with a
rendered state dump attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.robustness import dump
from repro.robustness.errors import SimulationInvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.hierarchy import MemorySystem

#: Ledger size at which old per-cycle grant counters are pruned.
_LEDGER_PRUNE_AT = 8192
#: Bits below the cycle in a ledger slot: room for the key.
_KEY_BITS = 16


class GrantLedger:
    """Counts grants per start cycle and rejects over-subscription.

    A timestamped-resource arbiter may grant at most ``capacity``
    accesses with the same start cycle (per key -- a bank key folds the
    bank index in).  Lost port releases and broken ``_next_free``
    bookkeeping surface here as a (cycle, key) counter exceeding the
    hardware's capacity.  Each counter sits under one int, the cycle
    shifted above the key; keys are port or bank indices below
    :attr:`KEYS`.
    """

    KEYS = 1 << _KEY_BITS

    def __init__(self, capacity: int, name: str):
        if capacity < 1:
            raise ValueError(f"ledger capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._counts: dict[int, int] = {}

    def record(self, cycle: int, key: int = 0, weight: int = 1) -> None:
        """Book ``weight`` grants starting at ``cycle`` on resource ``key``."""
        slot = cycle << _KEY_BITS | key
        counts = self._counts
        count = counts.get(slot, 0) + weight
        if count > self.capacity:
            raise SimulationInvariantError(
                f"{self.name}: {count} grants at cycle {cycle} (key {key}) "
                f"exceed per-cycle capacity {self.capacity}",
                {"grant ledger": self._render(cycle)},
            )
        counts[slot] = count
        if len(counts) > _LEDGER_PRUNE_AT:
            self._prune()

    def tap(self, cycle: int, fields: dict) -> None:
        """Book the grant a ``mem.port.grant`` fields dict describes.

        The port arbiters call :meth:`record` directly and then capture
        the same ``(cycle, key)`` on the tracer; this adapter takes the
        ``(cycle, fields)`` shape of a captured event instead.
        """
        self.record(cycle, fields.get("key", 0), fields.get("weight", 1))

    def _prune(self) -> None:
        """Drop the oldest half of the counters to bound memory."""
        slots = sorted(self._counts)
        cutoff = slots[len(slots) // 2] >> _KEY_BITS << _KEY_BITS
        self._counts = {
            slot: count for slot, count in self._counts.items() if slot >= cutoff
        }

    def _render(self, cycle: int) -> str:
        recent = sorted(self._counts.items())[-8:]
        rows = "\n".join(
            f"  cycle {slot >> _KEY_BITS} key {slot & self.KEYS - 1}: {count} grants"
            for slot, count in recent
        )
        return f"{self.name} (capacity {self.capacity}/cycle), recent grants:\n{rows}"


def check_causality(
    what: str, requested_cycle: int, start_cycle: int, done_cycle: int
) -> None:
    """A scheduled resource window must lie at or after its request.

    Dropped bus grants and mis-accounted transfers surface as data
    "arriving" before it was asked for, or as zero-length occupancy.
    """
    if start_cycle < requested_cycle or done_cycle <= start_cycle:
        raise SimulationInvariantError(
            f"{what}: acausal schedule (requested cycle {requested_cycle}, "
            f"granted [{start_cycle}, {done_cycle}))"
        )


def bus_causality_tap(cycle: int, fields: dict) -> None:
    """Enforce :func:`check_causality` on one bus transfer's fields.

    :meth:`repro.memory.bus.Bus.checked_transfer` runs it on every
    traced transfer, before the tracer captures the same
    ``mem.bus.transfer`` fields; an untraced transfer calls
    :func:`check_causality` on the same values without building them.
    Both run after ``bus.transfer`` returns (not inside the bus model),
    so fault injections that replace the transfer method are still
    observed -- see ``inject_dropped_bus_grant``.
    """
    check_causality(
        f"{fields['bus']} transfer", cycle, fields["start"], fields["done"]
    )


def audit_memory(memory: "MemorySystem", cycle: int) -> None:
    """Full structural audit of the memory system; raises on any breach."""
    problems: list[str] = []
    problems += memory.l1.audit("L1")
    mshrs = memory.mshrs
    if mshrs.outstanding(cycle) > mshrs.entries:
        problems.append(
            f"MSHR file: {mshrs.outstanding(cycle)} outstanding entries "
            f"exceed the {mshrs.entries} registers"
        )
    if len(memory._pending_served) > 4 * memory.config.mshrs:
        problems.append(
            f"merged-miss bookkeeping grew to {len(memory._pending_served)} "
            f"entries (bound {4 * memory.config.mshrs})"
        )
    if memory.line_buffer is not None:
        for line in memory.line_buffer.resident_lines():
            if not memory.l1.probe(line):
                problems.append(
                    f"line buffer holds line {line:#x} absent from the L1 "
                    "(missed invalidation)"
                )
                break
        problems += memory.line_buffer.audit()
    if memory.victim_cache is not None:
        for line in memory.victim_cache.resident_lines():
            if memory.l1.probe(line):
                problems.append(
                    f"victim cache and L1 both hold line {line:#x} "
                    "(exclusivity breached)"
                )
                break
        problems += memory.victim_cache.audit()
    stats = memory.stats
    if sum(stats.served_by.values()) != stats.accesses:
        problems.append(
            f"served-by accounting: {sum(stats.served_by.values())} served "
            f"vs {stats.accesses} accesses"
        )
    if problems:
        raise SimulationInvariantError(
            "memory-system audit failed: " + "; ".join(problems[:3]),
            {
                "audit findings": "\n".join(f"- {p}" for p in problems),
                "memory state": dump.dump_memory(memory, cycle),
                "MSHR file": dump.dump_mshrs(memory.mshrs, cycle),
            },
        )
