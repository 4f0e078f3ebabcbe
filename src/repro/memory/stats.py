"""Aggregate statistics for a memory-system run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.common import ServedBy


@dataclass
class MemoryStats:
    """Counters kept by :class:`repro.memory.hierarchy.MemorySystem`."""

    loads: int = 0
    stores: int = 0
    l1_load_hits: int = 0
    l1_load_misses: int = 0
    l1_store_hits: int = 0
    l1_store_misses: int = 0
    #: references that found their line still in flight (MSHR merge /
    #: delayed hit).  They wait for the outstanding fill but are *not*
    #: new misses -- the paper's miss counts are primary misses.
    delayed_hits: int = 0
    prefetches_issued: int = 0  #: next-line prefetches sent to the L2
    served_by: dict[ServedBy, int] = field(
        default_factory=lambda: {level: 0 for level in ServedBy}
    )
    load_latency_total: int = 0  #: sum over loads of completion - issue

    @property
    def accesses(self) -> int:
        return self.loads + self.stores

    @property
    def l1_misses(self) -> int:
        return self.l1_load_misses + self.l1_store_misses

    @property
    def l1_hits(self) -> int:
        return self.l1_load_hits + self.l1_store_hits

    @property
    def l1_miss_rate(self) -> float:
        reached = self.l1_hits + self.l1_misses
        return self.l1_misses / reached if reached else 0.0

    @property
    def average_load_latency(self) -> float:
        return self.load_latency_total / self.loads if self.loads else 0.0

    def misses_per_instruction(self, instructions: int) -> float:
        """The paper's Figure 3 metric: data-cache misses / instruction."""
        if instructions <= 0:
            raise ValueError(f"instructions must be positive: {instructions}")
        return self.l1_misses / instructions
