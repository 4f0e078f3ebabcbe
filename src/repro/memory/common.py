"""Shared types for the on-chip memory system models."""

from __future__ import annotations

import enum
from typing import NamedTuple


class ServedBy(enum.IntEnum):
    """The level of the hierarchy that supplied a reference's data."""

    LINE_BUFFER = 0
    L1 = 1
    L2 = 2
    MEMORY = 3
    DRAM_CACHE = 4  #: the on-chip DRAM array behind a row-buffer cache
    ROW_BUFFER = 5  #: the DRAM row-buffer first-level cache
    VICTIM_CACHE = 6  #: a victim-cache swap satisfied the miss [Joup90]


#: Builds a named tuple with the C-level tuple constructor; the named
#: tuple's own ``__new__`` is a Python function, and the access and miss
#: paths build several records per reference.
new_record = tuple.__new__


class AccessResult(NamedTuple):
    """Timing outcome of a single data reference.

    ``completion_cycle`` is when the data is available to dependents (for
    loads) or when the write has retired into the cache (for stores).
    ``port_start_cycle`` is when the reference actually won a cache port
    (equal to the issue cycle unless it waited for a port, bank, or
    MSHR); line-buffer hits never occupy a port and report the issue
    cycle.  A named tuple, like :class:`repro.memory.sram.Eviction`,
    because every reference builds one.
    """

    completion_cycle: int
    served_by: ServedBy
    port_start_cycle: int

    @property
    def latency(self) -> int:
        """Convenience: completion relative to port start."""
        return self.completion_cycle - self.port_start_cycle


def line_address(byte_address: int, line_bytes: int) -> int:
    """The cache-line index containing ``byte_address``."""
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ValueError(f"line size must be a power of two: {line_bytes}")
    return byte_address >> line_bytes.bit_length() - 1


class ConfigurationError(ValueError):
    """Raised when a memory-system configuration is internally inconsistent."""
