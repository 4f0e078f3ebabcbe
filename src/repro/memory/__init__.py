"""On-chip memory system substrate.

Everything the paper's section 2 and 3 describe on the data side:
set-associative SRAM state, multi-port/banked/duplicate arbitration,
pipelined multi-cycle hits, the level-zero line buffer, MSHRs, the
L2 + main-memory backside with finite buses, and the on-chip DRAM cache
with its row-buffer first-level cache.
"""

from repro.memory.backside import (
    BacksideConfig,
    BacksideMemory,
    BacksideStats,
    FillResponse,
)
from repro.memory.bus import Bus, BusStats, Transfer, bytes_per_cycle
from repro.memory.common import (
    AccessResult,
    ConfigurationError,
    ServedBy,
    line_address,
)
from repro.memory.dram_cache import (
    DramCacheBackside,
    DramCacheConfig,
    DramFill,
    DramStats,
)
from repro.memory.hierarchy import (
    PORT_POLICIES,
    WRITE_POLICIES,
    MemoryConfig,
    MemorySystem,
)
from repro.memory.line_buffer import DEFAULT_ENTRIES, LineBuffer, LineBufferStats
from repro.memory.mshr import MshrFile, MshrGrant, MshrStats
from repro.memory.ports import (
    BankedPorts,
    DuplicatePorts,
    IdealPorts,
    PortArbiter,
    PortStats,
    make_arbiter,
)
from repro.memory.sram import Eviction, FullyAssociativeCache, SetAssociativeCache
from repro.memory.stats import MemoryStats
from repro.memory.victim import VictimCache, VictimCacheStats

__all__ = [
    "BacksideConfig",
    "BacksideMemory",
    "BacksideStats",
    "FillResponse",
    "Bus",
    "BusStats",
    "Transfer",
    "bytes_per_cycle",
    "AccessResult",
    "ConfigurationError",
    "ServedBy",
    "line_address",
    "DramCacheBackside",
    "DramCacheConfig",
    "DramFill",
    "DramStats",
    "PORT_POLICIES",
    "WRITE_POLICIES",
    "MemoryConfig",
    "MemorySystem",
    "DEFAULT_ENTRIES",
    "LineBuffer",
    "LineBufferStats",
    "MshrFile",
    "MshrGrant",
    "MshrStats",
    "BankedPorts",
    "DuplicatePorts",
    "IdealPorts",
    "PortArbiter",
    "PortStats",
    "make_arbiter",
    "Eviction",
    "FullyAssociativeCache",
    "SetAssociativeCache",
    "MemoryStats",
    "VictimCache",
    "VictimCacheStats",
]
