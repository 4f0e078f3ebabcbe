"""The simulation snapshot: every component counter under a dotted name.

The simulator's components keep their statistics in small dataclasses
(:class:`~repro.memory.stats.MemoryStats`, ``PortStats``, ``MshrStats``,
``BusStats``, ...).  Historically most of those never left the live
objects -- port contention, MSHR pressure, and bus occupancy were
discarded when the :class:`~repro.memory.hierarchy.MemorySystem` was
garbage collected, and only the ``MemoryStats`` aggregate rode the
:class:`~repro.cpu.result.SimulationResult`.

This module gives every counter a stable dotted name and exports the
whole hierarchy as a flat dict into ``SimulationResult.metrics``, which
serializes through :mod:`repro.engine.serialize` and therefore rides
the result store, crosses worker-process boundaries bit-identically,
and is queryable after the fact with ``python -m repro metrics``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.result import SimulationResult
    from repro.memory.hierarchy import MemorySystem


def _snap(out: dict[str, int], prefix: str, **values: int) -> None:
    """Record ``prefix.<leaf>`` for each value; counters never go negative."""
    for leaf, value in values.items():
        name = f"{prefix}.{leaf}"
        if name.startswith(".") or name.endswith(".") or ".." in name:
            raise ValueError(
                f"bad metric name {name!r}: use dotted non-empty parts"
            )
        if value < 0:
            raise ValueError(f"counter {name!r} cannot be negative: {value}")
        out[name] = value


def snapshot_memory_system(
    memory: "MemorySystem", out: dict[str, int], prefix: str = "memory"
) -> None:
    """Export every live counter of a memory system into ``out``."""
    from repro.memory.dram_cache import DramCacheBackside

    stats = memory.stats
    _snap(
        out,
        prefix,
        loads=stats.loads,
        stores=stats.stores,
        delayed_hits=stats.delayed_hits,
        prefetches_issued=stats.prefetches_issued,
        load_latency_total=stats.load_latency_total,
    )
    _snap(
        out,
        f"{prefix}.l1",
        load_hits=stats.l1_load_hits,
        load_misses=stats.l1_load_misses,
        store_hits=stats.l1_store_hits,
        store_misses=stats.l1_store_misses,
    )
    _snap(
        out,
        f"{prefix}.served_by",
        **{level.name.lower(): count for level, count in stats.served_by.items()},
    )

    ports = memory.arbiter.stats
    _snap(
        out,
        f"{prefix}.ports",
        requests=ports.requests,
        delayed=ports.delayed,
        wait_cycles=ports.wait_cycles,
        bank_conflicts=ports.bank_conflicts,
    )
    mshr = memory.mshrs.stats
    _snap(
        out,
        f"{prefix}.mshr",
        primary_misses=mshr.primary_misses,
        merged_misses=mshr.merged_misses,
        full_stall_cycles=mshr.full_stall_cycles,
    )
    if memory.line_buffer is not None:
        lb = memory.line_buffer.stats
        _snap(
            out,
            f"{prefix}.line_buffer",
            load_lookups=lb.load_lookups,
            load_hits=lb.load_hits,
            fills=lb.fills,
            store_updates=lb.store_updates,
            invalidations=lb.invalidations,
        )
    if memory.victim_cache is not None:
        victim = memory.victim_cache.stats
        _snap(
            out,
            f"{prefix}.victim",
            probes=victim.probes,
            swap_hits=victim.swap_hits,
            fills=victim.fills,
        )

    backside = memory.backside
    if isinstance(backside, DramCacheBackside):
        dram = backside.stats
        _snap(
            out,
            f"{prefix}.dram",
            hits=dram.dram_hits,
            misses=dram.dram_misses,
            bank_wait_cycles=dram.bank_wait_cycles,
        )
        _snap_bus(out, f"{prefix}.bus.memory", backside.memory_bus)
    else:
        l2 = backside.stats
        _snap(
            out,
            f"{prefix}.l2",
            line_requests=l2.l1_line_requests,
            hits=l2.l2_hits,
            misses=l2.l2_misses,
            writebacks_in=l2.writebacks,
            writebacks_out=l2.l2_writebacks,
        )
        _snap_bus(out, f"{prefix}.bus.chip", backside.chip_bus)
        _snap_bus(out, f"{prefix}.bus.memory", backside.memory_bus)


def _snap_bus(out: dict[str, int], prefix: str, bus) -> None:
    _snap(
        out,
        prefix,
        transfers=bus.stats.transfers,
        bytes_moved=bus.stats.bytes_moved,
        busy_cycles=bus.stats.busy_cycles,
        queue_cycles=bus.stats.queue_cycles,
    )


def snapshot_simulation(
    result: "SimulationResult", memory: "MemorySystem"
) -> dict[str, int | float]:
    """The full metrics export for one finished simulation.

    Called by the core at the end of ``run``; the returned flat dict is
    what lands in ``SimulationResult.metrics`` and is serialized by
    :func:`repro.engine.serialize.to_plain`.
    """
    out: dict[str, int | float] = {}
    _snap(
        out,
        "cpu",
        instructions=result.instructions,
        cycles=result.cycles,
    )
    _snap(out, "cpu.pipeline", **asdict(result.pipeline))
    _snap(out, "cpu.branch", **asdict(result.branches))
    snapshot_memory_system(memory, out)
    if memory.attribution is not None:
        out.update(memory.attribution.to_metrics())
    return dict(sorted(out.items()))
