"""The simulation snapshot: every component counter under a dotted name.

The simulator's components keep their statistics in small dataclasses
(:class:`~repro.memory.stats.MemoryStats`, ``PortStats``, ``MshrStats``,
``BusStats``, ...).  Which components keep them, and the prefix each
exports under, is decided in one place:
:meth:`~repro.memory.hierarchy.MemorySystem.stat_owners`.  Their field
names are the metric leaves, so ``memory.l2.misses`` is
``BacksideStats.misses``.  The same list is what
:meth:`~repro.memory.hierarchy.MemorySystem.reset_stats` zeroes at the
end of timing warm-up, so every exported counter covers the measured
region only.

The export is a flat dict in ``SimulationResult.metrics``, which
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


def snapshot_memory_system(memory: "MemorySystem", out: dict[str, int]) -> None:
    """Export every live counter of a memory system into ``out``.

    ``MemoryStats`` keeps the field names ``SimulationResult`` stores,
    so its block is spelled out here; every other component exports its
    stats fields as they are, under the prefix
    :meth:`~repro.memory.hierarchy.MemorySystem.stat_owners` gives it.
    """
    stats = memory.stats
    _snap(
        out,
        "memory",
        loads=stats.loads,
        stores=stats.stores,
        delayed_hits=stats.delayed_hits,
        prefetches_issued=stats.prefetches_issued,
        load_latency_total=stats.load_latency_total,
    )
    _snap(
        out,
        "memory.l1",
        load_hits=stats.l1_load_hits,
        load_misses=stats.l1_load_misses,
        store_hits=stats.l1_store_hits,
        store_misses=stats.l1_store_misses,
    )
    _snap(
        out,
        "memory.served_by",
        **{level.name.lower(): count for level, count in stats.served_by.items()},
    )
    for prefix, component in memory.stat_owners():
        _snap(out, prefix, **asdict(component.stats))


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
