"""Render simulator state as text blocks for guard-rail error reports.

These helpers are only called on the failure path, so they favor
completeness over speed.  Rendering goes through
:func:`repro.core.reporting.format_table` (imported lazily to keep the
memory/CPU layers importable without the experiment layer).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.hierarchy import MemorySystem
    from repro.memory.mshr import MshrFile

#: Window rows rendered into a dump (the head is what matters).
_WINDOW_ROWS = 16


def _format_table(headers: list[str], rows: list[list[str]], title: str) -> str:
    from repro.core.reporting import format_table

    return format_table(headers, rows, title)


def dump_window(window: Iterable, cycle: int) -> str:
    """The in-flight instruction window, oldest first.

    Takes slot-shaped objects: ``seq``, ``mop``, ``issued`` and
    ``complete``, as on :class:`repro.cpu.core._Slot`.
    """
    rows = []
    for slot in window:
        if len(rows) >= _WINDOW_ROWS:
            rows.append(["...", "...", "...", "...", "..."])
            break
        mop = slot.mop
        rows.append(
            [
                str(slot.seq),
                mop.op.name,
                hex(mop.address) if mop.is_memory else "-",
                "yes" if slot.issued else "no",
                str(slot.complete) if slot.issued else "-",
            ]
        )
    return _format_table(
        ["seq", "op", "address", "issued", "complete"],
        rows,
        f"instruction window at cycle {cycle}",
    )


def dump_mshrs(mshrs: "MshrFile", cycle: int) -> str:
    """The MSHR file: every tracked line and its fill-ready cycle."""
    rows = [
        [hex(line), str(ready), "in flight" if ready > cycle else "retired"]
        for line, ready in sorted(mshrs._pending.items())
    ]
    if not rows:
        rows = [["-", "-", "empty"]]
    title = (
        f"MSHR file at cycle {cycle}: "
        f"{mshrs.outstanding(cycle)}/{mshrs.entries} outstanding"
    )
    return _format_table(["line", "ready cycle", "status"], rows, title)


def dump_memory(memory: "MemorySystem", cycle: int) -> str:
    """One-screen summary of the memory system's structural state."""
    lines = [f"memory system at cycle {cycle}"]
    cfg = memory.config
    lines.append(
        f"  L1: {cfg.l1_size}B {cfg.l1_assoc}-way, {len(memory.l1)} lines "
        f"resident, ports={cfg.port_policy}"
    )
    lines.append(
        f"  MSHRs: {memory.mshrs.outstanding(cycle)}/{memory.mshrs.entries} "
        f"outstanding ({len(memory.mshrs._pending)} tracked)"
    )
    if memory.line_buffer is not None:
        lines.append(
            f"  line buffer: {len(memory.line_buffer)}/"
            f"{memory.line_buffer.entries} entries"
        )
    if memory.victim_cache is not None:
        lines.append(
            f"  victim cache: {len(memory.victim_cache)}/"
            f"{memory.victim_cache.entries} entries"
        )
    stats = memory.stats
    lines.append(
        f"  traffic: {stats.loads} loads, {stats.stores} stores, "
        f"{stats.l1_misses} L1 misses, {stats.delayed_hits} delayed hits"
    )
    return "\n".join(lines)
