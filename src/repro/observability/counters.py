"""Interval-sampled microarchitectural counters (schema v4).

Every whole-run aggregate the simulator exports -- IPC, conflict
counts, line-buffer hit rates -- averages away exactly the dynamics the
paper argues about: bank conflicts and port contention *burst* with
program phases (Figures 4-7).  This module is the software analog of
hardware PMU sampling: every ``counter_interval`` committed
instructions, a :class:`CounterSampler` snapshots a curated set of
counters and emits one row of deltas, building a compact columnar time
series that rides ``SimulationResult.counters`` through the store and
across worker-process boundaries bit-identically.

Determinism contract: rows are taken at committed-instruction
boundaries, and both kernel backends commit every instruction at the
same cycle by construction, so the series is bit-identical across
``reference`` and ``fast`` (the parity suite pins this).  The fast
backend's idle-cycle jumps need no special handling: each row's
``cycles`` column is the delta between boundary-commit cycles, so
skipped idle stretches land in the enclosing interval automatically.

Interval semantics: a row covers ``(previous boundary, this boundary]``
in committed instructions.  The final partial interval -- the tail when
the measured window is not a multiple of the interval -- is emitted
with ``partial`` set to 1 rather than dropped, so per-interval rates
are never silently skewed by a truncated tail.

Sampling is off by default and costs the hot loop one hoisted
``is None`` test per committed instruction when off (the same
discipline as tracing/attribution).  A run asks for it with
``Observe(counter_interval=<instructions>)`` in its settings (or with
``REPRO_COUNTER_INTERVAL`` when they leave ``observe`` unset).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Sequence

from repro.observability.metrics import snapshot_memory_system

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.result import PipelineStats
    from repro.memory.hierarchy import MemorySystem

#: Series layout version, carried inside the payload so offline readers
#: can tell layouts apart without consulting the store schema.
SERIES_VERSION = 1

#: Per-row bookkeeping columns, in emit order.
_ROW_COLUMNS = (
    "instructions",  #: committed instructions this interval
    "cycles",  #: cycles elapsed between the bounding commits
    "partial",  #: 1 for the trailing sub-interval row, else 0
    "mshr_occupancy_peak",  #: high-water pending-fill count this interval
)

#: Cumulative counters sampled as per-interval deltas, in emit order,
#: each with the metric it is read from.  Curated: only the signals the
#: paper's phase arguments need, so rows stay compact.
_DELTA_METRICS = {
    "loads": "memory.loads",
    "stores": "memory.stores",
    "l1_load_hits": "memory.l1.load_hits",
    "l1_load_misses": "memory.l1.load_misses",
    "l1_store_hits": "memory.l1.store_hits",
    "l1_store_misses": "memory.l1.store_misses",
    "delayed_hits": "memory.delayed_hits",
    "port_requests": "memory.ports.requests",
    "port_delayed": "memory.ports.delayed",
    "port_wait_cycles": "memory.ports.wait_cycles",
    "bank_conflicts": "memory.ports.bank_conflicts",
    "mshr_primary_misses": "memory.mshr.primary_misses",
    "mshr_merged_misses": "memory.mshr.merged_misses",
    "mshr_full_stall_cycles": "memory.mshr.full_stall_cycles",
    "lb_load_lookups": "memory.line_buffer.load_lookups",
    "lb_load_hits": "memory.line_buffer.load_hits",
    "chip_bus_busy_cycles": "memory.bus.chip.busy_cycles",
    "chip_bus_queue_cycles": "memory.bus.chip.queue_cycles",
    "chip_bus_transfers": "memory.bus.chip.transfers",
    "memory_bus_busy_cycles": "memory.bus.memory.busy_cycles",
    "memory_bus_queue_cycles": "memory.bus.memory.queue_cycles",
    "memory_bus_transfers": "memory.bus.memory.transfers",
    "window_full_stalls": "cpu.pipeline.window_full_stalls",
    "lsq_full_stalls": "cpu.pipeline.lsq_full_stalls",
    "mispredict_stall_cycles": "cpu.pipeline.mispredict_stall_cycles",
    "store_forwards": "cpu.pipeline.store_forwards",
}

#: Every column of one series row, in order.
COLUMNS = _ROW_COLUMNS + tuple(_DELTA_METRICS)


def _cumulative(memory: "MemorySystem", pipeline: "PipelineStats") -> tuple:
    """Current cumulative values of every delta column.

    Read through the metrics snapshot on every call, so a column counts
    exactly what its metric exports, and a reset (which replaces the
    stats objects) is seen at once.  Components a given organization
    lacks (line buffer, chip bus in DRAM mode) contribute fixed zeros
    so the column set -- and therefore the serialized shape -- is
    identical across design points.
    """
    out = {
        f"cpu.pipeline.{name}": value for name, value in asdict(pipeline).items()
    }
    snapshot_memory_system(memory, out)
    return tuple(out.get(metric, 0) for metric in _DELTA_METRICS.values())


class CounterSampler:
    """Builds one columnar interval series for one simulation.

    The kernel loops call :meth:`begin` when measurement starts (it
    re-baselines, so warmup traffic never pollutes the first row),
    :meth:`take` at each interval boundary inside the commit loop, and
    :meth:`finish` once after the loop.  ``next_at`` is public so the
    hot-path boundary test is a single int comparison against a local.
    """

    __slots__ = (
        "memory",
        "every",
        "next_at",
        "rows",
        "_base",
        "_last_cycle",
        "_last_committed",
        "_began",
    )

    def __init__(self, memory: "MemorySystem", every: int):
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")
        self.memory = memory
        self.every = every
        #: Committed-instruction count of the next boundary; -1 until
        #: :meth:`begin` arms the sampler (no commit count matches it,
        #: so warmup commits never emit rows).
        self.next_at = -1
        self.rows: list[list[int]] = []
        self._base: tuple | None = None
        self._last_cycle = 0
        self._last_committed = 0
        self._began = False

    def begin(
        self, cycle: int, committed: int, pipeline: "PipelineStats"
    ) -> None:
        """(Re)baseline at the start of the measured region."""
        self.rows.clear()
        self.next_at = committed + self.every
        self._last_cycle = cycle
        self._last_committed = committed
        self._base = _cumulative(self.memory, pipeline)
        self.memory.mshrs.occupancy_peak = 0
        self._began = True

    def take(
        self, cycle: int, committed: int, pipeline: "PipelineStats"
    ) -> None:
        """Emit the row ending at this interval boundary."""
        self._emit(cycle, committed, pipeline, partial=0)
        self.next_at = committed + self.every

    def finish(
        self, cycle: int, committed: int, pipeline: "PipelineStats"
    ) -> None:
        """Emit the trailing partial row, if any instructions accrued."""
        if self._began and committed > self._last_committed:
            self._emit(cycle, committed, pipeline, partial=1)

    def _emit(
        self,
        cycle: int,
        committed: int,
        pipeline: "PipelineStats",
        partial: int,
    ) -> None:
        mshrs = self.memory.mshrs
        current = _cumulative(self.memory, pipeline)
        row = [
            committed - self._last_committed,
            cycle - self._last_cycle,
            partial,
            mshrs.occupancy_peak,
        ]
        base = self._base
        row.extend(now - then for now, then in zip(current, base))
        self.rows.append(row)
        self._base = current
        self._last_cycle = cycle
        self._last_committed = committed
        mshrs.occupancy_peak = 0

    def series(self) -> dict:
        """The finished columnar payload for ``SimulationResult.counters``."""
        data = [
            [row[index] for row in self.rows]
            for index in range(len(COLUMNS))
        ]
        return {
            "version": SERIES_VERSION,
            "interval": self.every,
            "columns": list(COLUMNS),
            "data": data,
        }


# ---------------------------------------------------------------------------
# Series analysis: derived rates, alignment, divergence ranking
# ---------------------------------------------------------------------------


def columns_of(series: dict) -> dict[str, list[int]]:
    """``{column: values}`` view of one serialized series."""
    return {
        name: series["data"][index]
        for index, name in enumerate(series["columns"])
    }


def row_count(series: dict) -> int:
    return len(series["data"][0]) if series["data"] else 0


def series_digest(series: dict) -> str:
    """Stable content digest of one series (ledger summaries)."""
    canonical = json.dumps(series, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def series_summary(series: dict | None) -> dict | None:
    """The bounded digest/summary that rides ``runs.jsonl``.

    The full series stays in the store payload; the ledger gets a
    fixed-size record regardless of interval count, so ledger lines
    never balloon with fine-grained sampling.
    """
    if not series:
        return None
    cols = columns_of(series)
    return {
        "interval": series["interval"],
        "rows": row_count(series),
        "partial_rows": sum(cols["partial"]),
        "digest": series_digest(series)[:16],
    }


def _rate(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def derived_rates(series: dict) -> dict[str, list[float]]:
    """Per-interval derived rates, as parallel float lists.

    ``ipc`` is the headline; the rest are the pressure signals the
    paper's figures turn on: grant/conflict rates per port request,
    line-buffer locality, bus occupancy, and the stall-cycle mix
    normalized to interval cycles.
    """
    cols = columns_of(series)
    out: dict[str, list[float]] = {
        "ipc": [],
        "port_grant_rate": [],
        "bank_conflict_rate": [],
        "line_buffer_hit_rate": [],
        "chip_bus_occupancy": [],
        "memory_bus_occupancy": [],
        "mshr_stall_share": [],
        "window_stall_share": [],
        "lsq_stall_share": [],
        "mispredict_stall_share": [],
    }
    for index in range(row_count(series)):
        cycles = cols["cycles"][index]
        requests = cols["port_requests"][index]
        out["ipc"].append(_rate(cols["instructions"][index], cycles))
        out["port_grant_rate"].append(
            _rate(requests - cols["port_delayed"][index], requests)
        )
        out["bank_conflict_rate"].append(
            _rate(cols["bank_conflicts"][index], requests)
        )
        out["line_buffer_hit_rate"].append(
            _rate(cols["lb_load_hits"][index], cols["lb_load_lookups"][index])
        )
        out["chip_bus_occupancy"].append(
            _rate(cols["chip_bus_busy_cycles"][index], cycles)
        )
        out["memory_bus_occupancy"].append(
            _rate(cols["memory_bus_busy_cycles"][index], cycles)
        )
        out["mshr_stall_share"].append(
            _rate(cols["mshr_full_stall_cycles"][index], cycles)
        )
        out["window_stall_share"].append(
            _rate(cols["window_full_stalls"][index], cycles)
        )
        out["lsq_stall_share"].append(
            _rate(cols["lsq_full_stalls"][index], cycles)
        )
        out["mispredict_stall_share"].append(
            _rate(cols["mispredict_stall_cycles"][index], cycles)
        )
    return out

#: Pressure signals a divergent interval can be blamed on, with the
#: prose used in verdict sentences.  Ordered: earlier entries win ties.
PRESSURE_LABELS = (
    ("bank_conflict_rate", "bank-conflict rate"),
    ("mshr_stall_share", "MSHR-full stalls"),
    ("chip_bus_occupancy", "chip-bus occupancy"),
    ("memory_bus_occupancy", "memory-bus occupancy"),
    ("lsq_stall_share", "LSQ-full stalls"),
    ("window_stall_share", "window-full stalls"),
    ("mispredict_stall_share", "mispredict stalls"),
)


def dominant_pressure(
    rates: dict[str, list[float]], index: int
) -> tuple[str, str, float]:
    """(key, label, value) of the strongest pressure in one interval."""
    best = ("", "", -1.0)
    for key, label in PRESSURE_LABELS:
        value = rates[key][index]
        if value > best[2]:
            best = (key, label, value)
    return best


def align(series_a: dict, series_b: dict) -> int:
    """Rows comparable on the instruction axis; raises on mismatch.

    Both series must share the interval (rows then cover the same
    committed-instruction windows by construction); the comparable
    prefix is the shorter row count -- a run that ended early simply
    has fewer intervals.
    """
    if series_a["interval"] != series_b["interval"]:
        raise ValueError(
            f"cannot align series sampled at different intervals "
            f"({series_a['interval']} vs {series_b['interval']} instructions)"
        )
    return min(row_count(series_a), row_count(series_b))


def rank_divergent(series_a: dict, series_b: dict) -> list[dict]:
    """Aligned intervals ranked by absolute IPC gap, widest first.

    Each entry carries the instruction window, both sides' IPC and
    cycle spans, the signed gap (``ipc_a - ipc_b``), and the dominant
    pressure signal of whichever side was slower in that interval.
    """
    rates_a = derived_rates(series_a)
    rates_b = derived_rates(series_b)
    cols_a = columns_of(series_a)
    cols_b = columns_of(series_b)
    entries = []
    start = 0
    for index in range(align(series_a, series_b)):
        instructions = cols_a["instructions"][index]
        ipc_a = rates_a["ipc"][index]
        ipc_b = rates_b["ipc"][index]
        slower, faster = (
            (rates_a, rates_b) if ipc_a < ipc_b else (rates_b, rates_a)
        )
        # Differential blame: the pressure that most *separates* the two
        # designs in this interval.  An absolute maximum would name
        # symptoms both sides share (the window backing up), not the
        # structural cause that differs (say, bank conflicts).
        key, label, value = "", "", 0.0
        gap_best = -1.0
        for candidate, candidate_label in PRESSURE_LABELS:
            delta = slower[candidate][index] - faster[candidate][index]
            if delta > gap_best:
                gap_best = delta
                key, label, value = (
                    candidate,
                    candidate_label,
                    slower[candidate][index],
                )
        entries.append(
            {
                "index": index,
                "instructions": [start, start + instructions],
                "partial": bool(
                    cols_a["partial"][index] or cols_b["partial"][index]
                ),
                "ipc_a": ipc_a,
                "ipc_b": ipc_b,
                "gap": ipc_a - ipc_b,
                "cycles_a": cols_a["cycles"][index],
                "cycles_b": cols_b["cycles"][index],
                "pressure": key,
                "pressure_label": label,
                "pressure_value": value,
            }
        )
        start += instructions
    entries.sort(key=lambda entry: (-abs(entry["gap"]), entry["index"]))
    return entries


def verdict(
    label_a: str,
    label_b: str,
    series_a: dict,
    series_b: dict,
    figure: str = "",
    threshold: float = 0.05,
) -> str:
    """One paper-style sentence summarizing where and why A != B.

    A divergent interval is one whose absolute IPC gap exceeds
    ``threshold`` of the faster side's mean IPC; the sentence names the
    loser, the divergent-interval count, and the dominant pressure at
    its peak ("banked-2 loses to dual-ported in 3 bursty intervals
    where bank-conflict rate peaks at 43% -- cf. Fig. 5").
    """
    ranked = rank_divergent(series_a, series_b)
    if not ranked:
        return f"{label_a} and {label_b}: no comparable intervals"
    total_a = sum(entry["ipc_a"] * 1 for entry in ranked) / len(ranked)
    total_b = sum(entry["ipc_b"] * 1 for entry in ranked) / len(ranked)
    suffix = f" -- cf. {figure}" if figure else ""
    bar = threshold * max(total_a, total_b)
    divergent = [entry for entry in ranked if abs(entry["gap"]) > bar]
    if not divergent:
        return (
            f"{label_a} and {label_b} track each other: no interval "
            f"diverges by more than {threshold:.0%} of mean IPC "
            f"across {len(ranked)} interval(s){suffix}"
        )
    loser, winner = (
        (label_a, label_b) if total_a < total_b else (label_b, label_a)
    )
    # Blame the pressure that dominates the widest losing intervals.
    losing = [
        entry
        for entry in divergent
        if (entry["gap"] < 0) == (loser == label_a)
    ] or divergent
    label = losing[0]["pressure_label"]
    peak = max(entry["pressure_value"] for entry in losing)
    return (
        f"{loser} loses to {winner} in {len(losing)} of {len(ranked)} "
        f"interval(s) where {label} peaks at {peak:.0%}{suffix}"
    )


# ---------------------------------------------------------------------------
# Rendering: sparklines, tables, CSV
# ---------------------------------------------------------------------------

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Eight-level unicode sparkline, max-normalized; "" when empty."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_LEVELS[0] * len(values)
    steps = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[min(steps, int(value / top * steps + 0.5))]
        for value in values
    )


def render_sparklines(series: dict) -> str:
    """The compact per-rate sparkline block under the counters table."""
    rates = derived_rates(series)
    lines = []
    for key in (
        "ipc",
        "bank_conflict_rate",
        "line_buffer_hit_rate",
        "memory_bus_occupancy",
        "mshr_stall_share",
    ):
        values = rates[key]
        if not values:
            continue
        lines.append(
            f"{key:22s} {sparkline(values)}  "
            f"min {min(values):.3f}  max {max(values):.3f}"
        )
    return "\n".join(lines)


def render_table(series: dict) -> str:
    """Per-interval table for ``repro counters`` (human format)."""
    from repro.core.reporting import format_table

    rates = derived_rates(series)
    cols = columns_of(series)
    rows = []
    start = 0
    for index in range(row_count(series)):
        instructions = cols["instructions"][index]
        rows.append(
            [
                f"{index}{'*' if cols['partial'][index] else ''}",
                f"{start}..{start + instructions}",
                f"{cols['cycles'][index]}",
                f"{rates['ipc'][index]:.3f}",
                f"{rates['bank_conflict_rate'][index]:.1%}",
                f"{rates['line_buffer_hit_rate'][index]:.1%}",
                f"{cols['mshr_occupancy_peak'][index]}",
                f"{rates['memory_bus_occupancy'][index]:.1%}",
            ]
        )
        start += instructions
    title = (
        f"Interval counters ({series['interval']} instructions/interval; "
        "* = partial tail)"
    )
    return format_table(
        [
            "interval",
            "instructions",
            "cycles",
            "IPC",
            "bank conf",
            "LB hit",
            "MSHR peak",
            "mem bus",
        ],
        rows,
        title,
    )


def render_csv(series: dict) -> str:
    """The full series as CSV, one row per interval, all raw columns."""
    lines = [",".join(("index",) + COLUMNS)]
    for index, row in enumerate(zip(*series["data"])):
        lines.append(",".join(str(value) for value in (index, *row)))
    return "\n".join(lines)


def counter_track_events(series: dict, label: str = "counters") -> list[dict]:
    """Perfetto counter-track ("ph": "C") events for one series.

    Timestamps follow the simulation convention (1 trace us == 1
    simulated cycle, cumulative from measurement start), so counter
    tracks line up under the existing slice tracks when merged into
    the ``repro trace --format chrome`` export.
    """
    from repro.observability.chrometrace import PID

    rates = derived_rates(series)
    cols = columns_of(series)
    events = []
    ts = 0
    for index in range(row_count(series)):
        for key in (
            "ipc",
            "bank_conflict_rate",
            "line_buffer_hit_rate",
            "memory_bus_occupancy",
        ):
            events.append(
                {
                    "ph": "C",
                    "pid": PID,
                    "ts": ts,
                    "name": f"{label}: {key}",
                    "args": {"value": round(rates[key][index], 6)},
                }
            )
        events.append(
            {
                "ph": "C",
                "pid": PID,
                "ts": ts,
                "name": f"{label}: mshr_occupancy_peak",
                "args": {"value": cols["mshr_occupancy_peak"][index]},
            }
        )
        ts += cols["cycles"][index]
    return events
