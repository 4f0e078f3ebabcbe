"""Per-access critical-path latency attribution (schema v3).

The paper's Figures 4-7 argue about *where load cycles go* -- port
contention vs. bank conflicts vs. multi-cycle pipelining vs. DRAM row
misses -- but an aggregate ``load_latency_total`` cannot distinguish
them.  This module decomposes every load's observed latency into named
critical-path components at the moment the hierarchy resolves the
access, so the split is exact by construction rather than re-derived
from the event stream after the fact.

Component taxonomy (cycles on the critical path of one load):

=================  ========================================================
``port_wait``      waiting for a free cache port (ideal/duplicate ports)
``bank_conflict``  waiting for a busy bank (banked organizations)
``l1_access``      the pipelined L1 (or row-buffer cache) hit time itself
``line_buffer``    the one-cycle level-zero line-buffer hit
``mshr_wait``      a primary miss waiting for a free MSHR register
``mshr_merge``     waiting on an earlier miss's in-flight fill (delayed
                   hits and merged secondary misses)
``victim_swap``    the victim-cache swap penalty
``l2_access``      the L2 lookup time (SRAM mode)
``bus_queue``      queueing for a busy chip/memory bus
``bus_transfer``   the line moving across a bus
``dram_bank_wait`` waiting for a busy DRAM bank (DRAM-cache mode)
``dram_access``    the DRAM array access itself (row miss service)
``memory``         main-memory latency
=================  ========================================================

**Exactness invariant**: for every access the component cycles sum to
``completion_cycle - request_cycle``.  :meth:`AttributionAccumulator.
record` enforces this at record time; the property tests in
``tests/observability/test_attribution.py`` check it across SRAM
multi-port, banked, and DRAM-cache organizations.

Attribution is off by default and adds nothing to the hot path when
off (the same hoisted ``is None`` discipline as tracing).  A run asks
for it with ``Observe(attribution=True)`` in its settings (or with
``REPRO_ATTRIBUTION=1`` when they leave ``observe`` unset).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from repro.robustness.errors import SimulationInvariantError

#: Every component name ``record`` accepts, in taxonomy order.
COMPONENTS = (
    "port_wait",
    "bank_conflict",
    "l1_access",
    "line_buffer",
    "mshr_wait",
    "mshr_merge",
    "victim_swap",
    "l2_access",
    "bus_queue",
    "bus_transfer",
    "dram_bank_wait",
    "dram_access",
    "memory",
)

#: Components that are intrinsic service time rather than stalls --
#: ``repro diagnose`` excludes them when ranking stall sources.
BASE_COMPONENTS = frozenset({"l1_access", "line_buffer"})

#: Fixed latency-histogram bucket upper bounds (cycles, inclusive).
#: Quasi-logarithmic so one-cycle hits and 500-cycle DRAM misses both
#: land in meaningful buckets; identical across design points so
#: histograms are comparable between results.
BUCKET_BOUNDS = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64,
    96, 128, 192, 256, 384, 512, 768, 1024,
)


def critical_path(**parts: int) -> tuple[tuple[str, int], ...]:
    """Build a ``((component, cycles), ...)`` path, dropping zero terms.

    Keyword order is path order; used by the backside models to report
    how a fill's latency decomposes.
    """
    return tuple((name, cycles) for name, cycles in parts.items() if cycles)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles."""

    __slots__ = ("counts", "overflow", "total", "sum", "max_seen")

    def __init__(self) -> None:
        self.counts = [0] * len(BUCKET_BOUNDS)
        self.overflow = 0  #: samples above the last bucket bound
        self.total = 0
        self.sum = 0
        self.max_seen = 0

    def record(self, value: int) -> None:
        self.total += 1
        self.sum += value
        if value > self.max_seen:
            self.max_seen = value
        index = bisect_left(BUCKET_BOUNDS, value)
        if index < _BUCKET_COUNT:
            self.counts[index] += 1
        else:
            self.overflow += 1

    def percentile(self, fraction: float) -> float:
        """Latency at ``fraction`` of the distribution (0 < fraction <= 1).

        Linearly interpolated inside the containing bucket; samples in
        the overflow bucket report the maximum observed value, which is
        tracked exactly.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if self.total == 0:
            return 0.0
        target = fraction * self.total
        cumulative = 0
        lower = 0
        for bound, count in zip(BUCKET_BOUNDS, self.counts):
            if count and cumulative + count >= target:
                within = (target - cumulative) / count
                return lower + within * (bound - lower)
            cumulative += count
            lower = bound
        return float(self.max_seen)


class AttributionAccumulator:
    """Aggregates per-access critical paths for one simulation.

    The memory hierarchy calls :meth:`record` once per load with the
    access outcome, the observed latency, and the component path; the
    accumulator keeps per-component and per-outcome totals plus the
    latency histogram, and exports everything as flat dotted metrics
    for ``SimulationResult.metrics``.
    """

    __slots__ = (
        "loads",
        "component_cycles",
        "component_loads",
        "outcome_loads",
        "outcome_cycles",
        "histogram",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero everything (the core calls this when measurement starts,
        so warmup accesses never pollute the measured attribution)."""
        self.loads = 0
        self.component_cycles: dict[str, int] = {}
        self.component_loads: dict[str, int] = {}
        self.outcome_loads: dict[str, int] = {}
        self.outcome_cycles: dict[str, int] = {}
        self.histogram = LatencyHistogram()

    def record(
        self,
        outcome: str,
        latency: int,
        path: Iterable[tuple[str, int]],
    ) -> None:
        """Account one access; enforces the exact-sum invariant."""
        self.loads += 1
        total = 0
        cycles_by = self.component_cycles
        loads_by = self.component_loads
        for component, cycles in path:
            if component not in _KNOWN:
                raise SimulationInvariantError(
                    f"unknown attribution component {component!r}"
                )
            if cycles < 0:
                raise SimulationInvariantError(
                    f"negative {component} attribution ({cycles} cycles) "
                    f"on a {outcome} access"
                )
            total += cycles
            cycles_by[component] = cycles_by.get(component, 0) + cycles
            loads_by[component] = loads_by.get(component, 0) + 1
        if total != latency:
            raise SimulationInvariantError(
                f"attribution components sum to {total} cycles but the "
                f"{outcome} access took {latency}: "
                + ", ".join(f"{name}={cycles}" for name, cycles in path)
            )
        self.outcome_loads[outcome] = self.outcome_loads.get(outcome, 0) + 1
        self.outcome_cycles[outcome] = self.outcome_cycles.get(outcome, 0) + latency
        self.histogram.record(latency)

    def to_metrics(self, prefix: str = "attribution") -> dict[str, int | float]:
        """Flat dotted export merged into the simulation snapshot."""
        histogram = self.histogram
        out: dict[str, int | float] = {
            f"{prefix}.loads": self.loads,
            f"{prefix}.latency.cycles": histogram.sum,
        }
        if self.loads:
            out[f"{prefix}.latency.max"] = histogram.max_seen
            for label, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                out[f"{prefix}.latency.{label}"] = histogram.percentile(fraction)
            for bound, count in zip(BUCKET_BOUNDS, histogram.counts):
                if count:
                    out[f"{prefix}.latency.le_{bound:04d}"] = count
            if histogram.overflow:
                out[f"{prefix}.latency.le_inf"] = histogram.overflow
        for component in sorted(self.component_cycles):
            out[f"{prefix}.component.{component}.cycles"] = (
                self.component_cycles[component]
            )
            out[f"{prefix}.component.{component}.loads"] = (
                self.component_loads[component]
            )
        for outcome in sorted(self.outcome_loads):
            out[f"{prefix}.outcome.{outcome}.loads"] = self.outcome_loads[outcome]
            out[f"{prefix}.outcome.{outcome}.cycles"] = self.outcome_cycles[outcome]
        return out


_KNOWN = frozenset(COMPONENTS)
_BUCKET_COUNT = len(BUCKET_BOUNDS)
