"""Reproduction entry points for every table and figure in the paper.

Each ``figureN``/``tableN`` function returns plain data (dicts/lists of
rows or series) that :mod:`repro.core.reporting` renders as text and the
bench harness prints.  See DESIGN.md's experiment index for the mapping
and EXPERIMENTS.md for paper-vs-measured records.

Simulated figures declare their full design-point grid up front on an
:class:`~repro.engine.executor.ExecutionPlan` and execute it as one
batch, so the engine can deduplicate shared points, satisfy repeats
from its memo and the persistent result store, and fan the rest out
over worker processes when configured with ``--jobs N``.

Figures inherit per-design-point isolation from the engine when
generated inside a :func:`repro.robustness.runner.resilient_sweeps`
context (as the CLI does): a failed point renders as NaN rather than
aborting the figure.
"""

from __future__ import annotations

import itertools

from repro.core.exec_time import (
    FIGURE9_CYCLE_TIMES,
    ExecutionTimePoint,
    plan_execution_time_curves,
    resolve_execution_time_curves,
)
from repro.core.experiment import ExperimentSettings
from repro.engine.executor import ExecutionPlan
from repro.core.organizations import banked, dram_cache, duplicate, ideal_ports
from repro.memory.sram import SetAssociativeCache
from repro.timing import cacti
from repro.workloads.catalog import BENCHMARKS, REPRESENTATIVES, benchmark
from repro.workloads.generator import WorkloadGenerator

KB = 1024

#: Primary-cache sizes studied (Figures 3 and 8): 4 KB .. 1 MB.
CACHE_SIZES = tuple(2**k * KB for k in range(2, 11))


# ---------------------------------------------------------------------------
# Figure 1 -- cache access times
# ---------------------------------------------------------------------------


def figure1() -> dict[str, list[tuple[int, float]]]:
    """Access times (FO4) for single-ported and eight-way banked caches."""
    return cacti.figure1_curves()


# ---------------------------------------------------------------------------
# Figure 2 -- the processor and memory subsystem description
# ---------------------------------------------------------------------------


def figure2() -> dict[str, dict[str, str]]:
    """The simulated machine, as the paper's Figure 2 lists it.

    Assembled from the live default configurations rather than written
    out by hand, so it cannot drift from what the code simulates.
    """
    from repro.cpu.config import ProcessorConfig
    from repro.memory.backside import BacksideConfig
    from repro.timing.process import REFERENCE_CLOCK_MHZ

    cpu = ProcessorConfig()
    backside = BacksideConfig()
    return {
        "processor": {
            "issue": f"{cpu.issue_width} issue dynamic superscalar",
            "latencies": "R10000 instruction latencies",
            "window": f"{cpu.window_size} entry instruction window",
            "load/store buffer": f"{cpu.lsq_size} entries",
            "clock": f"{REFERENCE_CLOCK_MHZ:.0f} MHz",
            "branch prediction": (
                f"{cpu.branch_predictor}, {cpu.predictor_entries} entries"
            ),
        },
        "primary data cache": {
            "size": "4 KB - 1 MB (swept)",
            "hit time": "1-3 cycles, fully pipelined",
            "organization": "two-way set-associative, 32 B lines",
            "mshrs": "4 (lockup-free)",
            "instruction cache": "perfect, one cycle",
        },
        "secondary cache": {
            "size": f"{backside.l2_size // (1024 * 1024)} MB",
            "hit time": f"{backside.l2_hit_cycles} cycles (50 ns)",
            "organization": (
                f"{backside.l2_assoc}-way set-associative, "
                f"{backside.l2_line} B lines"
            ),
            "bus": "2.5 GB/s peak to the processor",
        },
        "main memory": {
            "access time": f"{backside.memory_cycles} cycles (300 ns)",
            "bus": "1.6 GB/s peak to the L2",
        },
    }


# ---------------------------------------------------------------------------
# Tables 1 and 2 -- the benchmarks
# ---------------------------------------------------------------------------


def table1() -> list[dict[str, str]]:
    """Benchmark names, groups, and descriptions."""
    return [
        {"benchmark": spec.name, "group": spec.group, "description": spec.description}
        for spec in BENCHMARKS.values()
    ]


def table2(sample_instructions: int = 40_000, seed: int = 1) -> list[dict]:
    """Execution-time percentages and measured load/store mix.

    Kernel/idle splits come from the workload model (they are inputs,
    matching the paper's Table 2); load/store percentages are *measured*
    from a generated instruction sample so the table validates that the
    generators honor their specs.
    """
    rows = []
    for spec in BENCHMARKS.values():
        counts: dict[str, int] = {}
        stream = WorkloadGenerator(spec, seed).instructions()
        for mop in itertools.islice(stream, sample_instructions):
            counts[mop.op.name] = counts.get(mop.op.name, 0) + 1
        non_idle = 1.0 - spec.idle_fraction
        rows.append(
            {
                "benchmark": spec.name,
                "kernel_pct": 100 * spec.kernel_fraction * non_idle,
                "user_pct": 100 * (1 - spec.kernel_fraction) * non_idle,
                "idle_pct": 100 * spec.idle_fraction,
                "load_pct": 100 * counts.get("LOAD", 0) / sample_instructions,
                "store_pct": 100 * counts.get("STORE", 0) / sample_instructions,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 3 -- miss rates per instruction vs cache size
# ---------------------------------------------------------------------------


def figure3(
    sizes: tuple[int, ...] = CACHE_SIZES,
    *,
    instructions: int = 250_000,
    warmup_instructions: int = 250_000,
    seed: int = 1,
    benchmarks: tuple[str, ...] | None = None,
) -> dict[str, list[tuple[int, float]]]:
    """Misses per instruction for single-ported two-way 32 B-line caches.

    Purely functional simulation (no timing), so generous instruction
    counts are affordable; the warm-up prefix lets the large floating
    point working sets reach steady state before measurement.
    """
    names = benchmarks or tuple(BENCHMARKS)
    curves: dict[str, list[tuple[int, float]]] = {}
    for name in names:
        generator = WorkloadGenerator(benchmark(name), seed)
        # Packed references: ``address << 1 | is_store``, so a 32 B
        # line is ``packed >> 6``.
        warm_refs = generator.packed_references(warmup_instructions)
        refs = generator.packed_references(instructions)
        series = []
        for size in sizes:
            cache = SetAssociativeCache(size, 2, 32)
            for packed in warm_refs:
                if not cache.lookup(packed >> 6, write=packed & 1):
                    cache.fill(packed >> 6, dirty=packed & 1)
            misses = 0
            for packed in refs:
                if not cache.lookup(packed >> 6, write=packed & 1):
                    misses += 1
                    cache.fill(packed >> 6, dirty=packed & 1)
            series.append((size, misses / instructions))
        curves[name] = series
    return curves


# ---------------------------------------------------------------------------
# Figure 4 -- ideal multi-cycle multi-ported 32 KB caches
# ---------------------------------------------------------------------------


def figure4(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    ports: tuple[int, ...] = (1, 2, 3, 4),
    hit_times: tuple[int, ...] = (1, 2, 3),
    settings: ExperimentSettings | None = None,
) -> dict[str, dict[tuple[int, int], float]]:
    """IPC[benchmark][(ports, hit_cycles)] for ideal-ported 32 KB caches."""
    plan = ExecutionPlan()
    keys = {
        (name, n_ports, hit): plan.add(
            ideal_ports(32 * KB, ports=n_ports, hit_cycles=hit), name, settings
        )
        for name in benchmarks
        for n_ports in ports
        for hit in hit_times
    }
    plan.execute()
    results: dict[str, dict[tuple[int, int], float]] = {
        name: {} for name in benchmarks
    }
    for (name, n_ports, hit), key in keys.items():
        results[name][(n_ports, hit)] = plan.ipc(key)
    return results


# ---------------------------------------------------------------------------
# Figure 5 -- banked multi-cycle 32 KB caches
# ---------------------------------------------------------------------------


def figure5(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    bank_counts: tuple[int, ...] = (1, 2, 4, 8, 128),
    hit_times: tuple[int, ...] = (1, 2, 3),
    settings: ExperimentSettings | None = None,
) -> dict[str, dict[tuple[int, int], float]]:
    """IPC[benchmark][(banks, hit_cycles)] for banked 32 KB caches."""
    plan = ExecutionPlan()
    keys = {
        (name, banks_n, hit): plan.add(
            banked(32 * KB, banks=banks_n, hit_cycles=hit), name, settings
        )
        for name in benchmarks
        for banks_n in bank_counts
        for hit in hit_times
    }
    plan.execute()
    results: dict[str, dict[tuple[int, int], float]] = {
        name: {} for name in benchmarks
    }
    for (name, banks_n, hit), key in keys.items():
        results[name][(banks_n, hit)] = plan.ipc(key)
    return results


# ---------------------------------------------------------------------------
# Figure 6 -- line buffer with banked and duplicate caches
# ---------------------------------------------------------------------------


def figure6(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    hit_times: tuple[int, ...] = (1, 2, 3),
    settings: ExperimentSettings | None = None,
) -> dict[str, dict[tuple[str, bool, int], float]]:
    """IPC[benchmark][(organization, line_buffer, hit_cycles)].

    Organizations are the paper's two practical ones: eight-way banked
    and duplicate, each with and without a line buffer.
    """
    make = {"banked": banked, "duplicate": duplicate}
    plan = ExecutionPlan()
    keys = {
        (name, style, has_lb, hit): plan.add(
            make[style](32 * KB, hit_cycles=hit, line_buffer=has_lb),
            name,
            settings,
        )
        for name in benchmarks
        for style in ("banked", "duplicate")
        for has_lb in (False, True)
        for hit in hit_times
    }
    plan.execute()
    results: dict[str, dict[tuple[str, bool, int], float]] = {
        name: {} for name in benchmarks
    }
    for (name, style, has_lb, hit), key in keys.items():
        results[name][(style, has_lb, hit)] = plan.ipc(key)
    return results


# ---------------------------------------------------------------------------
# Figure 7 -- DRAM caches
# ---------------------------------------------------------------------------


def figure7(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    dram_hit_times: tuple[int, ...] = (6, 7, 8),
    settings: ExperimentSettings | None = None,
) -> dict[str, dict[tuple[int, bool], float]]:
    """IPC[benchmark][(dram_hit_cycles, line_buffer)] for the 4 MB DRAM
    cache with its 16 KB row-buffer first level."""
    plan = ExecutionPlan()
    keys = {
        (name, hit, has_lb): plan.add(
            dram_cache(dram_hit_cycles=hit, line_buffer=has_lb), name, settings
        )
        for name in benchmarks
        for hit in dram_hit_times
        for has_lb in (True, False)
    }
    plan.execute()
    results: dict[str, dict[tuple[int, bool], float]] = {
        name: {} for name in benchmarks
    }
    for (name, hit, has_lb), key in keys.items():
        results[name][(hit, has_lb)] = plan.ipc(key)
    return results


# ---------------------------------------------------------------------------
# Figure 8 -- the full design space (with line buffers)
# ---------------------------------------------------------------------------


def figure8(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    sizes: tuple[int, ...] = CACHE_SIZES,
    hit_times: tuple[int, ...] = (1, 2, 3),
    settings: ExperimentSettings | None = None,
    include_average: bool = True,
) -> dict[str, dict[tuple[str, int], list[tuple[int, float]]]]:
    """IPC-vs-size curves for duplicate and banked caches with a line
    buffer, plus the six-cycle DRAM point.

    Returns ``{benchmark: {(style, hit): [(size, ipc), ...]}}`` where
    style is "duplicate" or "banked"; the DRAM point appears under the
    pseudo-style ``("dram", 6)`` with the DRAM cache capacity as size.
    An ``"average"`` pseudo-benchmark is added when requested.
    """
    make = {"duplicate": duplicate, "banked": banked}
    dram_org = dram_cache(dram_hit_cycles=6, line_buffer=True)
    plan = ExecutionPlan()
    sram_keys = {
        (name, style, hit, size): plan.add(
            make[style](size, hit_cycles=hit, line_buffer=True), name, settings
        )
        for name in benchmarks
        for style in ("duplicate", "banked")
        for hit in hit_times
        for size in sizes
    }
    dram_keys = {name: plan.add(dram_org, name, settings) for name in benchmarks}
    plan.execute()
    results: dict[str, dict[tuple[str, int], list[tuple[int, float]]]] = {}
    for name in benchmarks:
        curves: dict[tuple[str, int], list[tuple[int, float]]] = {}
        for style in ("duplicate", "banked"):
            for hit in hit_times:
                curves[(style, hit)] = [
                    (size, plan.ipc(sram_keys[(name, style, hit, size)]))
                    for size in sizes
                ]
        curves[("dram", 6)] = [
            (dram_org.dram.dram_size, plan.ipc(dram_keys[name]))
        ]
        results[name] = curves
    if include_average and len(results) > 1:
        results["average"] = _average_curves(results)
    return results


def _average_curves(
    per_benchmark: dict[str, dict[tuple[str, int], list[tuple[int, float]]]],
) -> dict[tuple[str, int], list[tuple[int, float]]]:
    names = [n for n in per_benchmark if n != "average"]
    averaged: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for key in per_benchmark[names[0]]:
        series_len = len(per_benchmark[names[0]][key])
        points = []
        for i in range(series_len):
            size = per_benchmark[names[0]][key][i][0]
            mean = sum(per_benchmark[n][key][i][1] for n in names) / len(names)
            points.append((size, mean))
        averaged[key] = points
    return averaged


# ---------------------------------------------------------------------------
# Figure 9 -- normalized execution time vs processor cycle time
# ---------------------------------------------------------------------------


def figure9(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    cycle_times: tuple[float, ...] = FIGURE9_CYCLE_TIMES,
    settings: ExperimentSettings | None = None,
) -> dict[str, list[ExecutionTimePoint]]:
    """Normalized execution-time curves for duplicate caches with a
    line buffer at pipeline depths 1-3."""
    plan = ExecutionPlan()
    planned = {
        name: plan_execution_time_curves(plan, name, cycle_times, settings=settings)
        for name in benchmarks
    }
    plan.execute()
    return {
        name: resolve_execution_time_curves(plan, planned[name])
        for name in benchmarks
    }


# ---------------------------------------------------------------------------
# Headline numbers from sections 4 and 5
# ---------------------------------------------------------------------------


def headline_numbers(
    benchmarks: tuple[str, ...] = REPRESENTATIVES,
    settings: ExperimentSettings | None = None,
) -> dict[str, dict]:
    """The scalar claims of the conclusion, measured on our stack.

    * port scaling: IPC gain for 1->2, 2->3, 3->4 ideal ports (32 KB);
    * pipelining loss: IPC drop per extra hit cycle (2 ideal ports);
    * line-buffer gain at one cycle for duplicate and banked caches;
    * DRAM sensitivity: average IPC drop per extra DRAM hit cycle.
    """
    fig4 = figure4(benchmarks, settings=settings)
    fig6 = figure6(benchmarks, settings=settings)
    fig7 = figure7(benchmarks, settings=settings)

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    port_gain = {}
    for upgrade in ((1, 2), (2, 3), (3, 4)):
        gains = []
        for name in benchmarks:
            before = fig4[name][(upgrade[0], 1)]
            after = fig4[name][(upgrade[1], 1)]
            gains.append(after / before - 1)
        port_gain[f"{upgrade[0]}->{upgrade[1]}"] = mean(gains)

    pipeline_loss = {}
    for name in benchmarks:
        base = fig4[name][(2, 1)]
        pipeline_loss[name] = {
            "2_cycles": 1 - fig4[name][(2, 2)] / base,
            "3_cycles": 1 - fig4[name][(2, 3)] / base,
        }

    line_buffer_gain = {}
    for style in ("duplicate", "banked"):
        line_buffer_gain[style] = mean(
            fig6[name][(style, True, 1)] / fig6[name][(style, False, 1)] - 1
            for name in benchmarks
        )

    lb_pipeline_recovery = {}
    for name in benchmarks:
        drop_without = (
            fig6[name][("duplicate", False, 1)] - fig6[name][("duplicate", False, 3)]
        )
        drop_with = (
            fig6[name][("duplicate", True, 1)] - fig6[name][("duplicate", True, 3)]
        )
        if drop_without > 0:
            lb_pipeline_recovery[name] = 1 - drop_with / drop_without

    dram_loss_per_cycle = mean(
        (fig7[name][(6, True)] - fig7[name][(8, True)]) / 2 / fig7[name][(6, True)]
        for name in benchmarks
    )

    return {
        "port_gain": port_gain,
        "pipeline_loss": pipeline_loss,
        "line_buffer_gain": line_buffer_gain,
        "lb_pipeline_recovery": lb_pipeline_recovery,
        "dram_loss_per_cycle": dram_loss_per_cycle,
    }
