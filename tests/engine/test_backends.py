"""Backend parity: the fast kernel must be bit-identical to reference.

Every figure grid, the headline numbers and every ablation study are
computed once per
backend (with the engine memo, the disk store, and the trace cache all
cleared in between -- a shared cache would make the comparison
vacuous) and compared for **exact** equality: same floats, same ints,
same structure.  This is the contract that lets backends share the
result cache and the golden snapshots.
"""

import dataclasses

import pytest

from repro import kernel
from repro.core import figures, sweeps
from repro.core.experiment import ExperimentSettings, Observe, _simulate
from repro.core import organizations
from repro.engine.executor import get_engine
from repro.kernel import tracecache
from repro.workloads.catalog import benchmark

#: Tiny budget: parity must hold at every budget, so use one that keeps
#: the double simulation of six grids affordable.
SETTINGS = ExperimentSettings(
    instructions=1_000, timing_warmup=200, functional_warmup=10_000
)

BENCHMARKS = ("gcc", "database")

#: name -> zero-argument callable producing that figure's full result
#: structure at the test budget.  Grids are trimmed but keep every
#: organization style (ports, banks, line buffer, duplicate, DRAM).
GRIDS = {
    "figure4": lambda: figures.figure4(
        BENCHMARKS, ports=(1, 2, 4), hit_times=(1, 3), settings=SETTINGS
    ),
    "figure5": lambda: figures.figure5(
        BENCHMARKS, bank_counts=(1, 4, 128), hit_times=(1, 3), settings=SETTINGS
    ),
    "figure6": lambda: figures.figure6(
        BENCHMARKS, hit_times=(1, 2), settings=SETTINGS
    ),
    "figure7": lambda: figures.figure7(
        BENCHMARKS, dram_hit_times=(6, 8), settings=SETTINGS
    ),
    "figure8": lambda: figures.figure8(
        BENCHMARKS,
        sizes=(4096, 32768, 262144),
        hit_times=(1, 2),
        settings=SETTINGS,
    ),
    "figure9": lambda: figures.figure9(
        BENCHMARKS, cycle_times=(10.0, 30.0), settings=SETTINGS
    ),
    "headlines": lambda: figures.headline_numbers(BENCHMARKS, settings=SETTINGS),
    # The ablation studies, trimmed: each changes one knob the figure
    # grids hold fixed (MSHRs, LB size, interleave, write policy, victim
    # cache, prefetch, window, width, line size, FU mix, geometry).
    "ablation_mshr": lambda: sweeps.mshr_sweep(
        "database", mshr_counts=(1, 4), settings=SETTINGS
    ),
    "ablation_lb_size": lambda: sweeps.line_buffer_size_sweep(
        "gcc", entry_counts=(4, 32), settings=SETTINGS
    ),
    "ablation_interleave": lambda: sweeps.bank_interleave_sweep(
        "tomcatv", settings=SETTINGS
    ),
    "ablation_write_policy": lambda: sweeps.write_policy_sweep(
        "gcc", settings=SETTINGS
    ),
    "ablation_victim": lambda: sweeps.victim_vs_line_buffer(
        "gcc", settings=SETTINGS
    ),
    "ablation_prefetch": lambda: sweeps.prefetch_sweep(settings=SETTINGS),
    "ablation_window": lambda: sweeps.window_size_sweep(
        "tomcatv", window_sizes=(16, 64), settings=SETTINGS
    ),
    "ablation_width": lambda: sweeps.issue_width_sweep(
        "gcc", widths=(1, 4), settings=SETTINGS
    ),
    "ablation_line_size": lambda: sweeps.line_size_sweep(
        "tomcatv", line_sizes=(16, 64), settings=SETTINGS
    ),
    "ablation_fu": lambda: sweeps.fu_restriction_sweep(settings=SETTINGS),
    "ablation_dm_equivalence": lambda: sweeps.direct_mapped_equivalence(
        "gcc", settings=SETTINGS
    ),
}


def _fresh_run(backend: str, compute):
    """Run ``compute`` on ``backend`` with every cache layer cold."""
    get_engine().memo.clear()
    tracecache.clear()
    with kernel.use_backend(backend):
        return compute()


class TestFigureParity:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid_identical_across_backends(self, name):
        compute = GRIDS[name]
        reference = _fresh_run("reference", compute)
        fast = _fresh_run("fast", compute)
        assert reference == fast


class TestPointParity:
    @pytest.mark.parametrize(
        "org",
        [
            organizations.ideal_ports(ports=2),
            organizations.banked(banks=8),
            organizations.duplicate(16384, 1, True),
            organizations.dram_cache(line_buffer=True),
        ],
        ids=("ports", "banked", "duplicate+lb", "dram+lb"),
    )
    def test_full_result_identical(self, org):
        spec = benchmark("su2cor")
        results = {}
        for name in kernel.BACKEND_NAMES:
            tracecache.clear()
            with kernel.use_backend(name):
                result = _simulate(org, spec, SETTINGS)
            assert result.backend == name
            payload = dataclasses.asdict(result)
            payload.pop("backend")  # provenance, deliberately differs
            results[name] = payload
        assert results["reference"] == results["fast"]

    @pytest.mark.parametrize(
        "org",
        [
            organizations.ideal_ports(ports=2),
            organizations.banked(banks=2),
            organizations.duplicate(16384, 1, True),
            organizations.dram_cache(line_buffer=True),
        ],
        ids=("ports", "banked", "duplicate+lb", "dram+lb"),
    )
    @pytest.mark.parametrize("every", (128, 1_000, 5_000))
    def test_counter_series_identical(self, org, every):
        """Interval counter series are bit-identical across backends.

        Intervals chosen to exercise a non-multiple tail (128), the
        exact-window case (1_000), and one longer than the whole
        measured region (5_000, a single partial row).
        """
        from repro.observability import counters

        spec = benchmark("su2cor")
        sampled = dataclasses.replace(
            SETTINGS, observe=Observe(counter_interval=every)
        )
        series = {}
        for name in kernel.BACKEND_NAMES:
            tracecache.clear()
            with kernel.use_backend(name):
                result = _simulate(org, spec, sampled)
            assert result.counters is not None
            assert result.counters["interval"] == every
            series[name] = result.counters
        assert series["reference"] == series["fast"]
        # The sampled intervals must also tile the measured window
        # exactly: deltas sum back to the whole-run aggregates.
        cols = counters.columns_of(series["reference"])
        assert sum(cols["instructions"]) == SETTINGS.instructions
        assert sum(cols["partial"]) == (
            1 if SETTINGS.instructions % every else 0
        )

    @pytest.mark.parametrize("workload", ("su2cor", "gcc", "tomcatv"))
    @pytest.mark.parametrize(
        "org",
        [
            organizations.ideal_ports(ports=2),
            organizations.banked(banks=8),
            organizations.duplicate(16384, 1, True),
            organizations.dram_cache(line_buffer=True),
        ],
        ids=("ports", "banked", "duplicate+lb", "dram+lb"),
    )
    def test_trace_events_and_attribution_identical(self, org, workload):
        """The event stream and the attribution metrics match too."""
        from repro.observability import trace

        spec = benchmark(workload)
        attributed = dataclasses.replace(
            SETTINGS, observe=Observe(attribution=True)
        )
        observed = {}
        for name in kernel.BACKEND_NAMES:
            tracecache.clear()
            with (
                kernel.use_backend(name),
                trace.tracing(capacity=500_000) as tracer,
            ):
                result = _simulate(org, spec, attributed)
            assert tracer.dropped == 0
            assert any(key.startswith("attribution.") for key in result.metrics)
            observed[name] = (tracer.events(), result.metrics)
        assert observed["reference"] == observed["fast"]

    def test_counter_series_identical_through_asdict(self):
        """The counters field rides full-result parity like any other."""
        spec = benchmark("gcc")
        org = organizations.banked(banks=4)
        sampled = dataclasses.replace(
            SETTINGS, observe=Observe(counter_interval=300)
        )
        results = {}
        for name in kernel.BACKEND_NAMES:
            tracecache.clear()
            with kernel.use_backend(name):
                result = _simulate(org, spec, sampled)
            payload = dataclasses.asdict(result)
            payload.pop("backend")
            results[name] = payload
        assert results["reference"] == results["fast"]
        assert results["reference"]["counters"] is not None

    def test_core_run_backend_argument(self):
        spec = benchmark("gcc")
        from repro.cpu.config import ProcessorConfig
        from repro.cpu.core import OutOfOrderCore
        from repro.memory.hierarchy import MemorySystem

        payloads = {}
        for name in kernel.BACKEND_NAMES:
            tracecache.clear()
            backend = kernel.get_backend(name)
            org = organizations.ideal_ports()
            memory = MemorySystem(org.memory_config(SETTINGS.backside))
            trace = backend.prepare(spec, memory, SETTINGS)
            core = OutOfOrderCore(ProcessorConfig(), memory)
            with kernel.use_backend(name):
                result = core.run(
                    trace,
                    SETTINGS.instructions,
                    warmup_instructions=SETTINGS.timing_warmup,
                )
            assert result.backend == name
            payload = dataclasses.asdict(result)
            payload.pop("backend")
            payloads[name] = payload
        assert payloads["reference"] == payloads["fast"]
