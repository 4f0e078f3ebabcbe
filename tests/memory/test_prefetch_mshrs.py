"""Next-line prefetch stays inside the paper's four MSHRs.

A prefetch is issued when its triggering demand fill arrives, but it
needs a register *now*: the lines the MSHR file is tracking when the
demand miss is processed are all still in flight.  Checking capacity
only at the future fill cycle let prefetches pile up past the four
registers, and writing the served-by map without trimming let the
merged-miss bookkeeping outgrow its bound -- the structural audit then
killed healthy runs.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro import kernel
from repro.core.experiment import ExperimentSettings, _simulate
from repro.core.organizations import KB, duplicate
from repro.kernel import tracecache
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.workloads.catalog import benchmark

#: Three budgets; at the old model every one of them failed the audit
#: on both workloads.
BUDGETS = (
    ExperimentSettings(instructions=1_000, timing_warmup=200, functional_warmup=10_000),
    ExperimentSettings(instructions=3_000, timing_warmup=300, functional_warmup=30_000),
    ExperimentSettings(instructions=4_000, timing_warmup=500, functional_warmup=50_000),
)


def test_miss_burst_never_oversubscribes_the_registers():
    memory = MemorySystem(MemoryConfig(next_line_prefetch=True))
    line_bytes = memory.line_bytes
    for i in range(12):
        # Every other line, so each miss has a fresh next line to fetch.
        memory.load(2 * i * line_bytes, 0)
        assert len(memory.mshrs.tracked_lines()) <= memory.mshrs.entries
        memory.audit(0)
    assert memory.stats.prefetches_issued > 0


def test_prefetch_bookkeeping_stays_bounded():
    memory = MemorySystem(MemoryConfig(next_line_prefetch=True))
    bound = 4 * memory.config.mshrs
    cycle = 0
    for i in range(64):
        memory.load(3 * i * memory.line_bytes, cycle)
        cycle += 100
        assert len(memory._pending_served) <= bound
    memory.audit(cycle)


@pytest.mark.parametrize(
    "settings", BUDGETS, ids=lambda s: f"{s.instructions}i"
)
@pytest.mark.parametrize("workload", ("tomcatv", "database"))
def test_prefetch_org_audits_clean_on_both_backends(workload, settings):
    org = replace(duplicate(32 * KB, line_buffer=True), next_line_prefetch=True)
    results = {}
    for name in kernel.BACKEND_NAMES:
        tracecache.clear()
        with kernel.use_backend(name):
            result = _simulate(org, benchmark(workload), settings)
        assert result.memory.prefetches_issued > 0
        payload = dataclasses.asdict(result)
        payload.pop("backend")
        results[name] = payload
    assert results["reference"] == results["fast"]
