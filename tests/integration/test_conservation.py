"""Conservation invariants checked from the event stream itself.

Every load the core issues must be accounted for exactly once: it is
either forwarded from an in-flight store, satisfied by the line buffer,
an L1 hit (possibly delayed behind an outstanding fill), swapped back
from the victim cache, merged into a pending MSHR, or allocated a fresh
MSHR.  The trace facility sees each of these as a distinct event, so
the identity is testable end-to-end against a real simulation -- a
mis-counted path would break the partition.

Traffic is conserved between levels the same way: every bus transfer
is a line some cache level asked for or wrote back, and the bus and
cache counters must cover the same measured region for the sums to
close.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro import kernel
from repro.core.experiment import ExperimentSettings, run_experiment
from repro.core.organizations import banked, dram_cache, duplicate, ideal_ports
from repro.engine.executor import get_engine
from repro.observability import events, tracing

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)

ORGANIZATIONS = [
    pytest.param(duplicate(line_buffer=True), id="duplicate+LB"),
    pytest.param(banked(banks=4), id="banked4"),
    pytest.param(ideal_ports(ports=2, hit_cycles=2), id="ideal-2c"),
]


BUS_BENCHMARKS = ("gcc", "tomcatv", "database")

#: Each bus counter prefix and the bus names whose events it counts.
BUS_EVENT_NAMES = {
    "memory.bus.chip": ("chip<->L2",),
    "memory.bus.memory": ("L2<->memory", "DRAM<->memory"),
}

TRACED_BUS_CASES = [
    *(
        pytest.param(org.values[0], workload, id=f"{org.id}-{workload}")
        for org in ORGANIZATIONS
        for workload in ("gcc", "database")
    ),
    pytest.param(dram_cache(line_buffer=True), "database", id="dram+LB-database"),
]


def _traced_run(organization, benchmark="gcc"):
    get_engine().memo.clear()
    with tracing() as tracer:
        result = run_experiment(organization, benchmark, FAST)
    assert tracer.dropped == 0, "ring too small for this test"
    return tracer, result


class TestLoadConservation:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_issued_loads_partition_exactly(self, organization):
        tracer, _ = _traced_run(organization)
        issued_loads = [
            e for e in tracer.events(events.CPU_ISSUE) if e.fields["op"] == "LOAD"
        ]
        forwarded = sum(1 for e in issued_loads if e.fields.get("fwd"))
        mem_loads = tracer.count(events.MEM_LOAD)
        # every issued load either forwarded from a store or reached memory
        assert len(issued_loads) == forwarded + mem_loads

        outcomes = Counter(
            e.fields["outcome"] for e in tracer.events(events.MEM_LOAD)
        )
        # the outcome partition covers every memory load exactly once
        assert sum(outcomes.values()) == mem_loads
        known = {
            "lb_hit",
            "l1_hit",
            "delayed_hit",
            "victim_hit",
            "miss_merged",
            "miss_alloc",
        }
        assert set(outcomes) <= known

    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_line_buffer_hits_match(self, organization):
        tracer, _ = _traced_run(organization)
        lb_hits = sum(
            1
            for e in tracer.events(events.MEM_LOAD)
            if e.fields["outcome"] == "lb_hit"
        )
        assert tracer.count(events.MEM_LB_HIT) == lb_hits

    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_mshr_events_match_access_outcomes(self, organization):
        tracer, _ = _traced_run(organization)
        accesses = tracer.events(events.MEM_LOAD) + tracer.events(events.MEM_STORE)
        outcomes = Counter(e.fields["outcome"] for e in accesses)
        assert tracer.count(events.MEM_MSHR_ALLOC) == outcomes["miss_alloc"]
        assert tracer.count(events.MEM_MSHR_MERGE) == outcomes["miss_merged"]
        # no prefetching in these organizations: every fill had an alloc
        assert tracer.count(events.MEM_MSHR_FILL) == outcomes["miss_alloc"]


class TestBusConservation:
    """Timing warm-up moves lines over both buses; the counters must
    forget it at the same edge as the L2 counters they are checked
    against."""

    @pytest.mark.parametrize("workload", BUS_BENCHMARKS)
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    def test_bus_transfers_match_l2_traffic(self, organization, workload):
        metrics = run_experiment(organization, workload, FAST).metrics
        # Chip bus: each L1 line the L2 is asked for, and each dirty L1
        # victim written back to it (write-back, no prefetch here).
        chip = metrics["memory.bus.chip.transfers"]
        assert chip == (
            metrics["memory.l2.line_requests"] + metrics["memory.l2.writebacks_in"]
        )
        assert metrics["memory.bus.chip.bytes_moved"] == chip * organization.line_bytes
        # Memory bus: each L2 miss's fill, and each dirty L2 victim.
        memory = metrics["memory.bus.memory.transfers"]
        assert memory == metrics["memory.l2.misses"] + metrics["memory.l2.writebacks_out"]
        assert (
            metrics["memory.bus.memory.bytes_moved"]
            == memory * FAST.backside.l2_line
        )

    def test_dram_memory_bus_moves_whole_rows(self):
        """In DRAM-cache mode a memory-bus transfer is a DRAM miss's row
        fill or a dirty DRAM row written back."""
        organization = dram_cache(line_buffer=True)
        metrics = run_experiment(organization, "database", FAST).metrics
        transfers = metrics["memory.bus.memory.transfers"]
        assert (
            metrics["memory.bus.memory.bytes_moved"]
            == transfers * organization.dram.row_bytes
        )
        assert metrics["memory.dram.misses"] > 0
        assert transfers == (
            metrics["memory.dram.misses"] + metrics["memory.dram.writebacks_out"]
        )

    @pytest.mark.parametrize("backend", kernel.BACKEND_NAMES)
    @pytest.mark.parametrize("organization, workload", TRACED_BUS_CASES)
    def test_traced_transfers_equal_bus_counters(self, organization, workload, backend):
        """Every transfer a bus counts is one ``mem.bus.transfer`` event.

        With no timing warm-up the counters and the trace cover the same
        cycles, so the write-backs must be in the stream too.
        """
        get_engine().memo.clear()
        with kernel.use_backend(backend), tracing() as tracer:
            result = run_experiment(
                organization, workload, replace(FAST, timing_warmup=0)
            )
        assert tracer.dropped == 0, "ring too small for this test"
        transfers = tracer.events(events.MEM_BUS_TRANSFER)
        traced = Counter(e.fields["bus"] for e in transfers)
        for prefix, names in BUS_EVENT_NAMES.items():
            counted = result.metrics.get(f"{prefix}.transfers", 0)
            assert sum(traced[name] for name in names) == counted, prefix
        assert sum(traced.values()) > 0


class TestPipelineConservation:
    def test_fetched_equals_committed_plus_in_flight(self):
        tracer, _ = _traced_run(duplicate(line_buffer=True))
        fetched = tracer.count(events.CPU_FETCH)
        committed = tracer.count(events.CPU_COMMIT)
        issued = tracer.count(events.CPU_ISSUE)
        # the run stops at the commit target: fetched >= issued >= committed
        assert fetched >= issued >= committed > 0

    def test_commits_are_totally_ordered(self):
        tracer, _ = _traced_run(duplicate(line_buffer=True))
        seqs = [e.fields["seq"] for e in tracer.events(events.CPU_COMMIT)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_every_commit_was_issued_and_fetched(self):
        tracer, _ = _traced_run(banked(banks=4))
        fetched = {e.fields["seq"] for e in tracer.events(events.CPU_FETCH)}
        issued = {e.fields["seq"] for e in tracer.events(events.CPU_ISSUE)}
        committed = {e.fields["seq"] for e in tracer.events(events.CPU_COMMIT)}
        assert committed <= issued <= fetched


class TestMetricsAgreeWithEvents:
    def test_measured_region_counts_are_a_subset_of_the_stream(self):
        """Metrics cover the measured region; the trace covers warmup too,
        so every metric count is bounded by its event count."""
        tracer, result = _traced_run(duplicate(line_buffer=True))
        metrics = result.metrics
        assert metrics["memory.loads"] <= tracer.count(events.MEM_LOAD)
        assert metrics["memory.stores"] <= tracer.count(events.MEM_STORE)
        assert metrics["cpu.instructions"] <= tracer.count(events.CPU_COMMIT)
        assert metrics["memory.mshr.primary_misses"] <= tracer.count(
            events.MEM_MSHR_ALLOC
        )
