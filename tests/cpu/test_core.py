"""Tests for the out-of-order core against hand-built traces."""

import itertools

import pytest

from repro.cpu import (
    MicroOp,
    Op,
    ProcessorConfig,
    alu,
    branch,
    load,
    simulate,
    store,
)
from repro.memory import MemoryConfig, MemorySystem


def run(trace, n, *, mem_overrides=None, cpu_overrides=None, warmup=0):
    memory = MemorySystem(MemoryConfig(**(mem_overrides or {})))
    config = ProcessorConfig(**(cpu_overrides or {}))
    return simulate(
        iter(trace),
        memory,
        config=config,
        max_instructions=n,
        warmup_instructions=warmup,
    )


def alu_stream():
    while True:
        yield alu()


def dependent_chain():
    while True:
        yield alu(srcs=(1,))


class TestIdealIpc:
    def test_independent_alus_reach_issue_width(self):
        result = run(alu_stream(), 4000)
        assert result.ipc == pytest.approx(4.0, rel=0.02)

    def test_serial_chain_is_ipc_one(self):
        result = run(dependent_chain(), 2000)
        assert result.ipc == pytest.approx(1.0, rel=0.02)

    def test_two_independent_chains_reach_ipc_two(self):
        def two_chains():
            while True:
                yield alu(srcs=(2,))

        result = run(two_chains(), 2000)
        assert result.ipc == pytest.approx(2.0, rel=0.02)

    def test_narrow_issue_width_caps_ipc(self):
        result = run(alu_stream(), 2000, cpu_overrides={"issue_width": 2})
        assert result.ipc == pytest.approx(2.0, rel=0.02)

    def test_long_latency_chain(self):
        """A dependent chain of FP divides commits one per 12 cycles."""

        def divs():
            while True:
                yield MicroOp(Op.FDIV, srcs=(1,))

        result = run(divs(), 500)
        assert result.ipc == pytest.approx(1 / 12, rel=0.05)


class TestMemoryInteraction:
    def test_cached_loads_are_fast(self):
        def hot_loads():
            while True:
                yield load(0)
                yield load(8)

        result = run(hot_loads(), 2000, warmup=100)
        assert result.memory.l1_miss_rate < 0.01
        assert result.ipc > 1.5

    def test_streaming_misses_are_slow(self):
        lines = itertools.count(0, 4096)

        def cold_loads():
            for addr in lines:
                yield load(addr, srcs=(1,))

        result = run(cold_loads(), 300)
        assert result.ipc < 0.1
        assert result.memory.l1_load_misses >= 299

    def test_dependent_load_adds_cache_latency(self):
        """load -> use chain: ~3 cycles per pair with a 1-cycle cache."""

        def load_use():
            while True:
                yield load(0, srcs=())
                yield alu(srcs=(1,))

        result = run(load_use(), 2000, warmup=50)
        # each pair costs ~3 cycles when fully serialized but pairs overlap
        assert 0.5 < result.ipc <= 4.0

    def test_store_drain_reaches_cache(self):
        def stores():
            while True:
                yield store(0)
                yield alu()

        result = run(stores(), 1000)
        assert result.memory.stores > 400

    def test_lsq_full_stalls_counted(self):
        def only_loads():
            for addr in itertools.count(0, 4096):
                yield load(addr)

        result = run(only_loads(), 200, cpu_overrides={"lsq_size": 2})
        assert result.pipeline.lsq_full_stalls > 0

    def test_window_full_stalls_counted(self):
        def slow_chain():
            while True:
                yield MicroOp(Op.IDIV, srcs=(1,))
                for _ in range(10):
                    yield alu()

        result = run(slow_chain(), 500)
        assert result.pipeline.window_full_stalls > 0


class TestBranches:
    def test_predictable_branches_cheap(self):
        def loop_branches():
            while True:
                for _ in range(7):
                    yield alu()
                yield branch(0x100, taken=True)

        result = run(loop_branches(), 4000)
        assert result.branches.misprediction_rate < 0.05
        assert result.ipc > 3.0

    def test_random_branches_hurt(self):
        import random

        rng = random.Random(7)

        def noisy_branches():
            while True:
                for _ in range(4):
                    yield alu()
                yield branch(0x100, taken=rng.random() < 0.5)

        predictable = run(
            (alu() for _ in itertools.count()), 3000
        )
        noisy = run(noisy_branches(), 3000)
        assert noisy.ipc < predictable.ipc
        assert noisy.pipeline.mispredict_stall_cycles > 0

    def test_perfect_predictor_removes_stalls(self):
        import random

        rng = random.Random(7)

        def noisy_branches():
            while True:
                yield alu()
                yield branch(0x100, taken=rng.random() < 0.5)

        result = run(
            noisy_branches(), 2000, cpu_overrides={"branch_predictor": "perfect"}
        )
        assert result.pipeline.mispredict_stall_cycles == 0
        assert result.branches.mispredictions == 0


class TestPortSensitivity:
    """The core must transmit port bandwidth differences (paper section 4)."""

    def trace(self):
        addr = itertools.cycle(range(0, 8 * 1024, 32))

        def gen():
            for a in addr:
                yield load(a)
                yield alu()

        return gen()

    def ipc_with_ports(self, ports):
        return run(
            self.trace(),
            4000,
            warmup=1000,
            mem_overrides={"port_policy": "ideal", "ports": ports},
        ).ipc

    def test_second_port_helps(self):
        one = self.ipc_with_ports(1)
        two = self.ipc_with_ports(2)
        assert two > one * 1.1

    def test_diminishing_returns(self):
        two = self.ipc_with_ports(2)
        four = self.ipc_with_ports(4)
        gain_2_to_4 = four / two - 1
        one = self.ipc_with_ports(1)
        gain_1_to_2 = two / one - 1
        assert gain_2_to_4 < gain_1_to_2


class TestWarmupAndDeterminism:
    def test_warmup_resets_statistics(self):
        def loads():
            while True:
                yield load(0)

        result = run(loads(), 1000, warmup=500)
        assert result.instructions == 1000
        # The single line was warmed: no cold miss in the measured region.
        assert result.memory.l1_load_misses == 0

    def test_deterministic(self):
        def mixed():
            for i in itertools.count():
                yield load((i * 64) % 4096)
                yield alu(srcs=(1,))
                if i % 5 == 0:
                    yield branch(0x40 + i % 3 * 4, taken=i % 2 == 0)

        a = run(mixed(), 3000)
        b = run(mixed(), 3000)
        assert a.ipc == b.ipc and a.cycles == b.cycles

    def test_finite_trace_drains(self):
        result = run([alu() for _ in range(100)], 5000)
        assert result.instructions == 100

    def test_rejects_bad_instruction_count(self):
        with pytest.raises(ValueError):
            run(alu_stream(), 0)

    def test_op_counts_sum_to_instructions(self):
        def mixed():
            while True:
                yield load(0)
                yield alu()
                yield store(64)

        result = run(mixed(), 3000)
        assert sum(result.op_counts.values()) == result.instructions


class TestStoreForwarding:
    def test_forwarding_counted_when_enabled(self):
        def store_load():
            while True:
                yield store(0)
                yield load(0)

        result = run(
            store_load(), 1000, cpu_overrides={"store_forwarding": True}
        )
        assert result.pipeline.store_forwards > 0

    def test_disabled_by_default(self):
        def store_load():
            while True:
                yield store(0)
                yield load(0)

        result = run(store_load(), 1000)
        assert result.pipeline.store_forwards == 0


class TestConfigValidation:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            ProcessorConfig(issue_width=0).validated()

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            ProcessorConfig(window_size=2, fetch_width=4).validated()

    def test_rejects_window_that_aliases_the_rings(self):
        # 1024 ring entries less the 256-seq dependence reach.
        assert ProcessorConfig(window_size=768).validated().window_size == 768
        with pytest.raises(ValueError, match="window_size 769 exceeds 768"):
            ProcessorConfig(window_size=769).validated()

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            ProcessorConfig(mispredict_redirect_penalty=-1).validated()
