"""Tests for workload generation and the benchmark catalog."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu.isa import Op
from repro.memory import SetAssociativeCache
from repro.workloads import (
    BENCHMARKS,
    GROUPS,
    REPRESENTATIVES,
    WorkloadGenerator,
    benchmark,
    by_group,
    trace,
)


def mix(spec, n=30_000, seed=2):
    counts: dict[Op, int] = {}
    for mop in itertools.islice(trace(spec, seed), n):
        counts[mop.op] = counts.get(mop.op, 0) + 1
    return {op: c / n for op, c in counts.items()}


class TestCatalog:
    def test_nine_benchmarks(self):
        assert len(BENCHMARKS) == 9

    def test_three_per_group(self):
        for group in GROUPS:
            assert len(by_group(group)) == 3

    def test_representatives(self):
        """gcc, tomcatv, database represent their groups (section 4)."""
        assert REPRESENTATIVES == ("gcc", "tomcatv", "database")
        groups = {benchmark(name).group for name in REPRESENTATIVES}
        assert groups == set(GROUPS)

    def test_lookup_case_insensitive(self):
        assert benchmark("GCC").name == "gcc"
        assert benchmark("vcs").name == "VCS"

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            benchmark("doom")
        with pytest.raises(KeyError):
            by_group("games")

    def test_descriptions_match_table1(self):
        assert "SPARC" in benchmark("gcc").description
        assert "LISP" in benchmark("li").description
        assert "Mesh" in benchmark("tomcatv").description
        assert "TPC-B" in benchmark("database").description
        assert "17 files" in benchmark("pmake").description

    def test_database_idle_fraction_matches_table2(self):
        assert benchmark("database").idle_fraction == pytest.approx(0.646)
        assert benchmark("pmake").idle_fraction == pytest.approx(0.051)


class TestInstructionMix:
    """Generated mixes must match Table 2's load/store percentages."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_load_store_fractions(self, name):
        spec = benchmark(name)
        fractions = mix(spec)
        assert fractions[Op.LOAD] == pytest.approx(spec.load_fraction, abs=0.02)
        assert fractions[Op.STORE] == pytest.approx(spec.store_fraction, abs=0.02)

    def test_fp_benchmarks_contain_fp_ops(self):
        fractions = mix(benchmark("tomcatv"))
        fp = sum(fractions.get(op, 0) for op in (Op.FADD, Op.FMUL, Op.FDIV))
        assert fp > 0.2

    def test_integer_benchmarks_have_no_fp(self):
        fractions = mix(benchmark("gcc"))
        fp = sum(fractions.get(op, 0) for op in (Op.FADD, Op.FMUL, Op.FDIV))
        assert fp == 0

    def test_fp_branch_frequency_lower(self):
        assert mix(benchmark("tomcatv")).get(Op.BRANCH, 0) < mix(
            benchmark("gcc")
        ).get(Op.BRANCH, 0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = list(itertools.islice(trace(benchmark("gcc"), 3), 500))
        b = list(itertools.islice(trace(benchmark("gcc"), 3), 500))
        assert [(m.op, m.srcs, m.address) for m in a] == [
            (m.op, m.srcs, m.address) for m in b
        ]

    def test_different_seeds_differ(self):
        a = list(itertools.islice(trace(benchmark("gcc"), 1), 500))
        b = list(itertools.islice(trace(benchmark("gcc"), 2), 500))
        assert [(m.op, m.address) for m in a] != [(m.op, m.address) for m in b]

    def test_memory_references_match_instruction_stream(self):
        gen_a = WorkloadGenerator(benchmark("li"), seed=4)
        refs = gen_a.memory_references(2000)
        gen_b = WorkloadGenerator(benchmark("li"), seed=4)
        expected = [
            (m.op is Op.STORE, m.address)
            for m in itertools.islice(gen_b.instructions(), 2000)
            if m.is_memory
        ]
        assert refs == expected


class TestAddressSpaces:
    def test_multiprogram_uses_multiple_spaces(self):
        spec = benchmark("database")
        spaces = set()
        for mop in itertools.islice(trace(spec, 1), 40_000):
            if mop.is_memory:
                spaces.add(mop.address >> 26)
        assert len(spaces) >= spec.processes

    def test_kernel_space_visited(self):
        spec = benchmark("gcc")  # 10 % kernel time
        spaces = set()
        for mop in itertools.islice(trace(spec, 1), 30_000):
            if mop.is_memory:
                spaces.add(mop.address >> 26)
        assert 31 in spaces  # the kernel space index

    def test_single_process_int_benchmark_one_user_space(self):
        spec = benchmark("li")
        spaces = set()
        for mop in itertools.islice(trace(spec, 1), 20_000):
            if mop.is_memory:
                spaces.add(mop.address >> 26)
        assert spaces <= {0, 31}


class TestMissRateShape:
    """Cheap qualitative checks of Figure 3 behavior (full curves in
    benchmarks/test_fig3_miss_rates.py)."""

    @staticmethod
    def miss_rate(name, size_kb, n=60_000, warm=60_000):
        gen = WorkloadGenerator(benchmark(name), seed=1)
        warm_refs = gen.memory_references(warm)
        refs = gen.memory_references(n)
        cache = SetAssociativeCache(size_kb * 1024, 2, 32)
        for is_store, addr in warm_refs:
            if not cache.lookup(addr >> 5, write=is_store):
                cache.fill(addr >> 5, dirty=is_store)
        misses = 0
        for is_store, addr in refs:
            if not cache.lookup(addr >> 5, write=is_store):
                misses += 1
                cache.fill(addr >> 5, dirty=is_store)
        return misses / n

    def test_miss_rate_decreases_with_size(self):
        for name in ("gcc", "database"):
            small = self.miss_rate(name, 4)
            large = self.miss_rate(name, 256)
            assert large < small

    def test_integer_below_multiprogramming(self):
        """Figure 3: integer SPEC95 lowest, multiprogramming much larger."""
        assert self.miss_rate("li", 16) < self.miss_rate("database", 16)
        assert self.miss_rate("gcc", 16) < self.miss_rate("VCS", 16)

    def test_tomcatv_radical_drop(self):
        """FP working set fits at 256 KB: miss rate collapses.

        Needs a long warm-up: one full sweep of tomcatv's ~210 KB of
        arrays spans roughly 300k instructions.
        """
        before = self.miss_rate("tomcatv", 128, n=80_000, warm=400_000)
        after = self.miss_rate("tomcatv", 512, n=80_000, warm=400_000)
        assert after < before / 5

    def test_database_retains_misses_at_1mb(self):
        assert self.miss_rate("database", 1024, n=40_000, warm=40_000) > 0.005


class TestStandardLibraryOnly:
    def test_cli_import_leaves_numpy_out(self):
        """numpy is not a dependency: importing the CLI must not pull it
        in, even on an interpreter that has it installed."""
        src = Path(__file__).resolve().parents[2] / "src"
        snippet = "import sys, repro.cli; print('numpy' in sys.modules)"
        output = subprocess.run(
            [sys.executable, "-c", snippet],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == "False"
