"""The backend seam itself: selection, trace cache, packed streams."""

import itertools
import os
import warnings

import pytest

from repro import kernel
from repro.core.experiment import (
    MIN_INSTRUCTIONS,
    ExperimentSettings,
    instructions_override,
)
from repro.kernel import tracecache
from repro.workloads.catalog import BENCHMARKS, benchmark
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts with no REPRO_BACKEND."""
    monkeypatch.delenv(kernel.BACKEND_ENV, raising=False)


class TestSelection:
    def test_default_is_fast(self):
        assert kernel.selected_name() == "fast"
        assert kernel.active_backend().name == "fast"

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "fast")
        assert kernel.selected_name() == "fast"
        assert kernel.active_backend().name == "fast"

    def test_blank_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "   ")
        assert kernel.selected_name() == "fast"

    def test_use_backend_scopes_and_exports_env(self):
        with kernel.use_backend("fast") as backend:
            assert backend.name == "fast"
            assert kernel.selected_name() == "fast"
            # Pool workers inherit the choice through the environment.
            assert os.environ[kernel.BACKEND_ENV] == "fast"
        assert kernel.selected_name() == "fast"
        assert kernel.BACKEND_ENV not in os.environ

    def test_use_backend_restores_previous_env(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV, "reference")
        with kernel.use_backend("fast"):
            assert os.environ[kernel.BACKEND_ENV] == "fast"
        assert os.environ[kernel.BACKEND_ENV] == "reference"

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            kernel.get_backend("turbo")
        with pytest.raises(ValueError, match="unknown simulation backend"):
            with kernel.use_backend("turbo"):
                pass

    def test_backends_are_singletons(self):
        for name in kernel.BACKEND_NAMES:
            assert kernel.get_backend(name) is kernel.get_backend(name)

    def test_names_normalized(self):
        assert kernel.get_backend(" Fast ") is kernel.get_backend("fast")


class TestTraceCache:
    def setup_method(self):
        tracecache.clear()

    def teardown_method(self):
        tracecache.clear()

    def test_same_identity_shares_artifacts(self):
        spec = benchmark("gcc")
        first = tracecache.artifacts_for(spec, 1, 500)
        assert tracecache.artifacts_for(spec, 1, 500) is first

    def test_distinct_identities_do_not_share(self):
        spec = benchmark("gcc")
        base = tracecache.artifacts_for(spec, 1, 500)
        assert tracecache.artifacts_for(spec, 2, 500) is not base
        assert tracecache.artifacts_for(spec, 1, 600) is not base
        assert tracecache.artifacts_for(benchmark("li"), 1, 500) is not base

    def test_lru_evicts_oldest(self):
        spec = benchmark("gcc")
        first = tracecache.artifacts_for(spec, 0, 100)
        for seed in range(1, tracecache.CACHE_ENTRIES + 1):
            tracecache.artifacts_for(spec, seed, 100)
        assert tracecache.artifacts_for(spec, 0, 100) is not first

    def test_recent_use_survives_eviction(self):
        spec = benchmark("gcc")
        first = tracecache.artifacts_for(spec, 0, 100)
        for seed in range(1, tracecache.CACHE_ENTRIES):
            tracecache.artifacts_for(spec, seed, 100)
        tracecache.artifacts_for(spec, 0, 100)  # refresh
        tracecache.artifacts_for(spec, tracecache.CACHE_ENTRIES, 100)
        assert tracecache.artifacts_for(spec, 0, 100) is first

    def test_timing_stream_replays_identical_tape(self):
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 200)
        first = [next(artifacts.timing_stream()) for _ in range(1)]
        a = artifacts.timing_stream()
        b = artifacts.timing_stream()
        taken_a = [next(a) for _ in range(50)]
        taken_b = [next(b) for _ in range(50)]
        # Replays hand out the very same MicroOp objects, in order.
        assert all(x is y for x, y in zip(taken_a, taken_b))
        assert taken_a[0] is first[0]

    def test_warm_references_must_precede_timing(self):
        # With a positive warm-up budget the tape generates the warm
        # prefix itself; with none, a late warm request would replay the
        # generator out of RNG order -- the guard refuses.
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 0)
        next(artifacts.timing_stream())  # starts the timing generator
        with pytest.raises(RuntimeError, match="warm-up stream"):
            artifacts.warm_references()

    def test_timing_tape_generates_warm_prefix_first(self):
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 200)
        next(artifacts.timing_stream())
        # The warm stream was materialized as a side effect, so the
        # timing tape started from the post-warm-up RNG state.
        assert artifacts.warm_references() is not None

    def test_warm_references_cached_before_timing(self):
        artifacts = tracecache.artifacts_for(benchmark("gcc"), 1, 200)
        warm = artifacts.warm_references()
        next(artifacts.timing_stream())
        assert artifacts.warm_references() is warm


class TestPackedReferences:
    def test_packed_matches_memory_references(self):
        # The draw-only stream must make the micro-op stream's draws:
        # same references, and the same generator state afterwards.
        # 60k instructions span several kernel bursts and, on the
        # multiprogrammed benchmarks, many context switches.
        for name in sorted(BENCHMARKS):
            for seed in (1, 7):
                drawn = WorkloadGenerator(BENCHMARKS[name], seed)
                built = WorkloadGenerator(BENCHMARKS[name], seed)
                packed = drawn.packed_references(60_000)
                refs = built.memory_references(60_000)
                assert list(packed) == [
                    (address << 1) | is_store for is_store, address in refs
                ], f"{name} seed {seed}: references differ"
                for mop, expected in zip(
                    itertools.islice(drawn.instructions(), 3_000),
                    itertools.islice(built.instructions(), 3_000),
                ):
                    assert (mop.op, mop.srcs, mop.address, mop.pc, mop.taken) == (
                        expected.op,
                        expected.srcs,
                        expected.address,
                        expected.pc,
                        expected.taken,
                    ), f"{name} seed {seed}: timing micro-ops differ"

    def test_footprint_lines_cached_and_exact(self):
        spec = benchmark("tomcatv")
        artifacts = tracecache.artifacts_for(spec, 1, 100)
        lines = artifacts.footprint_lines(32)
        assert lines == WorkloadGenerator(spec, 1).footprint_lines(32)
        assert artifacts.footprint_lines(32) is lines


class TestInstructionsOverride:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
        assert instructions_override() is None

    def test_override_pins_measured_window(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "5000")
        settings = ExperimentSettings(instructions=12_000).scaled()
        assert settings.instructions == 5000

    def test_override_leaves_warmups_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "5000")
        base = ExperimentSettings(instructions=12_000)
        settings = base.scaled()
        assert settings.timing_warmup == base.timing_warmup
        assert settings.functional_warmup == base.functional_warmup

    def test_small_value_clamps_to_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "10")
        with pytest.warns(RuntimeWarning, match="floor"):
            assert instructions_override() == MIN_INSTRUCTIONS

    def test_garbage_ignored_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "lots")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert instructions_override() is None

    def test_nonpositive_ignored_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "-4")
        with pytest.warns(RuntimeWarning, match="positive"):
            assert instructions_override() is None

    def test_matching_override_is_noop(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "12000")
        base = ExperimentSettings(instructions=12_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert base.scaled().instructions == 12_000
