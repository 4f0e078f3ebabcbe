"""Cost model, chunk planning, dispatch profiling, and the persistent pool."""

import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.core.experiment import ExperimentSettings
from repro.core.organizations import banked, duplicate, ideal_ports
from repro.engine.dispatch import (
    CHUNK_MAX_ENV,
    CHUNKS_PER_WORKER_ENV,
    CostModel,
    DispatchProfile,
    _budget_proxy,
    plan_chunks,
)
from repro.engine.executor import Engine, ExecutionPlan
from repro.engine.key import ExperimentKey
from repro.engine.store import ResultStore
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched state reaches workers only under fork",
)


def _key(workload="gcc", organization=None, settings=FAST):
    return ExperimentKey(organization or duplicate(), workload, settings)


def _points(*names, organization=None, settings=FAST):
    return [
        (_key(name, organization, settings), benchmark(name)) for name in names
    ]


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_empty_model_falls_back_to_budget_proxy(self):
        key = _key()
        assert CostModel().estimate(key) == _budget_proxy(key)

    def test_budget_proxy_weights_timing_over_warmup(self):
        light = _key(settings=ExperimentSettings(
            instructions=100, timing_warmup=0, functional_warmup=10_000))
        heavy = _key(settings=ExperimentSettings(
            instructions=10_000, timing_warmup=0, functional_warmup=100))
        # Same total instruction count either way; the timing phase
        # simulates the pipeline and must dominate the estimate.
        assert _budget_proxy(heavy) > _budget_proxy(light)

    def test_exact_history_wins(self):
        key = _key()
        model = CostModel.from_records([
            {"points": [{
                "digest": key.digest[:12], "workload": key.workload,
                "cycles": 9_999, "instructions": 1_500,
            }]},
        ])
        assert model.estimate(key) == 9_999.0

    def test_newest_record_wins_per_digest(self):
        key = _key()
        row = {"digest": key.digest[:12], "workload": key.workload,
               "instructions": 1_500}
        model = CostModel.from_records([
            {"points": [dict(row, cycles=1_000)]},
            {"points": [dict(row, cycles=5_000)]},
        ])
        assert model.estimate(key) == 5_000.0

    def test_workload_history_scales_the_proxy(self):
        seen = _key()
        unseen = _key(settings=ExperimentSettings(
            instructions=3_000, timing_warmup=600, functional_warmup=40_000))
        model = CostModel.from_records([
            {"points": [{
                "digest": seen.digest[:12], "workload": "gcc",
                "cycles": 3_000, "instructions": 1_500,  # CPI = 2.0
            }]},
        ])
        assert model.estimate(unseen) == 2.0 * _budget_proxy(unseen)

    def test_malformed_rows_are_skipped(self):
        key = _key()
        model = CostModel.from_records([
            {"points": [
                {"digest": key.digest[:12], "cycles": 0},       # no cycles
                {"cycles": 1_000, "instructions": 100},         # no digest
                {"digest": "other", "cycles": None},            # null cycles
            ]},
            {},                                                 # no points
        ])
        assert model.estimate(key) == _budget_proxy(key)

    def test_for_engine_without_store_is_empty(self):
        key = _key()
        model = CostModel.for_engine(Engine())
        assert model.estimate(key) == _budget_proxy(key)

    def test_for_engine_reads_ledger_history(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path / "cache"))
        plan = ExecutionPlan(engine)
        key = plan.add(duplicate(), "gcc", FAST)
        plan.execute()
        model = CostModel.for_engine(engine)
        cycles = plan.resolve(key).cycles
        assert model.estimate(key) == float(cycles)

    def test_for_engine_survives_a_broken_ledger(self):
        class BrokenStore:
            def ledger(self):
                raise OSError("ledger unreadable")

        engine = Engine()
        engine.store = BrokenStore()
        key = _key()
        assert CostModel.for_engine(engine).estimate(key) == _budget_proxy(key)


# ---------------------------------------------------------------------------
# Chunk planning
# ---------------------------------------------------------------------------


class TestPlanChunks:
    def test_empty_batch_plans_nothing(self):
        assert plan_chunks([], lambda key: 1.0, workers=2) == []

    def test_every_point_lands_in_exactly_one_chunk(self):
        points = _points("gcc", "tomcatv", "li", "database", "compress")
        chunks = plan_chunks(points, lambda key: 1.0, workers=2)
        flat = [key.digest for chunk in chunks for key, _ in chunk]
        assert sorted(flat) == sorted(key.digest for key, _ in points)
        assert len(flat) == len(set(flat))

    def test_plan_is_deterministic(self):
        points = _points("gcc", "tomcatv", "li", "database")
        first = plan_chunks(points, _est_by_workload, workers=2)
        second = plan_chunks(list(reversed(points)), _est_by_workload, workers=2)
        digests = lambda chunks: [  # noqa: E731
            [key.digest for key, _ in chunk] for chunk in chunks
        ]
        assert digests(first) == digests(second)

    def test_most_expensive_point_leads_the_plan(self):
        points = _points("gcc", "tomcatv", "li")
        chunks = plan_chunks(points, _est_by_workload, workers=2)
        lead = chunks[0][0][0]
        assert lead.workload == "tomcatv"  # highest estimate below

    def test_expensive_head_is_isolated_from_the_cheap_tail(self):
        points = _points("gcc", "tomcatv", "li", "database", "compress")

        def estimate(key):
            return 1_000_000.0 if key.workload == "tomcatv" else 1.0

        chunks = plan_chunks(points, estimate, workers=2)
        assert [key.workload for key, _ in chunks[0]] == ["tomcatv"]

    def test_chunk_max_env_caps_chunk_size(self, monkeypatch):
        monkeypatch.setenv(CHUNK_MAX_ENV, "1")
        points = _points("gcc", "tomcatv", "li")
        chunks = plan_chunks(points, lambda key: 1.0, workers=1)
        assert all(len(chunk) == 1 for chunk in chunks)

    def test_chunks_per_worker_env_raises_chunk_count(self, monkeypatch):
        points = _points("gcc", "tomcatv", "li", "database", "compress")
        coarse = plan_chunks(points, lambda key: 1.0, workers=1)
        monkeypatch.setenv(CHUNKS_PER_WORKER_ENV, str(len(points)))
        fine = plan_chunks(points, lambda key: 1.0, workers=1)
        assert len(fine) >= len(coarse)
        assert all(len(chunk) == 1 for chunk in fine)

    def test_nonsense_env_values_fall_back_to_defaults(self, monkeypatch):
        points = _points("gcc", "tomcatv", "li")
        baseline = plan_chunks(points, lambda key: 1.0, workers=2)
        for value in ("0", "-3", "banana", ""):
            monkeypatch.setenv(CHUNK_MAX_ENV, value)
            monkeypatch.setenv(CHUNKS_PER_WORKER_ENV, value)
            assert plan_chunks(points, lambda key: 1.0, workers=2) == baseline


def _est_by_workload(key):
    return {"gcc": 50.0, "tomcatv": 400.0, "li": 10.0, "database": 50.0}.get(
        key.workload, 1.0
    )


# ---------------------------------------------------------------------------
# Dispatch profile
# ---------------------------------------------------------------------------


class TestDispatchProfile:
    def test_first_chunk_is_not_a_steal(self):
        profile = DispatchProfile(points=4, workers=2)
        profile.chunk_started("w1")
        assert profile.total_steals == 0
        profile.chunk_started("w1")
        profile.chunk_started("w1")
        profile.chunk_started("w2")
        assert profile.total_steals == 2
        assert profile.worker_stats("w1").chunks == 3
        assert profile.worker_stats("w2").steals == 0

    def test_utilization_is_busy_over_wall_times_workers(self):
        profile = DispatchProfile(points=2, workers=2)
        profile.point_done("w1", 1.0)
        profile.point_done("w2", 1.0)
        profile.wall_seconds = 2.0
        assert profile.utilization() == pytest.approx(0.5)

    def test_utilization_is_clamped_and_safe_on_zero_wall(self):
        profile = DispatchProfile(points=1, workers=1)
        assert profile.utilization() == 0.0
        profile.point_done("w1", 100.0)
        profile.wall_seconds = 1.0
        assert profile.utilization() == 1.0

    def test_as_dict_round_trips_worker_stats(self):
        profile = DispatchProfile(points=3, workers=2)
        profile.chunks = 2
        profile.chunk_started("w1")
        profile.point_done("w1", 0.25)
        payload = profile.as_dict()
        assert payload["points"] == 3
        assert payload["chunks"] == 2
        assert payload["worker_stats"]["w1"] == {
            "points": 1, "chunks": 1, "busy_seconds": 0.25, "steals": 0,
        }
        for field in ("pool_reused", "wall_seconds", "utilization",
                      "fallback_points", "timeout_points", "interrupted"):
            assert field in payload


# ---------------------------------------------------------------------------
# The persistent pool
# ---------------------------------------------------------------------------


@pytest.fixture
def engine():
    eng = Engine(jobs=2)
    yield eng
    eng.shutdown_pool()


def _run_batch(eng, names, settings=FAST):
    plan = ExecutionPlan(eng)
    keys = [plan.add(duplicate(), name, settings) for name in names]
    plan.execute()
    return keys, plan


class TestChunkResult:
    """The chunk result is the authoritative record of a worker's chunk."""

    def test_carries_worker_start_busy_and_spans(self):
        from repro.engine.executor import run_chunk_payload

        keys = [_key("gcc"), _key("li")]
        before = time.time()
        outcome = run_chunk_payload(7, keys)
        assert outcome["chunk"] == 7
        assert outcome["worker"].startswith("pid:")
        assert before <= outcome["started"] <= time.time()
        assert "spans" not in outcome  # workers write no spans
        assert [e["digest"] for e in outcome["entries"]] == [
            key.digest for key in keys
        ]
        starts = [entry["t0"] for entry in outcome["entries"]]
        assert outcome["started"] <= starts[0] <= starts[1] <= time.time()
        for entry in outcome["entries"]:
            assert entry["payload"]["status"] == "ok"
            assert not entry["payload"]["result"].failed
            assert entry["busy"] >= entry["payload"]["seconds"] > 0

    def test_failures_travel_as_data(self, monkeypatch):
        from repro.core import experiment
        from repro.engine.executor import run_chunk_payload
        from repro.robustness import SimulationInvariantError

        def boom(org, spec, settings):
            raise SimulationInvariantError("injected")

        monkeypatch.setattr(experiment, "_simulate", boom)
        outcome = run_chunk_payload(0, [_key()])
        (entry,) = outcome["entries"]
        assert entry["payload"]["status"] == "error"
        assert entry["payload"]["error_type"] == "SimulationInvariantError"
        assert entry["payload"]["message"] == "injected"


class TestPersistentPool:
    def test_fingerprint_tracks_jobs_telemetry_and_env(self, monkeypatch):
        eng = Engine(jobs=2)
        base = eng._pool_fingerprint(False)
        assert eng._pool_fingerprint(True) != base
        eng.jobs = 4
        assert eng._pool_fingerprint(False) != base
        eng.jobs = 2
        assert eng._pool_fingerprint(False) == base
        monkeypatch.setenv("REPRO_CHUNK_MAX", "7")
        assert eng._pool_fingerprint(False) != base
        monkeypatch.delenv("REPRO_CHUNK_MAX")
        monkeypatch.setenv("UNRELATED_VAR", "7")
        assert eng._pool_fingerprint(False) == base

    def test_pool_survives_across_batches(self, engine):
        _run_batch(engine, ["gcc", "tomcatv"])
        assert engine.last_dispatch.pool_reused is False
        first_pool = engine._pool.pool
        settings = ExperimentSettings(
            instructions=2_000, timing_warmup=300, functional_warmup=20_000
        )
        _run_batch(engine, ["gcc", "tomcatv"], settings)
        assert engine.last_dispatch.pool_reused is True
        assert engine._pool.pool is first_pool

    def test_env_change_invalidates_the_pool(self, engine, monkeypatch):
        _run_batch(engine, ["gcc", "tomcatv"])
        monkeypatch.setenv("REPRO_CHUNKS_PER_WORKER", "2")
        settings = ExperimentSettings(
            instructions=2_000, timing_warmup=300, functional_warmup=20_000
        )
        _run_batch(engine, ["gcc", "tomcatv"], settings)
        assert engine.last_dispatch.pool_reused is False

    def test_broken_pool_is_replaced(self, engine):
        _run_batch(engine, ["gcc", "tomcatv"])
        engine._pool.broken = True
        stale = engine._pool.pool
        settings = ExperimentSettings(
            instructions=2_000, timing_warmup=300, functional_warmup=20_000
        )
        keys, plan = _run_batch(engine, ["gcc", "tomcatv"], settings)
        assert engine.last_dispatch.pool_reused is False
        assert engine._pool.pool is not stale
        assert all(not plan.resolve(key).failed for key in keys)

    def test_shutdown_pool_is_idempotent(self, engine):
        _run_batch(engine, ["gcc", "tomcatv"])
        assert engine._pool is not None
        engine.shutdown_pool()
        assert engine._pool is None
        engine.shutdown_pool()  # second call is a no-op

    def test_profile_accounts_for_every_point(self, engine):
        keys, _plan = _run_batch(engine, ["gcc", "tomcatv", "li"])
        profile = engine.last_dispatch
        assert profile.points == len(keys)
        stats = profile.as_dict()["worker_stats"]
        assert sum(s["points"] for s in stats.values()) == len(keys)
        assert sum(s["chunks"] for s in stats.values()) == profile.chunks
        assert profile.fallback_points == 0

    def test_every_batch_counts_exactly_its_own_points(self, engine):
        """Chunk results are authoritative: over many back-to-back
        batches on one pool, no batch counts a point or chunk twice or
        inherits one from the batch before it."""
        for batch in range(20):
            settings = replace(FAST, instructions=FAST.instructions + batch)
            keys, _plan = _run_batch(engine, ["gcc", "tomcatv", "li"], settings)
            profile = engine.last_dispatch
            assert profile.pool_reused is (batch > 0)
            stats = profile.as_dict()["worker_stats"].values()
            assert sum(s["points"] for s in stats) == len(keys), batch
            assert sum(s["chunks"] for s in stats) == profile.chunks, batch

    def test_marks_of_an_earlier_batch_are_dropped(self, engine):
        _run_batch(engine, ["gcc", "tomcatv"])
        handle = engine._pool
        for batch, digest in ((handle.batch - 1, "stale"), (handle.batch, "fresh")):
            handle.queue.put(
                {"type": "point-start", "batch": batch, "chunk": digest,
                 "digest": digest, "label": digest}
            )
        current: dict = {}
        deadline = time.monotonic() + 5.0
        while "fresh" not in current and time.monotonic() < deadline:
            Engine._drain_dispatch_queue(handle, None, current)
            time.sleep(0.01)
        assert [digest for digest, _since in current.values()] == ["fresh"]

    def test_parallel_run_never_creates_a_manager(self, engine, monkeypatch):
        """The no-telemetry path must not pay for a Manager process."""

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "multiprocessing.Manager() created on the no-telemetry path"
            )

        monkeypatch.setattr(multiprocessing, "Manager", forbidden)
        keys, plan = _run_batch(engine, ["gcc", "tomcatv"])
        assert all(not plan.resolve(key).failed for key in keys)


# ---------------------------------------------------------------------------
# Worker-state prewarm
# ---------------------------------------------------------------------------


class TestPrewarm:
    def test_reference_backend_skips_prewarm(self, monkeypatch):
        from repro import kernel
        from repro.kernel import tracecache

        def forbidden(*args, **kwargs):
            raise AssertionError("prewarm ran under the reference backend")

        monkeypatch.setattr(tracecache, "artifacts_for", forbidden)
        with kernel.use_backend("reference"):
            Engine(jobs=2)._prewarm_worker_state(_points("gcc", "tomcatv"))

    @FORK_ONLY
    def test_fast_backend_prewarms_each_identity_once(self, monkeypatch):
        from repro import kernel
        from repro.kernel import tracecache

        warmed = []

        class _Artifacts:
            def __init__(self, identity):
                self._identity = identity

            def warm_references(self):
                warmed.append(self._identity)

        monkeypatch.setattr(
            tracecache,
            "artifacts_for",
            lambda spec, seed, warmup: _Artifacts((spec.name, seed, warmup)),
        )
        # Two workloads, one of them twice (same identity), one with
        # warm-up disabled (nothing to prewarm).
        cold = ExperimentSettings(
            instructions=500, timing_warmup=100, functional_warmup=0
        )
        points = (
            _points("gcc", "tomcatv")
            + _points("gcc", organization=banked(banks=4))
            + _points("li", settings=cold)
        )
        with kernel.use_backend("fast"):
            Engine(jobs=2)._prewarm_worker_state(points)
        assert sorted(warmed) == [
            ("gcc", FAST.seed, FAST.functional_warmup),
            ("tomcatv", FAST.seed, FAST.functional_warmup),
        ]

    def test_prewarm_failure_never_breaks_the_batch(self, monkeypatch):
        from repro import kernel
        from repro.kernel import tracecache

        def explode(*args, **kwargs):
            raise RuntimeError("artifact generation failed")

        monkeypatch.setattr(tracecache, "artifacts_for", explode)
        with kernel.use_backend("fast"):
            Engine(jobs=2)._prewarm_worker_state(_points("gcc"))


# ---------------------------------------------------------------------------
# Parallel identity spot checks (the hypothesis suite goes deeper)
# ---------------------------------------------------------------------------


class TestParallelIdentity:
    def test_chunked_dispatch_matches_serial_results(self, tmp_path):
        organizations = [duplicate(), banked(banks=4), ideal_ports(ports=2)]
        names = ("gcc", "tomcatv", "li")
        serial = ExecutionPlan(Engine(jobs=1))
        serial_keys = [
            serial.add(org, name, FAST)
            for org in organizations for name in names
        ]
        serial.execute()

        eng = Engine(jobs=2, store=ResultStore(tmp_path / "cache"))
        try:
            parallel = ExecutionPlan(eng)
            parallel_keys = [
                parallel.add(org, name, FAST)
                for org in organizations for name in names
            ]
            parallel.execute()
            assert serial_keys == parallel_keys
            for key in serial_keys:
                assert parallel.resolve(key).ipc == serial.resolve(key).ipc
        finally:
            eng.shutdown_pool()
