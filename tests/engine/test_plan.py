"""Plan -> execute -> resolve, cache layering, and parallel execution."""

import math
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.core import experiment
from repro.core.experiment import ExperimentSettings, average_ipc
from repro.core.organizations import duplicate
from repro.engine.executor import Engine, ExecutionPlan, WorkerFailureError
from repro.engine.serialize import to_plain
from repro.engine.store import ResultStore
from repro.robustness import SimulationInvariantError, resilient_sweeps
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched failures reach workers only under fork",
)


def _boom(org, spec, settings):
    raise SimulationInvariantError("injected")


class TestPlanning:
    def test_add_deduplicates_identical_points(self):
        plan = ExecutionPlan(Engine())
        first = plan.add(duplicate(), "gcc", FAST)
        second = plan.add(duplicate(), "gcc", FAST)
        assert first == second
        assert len(plan) == 1

    def test_resolve_requires_planning(self):
        plan = ExecutionPlan(Engine())
        other = ExecutionPlan(Engine())
        key = other.add(duplicate(), "gcc", FAST)
        with pytest.raises(KeyError, match="never planned"):
            plan.resolve(key)

    def test_execute_resolves_every_point(self):
        plan = ExecutionPlan(Engine())
        keys = [plan.add(duplicate(), name, FAST) for name in ("gcc", "tomcatv")]
        results = plan.execute()
        assert set(results) == set(keys)
        for key in keys:
            assert plan.resolve(key) is results[key]

    def test_shared_points_simulate_once(self, monkeypatch):
        calls = []
        real = experiment._simulate

        def counting(org, spec, settings):
            calls.append(spec.name)
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", counting)
        engine = Engine()
        plan = ExecutionPlan(engine)
        plan.add(duplicate(), "gcc", FAST)
        plan.add(duplicate(), "gcc", FAST)
        plan.execute()
        again = ExecutionPlan(engine)
        key = again.add(duplicate(), "gcc", FAST)
        again.execute()
        assert calls == ["gcc"]
        assert again.resolve(key) is plan.resolve(key)


class TestOnePointPath:
    def test_serial_points_never_round_trip_through_dicts(
        self, tmp_path, monkeypatch
    ):
        """In-process attempts keep the result object: what resolves is
        the very object the simulation returned, not a rebuilt copy."""
        simulated = {}
        real = experiment._simulate

        def recording(org, spec, settings):
            result = real(org, spec, settings)
            simulated[spec.name] = result
            return result

        monkeypatch.setattr(experiment, "_simulate", recording)
        plan = ExecutionPlan(Engine(store=ResultStore(tmp_path / "cache")))
        names = ("gcc", "li")
        keys = [plan.add(duplicate(), name, FAST) for name in names]
        plan.execute()
        for name, key in zip(names, keys):
            assert plan.resolve(key) is simulated[name]
            assert not simulated[name].failed

    def test_settle_lands_every_resolution_once(self, tmp_path):
        """Cache hits and fresh points reach the ledger, the checkpoint
        and the hub through the one settle step."""
        from repro.observability import telemetry

        store = ResultStore(tmp_path / "cache")
        warm = ExecutionPlan(Engine(store=store))
        warm.add(duplicate(), "gcc", FAST)
        warm.execute()  # gcc now in the store
        engine = Engine(store=store)
        plan = ExecutionPlan(engine)
        stored = plan.add(duplicate(), "gcc", FAST)
        fresh = plan.add(duplicate(), "li", FAST)
        hub = telemetry.TelemetryHub()
        telemetry.install_hub(hub)
        try:
            plan.execute()
        finally:
            telemetry.clear_hub()
        assert engine.outcomes == {stored: "store", fresh: "simulated"}
        assert set(engine.point_seconds) == {fresh}
        assert hub.totals["cached"] == 1
        assert hub.totals["simulated"] == 1
        record = store.ledger().records()[-1]
        assert {row["outcome"] for row in record["points"]} == {
            "store", "simulated"
        }


class TestStoreLayering:
    def test_results_persist_and_reload_without_resimulating(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "cache")
        warm = Engine(store=store)
        plan = ExecutionPlan(warm)
        key = plan.add(duplicate(), "gcc", FAST)
        plan.execute()
        expected = plan.resolve(key)
        assert store.info()["entries"] == 1

        # A fresh engine (new process, conceptually) must be served from
        # disk: simulating again would blow up.
        monkeypatch.setattr(experiment, "_simulate", _boom)
        cold = Engine(store=ResultStore(tmp_path / "cache"))
        replay = ExecutionPlan(cold)
        replay_key = replay.add(duplicate(), "gcc", FAST)
        replay.execute()
        assert replay_key == key
        assert replay.resolve(replay_key) == expected

    def test_custom_workloads_never_touch_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = Engine(jobs=2, store=store)
        custom = replace(benchmark("gcc"), name="custom-variant")
        plan = ExecutionPlan(engine)
        key = plan.add(duplicate(), custom, FAST)
        plan.execute()
        assert not math.isnan(plan.ipc(key))
        assert store.info()["entries"] == 0


class TestParallel:
    def test_parallel_results_identical_to_serial(self, tmp_path):
        points = [("gcc", duplicate()), ("tomcatv", duplicate()),
                  ("database", duplicate(line_buffer=True))]

        serial = ExecutionPlan(Engine(jobs=1))
        serial_keys = [serial.add(org, name, FAST) for name, org in points]
        serial.execute()

        store = ResultStore(tmp_path / "cache")
        parallel = ExecutionPlan(Engine(jobs=2, store=store))
        parallel_keys = [parallel.add(org, name, FAST) for name, org in points]
        parallel.execute()

        assert serial_keys == parallel_keys
        for key in serial_keys:
            assert to_plain(parallel.resolve(key)) == to_plain(
                serial.resolve(key)
            )

        # What the parallel run persisted must satisfy a serial reader.
        reader = ExecutionPlan(Engine(jobs=1, store=ResultStore(tmp_path / "cache")))
        reader_keys = [reader.add(org, name, FAST) for name, org in points]
        reader.execute()
        for key in reader_keys:
            assert to_plain(reader.resolve(key)) == to_plain(
                serial.resolve(key)
            )

    @FORK_ONLY
    def test_worker_failure_becomes_logged_gap(self, monkeypatch):
        monkeypatch.setattr(experiment, "_simulate", _boom)
        plan = ExecutionPlan(Engine(jobs=2))
        keys = [plan.add(duplicate(), name, FAST) for name in ("gcc", "tomcatv")]
        with resilient_sweeps() as log:
            plan.execute()
        for key in keys:
            assert plan.resolve(key).failed
            assert math.isnan(plan.ipc(key))
        assert len(log.records) == 2
        assert all(r.resolution == "gap" for r in log.records)
        assert all(r.error_type == "SimulationInvariantError" for r in log.records)

    @FORK_ONLY
    def test_worker_failure_raises_outside_resilient_context(self, monkeypatch):
        monkeypatch.setattr(experiment, "_simulate", _boom)
        plan = ExecutionPlan(Engine(jobs=2))
        plan.add(duplicate(), "gcc", FAST)
        plan.add(duplicate(), "tomcatv", FAST)
        with pytest.raises(WorkerFailureError):
            plan.execute()

    @FORK_ONLY
    def test_worker_failure_can_recover_at_reduced_budget(self, monkeypatch):
        """First (full-budget) attempt fails in the worker; the parent's
        reduced-budget retry succeeds and is recorded as recovered."""
        real = experiment._simulate

        def flaky(org, spec, settings):
            if settings.instructions >= FAST.instructions:
                raise SimulationInvariantError("injected at full budget")
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", flaky)
        plan = ExecutionPlan(Engine(jobs=2))
        keys = [plan.add(duplicate(), name, FAST) for name in ("gcc", "tomcatv")]
        with resilient_sweeps() as log:
            plan.execute()
        for key in keys:
            assert not plan.resolve(key).failed
        assert all(r.resolution == "recovered" for r in log.records)


class TestPointSeconds:
    """A ledger row's ``seconds`` is the wall time of all the point's
    simulation attempts, whether it ran serially or in the pool."""

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
    def test_recovered_point_counts_its_retry(self, jobs, tmp_path, monkeypatch):
        real = experiment._simulate

        def flaky(org, spec, settings):
            if settings.instructions >= FAST.instructions:
                raise SimulationInvariantError("injected at full budget")
            time.sleep(0.2)
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", flaky)
        store = ResultStore(tmp_path / "cache")
        engine = Engine(jobs=jobs, store=store)
        plan = ExecutionPlan(engine)
        for name in ("gcc", "tomcatv"):
            plan.add(duplicate(), name, FAST)
        try:
            with resilient_sweeps():
                plan.execute()
        finally:
            engine.shutdown_pool()
        (record,) = store.ledger().records()
        assert record["jobs"] == jobs
        for row in record["points"]:
            assert row["outcome"] == "recovered"
            assert row["seconds"] >= 0.2


class TestAverageIpc:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        experiment.clear_cache()
        yield
        experiment.clear_cache()

    def test_excludes_gaps_and_warns(self, monkeypatch):
        real = experiment._simulate

        def fails_for_tomcatv(org, spec, settings):
            if spec.name == "tomcatv":
                raise SimulationInvariantError("injected")
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", fails_for_tomcatv)
        with resilient_sweeps():
            with pytest.warns(RuntimeWarning, match="1 of 2 design points"):
                mean = average_ipc(duplicate(), ("gcc", "tomcatv"), FAST)
        assert not math.isnan(mean)
        assert mean > 0

    def test_all_gaps_is_nan(self, monkeypatch):
        monkeypatch.setattr(experiment, "_simulate", _boom)
        with resilient_sweeps():
            with pytest.warns(RuntimeWarning, match="2 of 2"):
                mean = average_ipc(duplicate(), ("gcc", "tomcatv"), FAST)
        assert math.isnan(mean)
