"""Failure paths of the chunked parallel executor.

Every scenario here must land exactly where a serial run would: a
crashed worker degrades its chunk to in-parent execution, a wedged
point becomes the same timeout gap the serial deadline produces, a
shutdown request leaves the same checkpoint a serial interrupt leaves,
and out-of-order completion marks resume just as cleanly as ordered
ones.
"""

import math
import multiprocessing
import os
import random
import threading
import time

import pytest

from repro.core import experiment
from repro.core.experiment import ExperimentSettings
from repro.core.organizations import banked, duplicate, ideal_ports
from repro.engine import dispatch
from repro.engine.checkpoint import SweepCheckpoint, list_checkpoints
from repro.engine.dispatch import CostModel, plan_chunks
from repro.engine.executor import Engine, ExecutionPlan
from repro.engine.key import ExperimentKey
from repro.engine.store import ResultStore
from repro.robustness.chaos import CHAOS_ENV
from repro.robustness import deadline
from repro.robustness.deadline import POINT_TIMEOUT_ENV
from repro.robustness.runner import resilient_sweeps
from repro.robustness.shutdown import ShutdownController, SweepInterrupted
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched failures reach workers only under fork",
)

NAMES = ("gcc", "tomcatv", "li", "compress")


@pytest.fixture(autouse=True)
def fresh_memo():
    experiment.clear_cache()
    yield
    experiment.clear_cache()


@pytest.fixture
def engine():
    eng = Engine(jobs=2)
    yield eng
    eng.shutdown_pool()


class TestWorkerCrashMidChunk:
    @FORK_ONLY
    def test_dead_worker_degrades_to_in_parent_execution(
        self, engine, monkeypatch
    ):
        """``os._exit`` mid-chunk (a segfault stand-in): the surviving
        points resolve in-parent and match a serial run exactly."""
        serial = ExecutionPlan(Engine(jobs=1))
        serial_keys = [serial.add(duplicate(), n, FAST) for n in NAMES]
        serial.execute()
        expected = [serial.resolve(key).ipc for key in serial_keys]

        parent = os.getpid()
        real = experiment._simulate

        def dying(org, spec, settings):
            if spec.name == "tomcatv" and os.getpid() != parent:
                os._exit(9)  # hard death: no exception, no cleanup
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", dying)
        experiment.clear_cache()
        plan = ExecutionPlan(engine)
        keys = [plan.add(duplicate(), n, FAST) for n in NAMES]
        plan.execute()

        assert keys == serial_keys
        assert [plan.resolve(key).ipc for key in keys] == expected
        assert all(engine.outcomes[key] == "simulated" for key in keys)
        assert engine._pool is None or engine._pool.broken

    @FORK_ONLY
    def test_crash_with_failure_log_matches_serial_record_order(
        self, engine, monkeypatch
    ):
        """When the in-parent fallback also fails, failure-log records
        appear in plan order -- exactly as a serial sweep logs them."""
        from repro.robustness import SimulationInvariantError

        parent = os.getpid()

        def hostile(org, spec, settings):
            if os.getpid() != parent:
                os._exit(9)
            raise SimulationInvariantError(f"injected for {spec.name}")

        monkeypatch.setattr(experiment, "_simulate", hostile)
        plan = ExecutionPlan(engine)
        keys = [plan.add(duplicate(), n, FAST) for n in NAMES]
        with resilient_sweeps() as log:
            plan.execute()
        assert all(plan.resolve(key).failed for key in keys)
        # One gap record per point, ordered like the serial loop.
        logged = [record.workload for record in log.records]
        assert logged == list(NAMES)
        assert all(r.resolution == "gap" for r in log.records)


class TestTimeoutInsideStolenChunk:
    def test_wedged_point_in_a_multi_point_chunk_gaps_alone(
        self, engine, monkeypatch
    ):
        """The chunk protocol must not widen the blast radius: one
        sleeping point inside a stolen multi-point chunk times out, its
        chunk-mates still resolve."""
        # Generous budget: healthy points must never trip the deadline
        # themselves, even on a loaded CI box -- this test is about the
        # wedge backstop, not cooperative timeouts.
        monkeypatch.setenv(CHAOS_ENV, "sleep=30:gcc")
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "1.5")
        monkeypatch.setattr(deadline, "GRACE_SECONDS", 0.5)
        # Two workers x one chunk each: every chunk holds two points, so
        # the sleeper is guaranteed to share a chunk.
        monkeypatch.setattr(dispatch, "CHUNKS_PER_WORKER", 1)
        started = time.monotonic()
        with resilient_sweeps() as log:
            plan = ExecutionPlan(engine)
            keys = {n: plan.add(duplicate(), n, FAST) for n in NAMES}
            results = plan.execute()
        elapsed = time.monotonic() - started
        assert results[keys["gcc"]].failed
        assert math.isnan(results[keys["gcc"]].ipc)
        for name in ("tomcatv", "li", "compress"):
            assert not results[keys[name]].failed
        assert [r.resolution for r in log.records] == ["timeout"]
        assert "killed by the parent" in log.records[0].message
        assert engine.outcomes[keys["gcc"]] == "timeout"
        assert elapsed < 30.0  # nobody waited out the sleep

    def test_multi_point_chunks_were_actually_planned(self, engine, monkeypatch):
        monkeypatch.setattr(dispatch, "CHUNKS_PER_WORKER", 1)
        plan = ExecutionPlan(engine)
        points = [(plan.add(duplicate(), n, FAST), benchmark(n)) for n in NAMES]
        estimate = CostModel.for_engine(engine).estimate
        chunks = plan_chunks(points, estimate, engine.jobs)
        assert len(chunks) < len(points)  # at least one multi-point chunk


class TestQueuedChunk:
    def test_a_chunk_waiting_in_the_queue_is_not_wedged(
        self, engine, monkeypatch
    ):
        """Only a worker's ``point-start`` mark starts a point's clock.

        The pool's call queue holds workers + 1 chunks, so a chunk can
        sit there, not yet picked up, for longer than twice the point
        budget.  Its points have not started; none of them may be
        killed as a timeout.
        """
        monkeypatch.setattr(dispatch, "CHUNKS_PER_WORKER", 1)
        monkeypatch.setattr(dispatch, "CHUNK_MAX", 5)
        # A healthy point takes about half its budget; a 5-point chunk
        # outlasts twice the budget plus grace.
        monkeypatch.setenv(CHAOS_ENV, "sleep=0.5")
        monkeypatch.setenv(POINT_TIMEOUT_ENV, "1.0")
        monkeypatch.setattr(deadline, "GRACE_SECONDS", 0.1)
        plan = ExecutionPlan(engine)
        keys = [
            plan.add(org, name, FAST)
            for org in (duplicate(), banked(banks=4), ideal_ports(ports=2))
            for name in NAMES
        ]
        points = [(key, benchmark(key.workload)) for key in keys]
        chunks = plan_chunks(points, CostModel.for_engine(engine).estimate, 2)
        assert [len(chunk) for chunk in chunks] == [5, 5, 2]
        with resilient_sweeps() as log:
            results = plan.execute()
        assert log.records == []
        assert "timeout" not in engine.outcomes.values()
        assert all(not results[key].failed for key in keys)


class TestShutdownMidBatch:
    def test_sigint_during_out_of_order_completion_keeps_a_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A shutdown request mid-drain raises ``SweepInterrupted``, and
        the checkpoint only marks points whose results were absorbed --
        the same contract the serial loop keeps."""
        monkeypatch.setenv(CHAOS_ENV, "sleep=1.0")
        store = ResultStore(tmp_path / "cache")
        engine = Engine(jobs=2, store=store)
        try:
            with ShutdownController() as controller:
                timer = threading.Timer(0.4, controller.request)
                timer.daemon = True
                timer.start()
                plan = ExecutionPlan(engine)
                for name in NAMES:
                    plan.add(duplicate(), name, FAST)
                try:
                    with pytest.raises(SweepInterrupted) as stop:
                        plan.execute()
                finally:
                    timer.cancel()
        finally:
            engine.shutdown_pool()
        assert stop.value.completed + stop.value.remaining == len(NAMES)
        assert stop.value.checkpoint_path is not None
        checkpoints = list_checkpoints(store.root)
        assert len(checkpoints) == 1
        status = checkpoints[0].status()
        assert status["planned"] == len(NAMES)
        assert 0 < status["completed"] < len(NAMES)
        # Checkpoint marks must never outrun the store: every completed
        # mark is backed by a loadable result.
        assert status["completed"] <= store.info()["entries"]

    def test_interrupted_sweep_resumes_to_the_serial_answer(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "sleep=1.0")
        store = ResultStore(tmp_path / "cache")
        engine = Engine(jobs=2, store=store)
        try:
            with ShutdownController() as controller:
                timer = threading.Timer(0.4, controller.request)
                timer.daemon = True
                timer.start()
                plan = ExecutionPlan(engine)
                for name in NAMES:
                    plan.add(duplicate(), name, FAST)
                try:
                    with pytest.raises(SweepInterrupted):
                        plan.execute()
                finally:
                    timer.cancel()
        finally:
            engine.shutdown_pool()

        monkeypatch.delenv(CHAOS_ENV)
        experiment.clear_cache()
        serial = ExecutionPlan(Engine(jobs=1))
        serial_keys = [serial.add(duplicate(), n, FAST) for n in NAMES]
        serial.execute()

        experiment.clear_cache()
        resumed_engine = Engine(jobs=2, store=ResultStore(tmp_path / "cache"))
        try:
            resumed = ExecutionPlan(resumed_engine)
            resumed_keys = [resumed.add(duplicate(), n, FAST) for n in NAMES]
            resumed.execute()
            assert resumed_keys == serial_keys
            for key in serial_keys:
                assert resumed.resolve(key).ipc == serial.resolve(key).ipc
        finally:
            resumed_engine.shutdown_pool()
        # The completed sweep cleaned its checkpoint up.
        assert list_checkpoints(tmp_path / "cache") == []


class TestOutOfOrderCheckpointMarks:
    def test_marks_in_any_order_resume_identically(self, tmp_path):
        """Parallel absorption appends marks in completion order, not
        plan order; ``begin`` must count them all the same."""
        keys = [
            ExperimentKey(duplicate(), name, FAST) for name in NAMES
        ]
        ordered = SweepCheckpoint.for_plan(tmp_path / "a", keys)
        ordered.begin(keys)
        assert ordered.status()["completed"] == 0
        for key in keys:
            ordered.mark(key, "simulated")

        shuffled = SweepCheckpoint.for_plan(tmp_path / "b", keys)
        shuffled.begin(keys)
        assert shuffled.status()["completed"] == 0
        scrambled = list(keys)
        random.Random(42).shuffle(scrambled)
        for key in scrambled:
            shuffled.mark(key, "simulated")

        assert ordered.completed() == shuffled.completed()
        ordered.begin(keys)
        shuffled.begin(keys)
        assert ordered.status()["completed"] == len(keys)
        assert shuffled.status()["completed"] == len(keys)
        assert ordered.status()["remaining"] == 0
        assert shuffled.status()["remaining"] == 0

    def test_partial_out_of_order_marks_report_the_right_remainder(
        self, tmp_path
    ):
        keys = [ExperimentKey(duplicate(), name, FAST) for name in NAMES]
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        # The last-planned point completes first, the first never does.
        checkpoint.mark(keys[-1], "simulated")
        # Recovered and gap points both re-execute on resume: neither
        # left a stored result.
        checkpoint.mark(keys[2], "recovered")
        checkpoint.mark(keys[1], "gap")
        status = checkpoint.status()
        assert status["completed"] == 1
        assert status["remaining"] == 3
        checkpoint.begin(keys)
        assert checkpoint.status()["completed"] == 1
