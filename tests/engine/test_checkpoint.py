"""Sweep checkpoints: durable progress marks that survive any crash."""

import json

from repro.core.experiment import ExperimentSettings
from repro.core.organizations import duplicate
from repro.engine.checkpoint import (
    COMPLETED_OUTCOMES,
    SweepCheckpoint,
    list_checkpoints,
    resolve_checkpoint,
)
from repro.engine.key import ExperimentKey
from repro.engine.ledger import plan_digest
from repro.robustness.chaos import tear_trailing_line

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


def _keys(*workloads: str) -> list[ExperimentKey]:
    org = duplicate(32 * 1024, line_buffer=True)
    return [ExperimentKey(org, name, FAST) for name in workloads]


class TestLifecycle:
    def test_begin_writes_header_with_every_planned_key(self, tmp_path):
        keys = _keys("gcc", "li")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        assert checkpoint.status()["completed"] == 0
        header, marks = checkpoint.read()
        assert header["plan_digest"] == plan_digest(keys)
        assert marks == {}
        stored = {row["digest"] for row in header["points"]}
        assert stored == {key.digest for key in keys}
        for row in header["points"]:
            assert "label" in row and "workload" in row and "key" in row

    def test_marks_accumulate_and_classify(self, tmp_path):
        keys = _keys("gcc", "li", "tomcatv")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        checkpoint.mark(keys[0], "simulated")
        checkpoint.mark(keys[1], "timeout")
        assert checkpoint.completed() == {keys[0].digest}
        status = checkpoint.status()
        assert status["planned"] == 3
        assert status["completed"] == 1
        assert status["remaining"] == 2

    def test_begin_on_existing_file_keeps_its_marks(self, tmp_path):
        keys = _keys("gcc", "li")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        checkpoint.mark(keys[0], "store")
        again = SweepCheckpoint.for_plan(tmp_path, keys)
        again.begin(keys)
        assert again.status()["completed"] == 1  # one point already done
        # ... and the old marks were preserved, not rewritten.
        assert again.completed() == {keys[0].digest}

    def test_keys_roundtrip_through_the_header(self, tmp_path):
        keys = _keys("gcc", "li")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        rebuilt = checkpoint.keys()
        assert sorted(k.digest for k in rebuilt) == sorted(
            k.digest for k in keys
        )

    def test_remove_is_idempotent(self, tmp_path):
        keys = _keys("gcc")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        checkpoint.remove()
        assert not checkpoint.path.exists()
        checkpoint.remove()  # no error on the second call

    def test_completed_outcomes_cover_every_cache_layer(self):
        # ``recovered`` is not done: its reduced-budget result is never
        # stored, so a rerun simulates the point again.
        assert COMPLETED_OUTCOMES == {"memo", "store", "simulated"}


class TestDamageTolerance:
    def test_torn_trailing_mark_loses_only_that_point(self, tmp_path):
        keys = _keys("gcc", "li")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        checkpoint.mark(keys[0], "simulated")
        checkpoint.mark(keys[1], "simulated")
        tear_trailing_line(checkpoint.path)
        assert checkpoint.completed() == {keys[0].digest}

    def test_garbage_lines_are_skipped(self, tmp_path):
        keys = _keys("gcc")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        with checkpoint.path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"type": "point"}) + "\n")  # no digest
        checkpoint.mark(keys[0], "simulated")
        assert checkpoint.completed() == {keys[0].digest}

    def test_missing_file_reads_as_empty(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "none.jsonl", "abc")
        header, marks = checkpoint.read()
        assert header is None
        assert marks == {}
        assert checkpoint.keys() == []


class TestDiscovery:
    def test_list_orders_most_recent_first(self, tmp_path):
        import os

        first = SweepCheckpoint.for_plan(tmp_path, _keys("gcc"))
        first.begin(_keys("gcc"))
        second = SweepCheckpoint.for_plan(tmp_path, _keys("li"))
        second.begin(_keys("li"))
        os.utime(first.path, (1, 1))  # make "first" decisively older
        found = list_checkpoints(tmp_path)
        assert [cp.digest for cp in found] == [second.digest, first.digest]

    def test_resolve_last_and_prefix(self, tmp_path):
        keys = _keys("gcc")
        checkpoint = SweepCheckpoint.for_plan(tmp_path, keys)
        checkpoint.begin(keys)
        assert resolve_checkpoint(tmp_path, "last").digest == checkpoint.digest
        prefix = checkpoint.digest[:10]
        assert resolve_checkpoint(tmp_path, prefix).digest == checkpoint.digest
        assert resolve_checkpoint(tmp_path, "zzz") is None

    def test_resolve_empty_directory(self, tmp_path):
        assert resolve_checkpoint(tmp_path, "last") is None


class TestEngineIntegration:
    def test_clean_sweep_leaves_no_checkpoint(self, tmp_path):
        from repro.engine.executor import ExecutionPlan, configure_engine
        from repro.engine.store import ResultStore

        store = ResultStore(tmp_path / "cache")
        previous = configure_engine(jobs=1, store=store)
        try:
            plan = ExecutionPlan()
            plan.add(duplicate(32 * 1024), "gcc", FAST)
            plan.execute()
        finally:
            configure_engine(jobs=previous[0], store=previous[1])
        assert list_checkpoints(store.root) == []

    def test_add_key_does_not_rescale_settings(self, monkeypatch):
        from repro.engine.executor import ExecutionPlan

        keys = _keys("gcc")
        monkeypatch.setenv("REPRO_SCALE", "4")
        plan = ExecutionPlan()
        replanned = plan.add_key(keys[0])
        # The checkpointed key already carries scaled budgets; add_key
        # must not multiply them again.
        assert replanned.settings.instructions == FAST.instructions
        assert replanned.digest == keys[0].digest

    def test_a_recovered_point_is_not_done(self, tmp_path, monkeypatch, capsys):
        """A recovered point's reduced-budget result is never stored, so
        the checkpoint must not count it as done: ``runs resume``'s
        "already done" count equals what the store then serves."""
        from repro.cli import main
        from repro.core import experiment
        from repro.engine.executor import Engine, ExecutionPlan
        from repro.engine.store import ResultStore
        from repro.robustness import SimulationInvariantError, resilient_sweeps

        real = experiment._simulate

        def flaky(org, spec, settings):
            # gcc recovers at reduced budget; tomcatv is a gap.
            if spec.name == "tomcatv" or settings.instructions >= FAST.instructions:
                raise SimulationInvariantError("injected")
            return real(org, spec, settings)

        monkeypatch.setattr(experiment, "_simulate", flaky)
        experiment.clear_cache()
        store = ResultStore(tmp_path / "cache")
        plan = ExecutionPlan(Engine(jobs=1, store=store))
        for name in ("gcc", "tomcatv"):
            plan.add(duplicate(), name, FAST)
        with resilient_sweeps():
            plan.execute()
        (record,) = store.ledger().records()
        assert sorted(row["outcome"] for row in record["points"]) == [
            "gap",
            "recovered",
        ]
        (checkpoint,) = list_checkpoints(store.root)  # gaps keep it
        assert checkpoint.status()["remaining"] == 2

        try:
            code = main(
                ["runs", "resume", "last", "--cache-dir", str(store.root),
                 "--no-progress"]
            )
        finally:
            experiment.clear_cache()
        out = capsys.readouterr().out
        assert code == 3  # the injected faults still fire
        done = int(out.split(": ", 1)[1].split(" of ")[0])
        served = int(out.split("resume complete: ")[1].split(" point")[0])
        assert done == served == 0
