"""Store/ledger self-healing: `repro cache verify` and torn appends."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentSettings, Observe
from repro.core.organizations import duplicate
from repro.cpu.result import SimulationResult
from repro.engine.key import ExperimentKey
from repro.engine.ledger import RunLedger, build_record
from repro.engine.store import SCHEMA_VERSION, ResultStore
from repro.robustness.chaos import CORRUPTION_MODES, corrupt_entry, tear_trailing_line

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


def _key(workload: str = "gcc") -> ExperimentKey:
    return ExperimentKey(duplicate(32 * 1024, line_buffer=True), workload, FAST)


def _result() -> SimulationResult:
    return SimulationResult(instructions=1_000, cycles=800)


def _store_with_entries(tmp_path, workloads=("gcc", "li")) -> ResultStore:
    store = ResultStore(tmp_path / "cache")
    for name in workloads:
        assert store.save(_key(name), _result())
    return store


class TestVerifyHealthy:
    def test_clean_store_reports_no_damage(self, tmp_path):
        store = _store_with_entries(tmp_path)
        report = store.verify()
        assert report["scanned"] == 2
        assert report["ok"] == 2
        assert report["quarantined"] == []
        assert report["ledger"] == {
            "torn": False,
            "healed": False,
            "fragment_path": None,
        }

    def test_observed_and_plain_entries_verify_ok(self, tmp_path):
        """Plain keys omit ``settings.observe``; observed keys carry it.
        Verify decodes both as loads do, so both are healthy."""
        store = _store_with_entries(tmp_path, workloads=("gcc",))
        observed = ExperimentKey(
            _key().organization,
            "gcc",
            replace(FAST, observe=Observe(counter_interval=300)),
        )
        assert observed.digest != _key().digest
        assert store.save(observed, _result())
        report = store.verify()
        assert (report["scanned"], report["ok"]) == (2, 2)
        assert report["quarantined"] == []
        assert store.load(observed) is not None
        assert store.load(_key()) is not None

    def test_empty_store_verifies(self, tmp_path):
        report = ResultStore(tmp_path / "nothing").verify()
        assert report["scanned"] == 0
        assert report["quarantined"] == []


class TestVerifyDamage:
    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_each_corruption_mode_is_quarantined(self, tmp_path, mode):
        store = _store_with_entries(tmp_path, workloads=("gcc",))
        entry = store._entry_paths()[0]
        corrupt_entry(entry, mode)
        report = store.verify()
        assert report["ok"] == 0
        assert len(report["quarantined"]) == 1
        item = report["quarantined"][0]
        assert item["path"] == str(entry)
        assert item["moved_to"].startswith(str(store.quarantine_dir))
        # The damaged file left the load path entirely.
        assert not entry.exists()
        assert store._entry_paths() == []
        assert store.load(_key("gcc")) is None  # a miss, not an error

    def test_digest_filename_mismatch_detected(self, tmp_path):
        store = _store_with_entries(tmp_path, workloads=("gcc",))
        entry = store._entry_paths()[0]
        renamed = entry.with_name("0" * 64 + ".json")
        entry.rename(renamed)
        report = store.verify()
        assert len(report["quarantined"]) == 1
        assert "digest" in report["quarantined"][0]["problem"]

    def test_quarantine_preserves_evidence_and_avoids_collisions(self, tmp_path):
        store = _store_with_entries(tmp_path, workloads=("gcc",))
        entry = store._entry_paths()[0]
        payload = entry.read_bytes()
        corrupt_entry(entry, "garbage")
        damaged = entry.read_bytes()
        store.verify()
        moved = store.quarantine_dir / entry.name
        assert moved.read_bytes() == damaged
        # A second file with the same name quarantines under a suffix.
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(payload)
        corrupt_entry(entry, "garbage")
        report = store.verify()
        assert report["quarantined"][0]["moved_to"].endswith(".1")

    def test_verify_without_heal_only_reports(self, tmp_path):
        store = _store_with_entries(tmp_path, workloads=("gcc",))
        entry = store._entry_paths()[0]
        corrupt_entry(entry, "truncate")
        report = store.verify(heal=False)
        assert len(report["quarantined"]) == 1
        assert report["quarantined"][0]["moved_to"] is None
        assert entry.exists()

    def test_healthy_entries_survive_a_neighbors_quarantine(self, tmp_path):
        store = _store_with_entries(tmp_path, workloads=("gcc", "li"))
        corrupt_entry(store.path_for(_key("gcc")), "garbage")
        store.verify()
        assert store.load(_key("li")) is not None


class TestLedgerTornTail:
    def _ledger_with_runs(self, tmp_path, runs: int = 2) -> RunLedger:
        ledger = RunLedger(tmp_path / "runs.jsonl")
        key = _key()
        for _ in range(runs):
            record = build_record(
                {key: _result()},
                {key: "simulated"},
                wall_seconds=1.0,
                jobs=1,
                store_schema=SCHEMA_VERSION,
            )
            assert ledger.append(record) is not None
        return ledger

    def test_torn_final_line_warns_and_is_ignored(self, tmp_path):
        ledger = self._ledger_with_runs(tmp_path)
        tear_trailing_line(ledger.path)
        with pytest.warns(RuntimeWarning, match="torn, partially written"):
            records = ledger.records()
        assert len(records) == 1  # the intact first record survives

    def test_mid_file_corruption_stays_silent(self, tmp_path, recwarn):
        ledger = self._ledger_with_runs(tmp_path)
        lines = ledger.path.read_text(encoding="utf-8").splitlines(True)
        lines.insert(1, "garbage line\n")
        ledger.path.write_text("".join(lines), encoding="utf-8")
        records = ledger.records()
        assert len(records) == 2
        assert not any(
            issubclass(w.category, RuntimeWarning) for w in recwarn.list
        )

    def test_heal_excises_torn_tail_into_quarantine(self, tmp_path):
        ledger = self._ledger_with_runs(tmp_path)
        torn = tear_trailing_line(ledger.path)
        assert torn  # something really was cut off
        quarantine = tmp_path / "quarantine"
        report = ledger.heal(quarantine)
        assert report["torn"] and report["healed"]
        fragment = report["fragment_path"]
        assert fragment is not None
        assert quarantine in Path(fragment).parents
        # The file is whole again: appends and reads work, no warning.
        assert len(ledger.records()) == 1
        assert ledger.path.read_bytes().endswith(b"\n")

    def test_heal_completes_a_record_missing_only_its_newline(self, tmp_path):
        ledger = self._ledger_with_runs(tmp_path)
        data = ledger.path.read_bytes()
        ledger.path.write_bytes(data.rstrip(b"\n"))
        report = ledger.heal(tmp_path / "quarantine")
        assert report == {
            "torn": False,
            "healed": True,
            "fragment_path": None,
        }
        assert len(ledger.records()) == 2

    def test_heal_on_intact_ledger_is_a_no_op(self, tmp_path):
        ledger = self._ledger_with_runs(tmp_path)
        before = ledger.path.read_bytes()
        report = ledger.heal(tmp_path / "quarantine")
        assert report["torn"] is False and report["healed"] is False
        assert ledger.path.read_bytes() == before


class TestRecordShape:
    def test_timeouts_counted_inside_gaps(self):
        keys = [_key("gcc"), _key("li"), _key("tomcatv")]
        points = {k: _result() for k in keys}
        points[keys[1]] = SimulationResult(instructions=0, cycles=0, failed=True)
        points[keys[2]] = SimulationResult(instructions=0, cycles=0, failed=True)
        outcomes = {keys[0]: "simulated", keys[1]: "gap", keys[2]: "timeout"}
        record = build_record(
            points,
            outcomes,
            wall_seconds=1.0,
            jobs=1,
            store_schema=SCHEMA_VERSION,
        )
        assert record["summary"]["gaps"] == 2
        assert record["summary"]["timeouts"] == 1
        assert "interrupted" not in record

    def test_interrupted_flag_rides_the_record(self):
        key = _key()
        record = build_record(
            {key: _result()},
            {key: "simulated"},
            wall_seconds=1.0,
            jobs=1,
            store_schema=SCHEMA_VERSION,
            interrupted=True,
        )
        assert record["interrupted"] is True
        # ... and survives a JSON roundtrip the way the ledger stores it.
        assert json.loads(json.dumps(record))["interrupted"] is True
