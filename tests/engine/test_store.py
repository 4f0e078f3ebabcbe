"""Persistent result store: round trips, robustness, maintenance."""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentSettings, _simulate
from repro.core.organizations import duplicate
from repro.cpu.result import SimulationResult
from repro.engine.key import ExperimentKey
from repro.engine.store import SCHEMA_VERSION, ResultStore, default_cache_root
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


@pytest.fixture(scope="module")
def real_result():
    return _simulate(duplicate(32 * 1024, line_buffer=True), benchmark("gcc"), FAST)


def _key(workload: str = "gcc") -> ExperimentKey:
    return ExperimentKey(duplicate(32 * 1024, line_buffer=True), workload, FAST)


class TestRoundTrip:
    def test_save_then_load_is_exact(self, tmp_path, real_result):
        store = ResultStore(tmp_path / "cache")
        assert store.save(_key(), real_result)
        assert store.load(_key()) == real_result

    def test_missing_entry_is_none(self, tmp_path):
        assert ResultStore(tmp_path / "cache").load(_key()) is None

    def test_failed_results_never_persist(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        sentinel = SimulationResult(instructions=0, cycles=0, failed=True)
        assert not store.save(_key(), sentinel)
        assert store.load(_key()) is None
        assert not store.path_for(_key()).exists()

    def test_default_root_comes_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        assert ResultStore().root == tmp_path / "elsewhere"


class TestPinnedFormat:
    """A committed v6 entry pins the on-disk bytes: the codec may change
    what it writes only together with a ``SCHEMA_VERSION`` bump, and the
    simulator may change a stored number only the same way."""

    FIXTURE = (
        Path(__file__).parent / "fixtures" / "store-v6-duplicate-32k-lb-gcc.json"
    )

    def test_committed_entry_loads_and_resaves_byte_identically(self, tmp_path):
        assert SCHEMA_VERSION == 6
        key = _key()
        pinned = self.FIXTURE.read_bytes()
        assert json.loads(pinned)["digest"] == key.digest
        store = ResultStore(tmp_path / "cache")
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        shutil.copyfile(self.FIXTURE, path)

        result = store.load(key)
        assert result is not None  # a hit, not a miss
        fresh = _simulate(key.organization, benchmark("gcc"), FAST)
        assert result.ipc == fresh.ipc
        assert result.metrics == fresh.metrics

        path.unlink()
        assert store.save(key, result)
        assert path.read_bytes() == pinned


class TestWorkflowStorePaths:
    """CI compares stores by their version directory.  A hard-coded
    ``<cache>/v<N>`` goes stale at the next schema bump, and ``diff -r``
    of two missing trees exits 2."""

    WORKFLOW = Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"

    def test_store_diffs_derive_the_version_directory(self):
        text = self.WORKFLOW.read_text(encoding="utf-8")
        assert re.findall(r"\S*-cache/v\d+\S*", text) == []
        diffs = re.findall(r"^\s*diff -r .*$", text, flags=re.MULTILINE)
        assert diffs, "the workflow no longer diffs any store"
        for line in diffs:
            assert "$STORE" in line, line
        assert "from repro.engine.store import SCHEMA_VERSION" in text


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, tmp_path, real_result):
        store = ResultStore(tmp_path / "cache")
        store.save(_key(), real_result)
        store.path_for(_key()).write_text("{not json", encoding="utf-8")
        assert store.load(_key()) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, real_result):
        store = ResultStore(tmp_path / "cache")
        store.save(_key(), real_result)
        path = store.path_for(_key())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.load(_key()) is None

    def test_key_mismatch_is_a_miss(self, tmp_path, real_result):
        """Digest collisions / hand-edited files must not leak results."""
        store = ResultStore(tmp_path / "cache")
        store.save(_key(), real_result)
        path = store.path_for(_key())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["key"]["workload"] = "tomcatv"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.load(_key()) is None


class TestMaintenance:
    def test_info_and_clear(self, tmp_path, real_result):
        store = ResultStore(tmp_path / "cache")
        store.save(_key("gcc"), real_result)
        store.save(_key("tomcatv"), real_result)
        info = store.info()
        assert info["entries"] == 2
        assert info["current_schema_entries"] == 2
        assert info["bytes"] > 0
        assert info["schema"] == SCHEMA_VERSION
        assert store.clear() == 2
        assert store.info()["entries"] == 0
        assert store.load(_key("gcc")) is None

    def test_info_on_empty_store(self, tmp_path):
        info = ResultStore(tmp_path / "nowhere").info()
        assert info["entries"] == 0
        assert info["bytes"] == 0
