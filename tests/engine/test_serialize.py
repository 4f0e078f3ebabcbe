"""The dataclass codec: exact round trips for configurations and results."""

import json
from dataclasses import dataclass

import pytest

from repro.core.experiment import ExperimentSettings, _simulate
from repro.core.organizations import duplicate
from repro.cpu.config import R10000_FU_LIMITS, ProcessorConfig
from repro.core.organizations import CacheOrganization
from repro.cpu.result import SimulationResult
from repro.engine.serialize import SerializationError, from_plain, to_plain
from repro.memory.common import ServedBy
from repro.memory.stats import MemoryStats
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


@pytest.fixture(scope="module")
def real_result():
    return _simulate(duplicate(32 * 1024, line_buffer=True), benchmark("gcc"), FAST)


class TestResultRoundTrip:
    def test_bit_identical_through_json(self, real_result):
        wire = json.loads(json.dumps(to_plain(real_result)))
        rebuilt = from_plain(SimulationResult, wire)
        assert rebuilt == real_result
        assert to_plain(rebuilt) == to_plain(real_result)
        assert json.dumps(to_plain(rebuilt), sort_keys=True) == json.dumps(
            to_plain(real_result), sort_keys=True
        )

    def test_served_by_preserves_enum_order(self, real_result):
        rebuilt = from_plain(SimulationResult, to_plain(real_result))
        assert list(rebuilt.memory.served_by) == list(real_result.memory.served_by)

    def test_ipc_identical(self, real_result):
        rebuilt = from_plain(SimulationResult, to_plain(real_result))
        assert rebuilt.ipc == real_result.ipc

    def test_failed_flag_survives(self):
        sentinel = SimulationResult(instructions=0, cycles=0, failed=True)
        assert from_plain(SimulationResult, to_plain(sentinel)).failed


class TestConfigRoundTrip:
    def test_organization_with_dram(self):
        from repro.core.organizations import dram_cache

        org = dram_cache()
        assert from_plain(CacheOrganization, to_plain(org)) == org

    def test_organization_plain(self):
        org = duplicate(16 * 1024, hit_cycles=2, line_buffer=True)
        assert from_plain(CacheOrganization, to_plain(org)) == org

    def test_settings_with_fu_limits_tuple(self):
        settings = ExperimentSettings(
            cpu=ProcessorConfig(fu_limits=R10000_FU_LIMITS)
        )
        wire = json.loads(json.dumps(to_plain(settings)))
        rebuilt = from_plain(ExperimentSettings, wire)
        assert rebuilt == settings
        assert isinstance(rebuilt.cpu.fu_limits, tuple)
        assert isinstance(rebuilt.cpu.fu_limits[0], tuple)


class TestSchemaGuards:
    def test_unknown_served_by_level_rejected(self, real_result):
        data = to_plain(real_result.memory)
        data["served_by"]["WARP_DRIVE"] = 1
        with pytest.raises(SerializationError):
            from_plain(MemoryStats, data)

    def test_absent_served_by_members_read_as_zero(self, real_result):
        data = to_plain(real_result.memory)
        del data["served_by"]["VICTIM_CACHE"]
        rebuilt = from_plain(MemoryStats, data)
        assert list(rebuilt.served_by) == list(ServedBy)
        assert rebuilt.served_by[ServedBy.VICTIM_CACHE] == 0

    def test_field_types_without_a_codec_are_refused(self):
        @dataclass
        class Unplannable:
            members: set[int]

        with pytest.raises(TypeError, match="no codec"):
            to_plain(Unplannable({1}))

    def test_missing_fields_rejected(self, real_result):
        with pytest.raises(SerializationError):
            from_plain(SimulationResult, {"instructions": 1})
        with pytest.raises(SerializationError):
            from_plain(ExperimentSettings, {"instructions": 1})
        # Every field is required, the formerly tolerant ones included.
        for name in ("metrics", "backend", "counters"):
            data = to_plain(real_result)
            del data[name]
            with pytest.raises(SerializationError, match=name):
                from_plain(SimulationResult, data)
        with pytest.raises(SerializationError):
            from_plain(SimulationResult, [1, 2])
