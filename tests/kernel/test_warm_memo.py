"""Split warm-up memos: every fast path leaves the reference warm state.

The fast backend memoizes the L1 and backside after the replay, and
line buffers rebuilt from the replay's operation log.  Whichever of
those a ``prepare`` call hits, the L1, the line buffer and the backside
must end exactly as the reference backend's plain replay leaves them.
"""

import pytest

from repro import kernel
from repro.core.experiment import ExperimentSettings
from repro.kernel import fast, tracecache
from repro.memory import MemoryConfig, MemorySystem
from repro.memory.dram_cache import DramCacheConfig
from repro.workloads.catalog import benchmark

KB = 1024
#: Long enough that an 8 KB L1 evicts, so the log holds invalidations.
SETTINGS = ExperimentSettings(functional_warmup=20_000)
#: Line-buffer entry counts; 0 means no line buffer.
LINE_BUFFERS = (0, 4, 32, 64)
SPEC = benchmark("gcc")


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    tracecache.clear()
    yield
    tracecache.clear()


def memory_for(size, ways, entries, dram):
    line_buffer = {"line_buffer": bool(entries), "line_buffer_entries": entries or 32}
    if dram:
        config = MemoryConfig(
            dram=DramCacheConfig(row_cache_size=size, row_cache_assoc=ways),
            **line_buffer,
        )
    else:
        config = MemoryConfig(l1_size=size, l1_assoc=ways, **line_buffer)
    return MemorySystem(config)


def warm_state(memory):
    line_buffer = memory.line_buffer
    return (
        memory.l1.snapshot_state(),
        None if line_buffer is None else line_buffer._cache.snapshot_state(),
        memory.backside.array.snapshot_state(),
    )


def warmed(backend_name, *geometry):
    memory = memory_for(*geometry)
    kernel.get_backend(backend_name).prepare(SPEC, memory, SETTINGS)
    return warm_state(memory)


@pytest.fixture
def memo_hits(monkeypatch):
    """Counts ``_restore_warm_state`` calls (the replay memo's hits)."""
    calls = []
    restore = fast._restore_warm_state

    def counted(memory, state):
        calls.append(memory)
        restore(memory, state)

    monkeypatch.setattr(fast, "_restore_warm_state", counted)
    return calls


@pytest.mark.parametrize("dram", [False, True], ids=["sram", "dram"])
@pytest.mark.parametrize("ways", (1, 2, 4))
@pytest.mark.parametrize("size", (8 * KB, 32 * KB))
def test_every_warm_path_matches_reference(size, ways, dram, memo_hits):
    artifacts = tracecache.artifacts_for(SPEC, SETTINGS.seed, SETTINGS.functional_warmup)
    for index, entries in enumerate(LINE_BUFFERS):
        geometry = (size, ways, entries, dram)
        expected = warmed("reference", *geometry)
        assert expected[0][1].count(-1) < len(expected[0][1]), "L1 stayed empty"

        # Cold: a full prefill and replay.
        artifacts.warm_states.clear()
        assert warmed("fast", *geometry) == expected, f"cold, {entries} entries"
        assert not memo_hits

        # A memo hit after a geometry that differs only in line-buffer
        # entries: the buffer is rebuilt from the operation log, and a
        # second hit restores the rebuilt buffer.
        artifacts.warm_states.clear()
        other = LINE_BUFFERS[(index + 1) % len(LINE_BUFFERS)]
        warmed("fast", size, ways, other, dram)
        assert warmed("fast", *geometry) == expected, f"log rebuild, {entries} entries"
        assert warmed("fast", *geometry) == expected, f"memo copy, {entries} entries"
        assert len(memo_hits) == 2
        memo_hits.clear()


def test_occupied_line_buffer_skips_the_memo(memo_hits):
    geometry = (8 * KB, 2, 4, False)
    warmed("fast", *geometry)  # leaves a memo the next call must not use
    states = []
    for backend_name in ("reference", "fast"):
        memory = memory_for(*geometry)
        memory.line_buffer.fill(7)
        assert fast._functional_key(memory) is None
        kernel.get_backend(backend_name).prepare(SPEC, memory, SETTINGS)
        states.append(warm_state(memory))
    assert states[0] == states[1]
    assert not memo_hits
