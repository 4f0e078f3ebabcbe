"""Property test: the fast loop equals the reference on hand-made traces.

The figure grids and the perfbench sweeps never make the fast loop's
idle horizon jump more than one cycle, so nothing else covers those
jumps.  Short traces with long-latency ops (IDIV 35 cycles, FSQRT 18),
cold misses over a few conflicting lines and mispredicted branches make
them, and small windows, load/store queues, widths and functional-unit
limits stress every stall counter that counts loop iterations.  Each
case runs on both backends from cold memory systems; the whole
:class:`SimulationResult` must be equal, ``op_counts`` key order
included.  Hypothesis prints the falsifying case and a reproduction
blob on failure.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import R10000_FU_LIMITS, MicroOp, Op, OutOfOrderCore, ProcessorConfig
from repro.kernel import fast, reference
from repro.kernel.tracecache import TapeReplay
from repro.memory import MemoryConfig, MemorySystem

#: IALU twice, so one-cycle ops stay the most common compute op.
COMPUTE_OPS = (
    Op.IALU,
    Op.IALU,
    Op.IMUL,
    Op.IDIV,
    Op.FADD,
    Op.FMUL,
    Op.FDIV,
    Op.FSQRT,
    Op.NOP,
)

#: A few lines: two sets' worth, three of them conflicting in one set
#: of the default 32 KB two-way L1, so misses, evictions and dirty
#: write-backs all happen within a hundred instructions.
ADDRESSES = (0x0, 0x20, 0x4000, 0x8000, 0xC000 + 0x20)

TIGHT_FU_LIMITS = (("integer", 1), ("float", 1), ("memory", 1), ("branch", 1))

dependences = st.lists(st.integers(1, 8), max_size=2).map(tuple)


@st.composite
def micro_ops(draw):
    kind = draw(st.sampled_from(("compute", "load", "store", "branch")))
    srcs = draw(dependences)
    if kind == "compute":
        return MicroOp(draw(st.sampled_from(COMPUTE_OPS)), srcs)
    if kind == "branch":
        return MicroOp(
            Op.BRANCH,
            srcs,
            pc=draw(st.sampled_from((0x400, 0x404, 0x480))),
            taken=draw(st.booleans()),
        )
    op = Op.LOAD if kind == "load" else Op.STORE
    offset = draw(st.integers(0, 3)) * 8
    return MicroOp(op, srcs, address=draw(st.sampled_from(ADDRESSES)) + offset)


processors = st.builds(
    ProcessorConfig,
    fetch_width=st.integers(1, 4),
    issue_width=st.integers(1, 4),
    commit_width=st.integers(1, 4),
    window_size=st.integers(8, 64),
    lsq_size=st.integers(2, 32),
    mispredict_redirect_penalty=st.integers(0, 4),
    store_forwarding=st.booleans(),
    fu_limits=st.sampled_from((None, R10000_FU_LIMITS, TIGHT_FU_LIMITS)),
)

memories = st.builds(
    MemoryConfig,
    mshrs=st.integers(1, 4),
    line_buffer=st.booleans(),
    l1_hit_cycles=st.integers(1, 3),
)


def _offset_tape(ops: list[MicroOp]) -> TapeReplay:
    """A tape whose cursor starts past a prefix, like a shared tape's."""
    prefix = [MicroOp(Op.NOP), MicroOp(Op.LOAD, address=0x40)]
    replay = TapeReplay.over(iter(prefix + ops))
    for _ in prefix:
        next(replay)
    return replay


FEEDS = {
    "iterator": iter,
    "tape": lambda ops: TapeReplay.over(iter(ops)),
    "offset tape": _offset_tape,
}


@settings(max_examples=150, deadline=None, print_blob=True)
@given(
    ops=st.lists(micro_ops(), min_size=1, max_size=120),
    cpu=processors,
    mem=memories,
    feed=st.sampled_from(sorted(FEEDS)),
    data=st.data(),
)
def test_fast_loop_equals_reference(ops, cpu, mem, feed, data):
    warmup = data.draw(st.integers(0, len(ops) // 2), label="warmup")
    budget = data.draw(st.integers(1, len(ops) + 8), label="budget")
    results = {}
    for name, loop, trace in (
        ("reference", reference.run_loop, iter(ops)),
        ("fast", fast.run_loop, FEEDS[feed](ops)),
    ):
        core = OutOfOrderCore(cpu, MemorySystem(mem))
        results[name] = loop(core, trace, budget, warmup_instructions=warmup)
    expected, actual = (
        dataclasses.asdict(results[name]) for name in ("reference", "fast")
    )
    assert expected.pop("backend") == "reference"
    assert actual.pop("backend") == "fast"
    assert actual == expected
    assert list(actual["op_counts"]) == list(expected["op_counts"])
