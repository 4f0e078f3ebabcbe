"""Property test: the fast loop equals the reference on hand-made traces.

On the figure grids and the perfbench sweeps the fast loop's idle
horizon almost never jumps more than one cycle: an in-flight op has
nearly always completed already.  Its exact fold of idle stretches does
jump many cycles there, but the sweeps reach only some of its bounds.
Short traces with long-latency ops (IDIV 35 cycles, FSQRT 18), cold
misses over a few conflicting lines behind slow L2 and memory latencies,
and mispredicted branches make both kinds of jump; small windows,
load/store queues, widths and functional-unit limits stress every stall
counter that counts loop iterations, and short watchdog bounds make the
fold stop at the watchdog's trip cycle.  Each case runs on both backends
from cold memory systems; the whole :class:`SimulationResult` must be
equal, ``op_counts`` key order included, or both loops must raise
:class:`DeadlockError` with the same first line (the stall cycle count).
Hypothesis prints the falsifying case and a reproduction blob on
failure.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import R10000_FU_LIMITS, MicroOp, Op, OutOfOrderCore, ProcessorConfig
from repro.kernel import fast, reference
from repro.kernel.tracecache import TapeReplay
from repro.memory import BacksideConfig, MemoryConfig, MemorySystem
from repro.robustness.errors import DeadlockError

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
    watchdog_stall_cycles=st.one_of(
        st.integers(16, 400), st.sampled_from((0, 100_000))
    ),
)

memories = st.builds(
    MemoryConfig,
    mshrs=st.integers(1, 4),
    line_buffer=st.booleans(),
    l1_hit_cycles=st.integers(1, 3),
    backside=st.builds(
        BacksideConfig,
        l2_hit_cycles=st.integers(1, 120),
        memory_cycles=st.integers(1, 400),
    ),
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
    _assert_same(ops, cpu, mem, budget, warmup, FEEDS[feed])


def _outcome(loop, ops, trace, cpu, mem, budget, warmup):
    """A loop's result as a plain dict, or the first line of its deadlock."""
    core = OutOfOrderCore(cpu, MemorySystem(mem))
    try:
        result = loop(core, trace, budget, warmup_instructions=warmup)
    except DeadlockError as error:
        return str(error).splitlines()[0]
    return dataclasses.asdict(result)


def _assert_same(ops, cpu, mem, budget, warmup=0, feed=iter) -> dict:
    """Run both loops; their outcomes must be equal.  Returns the fast one."""
    expected = _outcome(reference.run_loop, ops, iter(ops), cpu, mem, budget, warmup)
    actual = _outcome(fast.run_loop, ops, feed(ops), cpu, mem, budget, warmup)
    if isinstance(expected, str):
        assert actual == expected
        return actual
    assert not isinstance(actual, str), actual
    assert expected.pop("backend") == "reference"
    assert actual.pop("backend") == "fast"
    assert actual == expected
    assert list(actual["op_counts"]) == list(expected["op_counts"])
    return actual


#: One slow miss: 200 cycles to memory behind the L2 lookup.
SLOW_MEMORY = MemoryConfig(backside=BacksideConfig(memory_cycles=200))


def test_fold_counts_window_full_stalls_behind_a_miss():
    ops = [MicroOp(Op.LOAD, address=0x40)] + [MicroOp(Op.IALU)] * 40
    cpu = ProcessorConfig(window_size=8)
    stats = _assert_same(ops, cpu, SLOW_MEMORY, len(ops))["pipeline"]
    assert stats["window_full_stalls"] > 50


def test_fold_counts_lsq_full_stalls():
    # The ALU op completes behind the first miss, so the loop steps
    # cycle by cycle (counting stalls) instead of jumping the horizon.
    ops = [MicroOp(Op.LOAD, address=0x40), MicroOp(Op.IALU)] + [
        MicroOp(Op.LOAD, address=0x40 + 0x1000 * n) for n in range(1, 6)
    ]
    cpu = ProcessorConfig(lsq_size=2)
    stats = _assert_same(ops, cpu, SLOW_MEMORY, len(ops))["pipeline"]
    assert stats["lsq_full_stalls"] > 50


def test_fold_counts_mispredict_stalls_behind_a_long_op():
    # Not-taken branches at fresh pcs, which the cold predictor
    # mispredicts; each waits on an IDIV (35 cycles) while the ALU op
    # between them completes.
    ops = []
    for pc in range(0x400, 0x410, 4):
        ops += [
            MicroOp(Op.IDIV),
            MicroOp(Op.IALU),
            MicroOp(Op.BRANCH, (2,), pc=pc, taken=False),
        ]
    stats = _assert_same(ops, ProcessorConfig(), MemoryConfig(), len(ops))
    assert stats["pipeline"]["mispredict_stall_cycles"] > 50
