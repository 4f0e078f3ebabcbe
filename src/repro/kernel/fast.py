"""The fast simulation backend: event-driven, result-identical.

Same machine, different bookkeeping.  Where the reference loop rescans
the whole 64-entry window every iteration (issue) and again on every
idle cycle (skip), this loop tracks readiness incrementally:

* **dependency counting** -- each fetched slot knows how many of its
  producers are still unissued (``pending``) and the latest completion
  among those already issued (``ready``); producers keep per-slot
  waiter lists, so an issue touches exactly its consumers;
* **ready heap / eligible list** -- dep-satisfied slots wait in a
  min-heap keyed by ready cycle; once ready they move to a seq-sorted
  eligible list, so the issue stage walks only genuinely issuable
  slots (in the same oldest-first order the reference scan produces);
* **completion heap** -- issued slots' completion cycles, lazily
  pruned at commit, make the idle-cycle jump O(log n) instead of a
  window scan, and generalize it: memory-wait, fetch-starved, and
  mispredict-stall states all resolve through the same three sources
  (completions, ready times, branch resume);
* **slot freelist** -- committed slots are reused instead of
  reallocated (guarding the one case where a committed slot is still
  referenced: a mispredicted branch whose redirect penalty is still
  counting down);
* **precomputed workload artifacts** -- the functional-warmup stream
  and the timing trace come from :mod:`repro.kernel.tracecache`, so
  thirty organizations of one benchmark generate them once.

Every architectural decision -- which slots issue on which cycle, in
which order memory is accessed, when stats reset, when the watchdog
and audits run, which trace events fire -- is made identically to
:mod:`repro.kernel.reference`.  The stall counters even preserve the
reference loop's *iteration* semantics (they count loop iterations,
not cycles), which is why the advance/skip structure mirrors it
exactly.  ``tests/engine/test_backends.py`` and the golden suite hold
the two backends bit-identical.

This is the default backend.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterator

from repro.cpu.isa import (
    ADDRESS_CALC_CYCLES,
    FU_CLASS,
    R10000_LATENCY,
    MicroOp,
    Op,
)
from repro.cpu.result import PipelineStats, SimulationResult
from repro.kernel import reference, tracecache
from repro.memory.dram_cache import DramCacheBackside
from repro.observability import events as obs
from repro.observability import telemetry as obs_telemetry
from repro.observability import trace as obs_trace
from repro.observability.metrics import snapshot_simulation
from repro.robustness import deadline as rb_deadline
from repro.robustness.dump import dump_window
from repro.robustness.errors import SimulationInvariantError
from repro.robustness.watchdog import CommitWatchdog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.experiment import ExperimentSettings
    from repro.cpu.core import OutOfOrderCore
    from repro.memory.hierarchy import MemorySystem
    from repro.workloads.generator import WorkloadSpec


# Enum members resolved once: ``Op.X`` at a call site goes through the
# enum class descriptor protocol, which profiles at millions of calls
# per sweep inside the cycle loop.
_LOAD = Op.LOAD
_STORE = Op.STORE
_BRANCH = Op.BRANCH

#: ``member.name`` resolves through a DynamicClassAttribute descriptor
#: (a Python-level call); the commit stage needs it once per
#: instruction, so read it from a plain dict instead.
_OP_NAMES = {op: op.name for op in Op}


class _FastSlot:
    """One instruction in flight, plus incremental readiness state."""

    __slots__ = ("seq", "mop", "complete", "issued", "pending", "ready")

    def __init__(self, seq: int, mop: MicroOp):
        self.seq = seq
        self.mop = mop
        self.complete = 0  # valid only when issued
        self.issued = False
        self.pending = 0  # unissued producers
        self.ready = 0  # max completion among issued producers


class FastBackend:
    """Event-driven loop + precomputed workload artifacts."""

    name = "fast"

    def prepare(
        self,
        spec: "WorkloadSpec",
        memory: "MemorySystem",
        settings: "ExperimentSettings",
    ) -> Iterator[MicroOp]:
        artifacts = tracecache.artifacts_for(
            spec, settings.seed, settings.functional_warmup
        )
        if settings.functional_warmup > 0:
            # Warm-up state is a pure function of the stream and the
            # functional geometry, so it is memoized per key (see
            # ``_functional_key``).  Only a cold memory system may use
            # the memos -- warming replays *into* existing state, so a
            # reused system takes the replay path, same as reference.
            key = _functional_key(memory)
            state = None if key is None else artifacts.warm_states.get(key)
            if state is not None:
                _restore_warm_state(memory, state)
            else:
                memory.prefill_backside(
                    artifacts.footprint_lines(memory.line_bytes)
                )
                log = warm_memory(memory, artifacts.warm_references())
                line_buffers: dict[int, object] = {}
                if key is not None:
                    artifacts.warm_states[key] = (
                        memory.l1.snapshot_state(),
                        _back_cache(memory).snapshot_state(),
                        log,
                        line_buffers,
                    )
                _warm_line_buffer(memory, log, line_buffers)
        return artifacts.timing_stream()

    def run(
        self,
        core: "OutOfOrderCore",
        trace: Iterator[MicroOp],
        max_instructions: int,
        *,
        warmup_instructions: int = 0,
    ) -> SimulationResult:
        return run_loop(
            core,
            trace,
            max_instructions,
            warmup_instructions=warmup_instructions,
        )


def _back_cache(memory: "MemorySystem"):
    """The backside structure functional warm-up fills (L2 or DRAM array)."""
    backside = memory.backside
    if isinstance(backside, DramCacheBackside):
        return backside.dram
    return backside.l2


def _functional_key(memory: "MemorySystem") -> tuple | None:
    """Geometry fingerprint of the L1 and backside state warm-up leaves.

    Warm-up (:meth:`MemorySystem.prefill_backside` plus
    :func:`warm_memory`) mutates the L1, the line buffer and the
    backside, and its decisions read only the L1's and the backside's
    geometries: never timing parameters, never the line buffer.
    Returns ``None`` when the system is not cold (the memos would hide
    whatever state is already there).
    """
    l1 = memory.l1
    back = _back_cache(memory)
    line_buffer = memory.line_buffer
    if len(l1) or len(back) or (line_buffer is not None and len(line_buffer)):
        return None
    is_dram = isinstance(memory.backside, DramCacheBackside)
    return (
        l1.size_bytes,
        l1.associativity,
        l1.line_bytes,
        is_dram,
        back.size_bytes,
        back.associativity,
        back.line_bytes,
    )


def _restore_warm_state(memory: "MemorySystem", state: tuple) -> None:
    l1_state, back_state, log, line_buffers = state
    memory.l1.restore_state(l1_state)
    _back_cache(memory).restore_state(back_state)
    _warm_line_buffer(memory, log, line_buffers)


def _warm_line_buffer(
    memory: "MemorySystem", log: array, line_buffers: dict
) -> None:
    """Replay a warm-up's line-buffer log, or restore its memoized result."""
    line_buffer = memory.line_buffer
    if line_buffer is None:
        return
    cache = line_buffer._cache
    warm = line_buffers.get(cache.entries)
    if warm is not None:
        cache.restore_state(warm)
        return
    fill = cache.fill
    invalidate = cache.invalidate
    for line in log:
        if line < 0:
            invalidate(~line)
        else:
            fill(line)
    line_buffers[cache.entries] = cache.snapshot_state()


def warm_memory(memory: "MemorySystem", packed_refs) -> array:
    """Replay a packed reference stream into the L1 and backside state.

    State-identical to :meth:`MemorySystem.warm` over the equivalent
    ``(is_store, address)`` list, except that the line buffer's
    operations come back as a log (``line`` a fill, ``~line`` an
    invalidation): it never feeds back into the L1 or the backside, so
    one log rebuilds a buffer of any size.  Same-line runs collapse: a
    repeat reference to the line just touched can only change state
    through the first store of the run (the L1 dirty bit) and the first
    load of the run (the buffered copy); every other repeat is an MRU
    touch of an already-MRU entry in both structures.
    """
    l1 = memory.l1
    lookup = l1.lookup
    l1_fill = l1.fill
    log = array("q")
    record = log.append
    backside = memory.backside
    if isinstance(backside, DramCacheBackside):
        back_fill = backside.dram.fill
        back_shift = 0
    else:
        back_fill = backside.l2.fill
        back_shift = backside._line_shift
    line_shift = memory._line_shift + 1  # bit 0 of a packed ref = is_store
    prev_line = -1
    run_loaded = False  # a load of prev_line already refreshed the LB
    run_stored = False  # a store of prev_line already marked it dirty
    for packed in packed_refs:
        line = packed >> line_shift
        is_store = packed & 1
        if line == prev_line:
            if is_store:
                if not run_stored:
                    lookup(line, write=True)
                    run_stored = True
            elif not run_loaded:
                record(line)
                run_loaded = True
            continue
        prev_line = line
        if is_store:
            run_stored = True
            run_loaded = False
            if lookup(line, write=True):
                continue
        else:
            run_stored = False
            run_loaded = True
            record(line)
            if lookup(line):
                continue
        back_fill(line >> back_shift)
        victim = l1_fill(line, dirty=bool(is_store))
        if victim is not None:
            record(~victim.line)
    return log


def run_loop(
    core: "OutOfOrderCore",
    trace: Iterator[MicroOp],
    max_instructions: int,
    *,
    warmup_instructions: int = 0,
) -> SimulationResult:
    """The event-driven cycle loop (see module docstring)."""
    from repro.cpu.core import _NOT_ISSUED, _RING, _RING_MASK

    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    cfg = core.config
    memory = core.memory
    mshrs = memory.mshrs
    predictor_observe = core.predictor.observe
    issue_one = reference.issue_slot
    commit_width = cfg.commit_width
    issue_width = cfg.issue_width
    fetch_width = cfg.fetch_width
    window_size = cfg.window_size
    lsq_size = cfg.lsq_size
    redirect_penalty = cfg.mispredict_redirect_penalty
    audit_interval = cfg.audit_interval_commits
    fu_limits = cfg.fu_limits
    store_forwarding = cfg.store_forwarding
    line_shift = memory._line_shift  # inlined MemorySystem.line_of
    memory_load = memory.load
    memory_store = memory.store
    alu_latency = R10000_LATENCY
    op_names = _OP_NAMES

    # A TapeReplay exposes its tape for direct indexing: one list access
    # per fetched micro-op instead of a generator-frame resume.  The
    # cursor is written back on exit so the iterator stays resumable.
    tape = tape_extend = None
    tape_index = 0
    if type(trace) is tracecache.TapeReplay:
        tape = trace.tape
        tape_extend = trace.extend
        tape_index = trace.index

    window: "deque[_FastSlot]" = deque()
    comp = [0] * _RING  # completion cycle by seq; pre-trace state is ready
    consumers: "list[list[_FastSlot] | None]" = [None] * _RING
    ready_heap: list = []  # (ready, seq, slot): deps met, waiting on time
    eligible: list = []  # [(seq, slot)] issuable now, oldest first
    completion_heap: list = []  # (complete, seq) of issued, uncommitted
    freelist: "list[_FastSlot]" = []
    pipeline = PipelineStats()
    op_counts: dict[str, int] = {}
    store_lines: dict[int, tuple[int, int]] = {}  # line -> (seq, ready)

    cycle = 0
    fetched = 0
    committed = 0
    expected_seq = 0
    commits_since_audit = 0
    lsq_used = 0
    wd_limit = cfg.watchdog_stall_cycles
    wd_last = 0  # mirrors watchdog._last_progress_cycle, loop-locally
    watchdog = CommitWatchdog(wd_limit) if wd_limit else None
    held: MicroOp | None = None  # fetched but blocked on a full LSQ
    blocking_branch: "_FastSlot | None" = None
    trace_done = False
    measuring = warmup_instructions == 0
    measure_start_cycle = 0
    measure_start_committed = 0
    target = warmup_instructions + max_instructions

    # Hoisted per run; tracing/telemetry cannot toggle mid-simulation.
    tracer = obs_trace._ACTIVE
    beacon = obs_telemetry._BEACON
    deadline = rb_deadline._DEADLINE
    sampler = memory.counters
    if sampler is not None and measuring:
        # No warmup: the measured region starts at cycle 0.  Sampling
        # happens at committed-instruction boundaries, so the series is
        # bit-identical to the reference loop's; idle-cycle jumps below
        # land inside the enclosing interval's cycle delta for free.
        sampler.begin(cycle, committed, pipeline)

    while committed < target and not (trace_done and not window):
        if deadline is not None:
            deadline.tick(cycle)
        # Inlined CommitWatchdog.check guard: the mirror ``wd_last``
        # tracks its ``_last_progress_cycle`` exactly, so ``check``
        # (which then raises) is only entered when it would raise.
        if wd_limit and window and cycle - wd_last > wd_limit:
            watchdog.check(cycle, window, mshrs)

        # ---------------- commit ----------------
        n_commit = 0
        while window and n_commit < commit_width:
            slot = window[0]
            if not slot.issued or slot.complete > cycle:
                break
            window.popleft()
            if slot.seq != expected_seq:
                raise SimulationInvariantError(
                    f"out-of-order commit: window head has seq {slot.seq}, "
                    f"expected {expected_seq} at cycle {cycle}",
                    {"instruction window": dump_window(window, cycle)},
                )
            expected_seq += 1
            mop = slot.mop
            op = mop.op
            if tracer is not None:
                tracer.capture(
                    obs.CPU_COMMIT, cycle, {"seq": slot.seq, "op": op.name}
                )
            if op is _LOAD or op is _STORE:
                lsq_used -= 1
                if lsq_used < 0:
                    raise SimulationInvariantError(
                        f"load/store queue underflow committing seq "
                        f"{slot.seq} at cycle {cycle}",
                        {"instruction window": dump_window(window, cycle)},
                    )
                if op is _STORE:
                    # Drain after commit, lowest priority (next cycle).
                    memory_store(mop.address, cycle + 1)
                    line = mop.address >> line_shift
                    entry = store_lines.get(line)
                    if entry is not None and entry[0] == slot.seq:
                        del store_lines[line]
            if measuring:
                name = op_names[op]
                op_counts[name] = op_counts.get(name, 0) + 1
            committed += 1
            n_commit += 1
            if slot is not blocking_branch:
                # A mispredicted branch can commit while its redirect
                # penalty is still stalling fetch; its slot stays live
                # until the resume check below releases it.
                freelist.append(slot)
            if committed == warmup_instructions and not measuring:
                measuring = True
                measure_start_cycle = cycle
                measure_start_committed = committed
                core._reset_stats()
                pipeline = PipelineStats()
                if sampler is not None:
                    sampler.begin(cycle, committed, pipeline)
            if sampler is not None and committed == sampler.next_at:
                sampler.take(cycle, committed, pipeline)
            if committed >= target:
                break
        if n_commit:
            if watchdog is not None:
                watchdog.progress(cycle)
                wd_last = cycle
            if beacon is not None:
                beacon.progress(committed)
            commits_since_audit += n_commit
            if audit_interval and commits_since_audit >= audit_interval:
                commits_since_audit = 0
                memory.audit(cycle)

        # ---------------- issue ----------------
        while ready_heap and ready_heap[0][0] <= cycle:
            entry = heappop(ready_heap)
            insort(eligible, (entry[1], entry[2]))
        n_issue = 0
        if eligible:
            if fu_limits is None:
                take = len(eligible)
                if take > issue_width:
                    take = issue_width
                for index in range(take):
                    seq, slot = eligible[index]
                    if tracer is not None:
                        issue_one(
                            core, slot, cycle, store_lines, pipeline, tracer
                        )
                        when = slot.complete
                    else:
                        # Inline of reference.issue_slot (the canonical
                        # version) minus its tracer branches; the
                        # parity suite and golden snapshots pin the two
                        # paths identical.
                        mop = slot.mop
                        op = mop.op
                        if op is _LOAD:
                            address_ready = cycle + ADDRESS_CALC_CYCLES
                            entry = (
                                store_lines.get(mop.address >> line_shift)
                                if store_forwarding
                                else None
                            )
                            if entry is not None:
                                pipeline.store_forwards += 1
                                when = address_ready + 1
                                forwarded = entry[1] + 1
                                if forwarded > when:
                                    when = forwarded
                            else:
                                when = memory_load(
                                    mop.address, address_ready
                                ).completion_cycle
                        elif op is _STORE:
                            when = cycle + ADDRESS_CALC_CYCLES
                            if store_forwarding:
                                store_lines[mop.address >> line_shift] = (seq, when)
                        else:
                            when = cycle + alu_latency[op]
                        slot.complete = when
                        slot.issued = True
                    masked = seq & _RING_MASK
                    comp[masked] = when
                    heappush(completion_heap, (when, seq))
                    waiters = consumers[masked]
                    if waiters is not None:
                        consumers[masked] = None
                        for waiter in waiters:
                            if when > waiter.ready:
                                waiter.ready = when
                            waiter.pending -= 1
                            if not waiter.pending:
                                heappush(
                                    ready_heap,
                                    (waiter.ready, waiter.seq, waiter),
                                )
                del eligible[:take]
                n_issue = take
            else:
                # Structural hazards: same skip-but-stay-eligible
                # behavior as the reference scan, oldest first.
                fu_free = dict(fu_limits)
                remaining: list = []
                for entry in eligible:
                    if n_issue >= issue_width:
                        remaining.append(entry)
                        continue
                    seq, slot = entry
                    unit = FU_CLASS[slot.mop.op]
                    if fu_free.get(unit, 0) <= 0:
                        remaining.append(entry)
                        continue
                    issue_one(core, slot, cycle, store_lines, pipeline, tracer)
                    when = slot.complete
                    masked = seq & _RING_MASK
                    comp[masked] = when
                    heappush(completion_heap, (when, seq))
                    waiters = consumers[masked]
                    if waiters is not None:
                        consumers[masked] = None
                        for waiter in waiters:
                            if when > waiter.ready:
                                waiter.ready = when
                            waiter.pending -= 1
                            if not waiter.pending:
                                heappush(
                                    ready_heap,
                                    (waiter.ready, waiter.seq, waiter),
                                )
                    fu_free[unit] -= 1
                    n_issue += 1
                eligible = remaining

        # ---------------- fetch ----------------
        n_fetch = 0
        if blocking_branch is not None:
            if blocking_branch.issued:
                resume = blocking_branch.complete + redirect_penalty
                if cycle >= resume:
                    if tracer is not None:
                        tracer.capture(
                            obs.CPU_FLUSH,
                            cycle,
                            {"seq": blocking_branch.seq, "resume": resume},
                        )
                    if blocking_branch.seq < expected_seq:
                        # Already committed; recyclable now that the
                        # redirect stall is over.
                        freelist.append(blocking_branch)
                    blocking_branch = None
            if blocking_branch is not None and measuring:
                pipeline.mispredict_stall_cycles += 1
        if blocking_branch is None and not trace_done:
            while n_fetch < fetch_width:
                if len(window) >= window_size:
                    if measuring:
                        pipeline.window_full_stalls += 1
                    break
                if held is not None:
                    mop, held = held, None
                elif tape is not None:
                    if tape_index < len(tape) or tape_extend():
                        mop = tape[tape_index]
                        tape_index += 1
                    else:
                        mop = None
                else:
                    mop = next(trace, None)
                if mop is None:
                    trace_done = True
                    break
                op = mop.op
                is_mem = op is _LOAD or op is _STORE
                if is_mem and lsq_used >= lsq_size:
                    if measuring:
                        pipeline.lsq_full_stalls += 1
                    held = mop  # retry next cycle
                    break
                seq = fetched
                if freelist:
                    slot = freelist.pop()
                    slot.seq = seq
                    slot.mop = mop
                    slot.complete = 0
                    slot.issued = False
                else:
                    slot = _FastSlot(seq, mop)
                masked = seq & _RING_MASK
                comp[masked] = _NOT_ISSUED
                consumers[masked] = None
                window.append(slot)
                fetched += 1
                n_fetch += 1
                if tracer is not None:
                    tracer.capture(
                        obs.CPU_FETCH, cycle, {"seq": seq, "op": op.name}
                    )
                if is_mem:
                    lsq_used += 1
                    if lsq_used > lsq_size:
                        raise SimulationInvariantError(
                            f"load/store queue overflow ({lsq_used} > "
                            f"{lsq_size}) fetching seq {slot.seq} "
                            f"at cycle {cycle}",
                            {"instruction window": dump_window(window, cycle)},
                        )
                # Register dependencies: count unissued producers, take
                # the max completion among issued ones.
                pending = 0
                ready = 0
                for distance in mop.srcs:
                    producer = seq - distance
                    if producer >= 0:
                        pmasked = producer & _RING_MASK
                        when = comp[pmasked]
                        if when < 0:
                            pending += 1
                            waiters = consumers[pmasked]
                            if waiters is None:
                                consumers[pmasked] = [slot]
                            else:
                                waiters.append(slot)
                        elif when > ready:
                            ready = when
                slot.pending = pending
                slot.ready = ready
                if not pending:
                    if ready <= cycle:
                        # Already issuable at the next issue stage; the
                        # ready heap would pop it straight back out, and
                        # a fresh fetch always carries the highest seq,
                        # so appending keeps ``eligible`` seq-sorted.
                        eligible.append((seq, slot))
                    else:
                        heappush(ready_heap, (ready, seq, slot))
                if op is _BRANCH:
                    if not predictor_observe(mop.pc, mop.taken):
                        blocking_branch = slot
                        break

        # ---------------- advance time ----------------
        if n_commit or n_issue or n_fetch:
            cycle += 1
        else:
            # Identical horizon to the reference window scan, from three
            # incremental sources: the earliest in-flight completion,
            # the earliest dep-satisfied ready time (eligible slots are
            # ready *now*, so they pin the horizon to cycle + 1), and
            # the mispredicted branch's fetch-resume cycle.
            while completion_heap and completion_heap[0][1] < expected_seq:
                heappop(completion_heap)
            horizon = completion_heap[0][0] if completion_heap else None
            if eligible and (horizon is None or cycle + 1 < horizon):
                horizon = cycle + 1
            if ready_heap:
                candidate = ready_heap[0][0]
                if horizon is None or candidate < horizon:
                    horizon = candidate
            if blocking_branch is not None and blocking_branch.issued:
                resume = blocking_branch.complete + redirect_penalty
                if horizon is None or resume < horizon:
                    horizon = resume
            cycle = cycle + 1 if horizon is None or horizon <= cycle else horizon

    if tape is not None:
        trace.index = tape_index

    # Final structural audit: catches corruption that accumulated
    # after the last periodic check (or any at all on short runs).
    memory.audit(cycle)

    counters_series = None
    if sampler is not None:
        sampler.finish(cycle, committed, pipeline)
        counters_series = sampler.series()

    result = SimulationResult(
        instructions=committed - measure_start_committed,
        cycles=max(1, cycle - measure_start_cycle),
        op_counts=op_counts,
        pipeline=pipeline,
        branches=core.predictor.stats,
        memory=memory.stats,
        backend=FastBackend.name,
        counters=counters_series,
    )
    result.metrics = snapshot_simulation(result, memory)
    return result
