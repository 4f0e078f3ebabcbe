"""The fast simulation backend: event-driven, result-identical.

Same machine, different bookkeeping.  Where the reference loop rescans
the whole 64-entry window every iteration (issue) and again on every
idle cycle (skip), this loop tracks readiness incrementally:

* **the window is a seq range** -- the in-flight instructions are
  exactly the seqs ``[committed, fetched)``, so their state (micro-op,
  completion cycle or ``_NOT_ISSUED``, unissued-producer count, ready
  cycle, waiter seqs) lives in rings indexed by ``seq & _RING_MASK``,
  with no per-instruction objects.  :meth:`ProcessorConfig.validated`
  bounds the window so that no two live seqs, nor a live seq and a
  producer it still reads, share a ring entry;
* **dependency counting** -- each fetched instruction knows how many
  of its producers are still unissued (``pending``) and the latest
  completion among those already issued (``ready``); producers keep
  waiter lists of seqs, so an issue touches exactly its consumers;
* **ready heap / eligible list** -- dep-satisfied seqs wait in a
  min-heap keyed by ready cycle; once ready they move to a sorted
  eligible list, so the issue stage walks only genuinely issuable
  instructions (in the same oldest-first order the reference scan
  produces);
* **heap-free idle horizon** -- an idle iteration takes the earliest
  of the ready heap's top, the mispredicted branch's resume cycle and
  the in-flight completions, scanning the window from its head only
  until some issued instruction completes by the next cycle.  On the
  perfbench sweeps every idle iteration is a one-cycle step, so the
  scan stops early;
* **tapes** -- every fetch reads a :class:`~repro.kernel.tracecache.TapeReplay`
  (a plain iterator is taped as it is consumed), and the measured op
  mix is counted once per run over the committed slice of the tape;
* **precomputed workload artifacts** -- the functional-warmup stream
  and the timing trace come from :mod:`repro.kernel.tracecache`, so
  thirty organizations of one benchmark generate them once.

Every architectural decision -- which instructions issue on which
cycle, in which order memory is accessed, when stats reset, when the
watchdog and audits run, which trace events fire -- is made
identically to :mod:`repro.kernel.reference`.  The stall counters even
preserve the reference loop's *iteration* semantics (they count loop
iterations, not cycles), which is why the advance/skip structure
mirrors it exactly.  ``tests/engine/test_backends.py``, the kernel
property test and the golden suite hold the two backends
bit-identical.

This is the default backend.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import Counter
from heapq import heappop, heappush
from operator import attrgetter
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
#: (a Python-level call); read the op mix's names from a plain dict.
_OP_NAMES = {op: op.name for op in Op}
_OP_OF = attrgetter("op")


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


def _window(first: int, end: int, mops: list, comp: list) -> list:
    """Slot-shaped views of seqs ``[first, end)``, for the failure dumps."""
    from repro.cpu.core import _RING_MASK, _Slot

    slots = []
    for seq in range(first, end):
        slot = _Slot(seq, mops[seq & _RING_MASK])
        when = comp[seq & _RING_MASK]
        if when >= 0:
            slot.complete = when
            slot.issued = True
        slots.append(slot)
    return slots


def run_loop(
    core: "OutOfOrderCore",
    trace: Iterator[MicroOp],
    max_instructions: int,
    *,
    warmup_instructions: int = 0,
) -> SimulationResult:
    """The event-driven cycle loop (see module docstring)."""
    from repro.cpu.core import _NOT_ISSUED, _RING, _RING_MASK, _Slot

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

    # Seq ``s`` is ``tape[base + s]``: one list index per fetch instead
    # of a generator-frame resume.  The cursor is written back on exit,
    # just past the last fetched micro-op, so the iterator stays
    # resumable.
    if type(trace) is not tracecache.TapeReplay:
        trace = tracecache.TapeReplay.over(trace)
    tape = trace.tape
    tape_extend = trace.extend
    base = trace.index

    # Per-seq rings; the window is the seq range [committed, fetched).
    mops: "list[MicroOp | None]" = [None] * _RING
    comp = [0] * _RING  # completion cycle by seq; pre-trace state is ready
    pending = [0] * _RING  # unissued producers of an unissued seq
    ready = [0] * _RING  # latest completion among its issued producers
    consumers: "list[list[int] | None]" = [None] * _RING  # waiter seqs
    ready_heap: list = []  # (ready, seq): deps met, waiting on time
    eligible: list[int] = []  # seqs issuable now, oldest first
    pipeline = PipelineStats()
    store_lines: dict[int, tuple[int, int]] = {}  # line -> (seq, ready)

    cycle = 0
    fetched = 0
    committed = 0  # also the seq at the head of the window
    commits_since_audit = 0
    lsq_used = 0
    wd_limit = cfg.watchdog_stall_cycles
    wd_last = 0  # mirrors watchdog._last_progress_cycle, loop-locally
    watchdog = CommitWatchdog(wd_limit) if wd_limit else None
    blocking_branch: int | None = None  # seq of a mispredicted branch
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

    while committed < target and not (trace_done and committed == fetched):
        if deadline is not None:
            deadline.tick(cycle)
        # Inlined CommitWatchdog.check guard: the mirror ``wd_last``
        # tracks its ``_last_progress_cycle`` exactly, so ``check``
        # (which then raises) is only entered when it would raise.
        if wd_limit and committed < fetched and cycle - wd_last > wd_limit:
            watchdog.check(
                cycle, _window(committed, fetched, mops, comp), mshrs
            )

        # ---------------- commit ----------------
        n_commit = 0
        while committed < fetched and n_commit < commit_width:
            masked = committed & _RING_MASK
            when = comp[masked]
            if when < 0 or when > cycle:
                break
            mop = mops[masked]
            op = mop.op
            if tracer is not None:
                tracer.capture(
                    obs.CPU_COMMIT, cycle, {"seq": committed, "op": op.name}
                )
            if op is _LOAD or op is _STORE:
                lsq_used -= 1
                if lsq_used < 0:
                    window = _window(committed + 1, fetched, mops, comp)
                    raise SimulationInvariantError(
                        f"load/store queue underflow committing seq "
                        f"{committed} at cycle {cycle}",
                        {"instruction window": dump_window(window, cycle)},
                    )
                if op is _STORE:
                    # Drain after commit, lowest priority (next cycle).
                    memory_store(mop.address, cycle + 1)
                    line = mop.address >> line_shift
                    entry = store_lines.get(line)
                    if entry is not None and entry[0] == committed:
                        del store_lines[line]
            committed += 1
            n_commit += 1
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
            insort(eligible, heappop(ready_heap)[1])
        n_issue = 0
        if eligible:
            if fu_limits is None:
                issuing = eligible[:issue_width]
                del eligible[:issue_width]
            else:
                # Structural hazards: same skip-but-stay-eligible
                # behavior as the reference scan, oldest first.
                fu_free = dict(fu_limits)
                issuing = []
                remaining: list[int] = []
                for seq in eligible:
                    unit = FU_CLASS[mops[seq & _RING_MASK].op]
                    if len(issuing) < issue_width and fu_free.get(unit, 0) > 0:
                        fu_free[unit] -= 1
                        issuing.append(seq)
                    else:
                        remaining.append(seq)
                eligible = remaining
            n_issue = len(issuing)
            for seq in issuing:
                masked = seq & _RING_MASK
                mop = mops[masked]
                if tracer is not None:
                    slot = _Slot(seq, mop)
                    issue_one(core, slot, cycle, store_lines, pipeline, tracer)
                    when = slot.complete
                else:
                    # Inline of reference.issue_slot (the canonical
                    # version) minus its tracer branches; the parity
                    # suite and golden snapshots pin the two paths
                    # identical.
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
                comp[masked] = when
                waiters = consumers[masked]
                if waiters is not None:
                    consumers[masked] = None
                    for waiter in waiters:
                        wmasked = waiter & _RING_MASK
                        if when > ready[wmasked]:
                            ready[wmasked] = when
                        left = pending[wmasked] - 1
                        pending[wmasked] = left
                        if not left:
                            heappush(ready_heap, (ready[wmasked], waiter))

        # ---------------- fetch ----------------
        n_fetch = 0
        if blocking_branch is not None:
            # Fetch is stalled, so the branch's ring entry outlives its
            # commit until the redirect completes.
            when = comp[blocking_branch & _RING_MASK]
            if when >= 0:
                resume = when + redirect_penalty
                if cycle >= resume:
                    if tracer is not None:
                        tracer.capture(
                            obs.CPU_FLUSH,
                            cycle,
                            {"seq": blocking_branch, "resume": resume},
                        )
                    blocking_branch = None
            if blocking_branch is not None and measuring:
                pipeline.mispredict_stall_cycles += 1
        if blocking_branch is None and not trace_done:
            while n_fetch < fetch_width:
                if fetched - committed >= window_size:
                    if measuring:
                        pipeline.window_full_stalls += 1
                    break
                position = base + fetched
                if position == len(tape) and not tape_extend():
                    trace_done = True
                    break
                mop = tape[position]
                op = mop.op
                is_mem = op is _LOAD or op is _STORE
                if is_mem and lsq_used >= lsq_size:
                    if measuring:
                        pipeline.lsq_full_stalls += 1
                    break  # the same micro-op retries next cycle
                seq = fetched
                masked = seq & _RING_MASK
                mops[masked] = mop
                comp[masked] = _NOT_ISSUED
                fetched += 1
                n_fetch += 1
                if tracer is not None:
                    tracer.capture(
                        obs.CPU_FETCH, cycle, {"seq": seq, "op": op.name}
                    )
                if is_mem:
                    lsq_used += 1
                    if lsq_used > lsq_size:
                        window = _window(committed, fetched, mops, comp)
                        raise SimulationInvariantError(
                            f"load/store queue overflow ({lsq_used} > "
                            f"{lsq_size}) fetching seq {seq} "
                            f"at cycle {cycle}",
                            {"instruction window": dump_window(window, cycle)},
                        )
                # Register dependencies: count unissued producers, take
                # the max completion among issued ones.
                waiting = 0
                at = 0
                for distance in mop.srcs:
                    producer = seq - distance
                    if producer >= 0:
                        pmasked = producer & _RING_MASK
                        when = comp[pmasked]
                        if when < 0:
                            waiting += 1
                            waiters = consumers[pmasked]
                            if waiters is None:
                                consumers[pmasked] = [seq]
                            else:
                                waiters.append(seq)
                        elif when > at:
                            at = when
                if waiting:
                    pending[masked] = waiting
                    ready[masked] = at
                elif at <= cycle:
                    # Already issuable at the next issue stage; the
                    # ready heap would pop it straight back out, and a
                    # fresh fetch always carries the highest seq, so
                    # appending keeps ``eligible`` sorted.
                    eligible.append(seq)
                else:
                    heappush(ready_heap, (at, seq))
                if op is _BRANCH:
                    if not predictor_observe(mop.pc, mop.taken):
                        blocking_branch = seq
                        break

        # ---------------- advance time ----------------
        cycle += 1
        if not (n_commit or n_issue or n_fetch or eligible):
            # Identical horizon to the reference window scan: the
            # earliest dep-satisfied ready time, the mispredicted
            # branch's fetch-resume cycle and the earliest in-flight
            # completion, but never less than one cycle on.  (Eligible
            # instructions are ready *now*, which pins it to one.)  The
            # window scan stops at the first completion that does.
            horizon = ready_heap[0][0] if ready_heap else None
            if blocking_branch is not None:
                when = comp[blocking_branch & _RING_MASK]
                if when >= 0:
                    resume = when + redirect_penalty
                    if horizon is None or resume < horizon:
                        horizon = resume
            if horizon is None or horizon > cycle:
                for seq in range(committed, fetched):
                    when = comp[seq & _RING_MASK]
                    if when >= 0 and (horizon is None or when < horizon):
                        horizon = when
                        if when <= cycle:
                            break
                if horizon is not None and horizon > cycle:
                    cycle = horizon

    trace.index = base + fetched

    # The measured op mix, counted once: the tape slice is in commit
    # order, so the dict keeps each op's first-commit key order.
    op_counts = {
        _OP_NAMES[op]: count
        for op, count in Counter(
            map(_OP_OF, tape[base + warmup_instructions : base + committed])
        ).items()
    }

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
