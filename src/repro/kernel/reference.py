"""The reference simulation backend: the oracle, the original cycle loop.

This module is the old body of :meth:`OutOfOrderCore.run` (plus its
issue and idle-skip helpers) moved behind the
:class:`~repro.kernel.SimulationBackend` seam.  It is deliberately
*not* optimized: the golden suite pins its output, and the default
``fast`` backend's correctness bar is bit-identical agreement with
this code.  Select it with ``--backend reference``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.cpu.isa import ADDRESS_CALC_CYCLES, FU_CLASS, MicroOp, Op
from repro.cpu.result import PipelineStats, SimulationResult
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
    from repro.cpu.core import OutOfOrderCore, _Slot
    from repro.memory.hierarchy import MemorySystem
    from repro.workloads.generator import WorkloadSpec


class ReferenceBackend:
    """The original pure-Python simulation path."""

    name = "reference"

    def prepare(
        self,
        spec: "WorkloadSpec",
        memory: "MemorySystem",
        settings: "ExperimentSettings",
    ) -> Iterator[MicroOp]:
        """Functional warm-up exactly as ``_simulate`` always did it."""
        from repro.workloads.generator import WorkloadGenerator

        generator = WorkloadGenerator(spec, settings.seed)
        if settings.functional_warmup > 0:
            # Steady state of a 100M+ instruction run: the second level
            # holds the footprint, the first level reflects recent
            # traffic.
            memory.prefill_backside(generator.footprint_lines(memory.line_bytes))
            memory.warm(generator.memory_references(settings.functional_warmup))
        return generator.instructions()

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


def run_loop(
    core: "OutOfOrderCore",
    trace: Iterator[MicroOp],
    max_instructions: int,
    *,
    warmup_instructions: int = 0,
) -> SimulationResult:
    """Simulate until ``max_instructions`` commit (post-warmup).

    ``warmup_instructions`` are executed first to warm the caches and
    predictor; statistics are reset when they have committed, so the
    reported IPC covers only the measured region (the paper likewise
    simulates "an interesting portion" of each benchmark).
    """
    from repro.cpu.core import _NOT_ISSUED, _RING, _RING_MASK, _Slot

    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    cfg = core.config
    window: "deque[_Slot]" = deque()
    comp = [0] * _RING  # completion cycle by seq; pre-trace state is ready
    pipeline = PipelineStats()
    op_counts: dict[str, int] = {}
    store_lines: dict[int, tuple[int, int]] = {}  # line -> (seq, ready)

    cycle = 0
    fetched = 0
    committed = 0
    expected_seq = 0
    commits_since_audit = 0
    lsq_used = 0
    watchdog = (
        CommitWatchdog(cfg.watchdog_stall_cycles)
        if cfg.watchdog_stall_cycles
        else None
    )
    held: MicroOp | None = None  # fetched but blocked on a full LSQ
    blocking_branch: "_Slot | None" = None
    trace_done = False
    measuring = warmup_instructions == 0
    measure_start_cycle = 0
    measure_start_committed = 0
    target = warmup_instructions + max_instructions
    # Hoisted once per run: tracing/telemetry cannot toggle
    # mid-simulation, so the hot loops below pay a single local
    # ``is None`` test.
    tracer = obs_trace._ACTIVE
    beacon = obs_telemetry._BEACON
    deadline = rb_deadline._DEADLINE
    sampler = core.memory.counters
    if sampler is not None and measuring:
        # No warmup: the measured region starts at cycle 0.
        sampler.begin(cycle, committed, pipeline)

    while committed < target and not (trace_done and not window):
        # Wall-clock budget first: even a loop the cycle-domain
        # watchdog considers "making progress" must end when the
        # point's deadline expires.  Off by default; ``tick`` masks
        # the clock read when on.
        if deadline is not None:
            deadline.tick(cycle)
        # Check for deadlock *before* commit: a stuck completion at a
        # far-future cycle would otherwise be reached by the
        # time-jump below and "commit" via time travel.
        if watchdog is not None and window:
            watchdog.check(cycle, window, core.memory.mshrs)

        # ---------------- commit ----------------
        n_commit = 0
        while (
            window
            and n_commit < cfg.commit_width
            and window[0].issued
            and window[0].complete <= cycle
        ):
            slot = window.popleft()
            if slot.seq != expected_seq:
                raise SimulationInvariantError(
                    f"out-of-order commit: window head has seq {slot.seq}, "
                    f"expected {expected_seq} at cycle {cycle}",
                    {"instruction window": dump_window(window, cycle)},
                )
            expected_seq += 1
            mop = slot.mop
            if tracer is not None:
                tracer.capture(
                    obs.CPU_COMMIT, cycle, {"seq": slot.seq, "op": mop.op.name}
                )
            if mop.is_memory:
                lsq_used -= 1
                if lsq_used < 0:
                    raise SimulationInvariantError(
                        f"load/store queue underflow committing seq "
                        f"{slot.seq} at cycle {cycle}",
                        {"instruction window": dump_window(window, cycle)},
                    )
                if mop.op is Op.STORE:
                    # Drain after commit, lowest priority (next cycle).
                    core.memory.store(mop.address, cycle + 1)
                    entry = store_lines.get(core.memory.line_of(mop.address))
                    if entry is not None and entry[0] == slot.seq:
                        del store_lines[core.memory.line_of(mop.address)]
            if measuring:
                name = mop.op.name
                op_counts[name] = op_counts.get(name, 0) + 1
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
            if beacon is not None:
                beacon.progress(committed)
            commits_since_audit += n_commit
            if (
                cfg.audit_interval_commits
                and commits_since_audit >= cfg.audit_interval_commits
            ):
                commits_since_audit = 0
                core.memory.audit(cycle)

        # ---------------- issue ----------------
        n_issue = 0
        fu_free = dict(cfg.fu_limits) if cfg.fu_limits is not None else None
        for slot in window:
            if n_issue >= cfg.issue_width:
                break
            if slot.issued:
                continue
            if fu_free is not None:
                unit = FU_CLASS[slot.mop.op]
                if fu_free.get(unit, 0) <= 0:
                    continue  # structural hazard: no unit this cycle
            srcs = slot.mop.srcs
            ready = 0
            ok = True
            seq = slot.seq
            for distance in srcs:
                producer = seq - distance
                if producer >= 0:
                    when = comp[producer & _RING_MASK]
                    if when < 0:
                        ok = False
                        break
                    if when > ready:
                        ready = when
            if not ok or ready > cycle:
                continue
            issue_slot(core, slot, cycle, store_lines, pipeline, tracer)
            comp[seq & _RING_MASK] = slot.complete
            n_issue += 1
            if fu_free is not None:
                fu_free[FU_CLASS[slot.mop.op]] -= 1

        # ---------------- fetch ----------------
        n_fetch = 0
        if blocking_branch is not None:
            if blocking_branch.issued:
                resume = (
                    blocking_branch.complete + cfg.mispredict_redirect_penalty
                )
                if cycle >= resume:
                    if tracer is not None:
                        tracer.capture(
                            obs.CPU_FLUSH,
                            cycle,
                            {"seq": blocking_branch.seq, "resume": resume},
                        )
                    blocking_branch = None
            if blocking_branch is not None and measuring:
                pipeline.mispredict_stall_cycles += 1
        if blocking_branch is None and not trace_done:
            while n_fetch < cfg.fetch_width:
                if len(window) >= cfg.window_size:
                    if measuring:
                        pipeline.window_full_stalls += 1
                    break
                if held is not None:
                    mop, held = held, None
                else:
                    mop = next(trace, None)
                if mop is None:
                    trace_done = True
                    break
                if mop.is_memory and lsq_used >= cfg.lsq_size:
                    if measuring:
                        pipeline.lsq_full_stalls += 1
                    held = mop  # retry next cycle
                    break
                slot = _Slot(fetched, mop)
                comp[fetched & _RING_MASK] = _NOT_ISSUED
                window.append(slot)
                fetched += 1
                n_fetch += 1
                if tracer is not None:
                    tracer.capture(
                        obs.CPU_FETCH, cycle, {"seq": slot.seq, "op": mop.op.name}
                    )
                if mop.is_memory:
                    lsq_used += 1
                    if lsq_used > cfg.lsq_size:
                        raise SimulationInvariantError(
                            f"load/store queue overflow ({lsq_used} > "
                            f"{cfg.lsq_size}) fetching seq {slot.seq} "
                            f"at cycle {cycle}",
                            {"instruction window": dump_window(window, cycle)},
                        )
                if mop.op is Op.BRANCH:
                    if not core.predictor.observe(mop.pc, mop.taken):
                        blocking_branch = slot
                        break

        # ---------------- advance time ----------------
        if n_commit or n_issue or n_fetch:
            cycle += 1
        else:
            cycle = skip_to_next_event(core, cycle, window, comp, blocking_branch)

    # Final structural audit: catches corruption that accumulated
    # after the last periodic check (or any at all on short runs).
    core.memory.audit(cycle)

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
        memory=core.memory.stats,
        backend=ReferenceBackend.name,
        counters=counters_series,
    )
    result.metrics = snapshot_simulation(result, core.memory)
    return result


def issue_slot(
    core: "OutOfOrderCore",
    slot: "_Slot",
    cycle: int,
    store_lines: dict[int, tuple[int, int]],
    pipeline: PipelineStats,
    tracer: "obs_trace.Tracer | None" = None,
) -> None:
    """Issue one ready slot (shared verbatim by both backends)."""
    mop = slot.mop
    op = mop.op
    if op is Op.LOAD:
        address_ready = cycle + ADDRESS_CALC_CYCLES
        if core.config.store_forwarding:
            line = core.memory.line_of(mop.address)
            entry = store_lines.get(line)
            if entry is not None:
                pipeline.store_forwards += 1
                slot.complete = max(address_ready + 1, entry[1] + 1)
                slot.issued = True
                if tracer is not None:
                    tracer.capture(
                        obs.CPU_ISSUE,
                        cycle,
                        {
                            "seq": slot.seq,
                            "op": op.name,
                            "complete": slot.complete,
                            "fwd": True,
                        },
                    )
                return
        result = core.memory.load(mop.address, address_ready)
        slot.complete = result.completion_cycle
    elif op is Op.STORE:
        slot.complete = cycle + ADDRESS_CALC_CYCLES
        if core.config.store_forwarding:
            line = core.memory.line_of(mop.address)
            store_lines[line] = (slot.seq, slot.complete)
    else:
        slot.complete = cycle + mop.latency
    slot.issued = True
    if tracer is not None:
        tracer.capture(
            obs.CPU_ISSUE,
            cycle,
            {"seq": slot.seq, "op": op.name, "complete": slot.complete},
        )


def skip_to_next_event(
    core: "OutOfOrderCore",
    cycle: int,
    window: "deque[_Slot]",
    comp: list[int],
    blocking_branch: "_Slot | None",
) -> int:
    """Nothing happened this cycle: jump to the next interesting one."""
    from repro.cpu.core import _RING_MASK

    horizon: int | None = None
    for slot in window:
        if slot.issued:
            candidate = slot.complete
        else:
            candidate = None
            ready = 0
            for distance in slot.mop.srcs:
                producer = slot.seq - distance
                if producer >= 0:
                    when = comp[producer & _RING_MASK]
                    if when < 0:
                        ready = -1
                        break
                    ready = max(ready, when)
            if ready >= 0:
                candidate = max(cycle + 1, ready)
        if candidate is not None and (horizon is None or candidate < horizon):
            horizon = candidate
    if blocking_branch is not None and blocking_branch.issued:
        resume = blocking_branch.complete + core.config.mispredict_redirect_penalty
        if horizon is None or resume < horizon:
            horizon = resume
    if horizon is None or horizon <= cycle:
        return cycle + 1
    return horizon
