"""The four-issue dynamic superscalar out-of-order core (MXS stand-in).

Cycle-level trace-driven model of the machine in Figure 2:

* in-order **fetch** of up to 4 instructions/cycle into a 64-entry
  instruction window, with hardware branch prediction -- a mispredicted
  branch stalls fetch until the branch resolves (wrong-path execution is
  not simulated, the standard trace-driven approximation);
* out-of-order **issue** of up to 4 ready instructions/cycle, oldest
  first, with *no restriction on instruction types* per cycle (the paper
  removes functional-unit mix limits to focus on the memory system);
* loads/stores take one address-calculation cycle and then access the
  :class:`~repro.memory.hierarchy.MemorySystem`, which folds in port,
  bank, MSHR, and bus contention and returns the completion cycle;
* in-order **commit** of up to 4 instructions/cycle; stores drain from
  the store buffer to the cache after commit at lowest priority.

The 32-entry load/store buffer gates dispatch of memory operations.

The cycle loop itself lives in :mod:`repro.kernel`: :meth:`run`
dispatches to the selected :class:`~repro.kernel.SimulationBackend`
(the event-driven default in ``repro.kernel.fast``, the reference
loop moved verbatim to ``repro.kernel.reference``).
"""

from __future__ import annotations

from typing import Iterator

from repro.cpu.branch import BranchStats, make_predictor
from repro.cpu.config import _RING, ProcessorConfig
from repro.cpu.isa import MAX_DEP_DISTANCE, MicroOp
from repro.cpu.result import SimulationResult
from repro.memory.hierarchy import MemorySystem

_NOT_ISSUED = -1
_RING_MASK = _RING - 1
assert _RING >= MAX_DEP_DISTANCE + 512, "ring must outlive any dependence"


class _Slot:
    """One instruction in flight."""

    __slots__ = ("seq", "mop", "complete", "issued")

    def __init__(self, seq: int, mop: MicroOp):
        self.seq = seq
        self.mop = mop
        self.complete = 0  # valid only when issued
        self.issued = False


class OutOfOrderCore:
    """Runs a micro-op trace against a memory system and reports timing."""

    def __init__(self, config: ProcessorConfig, memory: MemorySystem):
        self.config = config.validated()
        self.memory = memory
        self.predictor = make_predictor(
            config.branch_predictor, config.predictor_entries
        )

    def run(
        self,
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

        Runs on the selected :mod:`repro.kernel` backend
        (``REPRO_BACKEND`` / ``--backend``; :func:`repro.kernel.use_backend`
        scopes a choice).  All backends produce bit-identical results.
        """
        from repro import kernel

        return kernel.active_backend().run(
            self, trace, max_instructions, warmup_instructions=warmup_instructions
        )

    def _reset_stats(self) -> None:
        """Zero every statistics object after cache warmup."""
        from repro.memory.stats import MemoryStats

        self.memory.stats = MemoryStats()
        self.predictor.stats = BranchStats()
        arbiter = self.memory.arbiter
        arbiter.stats = type(arbiter.stats)()
        self.memory.mshrs.stats = type(self.memory.mshrs.stats)()
        self.memory.mshrs.occupancy_peak = 0
        if self.memory.line_buffer is not None:
            self.memory.line_buffer.stats = type(self.memory.line_buffer.stats)()
        if getattr(self.memory, "victim_cache", None) is not None:
            self.memory.victim_cache.stats = type(self.memory.victim_cache.stats)()
        backside = self.memory.backside
        backside.stats = type(backside.stats)()
        if self.memory.attribution is not None:
            # Attribution covers the measured region only, same as stats.
            self.memory.attribution.reset()


def simulate(
    trace: Iterator[MicroOp],
    memory: MemorySystem,
    *,
    config: ProcessorConfig | None = None,
    max_instructions: int = 20_000,
    warmup_instructions: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build a core and run a trace."""
    core = OutOfOrderCore(config or ProcessorConfig(), memory)
    return core.run(
        trace, max_instructions, warmup_instructions=warmup_instructions
    )
