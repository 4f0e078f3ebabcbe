"""Processor configuration (section 3.1 / Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import MAX_DEP_DISTANCE

#: Entries in the kernel loops' per-instruction rings, indexed by
#: ``seq & (_RING - 1)``.  A loop reads a producer's completion up to
#: ``MAX_DEP_DISTANCE`` seqs behind the oldest instruction in the
#: window, so a window above ``_RING - MAX_DEP_DISTANCE`` would alias.
_RING = 1024


@dataclass(frozen=True)
class ProcessorConfig:
    """The paper's four-issue dynamic superscalar machine.

    Defaults mirror Figure 2: 4-issue, R10000 instruction latencies, a
    64-entry instruction window (reorder buffer), a 32-entry load/store
    buffer, hardware branch prediction, and no restriction on the mix of
    instruction types issued per cycle.  The instruction cache is
    perfect (handled by the core: fetch never misses).
    """

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    window_size: int = 64
    lsq_size: int = 32
    branch_predictor: str = "twobit"
    predictor_entries: int = 2048
    #: extra cycles to redirect fetch after a mispredicted branch resolves
    mispredict_redirect_penalty: int = 3
    #: forward store data to later same-line loads still in the window
    store_forwarding: bool = False
    #: per-cycle functional-unit limits by class, e.g. the R10000's
    #: ``R10000_FU_LIMITS``.  None reproduces the paper's assumption of
    #: "no restrictions on the type of instructions issued each cycle".
    fu_limits: "tuple[tuple[str, int], ...] | None" = None
    #: raise :class:`~repro.robustness.errors.DeadlockError` when no
    #: instruction commits for this many cycles (0 disables the watchdog)
    watchdog_stall_cycles: int = 100_000
    #: run the memory system's structural audit every this many commits
    #: (0 disables periodic audits; a final audit still runs at the end)
    audit_interval_commits: int = 8192

    def validated(self) -> "ProcessorConfig":
        for name in ("fetch_width", "issue_width", "commit_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.window_size < self.fetch_width:
            raise ValueError("window must hold at least one fetch group")
        if self.window_size > _RING - MAX_DEP_DISTANCE:
            raise ValueError(
                f"window_size {self.window_size} exceeds "
                f"{_RING - MAX_DEP_DISTANCE}, the most the kernel rings hold"
            )
        if self.lsq_size < 1:
            raise ValueError("load/store buffer needs at least one entry")
        if self.mispredict_redirect_penalty < 0:
            raise ValueError("redirect penalty cannot be negative")
        if self.watchdog_stall_cycles < 0:
            raise ValueError("watchdog_stall_cycles cannot be negative")
        if self.audit_interval_commits < 0:
            raise ValueError("audit_interval_commits cannot be negative")
        if self.fu_limits is not None:
            valid = {"integer", "float", "memory", "branch"}
            for unit, count in self.fu_limits:
                if unit not in valid:
                    raise ValueError(f"unknown functional unit class {unit!r}")
                if count < 1:
                    raise ValueError(f"need at least one {unit} unit")
        return self


#: The real R10000's issue resources [Yeag96]: two integer ALUs, one
#: FP adder + one FP multiplier (modeled together), one load/store unit.
R10000_FU_LIMITS: tuple[tuple[str, int], ...] = (
    ("integer", 2),
    ("float", 2),
    ("memory", 1),
    ("branch", 1),
)
