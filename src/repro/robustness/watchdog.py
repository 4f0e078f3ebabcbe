"""Commit-progress watchdog: turn silent hangs into diagnosable errors.

The out-of-order core's event loop always advances time, so a true
deadlock (a head-of-window instruction whose completion never arrives --
e.g. a stuck MSHR or a port reservation that was never released) shows
up as an ever-growing gap between the current cycle and the last cycle
that committed an instruction.  The watchdog bounds that gap and raises
:class:`repro.robustness.errors.DeadlockError` with the stalled window
and MSHR file rendered into the error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.observability import telemetry
from repro.robustness import dump
from repro.robustness.errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.mshr import MshrFile

#: Default stall bound, in cycles.  The slowest legitimate single event
#: (an L2 miss to memory behind a full MSHR file and a queued bus) is a
#: few hundred cycles; 100k cycles with zero commits is unambiguous.
DEFAULT_STALL_CYCLES = 100_000


class CommitWatchdog:
    """Raises when ``stall_cycles`` pass without a single commit."""

    def __init__(self, stall_cycles: int = DEFAULT_STALL_CYCLES):
        if stall_cycles < 1:
            raise ValueError(f"stall_cycles must be >= 1, got {stall_cycles}")
        self.stall_cycles = stall_cycles
        self._last_progress_cycle = 0

    def progress(self, cycle: int) -> None:
        """Record that at least one instruction committed at ``cycle``."""
        self._last_progress_cycle = cycle

    def check(
        self, cycle: int, window: Iterable, mshrs: "MshrFile"
    ) -> None:
        """Raise :class:`DeadlockError` if the stall bound is exceeded.

        Only meaningful while the window is non-empty -- an empty window
        with no commits just means the trace ran dry.
        """
        if cycle - self._last_progress_cycle <= self.stall_cycles:
            return
        # Ship the stall through the live-telemetry beacon (if one is
        # active) before raising: a sweep operator then sees *which*
        # point deadlocked and for how many cycles, instead of inferring a
        # dead worker from heartbeat silence.
        telemetry.notify_stall(cycle - self._last_progress_cycle)
        raise DeadlockError(
            f"no instruction committed for {cycle - self._last_progress_cycle} "
            f"cycles (bound {self.stall_cycles}); the pipeline is deadlocked",
            {
                "stalled window": dump.dump_window(window, cycle),
                "MSHR file": dump.dump_mshrs(mshrs, cycle),
            },
        )
