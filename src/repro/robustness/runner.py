"""Per-design-point isolation for sweeps and figures.

A figure is a grid of independent design points; one point hitting a
guard rail (or any other error) must not kill the other hundred.  Code
that loops over :func:`repro.core.experiment.run_experiment` opens a
:func:`resilient_sweeps` context; inside it, a failing point is retried
once at a reduced instruction budget and, if it still fails, recorded
as a :class:`FailureRecord` while the sweep continues with a marked gap
(a failed :class:`~repro.cpu.result.SimulationResult` whose IPC is
NaN).  The CLI prints the accumulated failure summary at the end and
exits nonzero-but-informative.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Process-wide active failure log (``None`` = resilience off, fail fast).
_ACTIVE_LOG: "FailureLog | None" = None

#: Instruction-budget shrink for the one retry a failed point gets.
BUDGET_DIVISOR = 4


@dataclass
class FailureRecord:
    """One design point that failed (and possibly recovered)."""

    label: str  #: human-readable design point, e.g. "1~ duplicate 32K / gcc"
    workload: str
    error_type: str
    message: str  #: first lines of the structured error, state dump included
    attempts: int
    resolution: str  #: "recovered" (reduced budget), "gap" (point lost),
    #: or "timeout" (wall-clock deadline expired -- a gap, never retried)


@dataclass
class FailureLog:
    """Accumulates failures across one resilient sweep run."""

    records: list[FailureRecord] = field(default_factory=list)

    def record(self, record: FailureRecord) -> None:
        self.records.append(record)

    def summary(self) -> str:
        """Render the failure report (empty string when clean)."""
        from repro.core.reporting import render_failure_summary

        return render_failure_summary(self.records)


def current_failure_log() -> FailureLog | None:
    """The active log, if a resilient sweep is in progress."""
    return _ACTIVE_LOG


@contextmanager
def resilient_sweeps() -> Iterator[FailureLog]:
    """Run the enclosed sweeps with per-design-point isolation.

    Nested contexts share the outermost log so a whole ``repro all``
    run produces one failure summary.
    """
    global _ACTIVE_LOG
    previous = _ACTIVE_LOG
    active = previous or FailureLog()
    _ACTIVE_LOG = active
    try:
        yield active
    finally:
        _ACTIVE_LOG = previous
