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

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Process-wide active failure log (``None`` = resilience off, fail fast).
_ACTIVE_LOG: "FailureLog | None" = None

#: The in-sweep retry policy.  The backoff base is small -- retries
#: here are about letting transient pressure (a loaded machine, a
#: filesystem hiccup around the store) clear, not about remote services
#: -- and the per-point wall-clock budget keeps a pathological point
#: from stalling a whole campaign.
RETRIES = 1  #: extra attempts per point, at reduced budget
BUDGET_DIVISOR = 4  #: instruction-budget shrink per retry
BACKOFF_BASE = 0.05  #: first-retry delay, seconds
BACKOFF_CAP = 2.0  #: per-retry delay ceiling, seconds
#: Total wall clock one point may spend on retries (delays included);
#: when the budget runs out, remaining retries are skipped and the
#: point becomes a gap.
RETRY_BUDGET_SECONDS = 30.0


def retry_backoff(attempt: int, *, seed: str = "") -> float:
    """Delay before retry ``attempt`` (2 = first retry): exponential
    backoff with deterministic jitter.

    The jitter is seeded from ``seed`` (the design-point label) and the
    attempt number through SHA-256, so two runs of the same sweep back
    off identically -- reproducibility extends to the failure path --
    while different points de-synchronize instead of thundering in
    lockstep.  The jittered delay lands in ``[0.75, 1.25) *
    min(BACKOFF_CAP, BACKOFF_BASE * 2**(attempt - 2))``.
    """
    if attempt < 2:
        return 0.0
    nominal = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** (attempt - 2)))
    digest = hashlib.sha256(f"{seed}#{attempt}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return nominal * (0.75 + 0.5 * fraction)


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

    @property
    def gaps(self) -> list[FailureRecord]:
        """Unresolved points (plain gaps and timeout gaps alike)."""
        return [r for r in self.records if r.resolution in ("gap", "timeout")]

    @property
    def timeouts(self) -> list[FailureRecord]:
        return [r for r in self.records if r.resolution == "timeout"]

    @property
    def recovered(self) -> list[FailureRecord]:
        return [r for r in self.records if r.resolution == "recovered"]

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
