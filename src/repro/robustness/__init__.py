"""Simulation guard rails: invariants, watchdog, faults, resilient runs.

The cycle-level simulator trusts a web of bookkeeping — MSHR occupancy,
port grants, line-buffer/victim coherence, bus scheduling.  A single
slip silently corrupts a whole figure sweep or hangs ``python -m repro
all``.  This package makes the simulator defend itself:

* :mod:`repro.robustness.errors` — structured, state-dumping exceptions;
* :mod:`repro.robustness.invariants` — cheap always-on checks wired into
  the core and memory system, plus a periodic structural audit;
* :mod:`repro.robustness.watchdog` — commit-progress deadlock detection;
* :mod:`repro.robustness.faults` — deterministic fault injection used to
  prove the invariants and watchdog actually fire;
* :mod:`repro.robustness.runner` — per-design-point isolation with
  one reduced-budget retry, so one failing point yields a marked gap,
  not a dead run;
* :mod:`repro.robustness.deadline` — per-point wall-clock budgets
  (``--point-timeout`` / ``REPRO_POINT_TIMEOUT``) ending hangs the
  cycle-domain watchdog cannot see;
* :mod:`repro.robustness.shutdown` — SIGINT/SIGTERM handling that turns
  an operator interrupt into a checkpointed, resumable exit;
* :mod:`repro.robustness.chaos` — process-level fault injection (killed
  workers, torn writes, corrupt entries, silent hangs) driving the
  chaos suite and the CI chaos job.
"""

from repro.robustness.chaos import ChaosPlan, parse_directives
from repro.robustness.deadline import (
    Deadline,
    active_deadline,
    clear_deadline,
    configured_timeout,
    install_deadline,
    point_deadline,
)
from repro.robustness.errors import (
    DeadlineExceededError,
    DeadlockError,
    RobustnessError,
    SimulationInvariantError,
)
from repro.robustness.shutdown import (
    ShutdownController,
    SweepInterrupted,
    shutdown_requested,
)
from repro.robustness.faults import (
    FAULT_CLASSES,
    inject_corrupt_lru,
    inject_dropped_bus_grant,
    inject_lost_port_release,
    inject_stuck_mshr,
)
from repro.robustness.invariants import GrantLedger, audit_memory
from repro.robustness.runner import (
    FailureRecord,
    FailureLog,
    current_failure_log,
    resilient_sweeps,
)
from repro.robustness.watchdog import CommitWatchdog

__all__ = [
    "ChaosPlan",
    "parse_directives",
    "Deadline",
    "active_deadline",
    "clear_deadline",
    "configured_timeout",
    "install_deadline",
    "point_deadline",
    "DeadlineExceededError",
    "DeadlockError",
    "RobustnessError",
    "SimulationInvariantError",
    "ShutdownController",
    "SweepInterrupted",
    "shutdown_requested",
    "FAULT_CLASSES",
    "inject_corrupt_lru",
    "inject_dropped_bus_grant",
    "inject_lost_port_release",
    "inject_stuck_mshr",
    "GrantLedger",
    "audit_memory",
    "FailureRecord",
    "FailureLog",
    "current_failure_log",
    "resilient_sweeps",
    "CommitWatchdog",
]
