"""Run one (cache organization, benchmark) design point end to end.

The paper simulates 100M+ instructions per point under MXS; a Python
cycle simulator cannot.  Instead each experiment:

1. generates the benchmark's reference stream and *functionally* warms
   the cache hierarchy over a long prefix (hundreds of thousands of
   instructions -- enough for the largest working sets to reach steady
   state);
2. runs the cycle-level out-of-order core over the next slice of the
   same stream, with a short timing warm-up before measurement.

Instruction budgets scale globally via the ``REPRO_SCALE`` environment
variable (e.g. ``REPRO_SCALE=4`` quadruples every budget) so the bench
harness can trade time for fidelity without code changes.
``REPRO_INSTRUCTIONS`` pins the *measured* instruction count to an
absolute value (applied after ``REPRO_SCALE``), for runs where the
measured window matters more than the warm-up proportions.

The simulation itself runs on the selected :mod:`repro.kernel` backend
(``--backend`` / ``REPRO_BACKEND``); all backends are result-identical,
so which one ran is provenance, not identity -- it is recorded on the
result but excluded from cache keys.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace

from repro.cpu.config import ProcessorConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.result import SimulationResult
from repro.memory.backside import BacksideConfig
from repro.memory.hierarchy import MemorySystem
from repro.core.organizations import CacheOrganization
from repro.robustness import runner
from repro.robustness.runner import FailureLog, FailureRecord
from repro.workloads.generator import WorkloadSpec

#: Accepted range for ``REPRO_SCALE``; values outside are clamped.
SCALE_MIN, SCALE_MAX = 0.01, 1000.0


def scale_factor() -> float:
    """Global instruction-budget multiplier from ``REPRO_SCALE``.

    Accepts any number in ``[0.01, 1000]`` (e.g. ``0.25`` for a quick
    look, ``4`` for higher fidelity).  Values outside that range are
    clamped, and anything unparsable or non-positive falls back to 1 --
    in every such case a :class:`RuntimeWarning` says so, instead of the
    old behavior of silently ignoring the setting.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"REPRO_SCALE={raw!r} is not a number; using 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    if value <= 0:
        warnings.warn(
            f"REPRO_SCALE={raw!r} must be positive; using 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    if not SCALE_MIN <= value <= SCALE_MAX:
        clamped = min(max(value, SCALE_MIN), SCALE_MAX)
        warnings.warn(
            f"REPRO_SCALE={raw!r} outside [{SCALE_MIN}, {SCALE_MAX}]; "
            f"clamped to {clamped}",
            RuntimeWarning,
            stacklevel=2,
        )
        return clamped
    return value


#: Floor for any measured-instruction budget, scaled or overridden.
MIN_INSTRUCTIONS = 1_000


def instructions_override() -> int | None:
    """Absolute measured-instruction override from ``REPRO_INSTRUCTIONS``.

    ``None`` when unset.  Unlike ``REPRO_SCALE`` (a multiplier over
    every budget) this pins the *measured* window to an exact count and
    leaves the warm-up budgets alone; it is applied after scaling, so
    setting both means "scale the warm-ups, pin the measurement".
    Unparsable or non-positive values warn and are ignored; small
    values clamp to the same floor as scaling.
    """
    raw = os.environ.get("REPRO_INSTRUCTIONS")
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"REPRO_INSTRUCTIONS={raw!r} is not an integer; ignoring",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if value <= 0:
        warnings.warn(
            f"REPRO_INSTRUCTIONS={raw!r} must be positive; ignoring",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if value < MIN_INSTRUCTIONS:
        warnings.warn(
            f"REPRO_INSTRUCTIONS={raw!r} below the {MIN_INSTRUCTIONS} "
            f"floor; clamped",
            RuntimeWarning,
            stacklevel=2,
        )
        return MIN_INSTRUCTIONS
    return value


@dataclass(frozen=True)
class Observe:
    """What a run observes besides its timing, part of its identity:
    interval counters every ``counter_interval`` committed instructions
    (:mod:`repro.observability.counters`) and per-load latency
    attribution (:mod:`repro.observability.attribution`)."""

    counter_interval: int | None = None
    attribution: bool = False

    def __post_init__(self) -> None:
        every = self.counter_interval
        if every is not None and every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")

    @classmethod
    def from_env(cls) -> "Observe | None":
        """``REPRO_COUNTER_INTERVAL`` and ``REPRO_ATTRIBUTION``; None when
        neither observes anything.  A garbage or non-positive interval
        reads as off (an observer must never fail a run over a bad
        knob), and any attribution value but "" / "0" turns it on."""
        raw = os.environ.get("REPRO_COUNTER_INTERVAL")
        try:
            every = int(raw) if raw else None
        except ValueError:
            every = None
        flag = os.environ.get("REPRO_ATTRIBUTION")
        observe = cls(
            counter_interval=every if every and every > 0 else None,
            attribution=bool(flag) and flag != "0",
        )
        return None if observe == cls() else observe


@dataclass(frozen=True)
class ExperimentSettings:
    """Simulation budgets and machine parameters for one experiment."""

    instructions: int = 12_000  #: measured (committed) instructions
    timing_warmup: int = 2_000  #: cycle-simulated but unmeasured
    functional_warmup: int = 300_000  #: cache warm-up, no timing
    seed: int = 1
    cpu: ProcessorConfig = field(default_factory=ProcessorConfig)
    backside: BacksideConfig = field(default_factory=BacksideConfig)
    #: ``None`` is a plain run; its key omits the field entirely
    observe: Observe | None = None

    def scaled(self) -> "ExperimentSettings":
        """Apply ``REPRO_SCALE``, ``REPRO_INSTRUCTIONS`` and, when
        :attr:`observe` is unset, :meth:`Observe.from_env` (an explicit
        ``observe`` wins over the environment)."""
        scaled = self
        if self.observe is None:
            scaled = replace(self, observe=Observe.from_env())
        factor = scale_factor()
        override = instructions_override()
        if factor != 1.0:
            scaled = replace(
                scaled,
                instructions=max(
                    MIN_INSTRUCTIONS, int(scaled.instructions * factor)
                ),
                timing_warmup=int(scaled.timing_warmup * factor),
                functional_warmup=int(scaled.functional_warmup * factor),
            )
        if override is not None and override != scaled.instructions:
            scaled = replace(scaled, instructions=override)
        return scaled


def run_experiment(
    organization: CacheOrganization,
    workload: str | WorkloadSpec,
    settings: ExperimentSettings | None = None,
) -> SimulationResult:
    """Simulate one design point through the execution engine.

    Results are memoized per process and, when the engine is configured
    with a :class:`~repro.engine.store.ResultStore` (as the CLI does),
    persisted across processes.  Batched callers (figures, sweeps)
    should declare their points through
    :class:`~repro.engine.executor.ExecutionPlan` instead, which also
    enables parallel execution; this entry point stays for single
    points and executes in-process.

    Inside a :func:`~repro.robustness.runner.resilient_sweeps` context a
    failing point is retried at a reduced instruction budget and, if it
    still fails, returned as a ``failed`` sentinel result (IPC = NaN)
    with the error recorded in the active failure log -- one bad point
    never kills a whole sweep.  Outside the context errors propagate.
    """
    from repro.engine.executor import ExecutionPlan

    plan = ExecutionPlan()
    return plan.resolve(plan.add(organization, workload, settings))


def _simulate(
    organization: CacheOrganization,
    spec: WorkloadSpec,
    settings: ExperimentSettings,
) -> SimulationResult:
    """One uncached, unguarded simulation of a design point."""
    from repro import kernel
    from repro.robustness.chaos import ChaosPlan

    # Chaos directives (REPRO_CHAOS) ride the same path real faults
    # would; one env lookup per simulation when off.
    chaos = ChaosPlan.from_env()
    backend = kernel.active_backend()
    observe = settings.observe or Observe()
    memory = MemorySystem(
        organization.memory_config(settings.backside),
        attribution=observe.attribution,
        counter_interval=observe.counter_interval,
    )
    if chaos is not None:
        chaos.prepare(memory, spec)
    trace = backend.prepare(spec, memory, settings)
    core = OutOfOrderCore(settings.cpu, memory)
    return backend.run(
        core,
        trace,
        settings.instructions,
        warmup_instructions=settings.timing_warmup,
    )


def _failure_message(error: Exception, limit: int = 8) -> str:
    """First lines of an error (structured dumps can run to pages)."""
    lines = str(error).splitlines() or [repr(error)]
    head = lines[:limit]
    if len(lines) > limit:
        head.append(f"... ({len(lines) - limit} more lines)")
    return "\n".join(head)


def _retry_reduced(
    organization: CacheOrganization,
    spec: WorkloadSpec,
    settings: ExperimentSettings,
    log: FailureLog,
    error_type: str,
    message: str,
) -> tuple[SimulationResult, str]:
    """Resilience tail after a failed first attempt: one retry at a
    reduced instruction budget, or a marked gap.

    Shared by the serial path and the parallel engine (where the first
    attempt happened inside a worker and arrives as ``error_type`` +
    ``message`` strings); the retry always runs in the calling process.

    A point that overran its wall-clock deadline is not retried and
    becomes a ``timeout`` gap: it already consumed its whole budget,
    and re-running a hang -- even at reduced fidelity -- doubles the
    damage.  Any other failure is retried once, at
    1/:data:`~repro.robustness.runner.BUDGET_DIVISOR` of the budget
    under a fresh deadline, and resolves to ``recovered``, ``timeout``
    or ``gap``.  Exactly one :class:`FailureRecord` is logged; the
    result and that record's resolution are returned.
    """
    from repro.robustness.deadline import point_deadline
    from repro.robustness.errors import DeadlineExceededError

    result = SimulationResult(instructions=0, cycles=0, failed=True)
    attempts, resolution = 1, "timeout"
    if error_type != "DeadlineExceededError":
        attempts = 2
        divisor = runner.BUDGET_DIVISOR
        reduced = replace(
            settings,
            instructions=max(1_000, settings.instructions // divisor),
            timing_warmup=settings.timing_warmup // divisor,
            functional_warmup=settings.functional_warmup // divisor,
        )
        try:
            with point_deadline():
                result = _simulate(organization, spec, reduced)
            # Recovered at lower fidelity: usable, but never memoized
            # under the full-budget key and flagged in the summary.
            resolution = "recovered"
        except DeadlineExceededError as error:
            error_type, message = type(error).__name__, _failure_message(error)
        except Exception:  # noqa: BLE001
            resolution = "gap"
    log.record(
        FailureRecord(
            label=organization.label,
            workload=spec.name,
            error_type=error_type,
            message=message,
            attempts=attempts,
            resolution=resolution,
        )
    )
    return result, resolution


def average_ipc(
    organization: CacheOrganization,
    workloads: tuple[str, ...],
    settings: ExperimentSettings | None = None,
) -> float:
    """Arithmetic mean IPC over a set of benchmarks (the paper's
    "average of the nine benchmarks").

    Failed (NaN) gap sentinels are excluded from the mean -- one bad
    point must not turn the whole average into NaN -- and the gap count
    is surfaced as a :class:`RuntimeWarning`.  Only when *every* point
    failed does the average itself report NaN.
    """
    from repro.engine.executor import ExecutionPlan

    if not workloads:
        raise ValueError("need at least one workload")
    plan = ExecutionPlan()
    keys = [plan.add(organization, name, settings) for name in workloads]
    plan.execute()
    results = [plan.resolve(key) for key in keys]
    valid = [result.ipc for result in results if not result.failed]
    gaps = len(results) - len(valid)
    if gaps:
        warnings.warn(
            f"average_ipc: {gaps} of {len(results)} design points failed; "
            f"averaging the remaining {len(valid)}",
            RuntimeWarning,
            stacklevel=2,
        )
    if not valid:
        return float("nan")
    return sum(valid) / len(valid)


def clear_cache() -> None:
    """Drop memoized experiment results (mainly for tests)."""
    from repro.engine.executor import get_engine

    get_engine().memo.clear()
