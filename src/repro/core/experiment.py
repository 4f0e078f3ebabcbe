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
import time
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
from repro.workloads.catalog import benchmark
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
class ExperimentSettings:
    """Simulation budgets and machine parameters for one experiment."""

    instructions: int = 12_000  #: measured (committed) instructions
    timing_warmup: int = 2_000  #: cycle-simulated but unmeasured
    functional_warmup: int = 300_000  #: cache warm-up, no timing
    seed: int = 1
    cpu: ProcessorConfig = field(default_factory=ProcessorConfig)
    backside: BacksideConfig = field(default_factory=BacksideConfig)

    def scaled(self) -> "ExperimentSettings":
        factor = scale_factor()
        override = instructions_override()
        if factor == 1.0 and override is None:
            return self
        scaled = self
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
    from repro.engine.executor import get_engine
    from repro.engine.key import ExperimentKey

    settings = (settings or ExperimentSettings()).scaled()
    spec = workload if isinstance(workload, WorkloadSpec) else benchmark(workload)
    key = ExperimentKey(organization, spec.name, settings)
    engine = get_engine()
    cached = engine.lookup(key, spec)
    if cached is not None:
        return cached
    return engine.run_point(key, spec)


def _simulate(
    organization: CacheOrganization,
    spec: WorkloadSpec,
    settings: ExperimentSettings,
) -> SimulationResult:
    """One uncached, unguarded simulation of a design point."""
    from repro import kernel
    from repro.robustness.chaos import ChaosPlan

    # Chaos directives (REPRO_CHAOS) ride the same path real faults
    # would; one env lookup per simulation when off.  Fault injection
    # targets the reference loop's extension points, so chaos runs
    # always take the reference backend.
    chaos = ChaosPlan.from_env()
    backend = (
        kernel.get_backend("reference")
        if chaos is not None
        else kernel.active_backend()
    )
    memory = MemorySystem(organization.memory_config(settings.backside))
    if chaos is not None:
        settings = chaos.prepare(memory, spec, settings)
    trace = backend.prepare(spec, memory, settings)
    core = OutOfOrderCore(settings.cpu, memory)
    if chaos is not None:
        chaos.arm(core, spec)
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
) -> SimulationResult:
    """Resilience tail after a failed first attempt: bounded, backed-off
    retries at a shrinking instruction budget, then a marked gap.

    Shared by the serial path and the parallel engine (where the first
    attempt happened inside a worker and arrives as ``error_type`` +
    ``message`` strings); retries always run in the calling process.

    A point that overran its wall-clock deadline skips retries entirely
    and becomes a ``timeout`` gap: it already consumed its whole budget,
    and re-running a hang -- even at reduced fidelity -- doubles the
    damage.  Ordinary failures back off exponentially between attempts
    (deterministic jitter seeded by the point label, so the failure path
    is as reproducible as the success path), each retry runs under its
    own fresh deadline, and the whole retry tail is bounded by
    :data:`~repro.robustness.runner.RETRY_BUDGET_SECONDS` of wall clock.
    """
    from repro.robustness.deadline import point_deadline
    from repro.robustness.errors import DeadlineExceededError

    label = organization.label

    def timeout_gap(attempts: int, detail: str) -> SimulationResult:
        log.record(
            FailureRecord(
                label=label,
                workload=spec.name,
                error_type="DeadlineExceededError",
                message=detail,
                attempts=attempts,
                resolution="timeout",
            )
        )
        return SimulationResult(instructions=0, cycles=0, failed=True)

    if error_type == "DeadlineExceededError":
        return timeout_gap(1, message)

    attempts = 1
    reduced = settings
    seed = f"{label}/{spec.name}"
    retry_started = time.monotonic()
    for _ in range(runner.RETRIES):
        reduced = replace(
            reduced,
            instructions=max(1_000, reduced.instructions // runner.BUDGET_DIVISOR),
            timing_warmup=reduced.timing_warmup // runner.BUDGET_DIVISOR,
            functional_warmup=reduced.functional_warmup // runner.BUDGET_DIVISOR,
        )
        attempts += 1
        delay = runner.retry_backoff(attempts, seed=seed)
        elapsed = time.monotonic() - retry_started
        if elapsed + delay > runner.RETRY_BUDGET_SECONDS:
            break  # retry wall clock exhausted; the gap below says so
        if delay > 0.0:
            time.sleep(delay)
        try:
            with point_deadline():
                result = _simulate(organization, spec, reduced)
        except DeadlineExceededError as error:
            return timeout_gap(attempts, _failure_message(error))
        except Exception:  # noqa: BLE001
            continue
        # Recovered at lower fidelity: usable, but never memoized under
        # the full-budget key and flagged in the summary.
        log.record(
            FailureRecord(
                label=label,
                workload=spec.name,
                error_type=error_type,
                message=message,
                attempts=attempts,
                resolution="recovered",
            )
        )
        return result

    log.record(
        FailureRecord(
            label=label,
            workload=spec.name,
            error_type=error_type,
            message=message,
            attempts=attempts,
            resolution="gap",
        )
    )
    return SimulationResult(instructions=0, cycles=0, failed=True)


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
