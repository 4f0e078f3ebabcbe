"""Batched, parallel, cached execution of design points.

The engine turns "call ``run_experiment`` in a loop" into a scheduled
workload:

* **plan** -- an :class:`ExecutionPlan` collects design points up front
  (:meth:`ExecutionPlan.add` returns the point's
  :class:`~repro.engine.key.ExperimentKey` and deduplicates repeats);
* **execute** -- :meth:`ExecutionPlan.execute` resolves every planned
  point at once: first from the in-memory memo, then from the
  persistent :class:`~repro.engine.store.ResultStore`, and only then by
  simulating -- serially, or fanned out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` when the engine is
  configured with ``jobs > 1``;
* **resolve** -- :meth:`ExecutionPlan.resolve` hands back the
  :class:`~repro.cpu.result.SimulationResult` for a key.

One point path: every design point's first attempt -- beacon,
deadline, simulation, error capture -- is :func:`_attempt`, run
in-process by the serial loop and inside pool workers alike, and every
resolution lands through :meth:`Engine._settle`, the single writer of
ledger outcomes, checkpoint marks, per-point seconds and the telemetry
hub's cached and terminal transitions.  While a point runs, its beacon
(:func:`repro.observability.telemetry.beaconing`) is the hub's only
source: running, attempt, progress and stall.

Worker protocol: a worker receives one *chunk* of
:class:`~repro.engine.key.ExperimentKey` objects, rebuilds each design
point's workload from the benchmark catalog by name, runs each point's
first attempt, and returns one chunk result -- worker id, start time,
per point the digest, epoch start time, busy seconds and a payload
(``{"status": "ok", "result": <SimulationResult>, ...}`` or
``{"status": "error", ...}``).  Workers write no spans: with spans on,
the parent writes each chunk's spans from its chunk result when it
absorbs it.  Keys and results cross the pool as
pickled objects; only a failure is flattened, to its error type and
message, because the original exception need not pickle.  Chunks are
planned largest-estimated-cost first (:mod:`repro.engine.dispatch`)
and self-scheduled: idle workers pull the next chunk from the pool's
shared queue, which balances load like work stealing without
per-worker deques.  The pool
itself is *persistent* -- created once per engine configuration and
reused across every figure of a CLI invocation.  While a chunk runs,
workers stream only batch-tagged ``point-start`` marks (the wedge
backstop) and heartbeats to the parent over a plain
``multiprocessing.Queue``.

Chunk results complete out of order; determinism is re-imposed at
resolve time: successful payloads are absorbed immediately (results are
keyed, the ledger sorts rows by digest, checkpoint marks are a set),
while failure payloads are buffered and replayed through the parent's
retry policy *in plan order* -- the exact order a serial run would have
hit them -- so failure-log records, retries, and gap sentinels are
bit-identical to serial execution.

Points whose :class:`~repro.workloads.generator.WorkloadSpec` is not
the catalog entry for its name (custom workloads) cannot be rebuilt in
a worker and are evaluated in the parent; they are also kept out of the
disk store, whose content address covers only the workload *name*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cpu.result import SimulationResult
from repro.engine.key import ExperimentKey
from repro.engine.store import ResultStore
from repro.observability import spans as obs_spans
from repro.observability import telemetry
from repro.workloads.catalog import BENCHMARKS, benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.experiment import ExperimentSettings
    from repro.workloads.generator import WorkloadSpec


class WorkerFailureError(RuntimeError):
    """A design point failed inside a worker with no failure log active."""

    def __init__(self, key: ExperimentKey, error_type: str, message: str):
        super().__init__(f"{key.label}: {error_type}: {message}")
        self.key = key
        self.error_type = error_type
        self.message = message


def _is_catalog_spec(spec: "WorkloadSpec") -> bool:
    """True when a worker can rebuild ``spec`` from the catalog by name."""
    return BENCHMARKS.get(spec.name) == spec


def _attempt(key: ExperimentKey, spec: "WorkloadSpec", send=None) -> tuple:
    """The first attempt at one design point, in whichever process runs it.

    Beacon, wall-clock deadline, simulation and error capture: the one
    copy of a point's first attempt, run in-process by the serial path
    and by pool workers alike.  ``send`` carries heartbeats (``None``
    when telemetry is off).  Returns ``(result, error, seconds)``: one
    of ``result`` / ``error`` is ``None``, the error is the original
    exception, and ``seconds`` is the attempt's wall time.  The caller
    owns retry and record policy.
    """
    import time

    from repro.core import experiment
    from repro.robustness.deadline import point_deadline

    started = time.monotonic()
    try:
        # Workers self-enforce the wall-clock budget (inherited via
        # REPRO_POINT_TIMEOUT); the parent's grace kill is the backstop
        # for a worker too wedged to reach the cooperative check.
        with telemetry.beaconing(key, send):
            with point_deadline():
                result = experiment._simulate(
                    key.organization, spec, key.settings
                )
    except Exception as error:  # noqa: BLE001 - returned, not swallowed
        return None, error, time.monotonic() - started
    return result, None, time.monotonic() - started


def run_point_payload(key: ExperimentKey, send=None) -> dict:
    """Worker side of the pool boundary: one point's attempt as a payload.

    Settings arrive already scaled -- workers never re-apply
    ``REPRO_SCALE`` -- and the workload is rebuilt from the catalog by
    name.  The payload is ``{"status": "ok", "result": <the
    SimulationResult>}`` or ``{"status": "error", "error_type": ...,
    "message": ...}``, plus the attempt's ``seconds``.
    """
    from repro.core import experiment

    spec = benchmark(key.workload)
    result, error, seconds = _attempt(key, spec, send)
    if error is not None:
        return {
            "status": "error",
            "error_type": type(error).__name__,
            "message": experiment._failure_message(error),
            "seconds": seconds,
        }
    return {"status": "ok", "result": result, "seconds": seconds}


def _attempt_from_payload(key: ExperimentKey, payload: dict) -> tuple:
    """Parent side of the pool boundary: a payload in :func:`_attempt` form."""
    error = None
    if payload["status"] == "error":
        error = WorkerFailureError(key, payload["error_type"], payload["message"])
    return payload.get("result"), error, payload["seconds"]


# ---------------------------------------------------------------------------
# Worker-side pool channel
# ---------------------------------------------------------------------------

#: Set by the pool initializer in each worker: (mark queue, stop event,
#: whether the parent runs live telemetry).
_POOL_CHANNEL = None


def _init_pool_worker(queue, stop_event, telemetry_on: bool) -> None:
    """Initializer for persistent-pool workers.

    Installs the dispatch channel (``point-start`` marks plus the
    cooperative stop flag).  Heartbeats share the one plain queue, but
    only when the parent actually runs with live telemetry: an
    untelemetered run never builds a beacon, so its workers pay nothing
    per committed instruction -- and the parent never pays for a
    ``multiprocessing.Manager`` at all.
    """
    global _POOL_CHANNEL
    _POOL_CHANNEL = (queue, stop_event, telemetry_on)


def _channel_send(queue, message: dict) -> None:
    """Best-effort mark delivery: marks observe, they never fail work."""
    try:
        queue.put(message)
    except Exception:  # noqa: BLE001
        pass


def _record_chunk(recorder, chunks, chunk_id, submitted, outcome=None, **attrs) -> None:
    """Write one chunk's spans when the parent absorbs it (spans on only).

    The ``chunk`` span runs from submission to now, and its
    ``chunk.wait`` child until the worker started the chunk (now, when
    it never ran).  Each entry the worker ran becomes a ``point`` span
    on the worker's track, from the worker's own epoch stamp.
    """
    import time

    if recorder is None:
        return
    chunk = chunks[chunk_id]
    now = time.time()
    started = now
    wait_attrs = {}
    if outcome is not None:
        started = outcome["started"]
        wait_attrs["worker"] = outcome["worker"]
        attrs.update(worker=outcome["worker"], entries=len(outcome["entries"]))
    chunk_span = recorder.add(
        "chunk", submitted, now - submitted, chunk=chunk_id, points=len(chunk), **attrs
    )
    recorder.add(
        "chunk.wait",
        submitted,
        started - submitted,
        parent=chunk_span,
        chunk=chunk_id,
        **wait_attrs,
    )
    if outcome is None:
        return
    proc = "worker-" + outcome["worker"].removeprefix("pid:")
    for entry, (key, _spec) in zip(outcome["entries"], chunk):
        recorder.add(
            "point",
            entry["t0"],
            entry["busy"],
            parent=chunk_span,
            proc=proc,
            digest=key.digest[:12],
            label=key.label,
            chunk=chunk_id,
            ok=entry["payload"]["status"] == "ok",
        )


def run_chunk_payload(
    chunk_id: int,
    keys: list[ExperimentKey],
    batch: int = 0,
) -> dict:
    """Worker entry point: simulate one chunk of design points.

    The returned chunk result is the authoritative record of what the
    worker did: its id, when the chunk started, one entry per point
    (digest, payload, epoch start ``t0`` and busy seconds).
    While the chunk runs, only ``point-start`` marks (the wedge
    backstop) and heartbeats cross the queue, each tagged with
    ``batch`` so the parent drops leftovers of an earlier batch.  A set
    stop event turns a graceful shutdown around between points: the
    in-flight point finishes, the rest of the chunk is abandoned -- the
    same between-points check the serial loop performs.
    """
    import os
    import time

    channel = _POOL_CHANNEL
    queue, stop_event, beats = channel if channel is not None else (None, None, False)
    send = None
    if beats:

        def send(message: dict) -> None:
            message["batch"] = batch
            queue.put(message)

    started = time.time()
    entries: list[dict] = []
    for key in keys:
        if stop_event is not None and stop_event.is_set():
            break
        if queue is not None:
            _channel_send(
                queue,
                {
                    "type": "point-start",
                    "batch": batch,
                    "chunk": chunk_id,
                    "digest": key.digest,
                },
            )
        t0 = time.time()
        busy_start = time.monotonic()
        payload = run_point_payload(key, send)
        entries.append(
            {
                "digest": key.digest,
                "payload": payload,
                "t0": t0,
                "busy": time.monotonic() - busy_start,
            }
        )
    return {
        "chunk": chunk_id,
        "worker": f"pid:{os.getpid()}",
        "started": started,
        "entries": entries,
    }


class _PoolHandle:
    """One persistent worker pool plus its parent<->worker channel."""

    __slots__ = (
        "pool", "queue", "stop", "fingerprint", "workers", "broken",
        "owner_pid", "batch",
    )

    def __init__(self, pool, queue, stop, fingerprint, workers, owner_pid):
        self.pool = pool
        self.queue = queue
        self.stop = stop
        self.fingerprint = fingerprint
        self.workers = workers
        self.broken = False
        self.owner_pid = owner_pid
        #: Batches dispatched so far; tags every mark on the queue.
        self.batch = 0


class Engine:
    """Process-wide execution state: memo, store, and parallelism."""

    def __init__(self, jobs: int = 1, store: ResultStore | None = None):
        self.jobs = jobs
        self.store = store
        self.memo: dict[ExperimentKey, SimulationResult] = {}
        #: The active sweep checkpoint, installed by ``ExecutionPlan
        #: .execute`` for the duration of one batch; ``None`` otherwise.
        self.checkpoint = None
        #: The persistent worker pool (created on first parallel batch,
        #: reused across batches until the configuration changes).
        self._pool: _PoolHandle | None = None
        #: How each point of the most recent batch resolved (``memo`` /
        #: ``store`` / ``simulated`` / ``recovered`` / ``gap`` /
        #: ``timeout``) and the wall time of its simulation attempts;
        #: both feed the run ledger and are written by ``_settle`` only.
        self.outcomes: dict[ExperimentKey, str] = {}
        self.point_seconds: dict[ExperimentKey, float] = {}

    # ------------------------------------------------------------------
    # Persistent worker pool
    # ------------------------------------------------------------------

    def _pool_fingerprint(self, telemetry_on: bool) -> tuple:
        """What must match for an existing pool to be reusable.

        Workers snapshot the environment (and, under ``fork``, parent
        memory) at pool creation, so every ``REPRO_*`` variable --
        backend, chaos plan, deadlines, scale -- participates: a change
        invalidates the pool rather than running new work against stale
        worker state.
        """
        import os

        env = tuple(
            sorted(
                (name, value)
                for name, value in os.environ.items()
                if name.startswith("REPRO_")
            )
        )
        return (self.jobs, telemetry_on, env)

    def _acquire_pool(self, telemetry_on: bool, points) -> _PoolHandle:
        """Reuse the persistent pool, or (re)create it when stale."""
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        fingerprint = self._pool_fingerprint(telemetry_on)
        handle = self._pool
        if (
            handle is not None
            and not handle.broken
            and handle.fingerprint == fingerprint
        ):
            handle.stop.clear()
            return handle
        self.shutdown_pool()
        self._prewarm_worker_state(points)
        queue = multiprocessing.Queue()
        stop = multiprocessing.Event()
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_init_pool_worker,
            initargs=(queue, stop, telemetry_on),
        )
        handle = _PoolHandle(
            pool, queue, stop, fingerprint, self.jobs, os.getpid()
        )
        self._pool = handle
        return handle

    def _prewarm_worker_state(self, points) -> None:
        """Materialize shared read-only workload artifacts pre-fork.

        With the fast backend under the ``fork`` start method, the
        functional-warm-up reference streams (the bulk of a cold
        point's setup) are generated once in the parent immediately
        before the pool forks, so every worker inherits them
        copy-on-write instead of regenerating them per process.
        """
        import multiprocessing

        from repro import kernel

        if kernel.selected_name() != "fast":
            return
        if multiprocessing.get_start_method(allow_none=False) != "fork":
            return
        try:
            from repro.kernel import tracecache

            identities: dict[tuple, tuple] = {}
            for key, spec in points:
                settings = key.settings
                if settings.functional_warmup > 0:
                    identities.setdefault(
                        (spec, settings.seed, settings.functional_warmup),
                        (spec, settings),
                    )
            # Stay under the LRU capacity so prewarming never evicts
            # what it just generated.
            for spec, settings in list(identities.values())[
                : tracecache.CACHE_ENTRIES
            ]:
                tracecache.artifacts_for(
                    spec, settings.seed, settings.functional_warmup
                ).warm_references()
        except Exception:  # noqa: BLE001 - prewarm is an optimization only
            pass

    def shutdown_pool(self, wait: bool = True) -> None:
        """Tear down the persistent worker pool, if this process owns one."""
        import os

        handle = self._pool
        if handle is None:
            return
        self._pool = None
        if handle.owner_pid != os.getpid():
            return  # a forked child inherited the reference; not ours
        try:
            handle.stop.set()
            handle.pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # noqa: BLE001 - teardown must never raise
            pass
        try:
            handle.queue.close()
            handle.queue.cancel_join_thread()
        except Exception:  # noqa: BLE001
            pass

    def __del__(self):  # pragma: no cover - interpreter-dependent timing
        try:
            self.shutdown_pool(wait=False)
        except Exception:  # noqa: BLE001
            pass

    # ------------------------------------------------------------------
    # Cache layers
    # ------------------------------------------------------------------

    def lookup(
        self, key: ExperimentKey, spec: "WorkloadSpec"
    ) -> SimulationResult | None:
        """Memo first, then the disk store (promoting hits to the memo)."""
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if self.store is not None and _is_catalog_spec(spec):
            stored = self.store.load(key)
            if stored is not None:
                self.memo[key] = stored
                return stored
        return None

    def remember(
        self, key: ExperimentKey, spec: "WorkloadSpec", result: SimulationResult
    ) -> None:
        self.memo[key] = result
        if self.store is not None and _is_catalog_spec(spec):
            with obs_spans.span("store.write", digest=key.digest[:12]):
                self.store.save(key, result)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _settle(
        self, key: ExperimentKey, outcome: str, seconds: float | None = None
    ) -> None:
        """Record how one point resolved: the single writer of that fact.

        Every resolution -- memo or store hit, simulated, recovered,
        gap, timeout; serial or pooled -- lands here once: the ledger
        outcome, the checkpoint mark, the point's seconds (the wall
        time of all its simulation attempts; cache hits have none) and
        the hub's terminal transition.
        """
        checkpoint = self.checkpoint
        if checkpoint is not None:
            with obs_spans.span("checkpoint.mark", outcome=outcome):
                checkpoint.mark(key, outcome)
        self.outcomes[key] = outcome
        if seconds is not None:
            self.point_seconds[key] = seconds
        hub = telemetry.active_hub()
        if hub is not None:
            point = telemetry._point_id(key)
            if outcome in ("memo", "store"):
                hub.point_cached(point, key.label, outcome)
            else:
                hub.point_finished(point, key.label, outcome)

    def _conclude(
        self, key: ExperimentKey, spec: "WorkloadSpec", attempt: tuple
    ) -> SimulationResult:
        """Fold a first attempt into the caches or the retry policy.

        A success is memoized (and persisted).  A failure propagates
        outside a :func:`~repro.robustness.runner.resilient_sweeps`
        context -- the original exception for an in-process attempt,
        :class:`WorkerFailureError` for a pool one -- and inside one is
        retried at reduced budget and recorded.
        """
        import time

        from repro.core import experiment
        from repro.robustness.runner import current_failure_log

        result, error, seconds = attempt
        if error is None:
            self.remember(key, spec, result)
            self._settle(key, "simulated", seconds)
            return result
        log = current_failure_log()
        if log is None:
            raise error
        if isinstance(error, WorkerFailureError):
            error_type, message = error.error_type, error.message
        else:
            error_type = type(error).__name__
            message = experiment._failure_message(error)
        hub = telemetry.active_hub()
        started = time.monotonic()
        with telemetry.beaconing(
            key, hub.handle if hub is not None else None, attempt=2
        ):
            result, outcome = experiment._retry_reduced(
                key.organization, spec, key.settings, log, error_type, message
            )
        self._settle(key, outcome, seconds + time.monotonic() - started)
        return result

    def run_point(
        self, key: ExperimentKey, spec: "WorkloadSpec"
    ) -> SimulationResult:
        """One design point, in-process, with the standard resilience policy.

        Matches the historical ``run_experiment`` semantics: outside a
        :func:`~repro.robustness.runner.resilient_sweeps` context errors
        propagate; inside one, a failure is retried at reduced budget
        and recorded.  Successful full-budget results are memoized (and
        persisted); recovered/gap results are not, so the next run gets
        a fresh attempt.
        """
        with obs_spans.span(
            "point", digest=key.digest[:12], label=key.label, where="parent"
        ):
            hub = telemetry.active_hub()
            attempt = _attempt(key, spec, hub.handle if hub is not None else None)
            return self._conclude(key, spec, attempt)

    def run_batch(
        self,
        points: "dict[ExperimentKey, WorkloadSpec]",
        results: "dict[ExperimentKey, SimulationResult] | None" = None,
    ) -> dict[ExperimentKey, SimulationResult]:
        """Resolve every planned point; simulate only what is missing.

        Each point's resolution lands in :attr:`outcomes`: ``memo`` /
        ``store`` for cache layers, ``simulated`` / ``recovered`` /
        ``gap`` / ``timeout`` for fresh work.

        ``results``, when given, is filled *in place* as points resolve,
        so a caller catching :class:`~repro.robustness.shutdown.
        SweepInterrupted` still holds everything that did finish.  A
        shutdown request stops the batch between design points.
        """
        from repro.robustness.shutdown import SweepInterrupted, shutdown_requested

        hub = telemetry.active_hub()
        if hub is not None:
            hub.batch_started(len(points))
        if results is None:
            results = {}
        pending: list[tuple[ExperimentKey, WorkloadSpec]] = []
        with obs_spans.span("plan.lookup", planned=len(points)) as lspan:
            for key, spec in points.items():
                in_memo = key in self.memo
                cached = self.lookup(key, spec)
                if cached is not None:
                    results[key] = cached
                    self._settle(key, "memo" if in_memo else "store")
                else:
                    pending.append((key, spec))
                    if hub is not None:
                        hub.point_queued(telemetry._point_id(key), key.label)
            if lspan is not None:
                lspan.set(cached=len(results), pending=len(pending))
        if not pending:
            return results
        local = pending
        if self.jobs > 1:
            remote = [(k, s) for k, s in pending if _is_catalog_spec(s)]
            if len(remote) > 1:
                local = [(k, s) for k, s in pending if not _is_catalog_spec(s)]
                try:
                    self._run_parallel(remote, results)
                except SweepInterrupted:
                    raise SweepInterrupted(
                        len(results), len(points) - len(results)
                    ) from None
        for key, spec in local:
            if shutdown_requested():
                raise SweepInterrupted(len(results), len(points) - len(results))
            results[key] = self.run_point(key, spec)
        return results

    def _run_parallel(
        self,
        points: "list[tuple[ExperimentKey, WorkloadSpec]]",
        results: "dict[ExperimentKey, SimulationResult] | None" = None,
    ) -> dict[ExperimentKey, SimulationResult]:
        """Fan design points out over the persistent worker pool.

        The batch is packed into cost-sorted chunks
        (:mod:`repro.engine.dispatch`) and self-scheduled: every chunk
        is submitted up front, idle workers pull the next one from the
        shared queue, and chunk futures are absorbed *as they
        complete*, in any order.  A chunk result is authoritative: each
        entry's busy seconds count once toward the pool's utilization.
        Determinism is restored at resolve time: successes land in
        keyed caches (order-free by construction), failures are
        buffered and replayed through the serial retry policy in plan
        order, so failure-log records and gap sentinels match a serial
        run exactly.

        Three guards run in the wait loop:

        * with a point timeout configured, a point silent past budget
          *plus grace* since its ``point-start`` mark means a wedged
          worker (a chunk still queued has sent no mark, so it has no
          clock): the pool is killed, the wedged point becomes a
          ``timeout`` gap, and every other unfinished point falls back
          to in-parent execution under its own deadline;
        * a broken pool (worker killed by the OS) likewise degrades the
          chunk's unabsorbed points to in-parent execution instead of
          aborting the sweep;
        * a shutdown request cancels not-yet-started chunks, sets the
          cooperative stop event so running chunks return after their
          in-flight point, then raises
          :class:`~repro.robustness.shutdown.SweepInterrupted`.
        """
        import time
        from concurrent.futures import FIRST_COMPLETED, CancelledError, wait

        from repro.engine.dispatch import CostModel, plan_chunks
        from repro.robustness.deadline import GRACE_SECONDS, configured_timeout
        from repro.robustness.shutdown import SweepInterrupted, shutdown_requested

        if results is None:
            results = {}
        hub = telemetry.active_hub()
        # A recorder without an open trace means no sweep root span
        # exists (a bare run_batch outside execute()); write no chunk
        # spans in that case, same as off.
        recorder = obs_spans.active()
        if recorder is not None and recorder.trace_id is None:
            recorder = None
        batch_start = time.monotonic()
        previous = self._pool
        handle = self._acquire_pool(hub is not None, points)
        handle.batch += 1
        with obs_spans.span("dispatch.price", points=len(points)):
            estimate = CostModel.for_engine(self).estimate
        with obs_spans.span("dispatch.pack", workers=handle.workers) as pspan:
            chunks = plan_chunks(points, estimate, handle.workers)
            if pspan is not None:
                pspan.set(chunks=len(chunks))
        by_digest = {key.digest: (key, spec) for key, spec in points}

        futures: dict = {}
        # Every chunk is submitted up front; the epoch stamp starts each
        # chunk's ``chunk`` and ``chunk.wait`` spans.
        submitted = time.time()
        try:
            for chunk_id, chunk in enumerate(chunks):
                future = handle.pool.submit(
                    run_chunk_payload,
                    chunk_id,
                    [key for key, _ in chunk],
                    handle.batch,
                )
                futures[future] = chunk_id
        except Exception:  # noqa: BLE001 - a dead pool degrades to serial
            handle.broken = True

        timeout = configured_timeout()
        budget = None if timeout is None else timeout + GRACE_SECONDS
        absorbed: set[str] = set()
        errors: dict[str, tuple] = {}
        #: chunk id -> (digest, started_at) of its in-flight point.
        current: dict[int, tuple[str, float]] = {}
        busy = 0.0
        interrupted = False
        pending = set(futures)
        while pending:
            if not interrupted and shutdown_requested():
                interrupted = True
                handle.stop.set()
                for future in pending:
                    future.cancel()
            done, pending = wait(
                pending, timeout=0.25, return_when=FIRST_COMPLETED
            )
            self._drain_dispatch_queue(handle, hub, current)
            for future in done:
                chunk_id = futures[future]
                current.pop(chunk_id, None)
                try:
                    outcome = future.result()
                except CancelledError:
                    _record_chunk(recorder, chunks, chunk_id, submitted, cancelled=True)
                    continue  # shutdown canceled it before it started
                except Exception:  # noqa: BLE001 - BrokenProcessPool et al.
                    # Worker death: the chunk's unabsorbed points fall
                    # back to the in-parent tail below.
                    handle.broken = True
                    _record_chunk(
                        recorder, chunks, chunk_id, submitted, error="BrokenPool"
                    )
                    continue
                _record_chunk(recorder, chunks, chunk_id, submitted, outcome)
                with obs_spans.span(
                    "absorb", chunk=chunk_id, entries=len(outcome["entries"])
                ):
                    for entry in outcome["entries"]:
                        digest = entry["digest"]
                        if digest in absorbed:
                            continue
                        absorbed.add(digest)
                        busy += entry["busy"]
                        key, spec = by_digest[digest]
                        attempt = _attempt_from_payload(key, entry["payload"])
                        if attempt[1] is None:
                            results[key] = self._conclude(key, spec, attempt)
                        else:
                            errors[digest] = attempt
            if budget is not None and pending and not interrupted:
                wedged = self._find_wedged_point(budget, current, absorbed)
                if wedged is not None:
                    # The worker blew through budget + grace without
                    # even reporting its own deadline: it is wedged.
                    # Kill the pool; this point is a timeout, the rest
                    # fall back.
                    for process in list(handle.pool._processes.values()):
                        process.kill()
                    handle.broken = True
                    absorbed.add(wedged)
                    error = WorkerFailureError(
                        by_digest[wedged][0],
                        "DeadlineExceededError",
                        f"worker exceeded the {timeout:g}s point "
                        f"budget plus {budget - timeout:g}s grace "
                        "without responding; killed by the parent",
                    )
                    errors[wedged] = (None, error, budget)

        # Deterministic re-sequencing: the serial-policy tail walks the
        # batch in plan order, replaying worker failures through the
        # parent retry path and running pool-casualty points in-parent,
        # so the failure log reads exactly as a serial run's would.
        with obs_spans.span(
            "resequence", errors=len(errors), absorbed=len(absorbed)
        ):
            for key, spec in points:
                digest = key.digest
                attempt = errors.get(digest)
                if attempt is not None:
                    results[key] = self._conclude(key, spec, attempt)
                elif digest not in absorbed and not interrupted:
                    if shutdown_requested():
                        interrupted = True
                        continue
                    results[key] = self.run_point(key, spec)
        if hub is not None:
            wall = time.monotonic() - batch_start
            hub.record_dispatch(
                {
                    "workers": self.jobs,
                    "chunks": len(chunks),
                    "utilization": (
                        min(1.0, busy / (wall * self.jobs)) if wall > 0 else 0.0
                    ),
                    "pool_reused": handle is previous,
                }
            )
        if interrupted:
            raise SweepInterrupted(len(results), len(points) - len(results))
        return results

    @staticmethod
    def _drain_dispatch_queue(handle: _PoolHandle, hub, current) -> None:
        """Absorb this batch's queued worker marks without blocking.

        A ``point-start`` pins its chunk's in-flight point for the wedge
        backstop; heartbeats go to the hub.  Marks tagged with an earlier
        batch are dropped.
        """
        import time

        while True:
            try:
                message = handle.queue.get_nowait()
            except Exception:  # noqa: BLE001 - empty or torn: the drain ends
                return
            if not isinstance(message, dict) or message.get("batch") != handle.batch:
                continue
            if message.get("type") == "point-start":
                current[message.get("chunk")] = (
                    message.get("digest", ""),
                    time.monotonic(),
                )
            elif hub is not None:
                try:
                    hub.handle(message)
                except Exception:  # noqa: BLE001 - observer only
                    pass

    @staticmethod
    def _find_wedged_point(budget, current, absorbed) -> str | None:
        """The digest of a point silent past budget + grace, if any.

        Only a ``point-start`` mark starts a point's clock: a worker
        sends one before every point it runs, so a chunk that has sent
        none is still queued, not wedged.
        """
        import time

        now = time.monotonic()
        for digest, since in current.values():
            if digest not in absorbed and now - since > budget:
                return digest
        return None


# ---------------------------------------------------------------------------
# Process-wide engine configuration
# ---------------------------------------------------------------------------

_ENGINE: Engine | None = None

#: Sentinel distinguishing "leave unchanged" from "set to None".
_UNSET = object()


def get_engine() -> Engine:
    """The process-wide engine (serial, no disk store, until configured)."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = Engine()
    return _ENGINE


def configure_engine(jobs=_UNSET, store=_UNSET) -> tuple[int, ResultStore | None]:
    """Set engine parallelism and/or disk store; returns prior values.

    The return value lets a caller (the CLI) restore the previous
    configuration afterward, keeping library defaults untouched::

        previous = configure_engine(jobs=4, store=ResultStore())
        try: ...
        finally: configure_engine(*previous)
    """
    engine = get_engine()
    previous = (engine.jobs, engine.store)
    if jobs is not _UNSET:
        if not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be a positive integer: {jobs!r}")
        engine.jobs = jobs
    if store is not _UNSET:
        if store is not None and not isinstance(store, ResultStore):
            raise TypeError(f"store must be a ResultStore or None: {store!r}")
        engine.store = store
    return previous


# ---------------------------------------------------------------------------
# The plan -> execute -> resolve API used by figures and sweeps
# ---------------------------------------------------------------------------


class ExecutionPlan:
    """Declare design points up front, execute them as one batch.

    Usage::

        plan = ExecutionPlan()
        keys = {p: plan.add(org_for(p), "gcc", settings) for p in points}
        plan.execute()
        ipcs = {p: plan.ipc(keys[p]) for p in points}

    ``add`` is idempotent per key, so a figure may plan overlapping
    grids freely; shared points are simulated once.
    """

    def __init__(self, engine: Engine | None = None):
        self._engine = engine
        self._points: dict[ExperimentKey, WorkloadSpec] = {}
        self._results: dict[ExperimentKey, SimulationResult] = {}

    @property
    def engine(self) -> Engine:
        return self._engine if self._engine is not None else get_engine()

    def add(
        self,
        organization,
        workload,
        settings: "ExperimentSettings | None" = None,
    ) -> ExperimentKey:
        """Register one design point; returns its canonical key."""
        from repro.core.experiment import ExperimentSettings
        from repro.workloads.generator import WorkloadSpec

        settings = (settings or ExperimentSettings()).scaled()
        spec = workload if isinstance(workload, WorkloadSpec) else benchmark(workload)
        key = ExperimentKey(organization, spec.name, settings)
        self._points.setdefault(key, spec)
        return key

    def add_all(
        self, points: Iterable[tuple], settings=None
    ) -> list[ExperimentKey]:
        """Plan many ``(organization, workload)`` pairs at once."""
        return [self.add(org, workload, settings) for org, workload in points]

    def add_key(self, key: ExperimentKey) -> ExperimentKey:
        """Plan a point from an existing key (checkpoint resume path).

        The key's settings are already scaled -- going through
        :meth:`add` would apply ``REPRO_SCALE`` a second time and plan a
        *different* design point, so this bypasses it.  The workload
        must come from the catalog (checkpoints only cover such plans).
        """
        spec = benchmark(key.workload)
        self._points.setdefault(key, spec)
        return key

    def execute(self) -> dict[ExperimentKey, SimulationResult]:
        """Resolve every planned point (missing ones are simulated).

        When the engine has a persistent store, every execution also
        appends one record -- plan digest, per-point outcomes, headline
        summary, wall clock -- to the store's run ledger, and keeps a
        crash-safe checkpoint alongside the store while the batch runs:
        each resolved point appends one mark, a clean completion deletes
        the file, and an interrupt (or a run that ends with gaps) keeps
        it so ``repro runs resume`` knows what remains.  Rerunning the
        same command is a resume too: finished points are store hits.
        A graceful-shutdown request surfaces as
        :class:`~repro.robustness.shutdown.SweepInterrupted` *after*
        the partial batch has been recorded in ledger and checkpoint.
        """
        import time

        from repro.engine.checkpoint import SweepCheckpoint
        from repro.robustness.shutdown import SweepInterrupted

        engine = self.engine
        points = dict(self._points)
        results: dict[ExperimentKey, SimulationResult] = {}
        checkpoint = None
        if (
            engine.store is not None
            and points
            and all(_is_catalog_spec(spec) for spec in points.values())
        ):
            checkpoint = SweepCheckpoint.for_plan(engine.store.root, points)
            checkpoint.begin(points)
        start = time.monotonic()
        engine.checkpoint = checkpoint
        engine.outcomes = {}
        engine.point_seconds = {}
        # The sweep span recorder (``--spans-out`` / REPRO_SPANS): every
        # store-backed batch becomes one trace rooted at a ``sweep``
        # span whose id derives from the plan digest.
        recorder = obs_spans.active()
        trace_id = None
        if recorder is not None and points:
            from repro.engine.ledger import plan_digest

            trace_id = obs_spans.next_trace_id(plan_digest(points))
        interrupted = None
        try:
            if trace_id is not None:
                with recorder.trace(
                    trace_id, "sweep", points=len(points), jobs=engine.jobs
                ):
                    engine.run_batch(points, results)
            else:
                engine.run_batch(points, results)
        except SweepInterrupted as stop:
            interrupted = stop
        finally:
            engine.checkpoint = None
        wall = time.monotonic() - start
        self._results.update(results)
        # A clean batch resolved every point; an interrupted one records
        # the part that finished.
        if engine.store is not None and results:
            self._record_run(
                engine,
                results,
                wall,
                interrupted=interrupted is not None,
                span_trace=trace_id,
            )
        if interrupted is not None:
            if checkpoint is not None:
                interrupted.checkpoint_path = str(checkpoint.path)
            raise interrupted
        if checkpoint is not None and all(
            outcome not in ("gap", "timeout")
            for outcome in engine.outcomes.values()
        ):
            checkpoint.remove()
        return dict(self._results)

    def _record_run(
        self,
        engine: Engine,
        results: dict[ExperimentKey, SimulationResult],
        wall: float,
        interrupted: bool = False,
        span_trace: str | None = None,
    ) -> None:
        """Append this execution to the run ledger (never fails the run)."""
        import time

        from repro.engine.ledger import build_record
        from repro.engine.store import SCHEMA_VERSION

        recorder = obs_spans.active()
        spans_info = None
        if recorder is not None and span_trace is not None:
            spans_info = recorder.run_info(trace_id=span_trace)
        record = build_record(
            results,
            engine.outcomes,
            wall_seconds=wall,
            jobs=engine.jobs,
            store_schema=SCHEMA_VERSION,
            interrupted=interrupted,
            point_seconds=engine.point_seconds,
            spans=spans_info,
        )
        started = time.time()
        engine.store.ledger().append(record)
        if spans_info is not None:
            # The append lands after the sweep root closed, so it rides
            # the trace as a parentless sibling -- the analyzer ignores
            # it, the raw stream still shows what the bookkeeping cost.
            recorder.add(
                "ledger.append",
                started,
                time.time() - started,
                trace=span_trace,
                points=len(results),
            )
            recorder.flush()

    def resolve(self, key: ExperimentKey) -> SimulationResult:
        """The result for a planned key (executing on demand if needed)."""
        cached = self._results.get(key)
        if cached is not None:
            return cached
        spec = self._points.get(key)
        if spec is None:
            raise KeyError(f"key was never planned: {key.label}")
        result = self.engine.lookup(key, spec)
        if result is None:
            result = self.engine.run_point(key, spec)
        self._results[key] = result
        return result

    def ipc(self, key: ExperimentKey) -> float:
        """Shorthand for ``resolve(key).ipc`` (NaN for gap sentinels)."""
        return self.resolve(key).ipc

    def __len__(self) -> int:
        return len(self._points)
