"""Live sweep telemetry: heartbeats and the progress display.

A running sweep used to be opaque: ``ExecutionPlan.execute`` fanned
design points out over worker processes and nothing came back until the
whole batch finished.  This module threads a second, *live* event path
through the engine's worker protocol:

* a :class:`TelemetryBeacon` rides inside each simulation (worker or
  parent process): a ``start`` message carries the point's budget and
  attempt number, then periodic ``beat`` messages carry instructions
  committed, rate-limited by wall clock so the hot loop pays one
  ``is None`` check when telemetry is off and a cheap counter mask when
  it is on;
* worker processes ship heartbeats to the parent over the engine's
  pool channel -- the same plain ``multiprocessing.Queue`` that carries
  ``point-start`` marks, each message tagged with its batch -- and
  build beacons *only when a hub is active*; the executor's wait loop
  drains the queue into :class:`TelemetryHub.handle` as chunks
  complete, in any order (no manager process, no extra thread, and
  the no-telemetry path never builds a beacon at all);
* the hub aggregates per-point state for the live
  :class:`ProgressDisplay` and its closing recap line.  Each fact has
  one writer: the beacon's messages say a point is running, how far it
  got, on which attempt and whether it stalled; the engine says it is
  queued (its cache lookup missed) and, in ``_settle``, that it was
  served from a cache or finished.  A stall heartbeat marks its point
  *stalled*, so a deadlocked worker is named rather than inferred from
  silence, and a running point whose worker has been quiet for
  :data:`QUIET_WORKER_SECONDS` says so.

Nothing here perturbs simulation results: heartbeats only observe and
never feed the result path, and with telemetry off (`active_hub()` is
``None``, the default) every hook degenerates to a single pointer test
-- the same zero-overhead contract the tracer keeps.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import IO, TYPE_CHECKING, Callable, Iterator


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.key import ExperimentKey

#: Minimum wall-clock seconds between heartbeats from one simulation.
HEARTBEAT_INTERVAL_SECONDS = 0.25

#: Commit batches between wall-clock checks inside the beacon: the hot
#: path pays ``time.monotonic()`` only once per this many calls.
_BEAT_CALL_MASK = 63

#: Heartbeat silence after which the display flags a running point's
#: worker.  A healthy worker beats every
#: :data:`HEARTBEAT_INTERVAL_SECONDS`, so this is far beyond jitter.
QUIET_WORKER_SECONDS = 5.0

#: Terminal point states (a late heartbeat must not resurrect them).
_TERMINAL = frozenset({"done", "cached", "failed"})


def _point_id(key: "ExperimentKey") -> str:
    """Short stable id for one design point (display + wire format)."""
    return key.digest[:12]


# ---------------------------------------------------------------------------
# Beacon: the in-simulation side
# ---------------------------------------------------------------------------


class TelemetryBeacon:
    """Emits heartbeats from inside one running simulation.

    ``send`` is any callable taking a message dict: the hub's
    :meth:`TelemetryHub.handle` when simulating in the parent process,
    or a put onto the engine's pool queue in a worker.  Send errors
    disable the beacon rather than fail the simulation -- telemetry is
    an observer, never a correctness dependency.
    """

    __slots__ = (
        "point",
        "label",
        "budget",
        "attempt",
        "worker",
        "interval",
        "_send",
        "_calls",
        "_last_sent",
    )

    def __init__(
        self,
        point: str,
        label: str,
        send: Callable[[dict], None],
        *,
        budget: int = 0,
        attempt: int = 1,
        worker: str | None = None,
        interval: float = HEARTBEAT_INTERVAL_SECONDS,
    ):
        import os

        self.point = point
        self.label = label
        self.budget = budget
        self.attempt = attempt
        self.worker = worker if worker is not None else f"pid:{os.getpid()}"
        self.interval = interval
        self._send = send
        self._calls = 0
        self._last_sent = 0.0

    def _emit(self, message: dict) -> None:
        if self._send is None:
            return
        message.setdefault("point", self.point)
        message.setdefault("label", self.label)
        message.setdefault("worker", self.worker)
        try:
            self._send(message)
        except Exception:  # noqa: BLE001 - observer must never kill the sim
            self._send = None

    def start(self) -> None:
        self._last_sent = time.monotonic()
        self._emit(
            {
                "type": "start",
                "budget": self.budget,
                "attempt": self.attempt,
            }
        )

    def progress(self, instructions: int) -> None:
        """Hot-path hook: called by the core on committing cycles."""
        self._calls += 1
        if self._calls & _BEAT_CALL_MASK:
            return
        now = time.monotonic()
        if now - self._last_sent < self.interval:
            return
        self._last_sent = now
        self._emit({"type": "beat", "instructions": instructions})

    def stall(self, stalled_cycles: int) -> None:
        """Final heartbeat when the commit watchdog detects a deadlock.

        This is the liveness evidence: the parent learns *which* point
        stalled and for how many cycles, instead of inferring a dead
        worker from heartbeat silence alone.
        """
        self._emit({"type": "stall", "stalled_cycles": stalled_cycles})


#: The beacon of the running simulation (worker or parent); ``None`` =
#: off.  The kernels read it once per run.
_BEACON: TelemetryBeacon | None = None


def notify_stall(stalled_cycles: int) -> None:
    """Forward deadlock evidence through the active beacon, if any."""
    active = _BEACON
    if active is not None:
        active.stall(stalled_cycles)


@contextmanager
def beaconing(
    key: "ExperimentKey",
    send: Callable[[dict], None] | None,
    attempt: int = 1,
) -> Iterator[None]:
    """Run one simulation attempt under a heartbeat beacon.

    Telemetry is off for a simulation exactly when nobody gave it a
    ``send``: the parent passes its hub's :meth:`TelemetryHub.handle`,
    pool workers a put onto the engine's queue -- and workers of an
    untelemetered run pass nothing and pay nothing.  Otherwise the
    point's beacon is installed for the body, after its ``start``
    message, and uninstalled on exit.  How the attempt ended is the
    engine's fact to report, not the beacon's.
    """
    global _BEACON
    if send is None:
        yield
        return
    budget = key.settings.timing_warmup + key.settings.instructions
    _BEACON = TelemetryBeacon(
        _point_id(key), key.label, send, budget=budget, attempt=attempt
    )
    _BEACON.start()
    try:
        yield
    finally:
        _BEACON = None


# ---------------------------------------------------------------------------
# Hub: parent-side aggregation
# ---------------------------------------------------------------------------


class PointState:
    """Live status of one design point as the hub sees it."""

    __slots__ = (
        "point",
        "label",
        "status",
        "worker",
        "instructions",
        "budget",
        "attempt",
        "stalled_cycles",
    )

    def __init__(self, point: str, label: str, status: str):
        self.point = point
        self.label = label
        self.status = status  #: queued/running/stalled/<terminal outcome>
        self.worker: str | None = None
        self.instructions = 0
        self.budget = 0
        self.attempt = 1
        self.stalled_cycles = 0

    @property
    def fraction(self) -> float:
        if self.budget <= 0:
            return 0.0
        return min(1.0, self.instructions / self.budget)


class TelemetryHub:
    """Aggregates heartbeats and lifecycle events for one sweep run.

    Thread-safe: the executor calls lifecycle methods and feeds
    :meth:`handle` from the main thread while the display thread reads
    :meth:`snapshot`.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._points: dict[str, PointState] = {}
        #: worker -> clock time of its latest heartbeat or finished point.
        self._last_beat: dict[str, float] = {}
        self.started = clock()
        self.totals = {
            "planned": 0,
            "cached": 0,
            "simulated": 0,
            "recovered": 0,
            "gaps": 0,
            "timeouts": 0,
        }
        #: Dispatch summary of the engine's latest parallel batch.
        self._dispatch: dict | None = None

    # -- lifecycle (called by the executor) -----------------------------

    def _state(self, point: str, label: str, status: str) -> PointState:
        state = self._points.get(point)
        if state is None:
            state = self._points[point] = PointState(point, label, status)
        return state

    def batch_started(self, planned: int) -> None:
        with self._lock:
            self.totals["planned"] += planned

    def point_cached(self, point: str, label: str, layer: str) -> None:
        """A point served by ``layer`` (memo or store) without simulating."""
        with self._lock:
            self._state(point, label, "cached").status = "cached"
            self.totals["cached"] += 1

    def point_queued(self, point: str, label: str) -> None:
        with self._lock:
            self._state(point, label, "queued")

    def point_finished(self, point: str, label: str, outcome: str) -> None:
        """Terminal transition: simulated / recovered / gap / timeout."""
        with self._lock:
            state = self._state(point, label, "done")
            state.status = "failed" if outcome in ("gap", "timeout") else "done"
            if outcome == "timeout":
                # A timeout is a gap (the point is lost) with its own
                # counter so the display can tell a hang from an
                # ordinary failure.
                self.totals["gaps"] += 1
                self.totals["timeouts"] += 1
            elif outcome == "gap":
                self.totals["gaps"] += 1
            elif outcome == "recovered":
                self.totals["recovered"] += 1
            else:
                self.totals["simulated"] += 1
            if state.worker is not None:
                self._last_beat[state.worker] = self._clock()

    def record_dispatch(self, dispatch: dict) -> None:
        """The latest parallel batch's pool summary: ``workers``,
        ``chunks``, ``utilization`` and ``pool_reused``, shown by the
        ``--progress`` pool line and recap."""
        with self._lock:
            self._dispatch = dispatch

    # -- heartbeat stream ------------------------------------------------

    def handle(self, message: dict) -> None:
        """One heartbeat message (from a queue drain or a direct send)."""
        kind = message.get("type")
        point = message.get("point", "?")
        label = message.get("label", point)
        worker = message.get("worker")
        with self._lock:
            state = self._state(point, label, "running")
            if worker is not None:
                state.worker = worker
                self._last_beat[worker] = self._clock()
            if kind == "start":
                if state.status not in _TERMINAL:
                    state.status = "running"
                state.budget = message.get("budget", state.budget)
                state.attempt = message.get("attempt", state.attempt)
            elif kind == "beat":
                if state.status not in _TERMINAL:
                    state.status = "running"
                state.instructions = message.get("instructions", state.instructions)
            elif kind == "stall":
                state.status = "stalled"
                state.stalled_cycles = message.get("stalled_cycles", 0)

    # -- read side -------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent view for the progress display and its recap."""
        now = self._clock()
        with self._lock:
            cached = self.totals["cached"]
            done = (
                cached
                + self.totals["simulated"]
                + self.totals["recovered"]
                + self.totals["gaps"]
            )
            total = self.totals["planned"]
            elapsed = now - self.started
            remaining = max(0, total - done)
            # Store and memo hits resolve instantly, so the rate comes
            # from the points that did work; no ETA until one has.
            worked = done - cached
            eta = (elapsed / worked) * remaining if worked and remaining else 0.0
            in_flight = [
                {
                    "point": s.point,
                    "label": s.label,
                    "status": s.status,
                    "worker": s.worker,
                    "instructions": s.instructions,
                    "budget": s.budget,
                    "fraction": s.fraction,
                    "attempt": s.attempt,
                    "stalled_cycles": s.stalled_cycles,
                    "heartbeat_age": (
                        now - self._last_beat[s.worker] if s.worker else None
                    ),
                }
                for s in self._points.values()
                if s.status in ("running", "queued", "stalled")
            ]
            return {
                "total": total,
                "done": done,
                "dispatch": self._dispatch,
                "cached": cached,
                "simulated": self.totals["simulated"],
                "recovered": self.totals["recovered"],
                "gaps": self.totals["gaps"],
                "timeouts": self.totals["timeouts"],
                "elapsed": elapsed,
                "eta": eta,
                "in_flight": in_flight,
                "stalled": [p["label"] for p in in_flight if p["status"] == "stalled"],
            }


#: The process-wide active hub; ``None`` means telemetry is off.
_HUB: TelemetryHub | None = None


def active_hub() -> TelemetryHub | None:
    return _HUB


def install_hub(hub: TelemetryHub) -> None:
    global _HUB
    _HUB = hub


def clear_hub() -> None:
    global _HUB
    _HUB = None


# ---------------------------------------------------------------------------
# Live progress display
# ---------------------------------------------------------------------------


def _human_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


def render_progress_lines(snapshot: dict, width: int = 100) -> list[str]:
    """Human-readable progress block for one hub snapshot."""
    parts = [f"{snapshot['done']}/{snapshot['total']} points"]
    if snapshot["cached"]:
        parts.append(f"{snapshot['cached']} cached")
    if snapshot["recovered"]:
        parts.append(f"{snapshot['recovered']} recovered")
    if snapshot["gaps"]:
        parts.append(f"{snapshot['gaps']} FAILED")
    if snapshot.get("timeouts"):
        parts.append(f"{snapshot['timeouts']} timed out")
    parts.append(f"elapsed {_human_seconds(snapshot['elapsed'])}")
    if snapshot["eta"]:
        parts.append(f"ETA {_human_seconds(snapshot['eta'])}")
    lines = ["sweep: " + " · ".join(parts)]
    dispatch = snapshot.get("dispatch")
    if dispatch:
        pool = [
            f"{dispatch.get('workers', 0)} workers",
            f"{dispatch.get('chunks', 0)} chunks",
        ]
        pool.append(f"{float(dispatch.get('utilization', 0.0)):.0%} busy")
        if not dispatch.get("pool_reused", True):
            pool.append("pool cold")
        lines.append(("  pool: " + " · ".join(pool))[:width])
    for point in snapshot["in_flight"]:
        if point["status"] == "stalled":
            detail = (
                f"STALLED: no commit for {point['stalled_cycles']} cycles"
            )
        elif point["status"] == "queued":
            detail = "queued"
        else:
            detail = f"{point['instructions']}/{point['budget']} instr"
            if point["budget"]:
                detail += f" ({point['fraction']:.0%})"
            if point["attempt"] > 1:
                detail += f" · retry #{point['attempt']}"
            age = point["heartbeat_age"]
            if age is not None and age > QUIET_WORKER_SECONDS:
                detail += f" · no heartbeat for {age:.0f}s"
        worker = f" [{point['worker']}]" if point["worker"] else ""
        lines.append(f"  {point['label']}{worker}  {detail}"[:width])
    return lines


def render_final_summary(snapshot: dict) -> str:
    """The one-line recap printed when a ``--progress`` display closes.

    A sweep's live block disappears with the process; this line is the
    durable answer to "how did that go" -- total wall clock and pool
    utilization -- without needing ``repro runs show``.
    """
    parts = [
        f"sweep finished: {snapshot['done']}/{snapshot['total']} points "
        f"in {_human_seconds(snapshot['elapsed'])}"
    ]
    if snapshot.get("gaps"):
        parts.append(f"{snapshot['gaps']} FAILED")
    dispatch = snapshot.get("dispatch")
    if dispatch:
        parts.append(
            f"{dispatch.get('workers', 0)} workers "
            f"{float(dispatch.get('utilization', 0.0)):.0%} busy"
        )
    return " · ".join(parts)


class ProgressDisplay:
    """Renders hub snapshots to a stream on a background thread.

    On a TTY the block is redrawn in place with ANSI cursor movement;
    on a plain stream (forced ``--progress`` in CI) it appends one
    status line whenever the done-count changes, so logs stay readable.
    """

    def __init__(
        self,
        hub: TelemetryHub,
        stream: IO[str],
        *,
        interval: float = 0.5,
        ansi: bool | None = None,
    ):
        self.hub = hub
        self.stream = stream
        self.interval = interval
        self.ansi = stream.isatty() if ansi is None else ansi
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_block_lines = 0
        self._last_done = -1
        self._closed = False

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-progress", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.render()
            except Exception:  # noqa: BLE001 - display must never kill a sweep
                return

    def render(self, final: bool = False) -> None:
        snapshot = self.hub.snapshot()
        if self.ansi:
            lines = render_progress_lines(snapshot)
            out = []
            if self._last_block_lines:
                out.append(f"\x1b[{self._last_block_lines}F")
            out.extend(f"\x1b[2K{line}\n" for line in lines)
            # Clear leftover lines from a taller previous block.
            extra = self._last_block_lines - len(lines)
            if extra > 0:
                out.extend("\x1b[2K\n" for _ in range(extra))
                out.append(f"\x1b[{extra}F")
            self.stream.write("".join(out))
            self.stream.flush()
            self._last_block_lines = len(lines)
        else:
            if snapshot["done"] == self._last_done and not final:
                return
            self._last_done = snapshot["done"]
            self.stream.write(render_progress_lines(snapshot)[0] + "\n")
            self.stream.flush()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._closed:
            return  # the summary line prints exactly once
        self._closed = True
        try:
            self.render(final=True)
            self.stream.write(
                render_final_summary(self.hub.snapshot()) + "\n"
            )
            self.stream.flush()
        except Exception:  # noqa: BLE001
            pass


# ---------------------------------------------------------------------------
# The CLI-facing scope
# ---------------------------------------------------------------------------


@contextmanager
def sweep_telemetry(
    *,
    progress: bool | None = None,
    stream: IO[str] | None = None,
) -> Iterator[TelemetryHub | None]:
    """Enable the live progress display for the enclosed sweep run.

    ``progress=None`` auto-enables the display on a TTY; ``True`` and
    ``False`` force it.  When it is off, yields ``None`` without
    installing anything -- the zero-overhead off state.
    """
    import sys

    out = stream if stream is not None else sys.stderr
    want_progress = out.isatty() if progress is None else progress
    if not want_progress:
        yield None
        return
    hub = TelemetryHub()
    display = ProgressDisplay(hub, out)
    install_hub(hub)
    try:
        display.start()
        yield hub
    finally:
        clear_hub()
        display.close()
