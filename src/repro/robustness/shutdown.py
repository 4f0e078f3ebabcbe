"""Graceful shutdown: turn SIGINT/SIGTERM into a clean, resumable exit.

Without this module an operator interrupt tears a sweep down mid-write:
the process pool dies with a stack trace, the run ledger never hears
about the points that did finish, and the only record of hours of work
is whatever happened to reach the result store.  With it, the first
signal flips a flag; the engine stops dispatching new design points,
cancels or abandons in-flight workers, lets the checkpoint/ledger/
telemetry sinks flush, and the CLI exits with a distinct code so
rerunning the same command (or ``repro runs resume``) continues where
the run stopped.  A second signal restores default handling -- the hard
abort stays one keypress away.

The flag lives module-global (like the failure log and the telemetry
hub) so the executor can poll it from deep inside ``run_batch`` without
threading a handle through every call site.
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import IO


class SweepInterrupted(RuntimeError):
    """A sweep stopped early because shutdown was requested.

    Raised by the engine between design points (serial) or while
    consuming worker futures (parallel).  ``completed`` and ``remaining``
    count design points of the interrupted batch; ``checkpoint_path``
    is filled in by :meth:`~repro.engine.executor.ExecutionPlan.execute`
    when a checkpoint was being kept, so the CLI can name it in its
    resume hint.
    """

    def __init__(self, completed: int, remaining: int):
        super().__init__(
            f"sweep interrupted: {completed} design point(s) finished, "
            f"{remaining} not started"
        )
        self.completed = completed
        self.remaining = remaining
        self.checkpoint_path: str | None = None


class ShutdownController:
    """Installs SIGINT/SIGTERM handlers for the enclosing sweep run.

    First signal: request a graceful stop (the engine notices between
    points) and tell the operator.  Second signal: restore the previous
    handler and re-deliver default behavior, so a wedged run can still
    be killed the ordinary way.

    Handler installation only works from the main thread; anywhere else
    (tests driving the CLI from a worker thread) the controller degrades
    to a manually settable flag.
    """

    def __init__(
        self,
        *,
        signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
        stream: "IO[str] | None" = None,
    ):
        self.signals = signals
        self.stream = stream if stream is not None else sys.stderr
        self._event = threading.Event()
        self._previous: dict[int, object] = {}

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "ShutdownController":
        global _CONTROLLER
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread: flag-only mode
                break
        _CONTROLLER = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _CONTROLLER
        if _CONTROLLER is self:
            _CONTROLLER = None
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError, OSError):
                pass
        self._previous.clear()

    # -- the handler -----------------------------------------------------

    def _handle(self, signum, frame) -> None:
        if self._event.is_set():
            # Second signal: hand control back to the default behavior.
            previous = self._previous.pop(signum, signal.SIG_DFL)
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError, OSError):
                pass
            raise KeyboardInterrupt
        self._event.set()
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = str(signum)
        print(
            f"[{name}: finishing in-flight points, writing checkpoint, "
            "then exiting -- signal again to abort hard]",
            file=self.stream,
        )

    # -- the flag --------------------------------------------------------

    def request(self) -> None:
        """Programmatic shutdown request (tests, embedding callers)."""
        self._event.set()

    def requested(self) -> bool:
        return self._event.is_set()


#: The active controller, installed by the CLI around a sweep run.
_CONTROLLER: ShutdownController | None = None


def active_controller() -> ShutdownController | None:
    return _CONTROLLER


def shutdown_requested() -> bool:
    """Polled by the engine between design points; cheap when idle."""
    controller = _CONTROLLER
    return controller is not None and controller.requested()
