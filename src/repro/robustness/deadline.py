"""Per-design-point wall-clock deadlines: bound how long a point may run.

The commit watchdog bounds stalls in *simulated* cycles; a deadline
bounds one design point's *wall clock*.  The two catch different
failure shapes: the watchdog sees a pipeline that stopped committing,
the deadline sees a simulation that is still "making progress" by its
own lights but will never finish inside any reasonable budget (a spin
the watchdog misses, a pathological configuration, a worker stuck in
warm-up).  The deadline is the last line of defense before a sweep
operator reaches for ``kill -9``.

Mechanics mirror the telemetry beacon: a process-wide active
:class:`Deadline` is installed around one simulation, the core's hot
loop hoists it once per run and pays a single ``is None`` test per
cycle when deadlines are off, and :meth:`Deadline.tick` rate-limits the
``time.monotonic()`` call behind a counter mask.  Expiry raises
:class:`~repro.robustness.errors.DeadlineExceededError`, which the
engine resolves as a ``timeout`` gap -- recorded in the ledger and
telemetry, never retried at reduced budget (a hung point already spent
its whole wall-clock budget; re-running a hang doubles the damage).

Configuration is one environment variable, ``REPRO_POINT_TIMEOUT``
(seconds, fractional allowed), set by the CLI's ``--point-timeout`` so
worker processes inherit it.  The *parent* grants a worker
:data:`GRACE_SECONDS` of extra slack before declaring it wedged and
killing it (the cooperative in-worker check normally fires first).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.robustness.errors import DeadlineExceededError

#: Environment variable carrying the per-point wall-clock budget.
POINT_TIMEOUT_ENV = "REPRO_POINT_TIMEOUT"

#: Parent-side grace (seconds) beyond the deadline before a silent
#: worker is killed.
GRACE_SECONDS = 5.0

#: Hot-loop iterations between wall-clock reads inside ``tick``.
_TICK_MASK = 255


def configured_timeout() -> float | None:
    """The per-point budget from ``REPRO_POINT_TIMEOUT``, or ``None``.

    Unparsable or non-positive values disable the deadline rather than
    fail the run -- a deadline is protection, never a prerequisite.
    """
    raw = os.environ.get(POINT_TIMEOUT_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class Deadline:
    """One wall-clock budget, armed at construction.

    ``clock`` is injectable for tests; production uses ``monotonic``.
    """

    __slots__ = ("seconds", "started", "_expires", "_clock", "_calls")

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive: {seconds}")
        self.seconds = seconds
        self._clock = clock
        self.started = clock()
        self._expires = self.started + seconds
        self._calls = 0

    def remaining(self) -> float:
        """Seconds left before expiry (negative once overdue)."""
        return self._expires - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self._expires

    def check(self, cycle: int = 0) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        now = self._clock()
        if now < self._expires:
            return
        raise DeadlineExceededError(
            f"design point exceeded its {self.seconds:g}s wall-clock budget "
            f"({now - self.started:.1f}s elapsed at cycle {cycle}); "
            "the point is recorded as a timeout gap",
            seconds=self.seconds,
        )

    def tick(self, cycle: int = 0) -> None:
        """Hot-loop hook: counter-masked so the wall clock is read only
        once every ``_TICK_MASK + 1`` calls."""
        self._calls += 1
        if self._calls & _TICK_MASK:
            return
        self.check(cycle)


#: The process-wide active deadline; ``None`` = unbounded (the default).
_DEADLINE: Deadline | None = None


def active_deadline() -> Deadline | None:
    return _DEADLINE


def install_deadline(deadline: Deadline) -> None:
    global _DEADLINE
    _DEADLINE = deadline


def clear_deadline() -> None:
    global _DEADLINE
    _DEADLINE = None


@contextmanager
def point_deadline(seconds: float | None = None) -> Iterator[Deadline | None]:
    """Arm a deadline around one design-point simulation.

    ``seconds=None`` reads ``REPRO_POINT_TIMEOUT``; when that is unset
    too, nothing is installed and the enclosed code pays nothing.  The
    previous deadline (normally ``None``) is restored on exit, so
    nested scopes -- a retry inside a point -- each get a fresh budget.
    """
    global _DEADLINE
    budget = seconds if seconds is not None else configured_timeout()
    if budget is None:
        yield None
        return
    previous = _DEADLINE
    armed = Deadline(budget)
    _DEADLINE = armed
    try:
        yield armed
    finally:
        _DEADLINE = previous
