"""Cycle-level event tracing: bounded ring buffer + optional JSONL sink.

The tracer records simulated events only: the ``cpu.*`` / ``mem.*``
kinds of :mod:`repro.observability.events`, each stamped with the
simulated cycle it happened on.  Orchestration facts (planning, cache
hits, dispatch, deadlines) are recorded once elsewhere -- sweep spans,
the run ledger, the failure log, the telemetry hub.

One :class:`Tracer` at a time may be *active* process-wide; the emit
points scattered through the CPU core and memory system consult the
module-level active tracer and do nothing when none is installed.  The
disabled path is a single ``is None`` check (in the hottest loops the
check is hoisted out of the loop entirely), so simulations with
tracing off pay effectively nothing -- the overhead guarantee
DESIGN.md section 9 states and ``bench_suite.py`` measures.

Captured events land in a bounded ring buffer (a ``deque`` with
``maxlen``), so an arbitrarily long simulation traces in O(capacity)
memory: once full, the oldest events fall off and ``dropped`` counts
them.  A ``capacity`` of 0 keeps only the per-kind counts -- the cheap
"counting" mode.  An optional sink receives
every event as one JSON line, for offline analysis of full streams.

Sink lines are buffered and written in batches (and gzip sinks
compress at level 1, not 9) -- the stream is consumed by offline
tooling, so per-event write syscalls and maximum compression bought
nothing but the 80% wall-clock overhead the benchmark suite used to
record.  ``tracing()`` flushes on scope exit; direct users call
:meth:`Tracer.flush` before reading the sink.

A tracer belongs to the process that installed it: a forked child
(a pool worker) starts with tracing off, so it never writes into the
parent's sink.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from typing import IO, Iterator, NamedTuple

#: Default ring capacity: enough for the tail of any short run while
#: bounding a full-length simulation to a few MB of event tuples.
DEFAULT_CAPACITY = 65_536

#: Sink lines buffered between writes.  Full traces run to millions of
#: events; batching turns per-event ``write`` calls (and, for ``.gz``
#: sinks, per-event deflate calls) into one call per batch.
SINK_BATCH_LINES = 1024


class TraceEvent(NamedTuple):
    """One captured event: when, what, and the emit point's fields."""

    cycle: int
    kind: str
    fields: dict

    def to_json(self) -> str:
        return json.dumps(
            {"cycle": self.cycle, "kind": self.kind, **self.fields},
            separators=(",", ":"),
            sort_keys=True,
        )


class Tracer:
    """Bounded capture of the simulator's event stream."""

    __slots__ = (
        "capacity",
        "emitted",
        "by_kind",
        "_ring",
        "_sink",
        "_buffer",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: IO[str] | None = None,
    ):
        if capacity < 0:
            raise ValueError(f"ring capacity cannot be negative: {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self.by_kind: dict[str, int] = {}
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self._sink = sink
        self._buffer: list[str] = []

    def capture(self, kind: str, cycle: int, fields: dict) -> None:
        """Record one event (ring + per-kind count + optional sink)."""
        self.emitted += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        event = TraceEvent(cycle, kind, fields)
        self._ring.append(event)
        if self._sink is not None:
            self._buffer.append(event.to_json())
            if len(self._buffer) >= SINK_BATCH_LINES:
                self._sink.write("\n".join(self._buffer) + "\n")
                self._buffer.clear()

    def flush(self) -> None:
        """Write buffered sink lines out.  ``tracing()`` calls this on
        scope exit; call it directly before reading a sink mid-run."""
        if self._sink is not None and self._buffer:
            self._sink.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (still counted in ``by_kind``)."""
        return self.emitted - len(self._ring)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Retained events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def count(self, kind: str) -> int:
        """Total emissions of ``kind`` (independent of ring retention)."""
        return self.by_kind.get(kind, 0)

    def clear(self) -> None:
        self._ring.clear()
        self.by_kind.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._ring)


def open_sink(path: str, mode: str = "w") -> IO[str]:
    """Open a JSONL sink; ``*.gz`` paths are gzipped.

    ``mode`` is ``"w"`` (truncate: event traces, one per run) or ``"a"``
    (append: one span path commonly collects several sweeps, and
    concatenated gzip members are legal input to :func:`read_records`).

    Full-length traces run to hundreds of MB of JSON lines, and gzip
    shrinks the highly repetitive stream ~20x, so ``REPRO_TRACE``,
    ``--trace-out`` and ``REPRO_SPANS`` accept a ``.gz`` suffix and
    route through here.  Level 1 already captures most of that ratio on
    this stream; the default level 9 cost several times the deflate CPU
    of the whole simulation for a few percent smaller file.
    """
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="utf-8", compresslevel=1)
    return open(path, mode, encoding="utf-8")


def read_records(path) -> Iterator[dict]:
    """Stream the JSON objects of a JSONL(.gz) sink, tolerating a torn tail.

    A run killed mid-write leaves a torn last line or a truncated gzip
    member; every complete record before the cut is still yielded.
    """
    if str(path).endswith(".gz"):
        import gzip

        handle = gzip.open(path, "rt", encoding="utf-8", errors="replace")
    else:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    with handle:
        try:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # torn line
                if isinstance(record, dict):
                    yield record
        except EOFError:
            return  # gzip member cut short


#: The process-wide active tracer; ``None`` means tracing is disabled.
_ACTIVE: Tracer | None = None


def active() -> Tracer | None:
    """The currently installed tracer, or ``None`` when disabled."""
    return _ACTIVE


def activate(tracer: Tracer) -> None:
    """Install ``tracer`` as the process-wide event consumer."""
    global _ACTIVE
    _ACTIVE = tracer


def deactivate() -> None:
    """Disable tracing (the zero-overhead default)."""
    global _ACTIVE
    _ACTIVE = None


# A forked child shares the parent's open sink and copies its buffered
# lines; writing them again would interleave two streams in one file.
os.register_at_fork(after_in_child=deactivate)


@contextmanager
def tracing(
    capacity: int = DEFAULT_CAPACITY,
    sink: IO[str] | None = None,
) -> Iterator[Tracer]:
    """Scope with tracing enabled; restores the prior state on exit::

        with tracing(capacity=10_000) as tracer:
            run_experiment(...)
        loads = tracer.count(events.MEM_LOAD)

    Buffered sink lines are flushed when the scope exits.
    """
    global _ACTIVE
    previous = _ACTIVE
    tracer = Tracer(capacity, sink)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
        tracer.flush()
