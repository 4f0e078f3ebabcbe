"""The event taxonomy and the always-on emit channel.

Every instrumented point in the simulator emits one of the event kinds
below, stamped with the simulated cycle it happened on.  Names are
hierarchical (``cpu.*`` for the pipeline, ``mem.*`` for the memory
hierarchy) so consumers can filter by prefix; DESIGN.md section 9
documents the fields each kind carries.

Two kinds of consumer see the stream:

* the optional :class:`~repro.observability.trace.Tracer` (ring buffer
  / JSONL sink), active only inside a ``tracing()`` scope;
* **always-on guard rails**, which see each value before the tracer
  does, so the robustness checks and the trace can never disagree
  about what happened.  A port arbiter books each grant in its
  :class:`~repro.robustness.invariants.GrantLedger` and then captures
  the same ``(cycle, key)`` as ``mem.port.grant``; bus transfers go
  through an :class:`EventChannel` whose tap is the causality check.
"""

from __future__ import annotations

from typing import Callable

from repro.observability import trace

# --------------------------------------------------------------------------
# Event kinds
# --------------------------------------------------------------------------

#: CPU pipeline lifecycle (fields: seq, op; issue adds complete/fwd).
CPU_FETCH = "cpu.fetch"
CPU_ISSUE = "cpu.issue"
CPU_COMMIT = "cpu.commit"
#: Fetch redirected after a branch misprediction (fields: seq, resume).
CPU_FLUSH = "cpu.flush"

#: One data reference through the hierarchy frontend
#: (fields: line, outcome, served, done).
MEM_LOAD = "mem.load"
MEM_STORE = "mem.store"
#: A load satisfied by the level-zero line buffer (fields: line).
MEM_LB_HIT = "mem.lb.hit"
#: A cache port/bank granted a start cycle (fields: key; weight opt).
MEM_PORT_GRANT = "mem.port.grant"
#: A banked access delayed by its bank (fields: bank, wait).
MEM_BANK_CONFLICT = "mem.bank.conflict"
#: MSHR lifecycle (fields: line; alloc adds start, fill adds ready).
MEM_MSHR_ALLOC = "mem.mshr.alloc"
MEM_MSHR_MERGE = "mem.mshr.merge"
MEM_MSHR_FILL = "mem.mshr.fill"
#: A bus transfer window (fields: bus, start, done, bytes).
MEM_BUS_TRANSFER = "mem.bus.transfer"

#: Every kind above, for validation and reporting.
ALL_KINDS = (
    CPU_FETCH,
    CPU_ISSUE,
    CPU_COMMIT,
    CPU_FLUSH,
    MEM_LOAD,
    MEM_STORE,
    MEM_LB_HIT,
    MEM_PORT_GRANT,
    MEM_BANK_CONFLICT,
    MEM_MSHR_ALLOC,
    MEM_MSHR_MERGE,
    MEM_MSHR_FILL,
    MEM_BUS_TRANSFER,
)


class EventChannel:
    """A named emit point with always-on invariant taps.

    ``emit`` dispatches the event to every registered tap (guard rails
    that must see the stream whether or not tracing is enabled) and then
    to the active tracer, if any.  A tap is any callable taking
    ``(cycle, fields)``; it may raise a structured invariant error,
    which propagates to the emitting hot path exactly as the old
    privately-bookkept checks did.
    """

    __slots__ = ("kind", "_taps")

    def __init__(
        self,
        kind: str,
        taps: "tuple[Callable[[int, dict], None], ...]" = (),
    ):
        self.kind = kind
        self._taps = taps

    def emit(self, cycle: int, /, **fields) -> None:
        for tap in self._taps:
            tap(cycle, fields)
        tracer = trace._ACTIVE
        if tracer is not None:
            tracer.capture(self.kind, cycle, fields)
