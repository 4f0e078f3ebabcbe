"""The event taxonomy.

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
  the same ``(cycle, key)`` as ``mem.port.grant``; every bus transfer
  goes through :meth:`repro.memory.bus.Bus.checked_transfer`, which
  runs the causality check on the fields dict it then captures as
  ``mem.bus.transfer``.
"""

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
