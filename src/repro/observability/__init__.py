"""Observability: event tracing, metrics snapshot, spans, breakdowns.

Public surface:

* :mod:`repro.observability.trace` -- the zero-overhead-when-disabled
  event trace (``tracing()`` scope, bounded ring, JSONL sink);
* :mod:`repro.observability.events` -- the event-kind taxonomy every
  emit point stamps its events with;
* :mod:`repro.observability.metrics` -- the per-simulation metrics
  snapshot (every component counter under a dotted name) riding
  ``SimulationResult``;
* :mod:`repro.observability.utilization` -- the per-design-point
  pipeline-utilization breakdown table;
* :mod:`repro.observability.attribution` -- per-access critical-path
  cycle accounting (exact-sum latency decomposition, fixed-bucket
  histograms with p50/p95/p99), off unless the run's settings carry
  ``Observe(attribution=True)``;
* :mod:`repro.observability.counters` -- interval-sampled
  microarchitectural counter series (the software analog of PMU
  sampling): one columnar row of integer deltas every
  ``Observe.counter_interval`` committed instructions, bit-identical
  across kernel backends, off unless the run's settings ask;
* :mod:`repro.observability.chrometrace` -- Chrome trace-event JSON
  export of any captured or JSONL stream, for Perfetto;
* :mod:`repro.observability.diagnose` -- stall-source ranking and the
  ``repro diagnose`` narrative report;
* :mod:`repro.observability.spans` -- sweep-scope hierarchical span
  tracing of the orchestration layer (plan, pricing, chunks, queue
  wait, worker execution, absorption), written by the coordinating
  process alone, with a JSONL(.gz) sink (``REPRO_SPANS``/
  ``--spans-out``) and the critical-path analyzer behind ``repro
  spans``;
* :mod:`repro.observability.telemetry` -- live sweep telemetry: worker
  heartbeats over a multiprocessing queue feeding the per-point
  ``--progress`` display (``sweep_telemetry()`` scope, zero overhead
  when off).
"""

from repro.observability import (
    attribution,
    counters,
    events,
    spans,
    telemetry,
    trace,
)
from repro.observability.attribution import (
    AttributionAccumulator,
    LatencyHistogram,
)
from repro.observability.counters import CounterSampler
from repro.observability.chrometrace import (
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
)
from repro.observability.events import ALL_KINDS
from repro.observability.metrics import (
    snapshot_memory_system,
    snapshot_simulation,
)
from repro.observability.spans import (
    SPANS_ENV,
    SpanRecorder,
    analyze,
    collecting,
    read_spans,
    render_analysis,
)
from repro.observability.telemetry import (
    ProgressDisplay,
    TelemetryBeacon,
    TelemetryHub,
    sweep_telemetry,
)
from repro.observability.trace import (
    DEFAULT_CAPACITY,
    TraceEvent,
    Tracer,
    activate,
    active,
    deactivate,
    tracing,
)
from repro.observability.utilization import utilization_rows, utilization_summary

__all__ = [
    "ALL_KINDS",
    "AttributionAccumulator",
    "CounterSampler",
    "DEFAULT_CAPACITY",
    "LatencyHistogram",
    "ProgressDisplay",
    "SPANS_ENV",
    "SpanRecorder",
    "TelemetryBeacon",
    "TelemetryHub",
    "TraceEvent",
    "Tracer",
    "activate",
    "active",
    "analyze",
    "attribution",
    "chrome_trace_events",
    "collecting",
    "counters",
    "deactivate",
    "events",
    "read_jsonl",
    "read_spans",
    "render_analysis",
    "snapshot_memory_system",
    "snapshot_simulation",
    "spans",
    "sweep_telemetry",
    "telemetry",
    "trace",
    "tracing",
    "utilization_rows",
    "utilization_summary",
    "write_chrome_trace",
]
