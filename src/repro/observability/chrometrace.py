"""Export captured event streams as Chrome trace-event JSON.

Converts a :class:`~repro.observability.trace.TraceEvent` stream (the
live ring or a JSONL/JSONL.gz file) into the Trace Event Format that
``chrome://tracing`` and Perfetto open directly:

* loads and stores render as complete ("X") slices on their own tracks,
  named by outcome, spanning request to completion;
* each cache port/bank and each bus gets its own track -- grants are
  one-cycle slices, bus transfers span their grant window, and bank
  conflicts appear as instant markers carrying the wait;
* in-flight misses render as async begin/end pairs ("b"/"e") from MSHR
  allocation to fill, giving Perfetto's arrow view of miss overlap;
* CPU issue slices and flush markers give the pipeline context.

One simulated cycle maps to one microsecond of trace time (the format's
timestamps are microseconds), so durations read directly as cycles.

The export is purely a view: it never needs the simulator, so existing
JSONL traces convert offline (``repro trace --from-jsonl run.jsonl.gz
--format chrome``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from repro.observability import events as kinds
from repro.observability.trace import TraceEvent, read_records

#: Single simulated process; tracks are threads within it.
PID = 1

#: Fixed thread ids for the always-present tracks; per-port/bank/bus
#: tracks are allocated dynamically above :data:`DYNAMIC_TID_BASE` in
#: order of first appearance.
TID_CPU = 1
TID_LOADS = 2
TID_STORES = 3
TID_MSHR = 4
DYNAMIC_TID_BASE = 10

_FIXED_TRACKS = (
    (TID_CPU, "cpu pipeline"),
    (TID_LOADS, "loads"),
    (TID_STORES, "stores"),
    (TID_MSHR, "mshr in-flight"),
)


def read_jsonl(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace (``.gz`` transparent) back into events.

    A stream cut short by a killed run converts up to its last complete
    event.
    """
    for record in read_records(path):
        cycle = record.pop("cycle")
        kind = record.pop("kind")
        yield TraceEvent(cycle, kind, record)


def chrome_trace_events(trace_events: Iterable[TraceEvent]) -> list[dict]:
    """The ``traceEvents`` array for one event stream."""
    out: list[dict] = [
        {
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro simulation"},
        }
    ]
    for tid, name in _FIXED_TRACKS:
        out.append(_thread_name(tid, name))
    dynamic: dict[str, int] = {}

    def tid_for(track: str) -> int:
        tid = dynamic.get(track)
        if tid is None:
            tid = DYNAMIC_TID_BASE + len(dynamic)
            dynamic[track] = tid
            out.append(_thread_name(tid, track))
        return tid

    for event in trace_events:
        kind = event.kind
        fields = event.fields
        ts = event.cycle
        if kind in (kinds.MEM_LOAD, kinds.MEM_STORE):
            tid = TID_LOADS if kind == kinds.MEM_LOAD else TID_STORES
            out.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": tid,
                    "ts": ts,
                    "dur": max(fields.get("done", ts) - ts, 0),
                    "name": fields.get("outcome", kind),
                    "cat": "mem",
                    "args": fields,
                }
            )
        elif kind == kinds.MEM_PORT_GRANT:
            out.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": tid_for(f"port {fields.get('key', '?')}"),
                    "ts": ts,
                    "dur": 1,
                    "name": "grant",
                    "cat": "port",
                    "args": fields,
                }
            )
        elif kind == kinds.MEM_BANK_CONFLICT:
            out.append(
                {
                    "ph": "i",
                    "pid": PID,
                    "tid": tid_for(f"bank {fields.get('bank', '?')}"),
                    "ts": ts,
                    "s": "t",
                    "name": f"conflict (+{fields.get('wait', '?')})",
                    "cat": "port",
                    "args": fields,
                }
            )
        elif kind == kinds.MEM_BUS_TRANSFER:
            start = fields.get("start", ts)
            out.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": tid_for(f"bus {fields.get('bus', '?')}"),
                    "ts": start,
                    "dur": max(fields.get("done", start) - start, 0),
                    "name": f"{fields.get('bytes', '?')}B",
                    "cat": "bus",
                    "args": fields,
                }
            )
        elif kind == kinds.MEM_MSHR_FILL and "alloc" in fields:
            # The fill event carries its allocation cycle, so one event
            # yields the whole in-flight window as an async pair even
            # when the alloc event has dropped off the ring.
            alloc = fields["alloc"]
            ready = fields.get("ready", ts)
            if ready > alloc:
                name = f"miss line {fields.get('line', 0):#x}"
                common = {
                    "pid": PID,
                    "tid": TID_MSHR,
                    "cat": "mshr",
                    "id": fields.get("line", 0),
                    "name": name,
                }
                out.append({"ph": "b", "ts": alloc, "args": fields, **common})
                out.append({"ph": "e", "ts": ready, **common})
        elif kind in (kinds.MEM_MSHR_ALLOC, kinds.MEM_MSHR_MERGE, kinds.MEM_MSHR_FILL):
            out.append(_instant(TID_MSHR, ts, kind.rsplit(".", 1)[-1], "mshr", fields))
        elif kind == kinds.MEM_LB_HIT:
            out.append(_instant(TID_LOADS, ts, "lb.hit", "mem", fields))
        elif kind == kinds.CPU_ISSUE:
            out.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": TID_CPU,
                    "ts": ts,
                    "dur": max(fields.get("complete", ts) - ts, 0),
                    "name": fields.get("op", "issue"),
                    "cat": "cpu",
                    "args": fields,
                }
            )
        elif kind == kinds.CPU_FLUSH:
            out.append(_instant(TID_CPU, ts, "flush", "cpu", fields))
        elif kind in (kinds.CPU_FETCH, kinds.CPU_COMMIT):
            # Skipped: one marker per instruction adds nothing the issue
            # slices don't show, and triples the file size.
            continue
        else:
            out.append(_instant(TID_CPU, ts, kind, "other", fields))
    return out


def _thread_name(tid: int, name: str) -> dict:
    return {
        "ph": "M",
        "pid": PID,
        "tid": tid,
        "name": "thread_name",
        "args": {"name": name},
    }


def _instant(tid: int, ts: int, name: str, cat: str, fields: dict) -> dict:
    return {
        "ph": "i",
        "pid": PID,
        "tid": tid,
        "ts": ts,
        "s": "t",
        "name": name,
        "cat": cat,
        "args": fields,
    }


# --------------------------------------------------------------------------
# Orchestration spans (repro.observability.spans) -> per-worker tracks
# --------------------------------------------------------------------------

#: Orchestration spans render as a second Chrome process so a sweep's
#: wall-clock tracks never collide with the simulated-cycle tracks.
ORCHESTRATION_PID = 2


def span_trace_events(spans: Iterable[dict]) -> list[dict]:
    """The ``traceEvents`` array for an orchestration span stream.

    One Chrome *thread* per originating process (coordinator first,
    then each pool worker in order of first appearance), timestamps in
    microseconds relative to the earliest span, ``chunk.wait`` spans
    doubled as async begin/end pairs so Perfetto draws the submit->start
    arrow the MSHR in-flight view uses for misses.
    """
    spans = [s for s in spans if isinstance(s, dict) and "span" in s]
    out: list[dict] = [
        {
            "ph": "M",
            "pid": ORCHESTRATION_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro sweep orchestration"},
        }
    ]
    if not spans:
        return out
    base = min(float(s.get("t0") or 0.0) for s in spans)
    tids: dict[str, int] = {}

    def tid_for(proc: str) -> int:
        tid = tids.get(proc)
        if tid is None:
            tid = 1 + len(tids)
            tids[proc] = tid
            out.append(
                {
                    "ph": "M",
                    "pid": ORCHESTRATION_PID,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": proc},
                }
            )
        return tid

    # Register the coordinator (the root span's process) as tid 1 so the
    # track order is stable regardless of which span sorts first.
    roots = [s for s in spans if s.get("parent") is None]
    if roots:
        tid_for(str(roots[0].get("proc")))

    for span in sorted(spans, key=lambda s: float(s.get("t0") or 0.0)):
        proc = str(span.get("proc"))
        tid = tid_for(proc)
        ts = int(round((float(span.get("t0") or 0.0) - base) * 1e6))
        dur = int(round(float(span.get("dur") or 0.0) * 1e6))
        name = str(span.get("name"))
        args = {
            "trace": span.get("trace"),
            "span": span.get("span"),
            **(span.get("attrs") or {}),
        }
        if dur <= 0:
            out.append(
                {
                    "ph": "i",
                    "pid": ORCHESTRATION_PID,
                    "tid": tid,
                    "ts": ts,
                    "s": "t",
                    "name": name,
                    "cat": "orchestration",
                    "args": args,
                }
            )
            continue
        out.append(
            {
                "ph": "X",
                "pid": ORCHESTRATION_PID,
                "tid": tid,
                "ts": ts,
                "dur": dur,
                "name": name,
                "cat": "orchestration",
                "args": args,
            }
        )
        if name == "chunk.wait":
            # Async pair: queue-wait as an arrow from submit to start.
            common = {
                "pid": ORCHESTRATION_PID,
                "tid": tid,
                "cat": "queue",
                "id": int((span.get("attrs") or {}).get("chunk", 0) or 0),
                "name": "queued",
            }
            out.append({"ph": "b", "ts": ts, "args": args, **common})
            out.append({"ph": "e", "ts": ts + dur, **common})
    return out


def write_chrome_spans(
    spans: Iterable[dict],
    destination: Union[str, Path, IO[str]],
) -> int:
    """Write orchestration spans as a Chrome trace; returns event count."""
    payload_events = span_trace_events(spans)
    document = {
        "traceEvents": payload_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro",
            "time_unit": "1 trace us == 1 wall-clock us",
        },
    }
    if hasattr(destination, "write"):
        json.dump(document, destination)  # type: ignore[arg-type]
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return len(payload_events)


def write_chrome_trace(
    trace_events: Iterable[TraceEvent],
    destination: Union[str, Path, IO[str]],
    *,
    extra_events: Iterable[dict] = (),
) -> int:
    """Write the full Chrome trace JSON object; returns the event count.

    The JSON-object form (``{"traceEvents": [...]}``) is used rather
    than the bare array so metadata fields are legal and the file is
    self-describing.  ``extra_events`` are pre-built Chrome events
    appended verbatim -- the counters layer merges its Perfetto counter
    tracks (``"ph": "C"``) into the simulation export this way.
    """
    payload_events = chrome_trace_events(trace_events) + list(extra_events)
    document = {
        "traceEvents": payload_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro",
            "time_unit": "1 trace us == 1 simulated cycle",
        },
    }
    if hasattr(destination, "write"):
        json.dump(document, destination)  # type: ignore[arg-type]
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return len(payload_events)
