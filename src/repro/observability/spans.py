"""Sweep-scope hierarchical span tracing for the orchestration layer.

The cycle-level :mod:`~repro.observability.trace` answers "where did the
*simulated* time go"; this module answers the same question for the
*wall clock* of a sweep -- plan/dedup, cost-model pricing, chunk
packing, queue wait, per-point worker execution, absorption,
re-sequencing, store writes, checkpoint marks, and ledger appends each
become one span in a tree rooted at the ``sweep`` span that every
store-backed ``execute()`` opens.

Design mirrors the tracer's discipline:

* **Zero overhead when off.**  One module-level ``_ACTIVE`` recorder;
  the emit points test ``active() is None`` (or hold the shared
  :data:`NULL_SPAN`) and skip even building attribute dicts.
* **One writer.**  Only the coordinator records spans; a forked pool
  worker starts with none installed.  The coordinator writes each
  chunk's spans -- the chunk, its queue wait and one ``point`` span per
  design point on the worker's track -- from the chunk result when it
  absorbs it, through :meth:`SpanRecorder.add`.
* **Timestamps are epoch seconds** (``time.time()``), not monotonic --
  worker-stamped start times must land on the coordinator's axis.

Spans are flat JSON dicts (``trace``/``span``/``parent``/``name``/
``t0``/``dur``/``proc``/``attrs``), dumped to a JSONL(.gz) sink named
by ``REPRO_SPANS`` or ``--spans-out``, exported to Chrome trace-event
JSON through :mod:`~repro.observability.chrometrace`, and analyzed by
:func:`analyze`, which walks the span DAG for the critical path and
renders the paper-style verdict ``repro spans`` prints.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import IO, Iterator

from repro.observability import trace as obs_trace

#: Environment variable naming the JSONL(.gz) span sink.
SPANS_ENV = "REPRO_SPANS"

#: Sink lines buffered between writes (same batching rationale as the
#: cycle tracer: one write syscall per batch, not per span).
SINK_BATCH_LINES = 256


class SpanScope:
    """One open span; a context manager that closes it on exit."""

    __slots__ = ("recorder", "name", "span_id", "parent", "attrs", "t0", "_closed")

    def __init__(self, recorder: "SpanRecorder", name: str, parent: str | None, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.span_id = recorder._next_span_id()
        self.parent = parent
        self.attrs = attrs
        self.t0 = time.time()
        self._closed = False

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. ok/error)."""
        self.attrs.update(attrs)

    def close(self) -> None:
        """Finish the span (a repeat close is ignored)."""
        if self._closed:
            return
        self._closed = True
        self.recorder._write(
            self.span_id,
            self.name,
            self.parent,
            self.t0,
            time.time() - self.t0,
            self.attrs,
        )

    def __enter__(self) -> "SpanScope":
        self.recorder._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        # Scopes nest as ``with`` blocks do, so this one is on top.
        self.recorder._stack.pop()
        self.close()


class _NullSpan:
    """Shared no-op stand-in so disabled call sites stay branch-free."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The one shared null span; truth-testing it is falsy by convention of
#: ``__enter__`` returning ``None`` inside ``with`` blocks.
NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects finished spans; optionally streams them to a sink.

    The coordinator process holds one recorder per collection scope.
    Spans it times itself nest through :meth:`span`; spans whose times
    were observed elsewhere (a chunk result's worker stamps) are
    written finished through :meth:`add`.
    """

    def __init__(
        self,
        sink: IO[str] | None = None,
        proc: str | None = None,
        path: str | None = None,
    ):
        self.sink = sink
        self.proc = proc if proc is not None else f"pid{os.getpid()}"
        self.path = path
        self.trace_id: str | None = None
        self.recorded = 0
        self.finished: list[dict] = []
        self._stack: list[SpanScope] = []
        self._counter = 0
        self._buffer: list[str] = []

    # -- span identity -------------------------------------------------

    def _next_span_id(self) -> str:
        self._counter += 1
        return f"{os.getpid():x}.{self._counter:x}"

    def current_parent(self) -> str | None:
        if self._stack:
            return self._stack[-1].span_id
        return None

    # -- recording spans -----------------------------------------------

    def span(self, name: str, **attrs) -> SpanScope:
        """Open a nested span; use as ``with recorder.span(...)``."""
        return SpanScope(self, name, self.current_parent(), attrs)

    def add(
        self,
        name: str,
        t0: float,
        dur: float,
        *,
        parent: str | None = None,
        trace: str | None = None,
        proc: str | None = None,
        **attrs,
    ) -> str:
        """Write one finished span; returns its id.

        ``t0`` is epoch seconds and a negative ``dur`` clamps to zero.
        ``parent``, ``trace`` and ``proc`` default to the current
        nesting parent, the open trace and this recorder's process.
        """
        if parent is None:
            parent = self.current_parent()
        span_id = self._next_span_id()
        self._write(span_id, name, parent, t0, dur, attrs, trace, proc)
        return span_id

    def _write(
        self, span_id, name, parent, t0, dur, attrs, trace=None, proc=None
    ) -> None:
        data = {
            "trace": trace if trace is not None else self.trace_id,
            "span": span_id,
            "parent": parent,
            "name": name,
            "t0": round(t0, 6),
            "dur": round(max(dur, 0.0), 6),
            "proc": proc if proc is not None else self.proc,
            "attrs": attrs,
        }
        self.recorded += 1
        self.finished.append(data)
        if self.sink is not None:
            self._buffer.append(json.dumps(data, separators=(",", ":"), sort_keys=True))
            if len(self._buffer) >= SINK_BATCH_LINES:
                self.flush()

    def flush(self) -> None:
        if self.sink is not None and self._buffer:
            self.sink.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
            try:
                self.sink.flush()
            except (OSError, ValueError):  # closed or torn sink
                pass

    # -- root scope ----------------------------------------------------

    @contextmanager
    def trace(self, trace_id: str, name: str, **attrs) -> Iterator[SpanScope]:
        """Open the root span of a new trace (one sweep = one trace)."""
        previous = self.trace_id
        self.trace_id = trace_id
        try:
            with SpanScope(self, name, None, attrs) as scope:
                yield scope
        finally:
            self.trace_id = previous
            self.flush()

    # -- summaries -----------------------------------------------------

    def run_info(self, top: int = 3, trace_id: str | None = None) -> dict:
        """Compact record for the run ledger: where the spans went.

        ``top`` ranks span names by their summed seconds within the
        trace (the recorder's current one by default).
        """
        if trace_id is None:
            trace_id = self.trace_id
        info: dict = {"recorded": self.recorded}
        if trace_id is not None:
            info["trace"] = trace_id
        if self.path is not None:
            info["path"] = self.path
        seconds: dict[str, float] = {}
        for span in self.finished:
            if trace_id is None or span.get("trace") == trace_id:
                name = str(span.get("name"))
                seconds[name] = seconds.get(name, 0.0) + float(span.get("dur") or 0.0)
        ranked = sorted(
            ((name, round(total, 6)) for name, total in seconds.items()),
            key=lambda kv: kv[1],
            reverse=True,
        )
        if ranked:
            info["top"] = [
                {"name": name, "seconds": total} for name, total in ranked[:top]
            ]
        return info


# --------------------------------------------------------------------------
# Module-level activation (mirrors trace._ACTIVE)
# --------------------------------------------------------------------------

_ACTIVE: SpanRecorder | None = None

#: Per-process counter disambiguating repeat runs of the same plan.
_TRACE_SEQ = 0

#: Random per-invocation tag, so two runs of one plan appending to one
#: sink never share a trace id.
_INVOCATION = os.urandom(3).hex()


def active() -> SpanRecorder | None:
    """The installed recorder, or ``None`` when spans are off."""
    return _ACTIVE


def install(recorder: SpanRecorder) -> None:
    global _ACTIVE
    _ACTIVE = recorder


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


# A forked pool worker must not inherit the coordinator's recorder: its
# sink is shared and its buffer copied, and the coordinator writes the
# worker's spans from the chunk result anyway.
os.register_at_fork(after_in_child=uninstall)


def next_trace_id(plan_digest: str) -> str:
    """Trace ids are plan-digest-derived but unique per invocation."""
    global _TRACE_SEQ
    _TRACE_SEQ += 1
    return f"{plan_digest[:12]}-{_INVOCATION}-{_TRACE_SEQ:02d}"


def span(name: str, **attrs):
    """Module-level convenience for occasional emit points.

    Returns the shared :data:`NULL_SPAN` when recording is off, so the
    disabled path allocates nothing.
    """
    recorder = _ACTIVE
    if recorder is None or recorder.trace_id is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


@contextmanager
def collecting(path: str | None = None) -> Iterator[SpanRecorder]:
    """Scope with span recording installed; restores prior state on exit."""
    sink = obs_trace.open_sink(path, "a") if path else None
    recorder = SpanRecorder(sink=sink, proc="coordinator", path=path)
    previous = _ACTIVE
    install(recorder)
    try:
        yield recorder
    finally:
        install(previous) if previous is not None else uninstall()
        recorder.flush()
        if sink is not None:
            sink.close()


# --------------------------------------------------------------------------
# Reading spans back
# --------------------------------------------------------------------------


def read_spans(path: str) -> list[dict]:
    """Load spans from a JSONL(.gz) sink, tolerating torn tails.

    A sweep killed mid-write leaves a torn last line (or a truncated
    gzip member); both are survivable -- every complete span before the
    tear is returned.
    """
    return [record for record in obs_trace.read_records(path) if "span" in record]


# --------------------------------------------------------------------------
# Critical-path analysis
# --------------------------------------------------------------------------


class _Node:
    __slots__ = ("span", "children")

    def __init__(self, span: dict):
        self.span = span
        self.children: list["_Node"] = []

    @property
    def t0(self) -> float:
        return float(self.span.get("t0") or 0.0)

    @property
    def dur(self) -> float:
        return float(self.span.get("dur") or 0.0)

    @property
    def end(self) -> float:
        return self.t0 + self.dur

    @property
    def name(self) -> str:
        return str(self.span.get("name"))


def _build_tree(spans: list[dict]) -> "tuple[_Node | None, dict[str, _Node]]":
    nodes = {str(s["span"]): _Node(s) for s in spans if "span" in s}
    roots: list[_Node] = []
    for node in nodes.values():
        parent = node.span.get("parent")
        if parent is not None and str(parent) in nodes:
            nodes[str(parent)].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.t0)
    if not roots:
        return None, nodes
    named = [r for r in roots if r.name == "sweep"]
    root = named[0] if named else max(roots, key=lambda n: n.dur)
    return root, nodes


def _child_chain(node: _Node) -> list[_Node]:
    """The chain of children that gates ``node``'s completion.

    Walk backward from the latest-finishing child; each previous link is
    the latest-finishing child that ended at or before the current
    link's start.  This is the classic critical-path recurrence on an
    interval DAG where overlap means "did not wait on".
    """
    children = [c for c in node.children if c.dur >= 0]
    if not children:
        return []
    chain: list[_Node] = []
    current = max(children, key=lambda c: c.end)
    chain.append(current)
    while True:
        before = [c for c in children if c.end <= current.t0 + 1e-9 and c is not current]
        if not before:
            break
        current = max(before, key=lambda c: c.end)
        chain.append(current)
    chain.reverse()
    return chain


def path_segments(root: _Node) -> list[dict]:
    """Flatten the critical path into (name, self_seconds) segments.

    A node's *self time* is its duration minus the part covered by its
    chain children (clipped to the node's own interval), so segment
    self-times sum to ~the root's wall clock.
    """
    segments: list[dict] = []

    def visit(node: _Node) -> None:
        chain = _child_chain(node)
        covered = 0.0
        for child in chain:
            lo = max(child.t0, node.t0)
            hi = min(child.end, node.end)
            covered += max(hi - lo, 0.0)
        self_time = max(node.dur - covered, 0.0)
        segments.append(
            {
                "name": node.name,
                "span": node.span.get("span"),
                "proc": node.span.get("proc"),
                "self_seconds": round(self_time, 6),
                "seconds": round(node.dur, 6),
                "attrs": node.span.get("attrs") or {},
            }
        )
        for child in chain:
            visit(child)

    visit(root)
    return segments


def analyze(spans: list[dict], trace_id: str | None = None) -> dict | None:
    """Critical-path analysis of one trace; ``None`` when empty.

    When ``trace_id`` is ``None`` the last trace in the file is used
    (sinks append, so the last root span is the most recent sweep).
    """
    if trace_id is None:
        roots = [s for s in spans if s.get("parent") is None and s.get("trace")]
        if roots:
            trace_id = roots[-1].get("trace")
    if trace_id is not None:
        spans = [s for s in spans if s.get("trace") == trace_id]
    if not spans:
        return None
    root, _nodes = _build_tree(spans)
    if root is None:
        return None

    wall = root.dur
    attrs = root.span.get("attrs") or {}
    jobs = int(attrs.get("jobs") or 1)

    by_name: dict[str, dict] = {}
    for s in spans:
        row = by_name.setdefault(str(s.get("name")), {"count": 0, "seconds": 0.0})
        row["count"] += 1
        row["seconds"] += float(s.get("dur") or 0.0)
    for row in by_name.values():
        row["seconds"] = round(row["seconds"], 6)

    points = [s for s in spans if s.get("name") == "point"]
    point_total = sum(float(s.get("dur") or 0.0) for s in points)
    max_point = max((float(s.get("dur") or 0.0) for s in points), default=0.0)

    waits = [s for s in spans if s.get("name") == "chunk.wait"]
    queue_wait = sum(float(s.get("dur") or 0.0) for s in waits)
    worst_wait = max(waits, key=lambda s: float(s.get("dur") or 0.0), default=None)
    # Queue wait is judged against total chunk *lifetime* (submit to
    # absorbed), not wall x jobs: a self-scheduling pool keeps several
    # chunks queued per worker by design, so cumulative wait routinely
    # exceeds worker-seconds without anything being wrong.
    chunk_total = sum(
        float(s.get("dur") or 0.0) for s in spans if s.get("name") == "chunk"
    )

    workers: dict[str, float] = {}
    for s in points:
        proc = str(s.get("proc"))
        workers[proc] = workers.get(proc, 0.0) + float(s.get("dur") or 0.0)

    segments = path_segments(root)
    path_seconds = sum(seg["self_seconds"] for seg in segments)

    # Which worker carries the most critical-path point time?
    crit_by_proc: dict[str, float] = {}
    for seg in segments:
        if seg["name"] == "point":
            proc = str(seg["proc"])
            crit_by_proc[proc] = crit_by_proc.get(proc, 0.0) + seg["self_seconds"]
    critical_worker = max(crit_by_proc, key=crit_by_proc.get) if crit_by_proc else None
    critical_worker_seconds = crit_by_proc.get(critical_worker, 0.0) if critical_worker else 0.0

    serial_estimate = point_total if point_total else wall
    achieved = serial_estimate / wall if wall > 0 else 0.0
    ideal = min(float(jobs), serial_estimate / max_point) if max_point > 0 else float(jobs)

    return {
        "trace": trace_id,
        "wall_seconds": round(wall, 6),
        "jobs": jobs,
        "points": int(attrs.get("points") or len(points)),
        "span_count": len(spans),
        "by_name": dict(sorted(by_name.items(), key=lambda kv: kv[1]["seconds"], reverse=True)),
        "workers": {k: round(v, 6) for k, v in sorted(workers.items())},
        "queue_wait_seconds": round(queue_wait, 6),
        "queue_wait_fraction": (
            round(queue_wait / chunk_total, 4) if chunk_total > 0 else 0.0
        ),
        "worst_wait": (
            {
                "seconds": round(float(worst_wait.get("dur") or 0.0), 6),
                "attrs": worst_wait.get("attrs") or {},
            }
            if worst_wait is not None
            else None
        ),
        "critical_path": segments,
        "critical_path_seconds": round(path_seconds, 6),
        "critical_worker": critical_worker,
        "critical_worker_seconds": round(critical_worker_seconds, 6),
        "serial_estimate_seconds": round(serial_estimate, 6),
        "achieved_speedup": round(achieved, 2),
        "ideal_speedup": round(ideal, 2),
    }


def render_analysis(analysis: dict) -> str:
    """The paper-style verdict ``repro spans`` prints."""
    lines: list[str] = []
    wall = analysis["wall_seconds"]
    jobs = analysis["jobs"]
    lines.append(
        f"trace {analysis['trace']}: {analysis['points']} point(s), "
        f"jobs {jobs}, wall {wall:.2f}s "
        f"({analysis['span_count']} spans recorded)"
    )

    verdict = [f"jobs {jobs}:"]
    if analysis["critical_worker"] is not None and wall > 0:
        fraction = 100.0 * analysis["critical_worker_seconds"] / wall
        verdict.append(
            f"{fraction:.0f}% of wall clock on the critical path of "
            f"{analysis['critical_worker']};"
        )
    qw = 100.0 * analysis.get("queue_wait_fraction", 0.0)
    if qw >= 0.5:
        clause = f"{qw:.0f}% of chunk lifetime queued"
        worst = analysis.get("worst_wait")
        if worst and worst["seconds"] > 0.5 * analysis["queue_wait_seconds"]:
            chunk = worst["attrs"].get("chunk")
            clause += f", dominated by one chunk (chunk {chunk})" if chunk is not None else ""
        verdict.append(clause + ";")
    verdict.append(
        f"ideal speedup {analysis['ideal_speedup']:.1f}x, "
        f"achieved {analysis['achieved_speedup']:.1f}x"
    )
    lines.append("  " + " ".join(verdict))

    lines.append("  critical path:")
    segments = analysis["critical_path"]
    shown = [seg for seg in segments if seg["self_seconds"] > 0.0005]
    if not shown:
        shown = segments[:3]
    for seg in shown[:12]:
        detail = ""
        attrs = seg.get("attrs") or {}
        if seg["name"] == "point" and attrs.get("digest"):
            detail = f" [{attrs.get('label', '')} {attrs['digest']}]"
        elif seg["name"] == "chunk" and attrs.get("chunk") is not None:
            detail = f" [chunk {attrs['chunk']}]"
        lines.append(
            f"    {seg['self_seconds']:8.3f}s  {seg['name']:<16s}"
            f" ({seg['proc']}){detail}"
        )
    lines.append(
        f"  path self-time {analysis['critical_path_seconds']:.2f}s"
        f" of {wall:.2f}s wall"
    )

    lines.append("  by span name:")
    for name, row in list(analysis["by_name"].items())[:8]:
        lines.append(f"    {row['seconds']:8.3f}s  {name:<16s} x{row['count']}")
    return "\n".join(lines)
