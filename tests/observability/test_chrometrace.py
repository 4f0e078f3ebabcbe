"""Chrome trace-event export: schema validity, async pairing, JSONL I/O.

The exported JSON has to load in Perfetto / chrome://tracing, so these
tests parse the file back and hold it to the trace-event contract:
every entry has a phase, complete slices have non-negative durations,
async begin/end events pair up by (category, id), and metadata names
every track before its first event.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib

import pytest

from repro.core.experiment import ExperimentSettings, _simulate
from repro.core.organizations import KB, banked, duplicate
from repro.observability import trace
from repro.observability.chrometrace import (
    ORCHESTRATION_PID,
    chrome_trace_events,
    read_jsonl,
    span_trace_events,
    write_chrome_spans,
    write_chrome_trace,
)
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


@pytest.fixture(scope="module")
def traced_run():
    with trace.tracing(capacity=500_000) as tracer:
        _simulate(duplicate(32 * KB, line_buffer=True), benchmark("gcc"), FAST)
    assert tracer.dropped == 0
    return tracer.events()


class TestChromeEvents:
    def test_every_event_is_well_formed(self, traced_run):
        for entry in chrome_trace_events(traced_run):
            assert entry["ph"] in {"M", "X", "i", "b", "e"}
            assert entry["pid"] == 1
            if entry["ph"] == "M":
                assert entry["name"] in {"process_name", "thread_name"}
                continue
            assert isinstance(entry["ts"], int) and entry["ts"] >= 0
            assert entry["cat"]
            if entry["ph"] == "X":
                assert entry["dur"] >= 0

    def test_metadata_precedes_all_events(self, traced_run):
        entries = chrome_trace_events(traced_run)
        named_tids = set()
        for entry in entries:
            if entry["ph"] == "M":
                if entry["name"] == "thread_name":
                    named_tids.add(entry["tid"])
                continue
            assert entry["tid"] in named_tids, f"unnamed track {entry['tid']}"

    def test_async_pairs_balance(self, traced_run):
        open_pairs: dict[tuple, int] = {}
        for entry in chrome_trace_events(traced_run):
            if entry["ph"] not in {"b", "e"}:
                continue
            key = (entry["cat"], entry["id"])
            open_pairs[key] = open_pairs.get(key, 0) + (
                1 if entry["ph"] == "b" else -1
            )
            assert open_pairs[key] >= 0, f"end before begin for {key}"
        assert all(count == 0 for count in open_pairs.values())

    def test_load_slices_cover_outcomes(self, traced_run):
        slices = [
            entry
            for entry in chrome_trace_events(traced_run)
            if entry["ph"] == "X" and entry["cat"] == "mem" and entry["tid"] == 2
        ]
        assert slices
        assert {entry["name"] for entry in slices} <= {
            "l1_hit",
            "lb_hit",
            "delayed_hit",
            "victim_hit",
            "miss_merged",
            "miss_alloc",
        }


class TestWriteChromeTrace:
    def test_written_file_parses_and_counts(self, traced_run, tmp_path):
        destination = tmp_path / "run.trace.json"
        count = write_chrome_trace(traced_run, destination)
        document = json.loads(destination.read_text(encoding="utf-8"))
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert len(document["traceEvents"]) == count > 0

    def test_accepts_file_like_destination(self, traced_run):
        buffer = io.StringIO()
        count = write_chrome_trace(traced_run, buffer)
        assert len(json.loads(buffer.getvalue())["traceEvents"]) == count


class TestJsonlRoundTrip:
    def _sink_run(self, path):
        sink = trace.open_sink(str(path))
        try:
            with trace.tracing(capacity=500_000, sink=sink) as tracer:
                _simulate(banked(32 * KB, banks=4), benchmark("gcc"), FAST)
        finally:
            sink.close()
        return tracer.events()

    def test_gzip_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl.gz"
        ring_events = self._sink_run(path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == len(ring_events)
        assert list(read_jsonl(path)) == ring_events

    def test_plain_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ring_events = self._sink_run(path)
        assert list(read_jsonl(path)) == ring_events

    def test_export_from_file_matches_export_from_ring(self, tmp_path):
        path = tmp_path / "events.jsonl.gz"
        ring_events = self._sink_run(path)
        assert chrome_trace_events(read_jsonl(path)) == chrome_trace_events(
            ring_events
        )


class TestTornStreams:
    """A killed ``REPRO_TRACE`` run leaves a stream cut mid-write."""

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("torn") / "events.jsonl"
        events = TestJsonlRoundTrip()._sink_run(path)
        return path.read_bytes(), events

    def test_torn_last_line_converts_every_complete_event(self, stream, tmp_path):
        data, events = stream
        lines = data.splitlines(keepends=True)
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        assert list(read_jsonl(path)) == events[:-1]

    def test_truncated_gzip_converts_every_complete_event(self, stream, tmp_path):
        data, events = stream
        blob = gzip.compress(data, compresslevel=1)
        cut = blob[: len(blob) // 2]
        # What a reader can still inflate from the cut member.
        survived = zlib.decompressobj(wbits=31).decompress(cut)
        complete = survived.count(b"\n")
        assert 0 < complete < len(events)
        path = tmp_path / "cut.jsonl.gz"
        path.write_bytes(cut)
        assert list(read_jsonl(path)) == events[:complete]
        out = tmp_path / "cut.trace.json"
        write_chrome_trace(read_jsonl(path), out)
        assert json.loads(out.read_text(encoding="utf-8"))["traceEvents"]


class TestSpanTraceEvents:
    """Orchestration spans -> per-worker Chrome tracks."""

    def _spans(self):
        return [
            {
                "trace": "t", "span": "r", "parent": None, "name": "sweep",
                "t0": 100.0, "dur": 10.0, "proc": "coordinator",
                "attrs": {"jobs": 2},
            },
            {
                "trace": "t", "span": "c1", "parent": "r", "name": "chunk",
                "t0": 100.5, "dur": 9.0, "proc": "coordinator",
                "attrs": {"chunk": 0},
            },
            {
                "trace": "t", "span": "w1", "parent": "c1", "name": "chunk.wait",
                "t0": 100.5, "dur": 1.5, "proc": "coordinator",
                "attrs": {"chunk": 0},
            },
            {
                "trace": "t", "span": "p1", "parent": "c1", "name": "point",
                "t0": 102.0, "dur": 4.0, "proc": "worker-1",
                "attrs": {"digest": "abc"},
            },
            {
                "trace": "t", "span": "s1", "parent": "r", "name": "chunk.steal",
                "t0": 103.0, "dur": 0.0, "proc": "coordinator",
                "attrs": {"chunk": 1},
            },
        ]

    def test_one_track_per_proc_coordinator_first(self):
        events = span_trace_events(self._spans())
        process_meta = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process_meta[0]["args"]["name"] == "repro sweep orchestration"
        threads = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads == {"coordinator": 1, "worker-1": 2}

    def test_slices_are_relative_microseconds(self):
        events = span_trace_events(self._spans())
        slices = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
        assert slices["r"]["ts"] == 0
        assert slices["r"]["dur"] == 10_000_000
        assert slices["p1"]["ts"] == 2_000_000
        assert slices["p1"]["dur"] == 4_000_000
        assert slices["p1"]["pid"] == ORCHESTRATION_PID

    def test_zero_duration_becomes_instant(self):
        events = span_trace_events(self._spans())
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "chunk.steal"

    def test_queue_wait_doubles_as_async_pair(self):
        events = span_trace_events(self._spans())
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["cat"] == ends[0]["cat"] == "queue"
        assert begins[0]["id"] == ends[0]["id"] == 0
        assert ends[0]["ts"] - begins[0]["ts"] == 1_500_000

    def test_junk_entries_are_filtered(self):
        events = span_trace_events([{"no": "span"}, "junk", None])
        assert len(events) == 1  # just the process_name metadata

    def test_write_chrome_spans_roundtrip(self, tmp_path):
        destination = tmp_path / "spans.trace.json"
        count = write_chrome_spans(self._spans(), destination)
        document = json.loads(destination.read_text(encoding="utf-8"))
        assert len(document["traceEvents"]) == count > 0
        assert document["displayTimeUnit"] == "ms"
        assert "wall-clock" in document["otherData"]["time_unit"]

    def test_write_accepts_file_like(self):
        buffer = io.StringIO()
        count = write_chrome_spans(self._spans(), buffer)
        assert len(json.loads(buffer.getvalue())["traceEvents"]) == count

    def test_recorded_spans_export_cleanly(self, tmp_path):
        """End to end: a real recorder's output loads as a trace."""
        from repro.observability import spans as sp

        recorder = sp.SpanRecorder()
        with recorder.trace("t-e2e", "sweep", jobs=1):
            with recorder.span("plan.lookup"):
                pass
            recorder.instant("checkpoint.mark")
        buffer = io.StringIO()
        count = write_chrome_spans(recorder.finished, buffer)
        document = json.loads(buffer.getvalue())
        assert len(document["traceEvents"]) == count
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "X" in phases and "M" in phases
