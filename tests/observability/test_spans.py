"""Unit suite for the sweep-scope span tracer.

Covers the span lifecycle (nesting, explicit parents, error capture,
double-close tolerance), finished spans written through ``add``, the
fork hook that keeps pool workers span-free, sink round-trips including
torn tails and truncated gzip members, and the critical-path analyzer
on hand-built traces whose answers are known exactly.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.observability import spans as sp
from repro.observability.spans import (
    NULL_SPAN,
    SpanRecorder,
    analyze,
    collecting,
    next_trace_id,
    path_segments,
    read_spans,
    render_analysis,
)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with spans off."""
    sp.uninstall()
    yield
    sp.uninstall()


def _recorder(**kwargs) -> SpanRecorder:
    recorder = SpanRecorder(**kwargs)
    recorder.trace_id = "t-test"
    return recorder


class TestSpanLifecycle:
    def test_nesting_assigns_parents(self):
        recorder = _recorder()
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                assert inner.parent == outer.span_id
        assert outer.parent is None
        by_name = {s["name"]: s for s in recorder.finished}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        # Children close first, so they land in the stream first.
        assert recorder.finished[0]["name"] == "inner"

    def test_span_ids_are_unique_and_pid_scoped(self):
        recorder = _recorder()
        ids = {recorder._next_span_id() for _ in range(100)}
        assert len(ids) == 100
        assert all("." in span_id for span_id in ids)

    def test_timing_fields(self):
        recorder = _recorder()
        with recorder.span("timed"):
            pass
        span = recorder.finished[0]
        assert span["dur"] >= 0.0
        assert span["t0"] > 0
        assert span["trace"] == "t-test"
        assert span["proc"] == recorder.proc

    def test_exception_marks_error_attr(self):
        recorder = _recorder()
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("boom")
        assert recorder.finished[0]["attrs"]["error"] == "ValueError"
        assert recorder._stack == []

    def test_set_attaches_attrs_mid_span(self):
        recorder = _recorder()
        with recorder.span("s", fixed=1) as scope:
            scope.set(late=2)
        assert recorder.finished[0]["attrs"] == {"fixed": 1, "late": 2}

    def test_double_close_records_once(self):
        recorder = _recorder()
        with recorder.span("once") as scope:
            scope.close()
        assert recorder.recorded == 1

    def test_close_with_explicit_end_time(self):
        """``add`` writes a span whose end was observed elsewhere."""
        recorder = _recorder()
        recorder.add("waited", 100.0, 2.5)
        span = recorder.finished[0]
        assert span["t0"] == 100.0
        assert span["dur"] == pytest.approx(2.5, abs=1e-6)

    def test_negative_duration_clamps_to_zero(self):
        recorder = _recorder()
        recorder.add("skewed", 100.0, -1.0)
        assert recorder.finished[0]["dur"] == 0.0

    def test_open_with_explicit_parent_and_out_of_order_close(self):
        """``add`` takes an explicit parent over the nesting parent."""
        recorder = _recorder()
        with recorder.span("root") as root:
            with recorder.span("nested") as nested:
                recorder.add("overlapping", 100.0, 1.0, parent=root.span_id)
                recorder.add("inner", 100.0, 1.0)
        spans = {s["name"]: s for s in recorder.finished}
        assert spans["overlapping"]["parent"] == spans["root"]["span"]
        assert spans["inner"]["parent"] == nested.span_id
        assert spans["nested"]["parent"] == spans["root"]["span"]

    def test_instant_has_zero_duration(self):
        recorder = _recorder()
        recorder.add("steal", 100.0, 0.0, chunk=3)
        span = recorder.finished[0]
        assert span["dur"] == 0.0
        assert span["attrs"] == {"chunk": 3}

    def test_null_span_is_inert(self):
        with NULL_SPAN as scope:
            assert scope is None
        NULL_SPAN.set(anything=1)
        NULL_SPAN.close()

    def test_module_span_gates(self):
        assert sp.span("off") is NULL_SPAN  # nothing installed
        recorder = SpanRecorder()
        sp.install(recorder)
        assert sp.span("no-trace") is NULL_SPAN  # no trace open
        recorder.trace_id = "t"
        assert sp.span("live") is not NULL_SPAN

    def test_add_overrides_trace_and_proc(self):
        recorder = _recorder()
        span_id = recorder.add(
            "point", 100.0, 1.0, trace="t-other", proc="worker-9", ok=True
        )
        (span,) = recorder.finished
        assert span["span"] == span_id
        assert span["trace"] == "t-other"
        assert span["proc"] == "worker-9"
        assert span["parent"] is None
        assert span["attrs"] == {"ok": True}

    def test_add_returns_fresh_ids(self):
        recorder = _recorder()
        first = recorder.add("dup", 1.0, 0.5)
        second = recorder.add("dup", 1.0, 0.5)
        assert first != second
        assert recorder.recorded == 2
        assert recorder.finished[1]["span"] == second


class TestRootTrace:
    def test_trace_opens_and_restores(self):
        recorder = SpanRecorder()
        assert recorder.trace_id is None
        with recorder.trace("t-1", "sweep", points=4) as root:
            assert recorder.trace_id == "t-1"
            with recorder.span("child") as child:
                assert child.parent == root.span_id
        assert recorder.trace_id is None
        root_span = [s for s in recorder.finished if s["name"] == "sweep"][0]
        assert root_span["parent"] is None
        assert root_span["attrs"] == {"points": 4}

    def test_trace_error_reaches_root_attrs(self):
        recorder = SpanRecorder()
        with pytest.raises(RuntimeError):
            with recorder.trace("t-err", "sweep"):
                raise RuntimeError("die")
        root = recorder.finished[-1]
        assert root["attrs"]["error"] == "RuntimeError"

    def test_next_trace_id_is_digest_derived_and_unique(self):
        digest = "abcdef0123456789"
        first = next_trace_id(digest)
        second = next_trace_id(digest)
        assert first.startswith(digest[:12])
        assert first != second


class TestFork:
    def test_forked_child_has_no_recorder(self):
        """A forked pool worker never inherits the coordinator's recorder."""
        with collecting() as recorder:
            assert sp.active() is recorder
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                os.write(write_end, b"1" if sp.active() is None else b"0")
                os._exit(0)
            os.close(write_end)
            reported = os.read(read_end, 1)
            os.close(read_end)
            os.waitpid(pid, 0)
        assert reported == b"1"


class TestSinks:
    def test_plain_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with collecting(path) as recorder:
            with recorder.trace("t-file", "sweep"):
                with recorder.span("child"):
                    pass
        spans = read_spans(path)
        assert {s["name"] for s in spans} == {"sweep", "child"}

    def test_gzip_roundtrip(self, tmp_path):
        path = str(tmp_path / "spans.jsonl.gz")
        with collecting(path) as recorder:
            with recorder.trace("t-gz", "sweep"):
                pass
        spans = read_spans(path)
        assert spans[0]["trace"] == "t-gz"

    def test_append_mode_accumulates_traces(self, tmp_path):
        path = str(tmp_path / "spans.jsonl.gz")
        for trace in ("t-a", "t-b"):
            with collecting(path) as recorder:
                with recorder.trace(trace, "sweep"):
                    pass
        traces = {s["trace"] for s in read_spans(path)}
        assert traces == {"t-a", "t-b"}

    def test_collecting_restores_previous_recorder(self, tmp_path):
        outer = SpanRecorder()
        sp.install(outer)
        with collecting(str(tmp_path / "x.jsonl")) as inner:
            assert sp.active() is inner
        assert sp.active() is outer

    def test_collecting_without_path_keeps_spans_in_memory(self):
        with collecting() as recorder:
            with recorder.trace("t-mem", "sweep"):
                pass
        assert recorder.path is None
        assert recorder.finished

    def test_torn_last_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        good = json.dumps({"span": "a", "name": "ok", "t0": 1.0, "dur": 0.1})
        path.write_text(good + '\n{"span": "b", "name": "to', encoding="utf-8")
        spans = read_spans(str(path))
        assert len(spans) == 1
        assert spans[0]["span"] == "a"

    def test_non_span_lines_are_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [
            json.dumps({"span": "a", "name": "ok", "t0": 1.0, "dur": 0.1}),
            json.dumps([1, 2, 3]),
            json.dumps({"not": "a span"}),
            "",
        ]
        path.write_text("\n".join(lines), encoding="utf-8")
        assert len(read_spans(str(path))) == 1

    def test_truncated_gzip_is_salvaged(self, tmp_path):
        path = tmp_path / "cut.jsonl.gz"
        lines = "\n".join(
            json.dumps({"span": f"s{i}", "name": "n", "t0": float(i), "dur": 0.1})
            for i in range(200)
        )
        blob = gzip.compress(lines.encode("utf-8"))
        path.write_bytes(blob[: len(blob) // 2])
        spans = read_spans(str(path))  # must not raise
        assert isinstance(spans, list)

    def test_sink_batches_until_flush(self, tmp_path):
        path = str(tmp_path / "batched.jsonl")
        with collecting(path) as recorder:
            recorder.trace_id = "t-batch"
            with recorder.span("one"):
                pass
            assert read_spans(path) == []  # buffered, not yet written
            recorder.flush()
            assert len(read_spans(path)) == 1


class TestSummaries:
    def test_summary_aggregates_by_name(self):
        recorder = _recorder()
        for _ in range(3):
            with recorder.span("point"):
                pass
        with recorder.span("absorb"):
            pass
        info = recorder.run_info(top=5)
        assert info["recorded"] == 4
        assert sorted(row["name"] for row in info["top"]) == ["absorb", "point"]
        assert len(recorder.run_info(top=1)["top"]) == 1

    def test_summary_filters_by_trace(self):
        recorder = SpanRecorder()
        with recorder.trace("t-1", "sweep"):
            pass
        with recorder.trace("t-2", "other"):
            pass
        info = recorder.run_info(trace_id="t-1")
        assert [row["name"] for row in info["top"]] == ["sweep"]

    def test_run_info_names_the_sink(self):
        recorder = SpanRecorder(path="/tmp/s.jsonl")
        with recorder.trace("t-ri", "sweep"):
            pass
        info = recorder.run_info(trace_id="t-ri")
        assert info["path"] == "/tmp/s.jsonl"
        assert info["trace"] == "t-ri"
        assert info["recorded"] == 1
        assert info["top"][0]["name"] == "sweep"


# ---------------------------------------------------------------------------
# Analyzer: hand-built traces with exactly known answers
# ---------------------------------------------------------------------------


def _span(span, name, t0, dur, parent=None, proc="coordinator", trace="t", **attrs):
    return {
        "trace": trace,
        "span": span,
        "parent": parent,
        "name": name,
        "t0": t0,
        "dur": dur,
        "proc": proc,
        "attrs": attrs,
    }


def _two_worker_trace() -> list[dict]:
    """10s sweep, 2 jobs: worker A busy 1..9, worker B busy 1..5."""
    return [
        _span("r", "sweep", 0.0, 10.0, jobs=2, points=3),
        _span("c1", "chunk", 0.5, 9.0, parent="r", chunk=0),
        _span("w1", "chunk.wait", 0.5, 0.5, parent="c1", chunk=0),
        _span("p1", "point", 1.0, 4.0, parent="c1", proc="worker-a"),
        _span("p2", "point", 5.0, 4.5, parent="c1", proc="worker-a"),
        _span("c2", "chunk", 0.5, 5.0, parent="r", chunk=1),
        _span("w2", "chunk.wait", 0.5, 0.5, parent="c2", chunk=1),
        _span("p3", "point", 1.0, 4.0, parent="c2", proc="worker-b"),
    ]


class TestAnalyze:
    def test_empty_input(self):
        assert analyze([]) is None

    def test_basic_shape(self):
        analysis = analyze(_two_worker_trace())
        assert analysis["trace"] == "t"
        assert analysis["jobs"] == 2
        assert analysis["points"] == 3
        assert analysis["wall_seconds"] == 10.0
        assert analysis["span_count"] == 8

    def test_workers_and_serial_estimate(self):
        analysis = analyze(_two_worker_trace())
        assert analysis["workers"] == {"worker-a": 8.5, "worker-b": 4.0}
        assert analysis["serial_estimate_seconds"] == 12.5
        assert analysis["achieved_speedup"] == pytest.approx(1.25)
        # max point is 4.5s -> ideal bound min(2, 12.5/4.5)
        assert analysis["ideal_speedup"] == pytest.approx(2.0)

    def test_critical_worker_is_the_long_one(self):
        analysis = analyze(_two_worker_trace())
        assert analysis["critical_worker"] == "worker-a"
        assert analysis["critical_worker_seconds"] == pytest.approx(8.5)

    def test_queue_wait_fraction(self):
        analysis = analyze(_two_worker_trace())
        assert analysis["queue_wait_seconds"] == pytest.approx(1.0)
        # 1.0s of wait across 14.0s of chunk lifetime.
        assert analysis["queue_wait_fraction"] == pytest.approx(1.0 / 14.0, abs=1e-4)
        assert analysis["worst_wait"]["seconds"] == 0.5

    def test_critical_path_self_times_sum_to_wall(self):
        analysis = analyze(_two_worker_trace())
        assert analysis["critical_path_seconds"] == pytest.approx(
            analysis["wall_seconds"], rel=0.01
        )
        names = [seg["name"] for seg in analysis["critical_path"]]
        assert names[0] == "sweep"
        assert "point" in names

    def test_picks_last_trace_by_default(self):
        spans = [
            _span("r1", "sweep", 0.0, 1.0, trace="t-old"),
            _span("r2", "sweep", 5.0, 2.0, trace="t-new"),
        ]
        analysis = analyze(spans)
        assert analysis["trace"] == "t-new"
        assert analyze(spans, trace_id="t-old")["wall_seconds"] == 1.0

    def test_unknown_trace_is_none(self):
        assert analyze(_two_worker_trace(), trace_id="t-missing") is None

    def test_root_prefers_sweep_name(self):
        spans = [
            _span("big", "ledger.append", 0.0, 50.0),
            _span("r", "sweep", 0.0, 10.0),
        ]
        assert analyze(spans)["wall_seconds"] == 10.0

    def test_root_falls_back_to_longest(self):
        spans = [
            _span("a", "alpha", 0.0, 1.0),
            _span("b", "beta", 0.0, 3.0),
        ]
        assert analyze(spans)["wall_seconds"] == 3.0

    def test_path_segments_cover_nested_chain(self):
        root = sp._build_tree(
            [
                _span("r", "sweep", 0.0, 10.0),
                _span("a", "stage", 0.0, 6.0, parent="r"),
                _span("b", "stage", 6.0, 4.0, parent="r"),
                _span("a1", "leaf", 1.0, 5.0, parent="a"),
            ]
        )[0]
        segments = path_segments(root)
        self_by_span = {seg["span"]: seg["self_seconds"] for seg in segments}
        assert self_by_span["r"] == pytest.approx(0.0)
        assert self_by_span["a"] == pytest.approx(1.0)
        assert self_by_span["b"] == pytest.approx(4.0)
        assert self_by_span["a1"] == pytest.approx(5.0)


class TestRenderAnalysis:
    def test_verdict_line(self):
        text = render_analysis(analyze(_two_worker_trace()))
        assert "jobs 2:" in text
        assert "85% of wall clock on the critical path of worker-a" in text
        assert "ideal speedup 2.0x, achieved 1.2x" in text
        assert "critical path:" in text
        assert "by span name:" in text

    def test_queue_wait_clause_when_significant(self):
        spans = _two_worker_trace()
        for s in spans:
            if s["name"] == "chunk.wait":
                s["dur"] = 6.0
        text = render_analysis(analyze(spans))
        assert "of chunk lifetime queued" in text

    def test_tiny_queue_wait_is_suppressed(self):
        spans = _two_worker_trace()
        for s in spans:
            if s["name"] == "chunk.wait":
                s["dur"] = 0.001
        assert "queued" not in render_analysis(analyze(spans))

    def test_dominant_chunk_is_named(self):
        spans = _two_worker_trace()
        spans[2]["dur"] = 8.0  # w1, chunk 0
        text = render_analysis(analyze(spans))
        assert "dominated by one chunk (chunk 0)" in text
