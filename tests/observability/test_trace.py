"""The tracing facility: ring bounds, activation scoping, JSONL sink."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentSettings, clear_cache, run_experiment
from repro.core.organizations import duplicate
from repro.engine.executor import configure_engine
from repro.engine.store import ResultStore
from repro.observability import trace
from repro.observability.trace import DEFAULT_CAPACITY, TraceEvent, Tracer

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


class TestTracer:
    def test_capture_retains_events_in_order(self):
        tracer = Tracer()
        tracer.capture("a", 1, {"x": 1})
        tracer.capture("b", 2, {"x": 2})
        assert [e.kind for e in tracer.events()] == ["a", "b"]
        assert tracer.events("b") == [TraceEvent(2, "b", {"x": 2})]
        assert len(tracer) == 2 and tracer.emitted == 2

    def test_ring_drops_oldest_once_full(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.capture("k", i, {})
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [e.cycle for e in tracer.events()] == [7, 8, 9]
        # counts survive the ring: all ten emissions are still counted
        assert tracer.count("k") == 10

    def test_zero_capacity_counts_without_retaining(self):
        tracer = Tracer(capacity=0)
        tracer.capture("k", 0, {})
        assert len(tracer) == 0
        assert tracer.emitted == 1
        assert tracer.count("k") == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Tracer(capacity=-1)

    def test_clear_resets_everything(self):
        tracer = Tracer()
        tracer.capture("k", 0, {})
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0 and tracer.count("k") == 0

    def test_sink_receives_one_json_line_per_event(self):
        sink = io.StringIO()
        tracer = Tracer(capacity=1, sink=sink)
        tracer.capture("mem.load", 5, {"line": 3, "outcome": "l1_hit"})
        tracer.capture("mem.load", 6, {"line": 4, "outcome": "lb_hit"})
        tracer.flush()  # sink writes are batched
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2  # the sink sees dropped events too
        first = json.loads(lines[0])
        assert first == {"cycle": 5, "kind": "mem.load", "line": 3, "outcome": "l1_hit"}

    def test_sink_flushes_automatically_at_batch_size(self):
        sink = io.StringIO()
        tracer = Tracer(capacity=4, sink=sink)
        for i in range(trace.SINK_BATCH_LINES):
            tracer.capture("k", i, {})
        assert len(sink.getvalue().splitlines()) == trace.SINK_BATCH_LINES


class TestActivation:
    def test_disabled_by_default(self):
        assert trace.active() is None

    def test_tracing_scope_installs_and_restores(self):
        with trace.tracing() as tracer:
            assert trace.active() is tracer
        assert trace.active() is None

    def test_tracing_scopes_nest(self):
        with trace.tracing() as outer:
            with trace.tracing() as inner:
                assert trace.active() is inner
            assert trace.active() is outer

    def test_tracing_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with trace.tracing():
                raise RuntimeError("boom")
        assert trace.active() is None

    def test_activate_deactivate(self):
        tracer = Tracer()
        trace.activate(tracer)
        assert trace.active() is tracer
        trace.deactivate()
        assert trace.active() is None


class TestProperties:
    @given(
        capacity=st.integers(min_value=0, max_value=50),
        n_events=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_never_exceeds_capacity(self, capacity, n_events):
        tracer = Tracer(capacity=capacity)
        for i in range(n_events):
            tracer.capture("k", i, {})
        assert len(tracer) <= capacity
        assert len(tracer) == min(capacity, n_events)
        assert tracer.emitted == n_events
        assert tracer.dropped == n_events - len(tracer)
        assert tracer.dropped >= 0

    @given(
        kinds=st.lists(
            st.sampled_from(["a", "b", "c"]), min_size=0, max_size=100
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_by_kind_partitions_emitted(self, kinds):
        tracer = Tracer(capacity=5)
        for i, kind in enumerate(kinds):
            tracer.capture(kind, i, {})
        assert sum(tracer.by_kind.values()) == tracer.emitted == len(kinds)
        for kind in ("a", "b", "c"):
            assert tracer.count(kind) == kinds.count(kind)

    def test_default_capacity_is_bounded(self):
        assert 0 < DEFAULT_CAPACITY <= 1_000_000


class TestOverflowLeavesResultsAlone:
    def test_overflowing_ring_stores_the_untraced_bytes(self, tmp_path):
        """A ring that drops events must not write into a stored result."""
        stored = {}
        for name, capacity in (("plain", None), ("traced", 100)):
            clear_cache()
            store = ResultStore(tmp_path / name)
            previous = configure_engine(store=store)
            try:
                if capacity is None:
                    run_experiment(duplicate(line_buffer=True), "gcc", FAST)
                else:
                    with trace.tracing(capacity=capacity) as tracer:
                        run_experiment(duplicate(line_buffer=True), "gcc", FAST)
                    assert tracer.dropped > 0
            finally:
                configure_engine(store=previous[1])
                clear_cache()
            (entry,) = store.version_dir.rglob("*.json")
            stored[name] = entry.read_bytes()
        assert stored["traced"] == stored["plain"]
