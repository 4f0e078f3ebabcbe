"""The event channel: always-on taps, tracer dispatch, kind taxonomy."""

import pytest

from repro.observability import trace
from repro.observability.events import ALL_KINDS, EventChannel
from repro.robustness.errors import SimulationInvariantError
from repro.robustness.invariants import GrantLedger, bus_causality_tap


class TestEventChannel:
    def test_taps_fire_even_with_tracing_disabled(self):
        seen = []
        channel = EventChannel("k", (lambda cycle, fields: seen.append(cycle),))
        channel.emit(3, x=1)
        assert seen == [3]

    def test_tracer_captures_channel_emissions(self):
        channel = EventChannel("k")
        with trace.tracing() as tracer:
            channel.emit(5, x=2)
        assert tracer.count("k") == 1
        assert tracer.events("k")[0].fields == {"x": 2}

    def test_taps_run_before_tracer(self):
        order = []
        channel = EventChannel("k", (lambda c, f: order.append("tap"),))

        class Spy:
            emitted = 0

            def capture(self, kind, cycle, fields):
                order.append("tracer")

        trace.activate(Spy())  # autouse fixture deactivates afterwards
        channel.emit(0)
        assert order == ["tap", "tracer"]

    def test_tap_errors_propagate_to_emitter(self):
        def explode(cycle, fields):
            raise SimulationInvariantError("tap says no")

        channel = EventChannel("k", (explode,))
        with pytest.raises(SimulationInvariantError, match="tap says no"):
            channel.emit(0)


class TestKinds:
    def test_kinds_are_unique_and_hierarchical(self):
        assert len(set(ALL_KINDS)) == len(ALL_KINDS)
        for kind in ALL_KINDS:
            prefix = kind.split(".", 1)[0]
            assert prefix in ("cpu", "mem", "engine", "telemetry", "point")


class TestInvariantTaps:
    def test_grant_ledger_tap_books_grants(self):
        ledger = GrantLedger(1, "test ports")
        channel = EventChannel("mem.port.grant", (ledger.tap,))
        channel.emit(10, key=0)
        channel.emit(10, key=1)  # different key: fine
        with pytest.raises(SimulationInvariantError, match="exceed per-cycle"):
            channel.emit(10, key=0)  # same (cycle, key): oversubscribed

    def test_grant_ledger_tap_honors_weight(self):
        ledger = GrantLedger(2, "test ports")
        channel = EventChannel("mem.port.grant", (ledger.tap,))
        with pytest.raises(SimulationInvariantError):
            channel.emit(4, key=0, weight=3)

    def test_bus_causality_tap_accepts_causal_window(self):
        bus_causality_tap(10, {"bus": "chip", "start": 10, "done": 12})

    def test_bus_causality_tap_rejects_acausal_window(self):
        with pytest.raises(SimulationInvariantError, match="acausal"):
            bus_causality_tap(10, {"bus": "chip", "start": 9, "done": 12})
        with pytest.raises(SimulationInvariantError, match="acausal"):
            bus_causality_tap(10, {"bus": "chip", "start": 10, "done": 10})
