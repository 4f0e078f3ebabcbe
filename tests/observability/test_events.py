"""The checked bus path, the invariant taps, and the kind taxonomy."""

import pytest

from repro.memory.bus import Bus, Transfer
from repro.observability import trace
from repro.observability.events import ALL_KINDS, MEM_BUS_TRANSFER
from repro.robustness.errors import SimulationInvariantError
from repro.robustness.invariants import GrantLedger, bus_causality_tap


def _dropping_bus() -> Bus:
    """A bus whose grants are zero-length windows, as a dropped grant is."""
    bus = Bus(8.0, "test bus")
    bus.transfer = lambda cycle, nbytes: Transfer(cycle, cycle)
    return bus


class TestCheckedTransfer:
    def test_check_runs_with_tracing_disabled(self):
        with pytest.raises(SimulationInvariantError, match="test bus transfer"):
            _dropping_bus().checked_transfer(5, 64)

    def test_tracer_captures_the_checked_fields(self):
        bus = Bus(8.0, "test bus")
        with trace.tracing() as tracer:
            window = bus.checked_transfer(5, 64)
        assert window == Transfer(5, 13)
        (event,) = tracer.events(MEM_BUS_TRANSFER)
        assert event.cycle == 5
        assert event.fields == {"bus": "test bus", "start": 5, "done": 13, "bytes": 64}

    def test_check_runs_before_tracer(self):
        with trace.tracing() as tracer:
            with pytest.raises(SimulationInvariantError, match="acausal"):
                _dropping_bus().checked_transfer(5, 64)
        assert tracer.count(MEM_BUS_TRANSFER) == 0


class TestKinds:
    def test_kinds_are_unique_and_hierarchical(self):
        assert len(set(ALL_KINDS)) == len(ALL_KINDS)
        for kind in ALL_KINDS:
            prefix = kind.split(".", 1)[0]
            assert prefix in ("cpu", "mem")


class TestInvariantTaps:
    def test_grant_ledger_tap_books_grants(self):
        ledger = GrantLedger(1, "test ports")
        ledger.tap(10, {"key": 0})
        ledger.tap(10, {"key": 1})  # different key: fine
        with pytest.raises(SimulationInvariantError, match="exceed per-cycle"):
            ledger.tap(10, {"key": 0})  # same (cycle, key): oversubscribed

    def test_grant_ledger_tap_honors_weight(self):
        ledger = GrantLedger(2, "test ports")
        with pytest.raises(SimulationInvariantError):
            ledger.tap(4, {"key": 0, "weight": 3})

    def test_bus_causality_tap_accepts_causal_window(self):
        bus_causality_tap(10, {"bus": "chip", "start": 10, "done": 12})

    def test_bus_causality_tap_rejects_acausal_window(self):
        with pytest.raises(SimulationInvariantError, match="acausal"):
            bus_causality_tap(10, {"bus": "chip", "start": 9, "done": 12})
        with pytest.raises(SimulationInvariantError, match="acausal"):
            bus_causality_tap(10, {"bus": "chip", "start": 10, "done": 10})
