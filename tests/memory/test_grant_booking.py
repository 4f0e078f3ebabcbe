"""Every port grant reaches the grant ledger and the tracer exactly once.

The arbiters book each grant in their ledger and then hand the same
``(cycle, key)`` to the tracer as a ``mem.port.grant`` event.  These
tests drive each arbiter under an active tracer and check that the two
streams are one stream: equal pairs, in the same order, one per grant.
"""

import random

import pytest

from repro.memory import BankedPorts, DuplicatePorts, IdealPorts
from repro.observability import events, trace
from repro.robustness.invariants import GrantLedger

ARBITERS = [
    pytest.param(lambda: IdealPorts(1), id="ideal-1"),
    pytest.param(lambda: IdealPorts(2), id="ideal-2"),
    pytest.param(lambda: IdealPorts(3), id="ideal-3"),
    pytest.param(lambda: IdealPorts(4), id="ideal-4"),
    pytest.param(lambda: BankedPorts(4, "line"), id="banked-line"),
    pytest.param(lambda: BankedPorts(4, "page"), id="banked-page"),
    pytest.param(DuplicatePorts, id="duplicate"),
]


@pytest.fixture
def booked(monkeypatch):
    """The ``(cycle, key)`` pairs every ledger records, in order."""
    pairs = []
    record = GrantLedger.record

    def spy(self, cycle, key=0, weight=1):
        pairs.append((cycle, key))
        return record(self, cycle, key, weight)

    monkeypatch.setattr(GrantLedger, "record", spy)
    return pairs


@pytest.mark.parametrize("make", ARBITERS)
@pytest.mark.parametrize("stores", [False, True], ids=["loads", "stores"])
def test_ledger_and_tracer_see_every_grant_once(make, stores, booked):
    arbiter = make()
    rng = random.Random(3)
    grants = 0
    cycle = 0
    with trace.tracing() as tracer:
        for _ in range(400):
            cycle += rng.randrange(2)  # bursts of same-cycle requests
            line = rng.randrange(256)
            if stores and rng.random() < 0.5:
                arbiter.reserve_store(line, cycle)
                grants += 2 if isinstance(arbiter, DuplicatePorts) else 1
            else:
                arbiter.reserve(line, cycle)
                grants += 1
    captured = [
        (event.cycle, event.fields["key"])
        for event in tracer.events(events.MEM_PORT_GRANT)
    ]
    assert booked == captured
    assert len(booked) == grants
    assert arbiter.stats.requests == 400
