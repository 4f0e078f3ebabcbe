"""Traced stores carry their request cycle under either write policy.

A store waits for a port; the ``mem.store`` event must still be stamped
with the cycle the store was issued, not the cycle its port was
granted, so ``done - cycle`` includes the port wait for write-through
stores just as it does for write-back ones.
"""

import pytest

from repro.memory import MemoryConfig, MemorySystem
from repro.observability import events, trace


@pytest.mark.parametrize("policy", ["write-back", "write-through"])
def test_same_cycle_stores_are_stamped_with_the_request_cycle(policy):
    config = MemoryConfig(port_policy="ideal", ports=1, write_policy=policy)
    system = MemorySystem(config)
    with trace.tracing() as tracer:
        first = system.store(0, 10)
        second = system.store(config.l1_line, 10)
    # One port: the second store waited a cycle for its grant.
    assert second.port_start_cycle == first.port_start_cycle + 1
    stamped = [event.cycle for event in tracer.events(events.MEM_STORE)]
    assert stamped == [10, 10]
