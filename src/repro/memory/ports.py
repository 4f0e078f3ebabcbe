"""Cache-port arbitration models (section 2.1).

Three ways of providing load/store bandwidth are modeled, all as
timestamped resources (a request at cycle ``t`` is granted the earliest
cycle at which a suitable port is free):

* **ideal ports** -- ``n`` ports, each accepting one access per cycle to
  any address ("an ideal cache port operates independently of any other
  cache port [and] is accessible every cycle");
* **banked ports** -- one port per external bank; an access must use the
  bank its line maps to, so two same-bank accesses in one cycle conflict;
* **duplicate ports** -- two copies of the cache (DEC Alpha 21164 style).
  Loads use either copy; stores must write both copies to keep them
  consistent, but are buffered and drained at lowest priority so they
  rarely steal load bandwidth (the paper's stated assumption).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability import trace
from repro.observability.events import MEM_BANK_CONFLICT, MEM_PORT_GRANT
from repro.robustness.invariants import GrantLedger


@dataclass
class PortStats:
    """Contention counters maintained by every arbiter."""

    requests: int = 0
    delayed: int = 0  #: granted later than requested
    wait_cycles: int = 0  #: total grant - request cycles
    bank_conflicts: int = 0  #: delays attributable to bank mapping


class PortArbiter:
    """Base interface: grant a start cycle for an access.

    Every ``reserve`` books its grant in the arbiter's
    :class:`~repro.robustness.invariants.GrantLedger` (always on,
    tracing or not) and then hands the same ``(cycle, key)`` to the
    active tracer as a ``mem.port.grant`` event.  The ledger guards the
    hardware contract that each port (or bank) starts at most one
    access per cycle -- broken reservation bookkeeping (a lost port
    release) surfaces as a structured invariant error instead of a
    silently over-subscribed cache.  Each ``reserve`` books inline: it
    runs on every access.
    """

    def __init__(self, name: str, keys: int) -> None:
        if not 1 <= keys <= GrantLedger.KEYS:
            raise ValueError(f"need 1 to {GrantLedger.KEYS} {name}, got {keys}")
        self.stats = PortStats()
        self.ledger = GrantLedger(1, name)

    def reserve(self, line: int, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which the access may start."""
        raise NotImplementedError

    def reserve_store(self, line: int, cycle: int) -> int:
        """Like :meth:`reserve` but for a buffered store drain."""
        return self.reserve(line, cycle)


class IdealPorts(PortArbiter):
    """``n`` fully pipelined ports, each usable by any address."""

    def __init__(self, ports: int):
        super().__init__("ideal ports", ports)
        self.ports = ports
        self._next_free = [0] * ports

    def reserve(self, line: int, cycle: int) -> int:
        # The earliest-free port, lowest index on a tie.
        next_free = self._next_free
        earliest = min(next_free)
        best = next_free.index(earliest)
        start = cycle if cycle > earliest else earliest
        next_free[best] = start + 1
        self.ledger.record(start, best)
        tracer = trace._ACTIVE
        if tracer is not None:
            tracer.capture(MEM_PORT_GRANT, start, {"key": best})
        stats = self.stats
        stats.requests += 1
        if start > cycle:
            stats.delayed += 1
            stats.wait_cycles += start - cycle
        return start


class BankedPorts(PortArbiter):
    """One port per external bank; lines are interleaved across banks.

    The bank of an access is ``line mod banks`` (consecutive lines hit
    consecutive banks, the usual interleaving).  A busy bank delays the
    access even if other banks are idle -- the bank-conflict penalty of
    section 2.1.
    """

    #: lines per bank stretch under "page" interleaving (32 lines = 1 KB)
    PAGE_LINES_SHIFT = 5

    def __init__(self, banks: int, interleave: str = "line"):
        if interleave not in ("line", "page"):
            raise ValueError(f"unknown interleaving {interleave!r}")
        super().__init__("banked ports", banks)
        self.banks = banks
        self.interleave = interleave
        self._bank_shift = 0 if interleave == "line" else self.PAGE_LINES_SHIFT
        self._next_free = [0] * banks

    def bank_of(self, line: int) -> int:
        """Bank selection: "line" interleaving spreads consecutive lines
        across banks (the usual choice -- sequential streams hit all
        banks); "page" interleaving keeps 1 KB stretches in one bank
        (cheaper wiring, worse for streams).  The ablation bench
        quantifies the difference."""
        return (line >> self._bank_shift) % self.banks

    def reserve(self, line: int, cycle: int) -> int:
        bank = (line >> self._bank_shift) % self.banks  # inline bank_of
        next_free = self._next_free[bank]
        start = cycle if cycle > next_free else next_free
        stats = self.stats
        stats.requests += 1
        tracer = trace._ACTIVE
        if start > cycle:
            stats.bank_conflicts += 1
            stats.delayed += 1
            stats.wait_cycles += start - cycle
            if tracer is not None:
                tracer.capture(
                    MEM_BANK_CONFLICT, cycle, {"bank": bank, "wait": start - cycle}
                )
        self._next_free[bank] = start + 1
        self.ledger.record(start, bank)
        if tracer is not None:
            tracer.capture(MEM_PORT_GRANT, start, {"key": bank})
        return start


class DuplicatePorts(PortArbiter):
    """Two mirrored copies of the cache: loads pick either, stores use both."""

    def __init__(self) -> None:
        super().__init__("duplicate ports", 2)
        self._next_free = [0, 0]

    @property
    def ports(self) -> int:
        return 2

    def reserve(self, line: int, cycle: int) -> int:
        next_free = self._next_free
        best = 0 if next_free[0] <= next_free[1] else 1
        earliest = next_free[best]
        start = cycle if cycle > earliest else earliest
        next_free[best] = start + 1
        self.ledger.record(start, best)
        tracer = trace._ACTIVE
        if tracer is not None:
            tracer.capture(MEM_PORT_GRANT, start, {"key": best})
        stats = self.stats
        stats.requests += 1
        if start > cycle:
            stats.delayed += 1
            stats.wait_cycles += start - cycle
        return start

    def reserve_store(self, line: int, cycle: int) -> int:
        """A store writes both copies in the same cycle to stay coherent."""
        next_free = self._next_free
        start = max(cycle, *next_free)
        next_free[0] = next_free[1] = start + 1
        tracer = trace._ACTIVE
        for copy in (0, 1):
            self.ledger.record(start, copy)
            if tracer is not None:
                tracer.capture(MEM_PORT_GRANT, start, {"key": copy})
        stats = self.stats
        stats.requests += 1
        if start > cycle:
            stats.delayed += 1
            stats.wait_cycles += start - cycle
        return start


def make_arbiter(
    policy: str, *, ports: int = 2, banks: int = 8, interleave: str = "line"
) -> PortArbiter:
    """Factory used by the hierarchy configuration layer."""
    if policy == "ideal":
        return IdealPorts(ports)
    if policy == "banked":
        return BankedPorts(banks, interleave)
    if policy == "duplicate":
        return DuplicatePorts()
    raise ValueError(f"unknown port policy: {policy!r}")
