"""The complete on-chip memory system seen by the processor core.

``MemorySystem`` wires together one of the paper's cache organizations:

* an optional line buffer in the load/store unit (section 2.3);
* the primary data cache -- a set-associative SRAM with ideal, banked,
  or duplicate ports and a 1-3 cycle pipelined hit time (sections
  2.1-2.2), **or** a DRAM row-buffer cache (section 2.4);
* four MSHRs making the cache lockup-free;
* behind it, either the 4 MB L2 + main memory (SRAM mode) or the 4 MB
  on-chip DRAM array + main memory (DRAM mode).

Timing contract with the CPU core: ``load``/``store`` are called with
the cycle at which the reference's address is ready; they return an
:class:`~repro.memory.common.AccessResult` whose ``completion_cycle``
is when the data is available.  Contention (ports, banks, MSHRs, buses)
is folded in by the timestamped-resource models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.memory.backside import BacksideConfig, BacksideMemory
from repro.memory.common import AccessResult, ConfigurationError, ServedBy
from repro.memory.dram_cache import DramCacheBackside, DramCacheConfig
from repro.memory.line_buffer import LineBuffer
from repro.memory.mshr import MshrFile
from repro.memory.ports import make_arbiter
from repro.memory.sram import SetAssociativeCache
from repro.memory.stats import MemoryStats
from repro.memory.victim import VictimCache
from repro.observability import attribution, counters, events, trace
from repro.observability.attribution import AttributionAccumulator
from repro.observability.counters import CounterSampler
from repro.robustness.errors import SimulationInvariantError
from repro.robustness.invariants import audit_memory

PORT_POLICIES = ("ideal", "banked", "duplicate")
WRITE_POLICIES = ("write-back", "write-through")


@dataclass(frozen=True)
class MemoryConfig:
    """Configuration of one cache organization from the design space."""

    l1_size: int = 32 * 1024
    l1_assoc: int = 2
    l1_line: int = 32
    l1_hit_cycles: int = 1  #: 1-3; >1 means a pipelined multi-cycle cache
    port_policy: str = "ideal"
    ports: int = 2  #: number of ideal ports (port_policy == "ideal")
    banks: int = 8  #: number of external banks (port_policy == "banked")
    bank_interleave: str = "line"  #: "line" or "page" bank mapping
    line_buffer: bool = False
    line_buffer_entries: int = 32
    mshrs: int = 4
    write_policy: str = "write-back"  #: or "write-through" [Joup93]
    write_allocate: bool = True  #: allocate L1 lines on store misses
    victim_entries: int = 0  #: >0 adds a victim cache [Joup90]
    #: fetch line+1 on every demand miss (stream-buffer-style [Joup90]);
    #: shares MSHRs and buses, so it can also hurt.
    next_line_prefetch: bool = False
    backside: BacksideConfig = field(default_factory=BacksideConfig)
    dram: DramCacheConfig | None = None  #: set => DRAM-cache mode

    def validated(self) -> "MemoryConfig":
        if self.port_policy not in PORT_POLICIES:
            raise ConfigurationError(f"unknown port policy {self.port_policy!r}")
        if not 1 <= self.l1_hit_cycles:
            raise ConfigurationError(f"bad hit time {self.l1_hit_cycles}")
        if self.l1_line & (self.l1_line - 1):
            raise ConfigurationError(f"line size not a power of two: {self.l1_line}")
        if self.write_policy not in WRITE_POLICIES:
            raise ConfigurationError(f"unknown write policy {self.write_policy!r}")
        if self.victim_entries < 0:
            raise ConfigurationError("victim_entries cannot be negative")
        if self.dram is not None and self.write_policy != "write-back":
            raise ConfigurationError("DRAM-cache mode supports write-back only")
        if self.dram is not None:
            # In DRAM mode the primary cache *is* the row-buffer cache.
            return replace(
                self,
                l1_size=self.dram.row_cache_size,
                l1_assoc=self.dram.row_cache_assoc,
                l1_line=self.dram.row_bytes,
                l1_hit_cycles=self.dram.row_cache_hit_cycles,
            )
        return self


class MemorySystem:
    """Facade over the full data-memory hierarchy for one simulation."""

    def __init__(self, config: MemoryConfig):
        config = config.validated()
        self.config = config
        self.l1 = SetAssociativeCache(config.l1_size, config.l1_assoc, config.l1_line)
        self._line_shift = config.l1_line.bit_length() - 1
        self.arbiter = make_arbiter(
            config.port_policy,
            ports=config.ports,
            banks=config.banks,
            interleave=config.bank_interleave,
        )
        self.mshrs = MshrFile(config.mshrs)
        self.line_buffer = (
            LineBuffer(config.line_buffer_entries, config.l1_line)
            if config.line_buffer
            else None
        )
        self.victim_cache = (
            VictimCache(config.victim_entries, config.l1_line)
            if config.victim_entries
            else None
        )
        self.backside: BacksideMemory | DramCacheBackside
        if config.dram is not None:
            self.backside = DramCacheBackside(config.dram)
            self._l1_served = ServedBy.ROW_BUFFER
        else:
            self.backside = BacksideMemory(config.backside, config.l1_line)
            self._l1_served = ServedBy.L1
        self.stats = MemoryStats()
        self._pending_served: dict[int, ServedBy] = {}
        # Read once here instead of through ``config`` on every access.
        self._hit_cycles = config.l1_hit_cycles
        self._write_through = config.write_policy == "write-through"
        # Port-wait cycles are bank conflicts in banked organizations;
        # resolved once here so the load path stays branch-free.
        self._port_component = (
            "bank_conflict" if config.port_policy == "banked" else "port_wait"
        )
        #: Per-access critical-path accounting; ``None`` (the default)
        #: keeps the load path identical to the unattributed one.
        self.attribution: AttributionAccumulator | None = (
            AttributionAccumulator() if attribution.enabled() else None
        )
        #: Interval counter sampler; ``None`` (the default) keeps the
        #: kernel commit loops' per-commit cost at one ``is None`` test.
        self.counters: CounterSampler | None = (
            CounterSampler(self, counters.interval())
            if counters.enabled()
            else None
        )

    @property
    def line_bytes(self) -> int:
        return self.config.l1_line

    def line_of(self, address: int) -> int:
        return address >> self._line_shift

    def audit(self, cycle: int) -> None:
        """Structural self-check of every cross-structure invariant.

        Cheap enough for the core to run periodically (it walks the
        small buffers and the L1 set metadata, not the address space);
        raises :class:`~repro.robustness.errors.SimulationInvariantError`
        with a rendered state dump on any breach.
        """
        audit_memory(self, cycle)

    # ------------------------------------------------------------------
    # Functional warm-up
    # ------------------------------------------------------------------

    def prefill_backside(self, l1_lines: "list[int] | tuple[int, ...]") -> None:
        """Install lines into the L2 (or DRAM array) state, no timing.

        Models the steady state of a long run: after the paper's 100M+
        instructions, the 4 MB second level holds (as much as fits of)
        the workload's entire footprint, so compulsory misses are
        negligible in the measured region.  Lines are given in L1-line
        units; capacity and LRU behavior of the second level still apply.
        """
        backside = self.backside
        if isinstance(backside, DramCacheBackside):
            for line in l1_lines:
                backside.dram.fill(line)
        else:
            shift = backside._line_shift
            previous = None
            for line in l1_lines:
                l2_line = line >> shift
                if l2_line != previous:
                    backside.l2.fill(l2_line)
                    previous = l2_line

    def warm(self, references: list[tuple[bool, int]]) -> None:
        """Warm cache *state* from (is_store, address) pairs, no timing.

        Used before timing simulations so that working sets larger than
        the measured instruction window still exhibit steady-state hit
        rates (the paper simulates 100M+ instructions; we warm
        functionally and then measure a shorter timing window).  No
        statistics are recorded and no cycles pass.
        """
        l1 = self.l1
        line_buffer = self.line_buffer
        backside = self.backside
        is_dram = isinstance(backside, DramCacheBackside)
        for is_store, address in references:
            line = address >> self._line_shift
            if line_buffer is not None and not is_store:
                line_buffer._cache.fill(line)
            if l1.lookup(line, write=is_store):
                continue
            if is_dram:
                backside.dram.fill(line)
            else:
                backside.l2.fill(line >> backside._line_shift)
            victim = l1.fill(line, dirty=is_store)
            if victim is not None and line_buffer is not None:
                line_buffer._cache.invalidate(victim.line)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load(self, address: int, cycle: int) -> AccessResult:
        """A load whose address is ready at ``cycle``."""
        stats = self.stats
        stats.loads += 1
        line = address >> self._line_shift
        tracer = trace._ACTIVE
        attr = self.attribution
        line_buffer = self.line_buffer
        if line_buffer is not None and line_buffer.load_lookup(line):
            # If the line's fill is still in flight the buffered copy is
            # not valid yet; data is forwarded when the fill arrives.
            done = self.mshrs.pending_ready(line, cycle + 1) or cycle + 1
            result = AccessResult(done, ServedBy.LINE_BUFFER, cycle)
            stats.served_by[ServedBy.LINE_BUFFER] += 1
            stats.load_latency_total += done - cycle
            path = None
            if attr is not None:
                path = [("line_buffer", 1)]
                fill_wait = done - cycle - 1
                if fill_wait:
                    path.append(("mshr_merge", fill_wait))
                attr.record("lb_hit", done - cycle, path)
            if tracer is not None:
                tracer.capture(events.MEM_LB_HIT, cycle, {"line": line})
                self._capture_access(
                    tracer, events.MEM_LOAD, cycle, line, "lb_hit", result, path
                )
            return result
        start = self.arbiter.reserve(line, cycle)
        hit_cycles = self._hit_cycles
        if self.l1.lookup(line):
            stats.l1_load_hits += 1
            done = start + hit_cycles
            in_flight = self.mshrs.pending_ready(line, done)
            if in_flight is None:
                served = self._l1_served
                outcome = "l1_hit"
                tail = ()
            else:
                # Delayed hit: the line is being filled; wait for it.
                # Counted as a hit (no new miss traffic), tracked apart.
                stats.delayed_hits += 1
                self.mshrs.stats.merged_misses += 1
                served = self._pending_served.get(line, ServedBy.L2)
                outcome = "delayed_hit"
                tail = (("mshr_merge", in_flight - done),)
                done = in_flight
            result = AccessResult(done, served, start)
        else:
            stats.l1_load_misses += 1
            result, outcome, tail = self._miss(line, start, dirty=False)
            done, served, _ = result
        if line_buffer is not None:
            line_buffer.fill(line)
        stats.served_by[served] += 1
        stats.load_latency_total += done - cycle
        path = None
        if attr is not None:
            path = []
            if start > cycle:
                path.append((self._port_component, start - cycle))
            path.append(("l1_access", hit_cycles))
            path.extend(tail)
            attr.record(outcome, done - cycle, path)
        if tracer is not None:
            self._capture_access(
                tracer, events.MEM_LOAD, cycle, line, outcome, result, path
            )
        return result

    @staticmethod
    def _capture_access(
        tracer, kind, cycle, line, outcome, result, path=None
    ) -> None:
        fields = {
            "line": line,
            "outcome": outcome,
            "served": result.served_by.name.lower(),
            "done": result.completion_cycle,
        }
        if path is not None:
            # Attribution active: the event carries the critical-path
            # split so offline trace analyses see the same exact sums.
            fields["path"] = dict(path)
        tracer.capture(kind, cycle, fields)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def store(self, address: int, cycle: int) -> AccessResult:
        """A buffered store draining to the cache at ``cycle``.

        Write-back, write-allocate.  Duplicate caches write both copies
        (handled by the arbiter's ``reserve_store``).
        """
        stats = self.stats
        stats.stores += 1
        line = address >> self._line_shift
        tracer = trace._ACTIVE
        if self.line_buffer is not None:
            self.line_buffer.store_update(line)
        start = self.arbiter.reserve_store(line, cycle)
        if self._write_through:
            return self._store_through(line, start, cycle)
        if self.l1.lookup(line, write=True):
            stats.l1_store_hits += 1
            done = start + self._hit_cycles
            in_flight = self.mshrs.pending_ready(line, done)
            if in_flight is None:
                result = AccessResult(done, self._l1_served, start)
                outcome = "l1_hit"
            else:
                stats.delayed_hits += 1
                self.mshrs.stats.merged_misses += 1
                served = self._pending_served.get(line, ServedBy.L2)
                result = AccessResult(in_flight, served, start)
                outcome = "delayed_hit"
        else:
            stats.l1_store_misses += 1
            result, outcome, _ = self._miss(line, start, dirty=True)
        stats.served_by[result.served_by] += 1
        if tracer is not None:
            self._capture_access(tracer, events.MEM_STORE, cycle, line, outcome, result)
        return result

    def _store_through(self, line: int, start: int, cycle: int) -> AccessResult:
        """Write-through store: update L1 if present (clean), always send
        the word to the L2 over the chip bus [Joup93].

        ``start`` is the port grant; the traced event is stamped with the
        request ``cycle``, as a write-back store's is.

        With ``write_allocate`` off, a store miss does not disturb the
        L1 at all -- the classic write-through/no-allocate pairing.
        """
        assert isinstance(self.backside, BacksideMemory)
        done = start + self._hit_cycles
        if self.l1.lookup(line):
            self.stats.l1_store_hits += 1
            served = self._l1_served
        else:
            self.stats.l1_store_misses += 1
            served = ServedBy.L2
            if self.config.write_allocate:
                response = self.backside.fetch_line(line, done)
                done = response.ready_cycle
                served = response.served_by
                victim = self.l1.fill(line)
                if victim is not None and self.line_buffer is not None:
                    self.line_buffer.invalidate(victim.line)
        transfer = self.backside.write_word_through(line, done)
        result = AccessResult(max(done, transfer), served, start)
        self.stats.served_by[result.served_by] += 1
        tracer = trace._ACTIVE
        if tracer is not None:
            outcome = "wt_hit" if served is self._l1_served else "wt_miss"
            self._capture_access(tracer, events.MEM_STORE, cycle, line, outcome, result)
        return result

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------

    def _miss(
        self, line: int, port_start: int, *, dirty: bool
    ) -> tuple[AccessResult, str, tuple[tuple[str, int], ...]]:
        """Common lockup-free miss path for loads and stores.

        Returns the access result, the miss outcome tag (``victim_hit``
        / ``miss_merged`` / ``miss_alloc``) the caller's trace emission
        carries, and the critical-path components *beyond miss
        detection* -- they sum exactly to ``completion_cycle - detect``,
        so the caller can prepend the port wait and L1 access to get
        the access's full attribution.
        """
        detect = port_start + self._hit_cycles
        if self.victim_cache is not None:
            swap_hit, was_dirty = self.victim_cache.probe_and_take(line)
            if swap_hit:
                done = detect + VictimCache.SWAP_PENALTY_CYCLES
                self._install(line, done, dirty=dirty or was_dirty)
                return (
                    AccessResult(done, ServedBy.VICTIM_CACHE, port_start),
                    "victim_hit",
                    (("victim_swap", VictimCache.SWAP_PENALTY_CYCLES),),
                )
        grant = self.mshrs.request(line, detect)
        if grant.merged:
            assert grant.pending_ready is not None
            served = self._pending_served.get(line, ServedBy.L2)
            if dirty:
                self.l1.lookup(line, write=True)  # mark dirty once filled
            result = AccessResult(max(grant.pending_ready, detect), served, port_start)
            if not self.l1.probe(line):
                # The allocating miss installed this line, but it was
                # evicted again while its fill is still in flight.  The
                # arriving fill lands in the L1 regardless, so model
                # that -- it is also what keeps the line-buffer
                # coherence invariant (LB lines reside in the L1): a
                # load caller buffers this line right after this return.
                self._install(line, result.completion_cycle, dirty=dirty)
            merge_wait = result.completion_cycle - detect
            tail = (("mshr_merge", merge_wait),) if merge_wait else ()
            return result, "miss_merged", tail
        response = self.backside.fetch_line(line, grant.start_cycle)
        if response.ready_cycle < grant.start_cycle:
            raise SimulationInvariantError(
                f"fill for line {line:#x} ready at cycle {response.ready_cycle}, "
                f"before its request at cycle {grant.start_cycle}"
            )
        self.mshrs.complete(line, response.ready_cycle, alloc_cycle=grant.start_cycle)
        self._note_served(line, response.served_by)
        self._install(line, response.ready_cycle, dirty=dirty)
        if self.config.next_line_prefetch:
            self._prefetch(line + 1, response.ready_cycle)
        tail = response.path
        if grant.start_cycle > detect:
            # The miss waited for a free MSHR register before issuing.
            tail = (("mshr_wait", grant.start_cycle - detect),) + tail
        return (
            AccessResult(response.ready_cycle, response.served_by, port_start),
            "miss_alloc",
            tail,
        )

    def _prefetch(self, line: int, cycle: int) -> None:
        """Next-line prefetch into the L1, if a free MSHR allows it.

        Called right after the triggering demand miss took its register,
        so the file holds exactly the lines in flight now; the prefetch
        needs a free one of those same registers (it never waits for
        one), and issues when the demand fill arrives at ``cycle``.  It
        consumes real resources (an MSHR and bus occupancy) but never
        delays the demand miss that triggered it.  Early touches to the
        prefetched line become delayed hits until its fill arrives, via
        the normal MSHR bookkeeping.
        """
        if self.l1.probe(line) or self.mshrs.pending_ready(line, cycle):
            return
        if self.victim_cache is not None and self.victim_cache.probe(line):
            # Prefetching a line the victim cache holds would leave the
            # same line resident in both structures; a demand miss will
            # recover it with a one-cycle swap anyway.
            return
        if self.mshrs.full():
            return  # never wait for (or steal) a register from demand traffic
        self.stats.prefetches_issued += 1
        response = self.backside.fetch_line(line, cycle)
        self.mshrs.complete(line, response.ready_cycle, alloc_cycle=cycle)
        self._note_served(line, response.served_by)
        self._install(line, response.ready_cycle, dirty=False)

    def _install(self, line: int, ready_cycle: int, *, dirty: bool) -> None:
        """Fill a line into the L1, routing the victim appropriately."""
        victim = self.l1.fill(line, dirty=dirty)
        if victim is None:
            return
        if self.line_buffer is not None:
            self.line_buffer.invalidate(victim.line)
        if self.victim_cache is not None:
            displaced = self.victim_cache.insert(victim.line, victim.dirty)
            if displaced is not None and displaced[1]:
                self.backside.writeback_line(displaced[0], ready_cycle)
        elif victim.dirty:
            self.backside.writeback_line(victim.line, ready_cycle)

    def _note_served(self, line: int, served: ServedBy) -> None:
        """Remember which level fills ``line``, keeping the map bounded."""
        self._pending_served[line] = served
        if len(self._pending_served) > 4 * self.config.mshrs:
            self._trim_pending()

    def _trim_pending(self) -> None:
        """Bound the merged-miss bookkeeping map (keep most recent entries).

        Lines the MSHR file still tracks are exempt: a delayed hit on an
        in-flight line reads its entry, and evicting it would fall back
        to the ``ServedBy.L2`` default even for a fill coming from DRAM.
        """
        in_flight = self.mshrs.tracked_lines()
        evictable = [
            line for line in self._pending_served if line not in in_flight
        ]
        surplus = len(evictable) - 2 * self.config.mshrs
        if surplus <= 0:
            return
        drop = set(evictable[:surplus])
        self._pending_served = {
            line: served
            for line, served in self._pending_served.items()
            if line not in drop
        }
