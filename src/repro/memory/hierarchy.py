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
from repro.memory.common import AccessResult, ConfigurationError, ServedBy, new_record
from repro.memory.dram_cache import DramCacheBackside, DramCacheConfig
from repro.memory.line_buffer import LineBuffer
from repro.memory.mshr import MshrFile
from repro.memory.ports import make_arbiter
from repro.memory.sram import SetAssociativeCache
from repro.memory.stats import MemoryStats
from repro.memory.victim import VictimCache
from repro.observability import events, trace
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

    def __init__(
        self,
        config: MemoryConfig,
        *,
        attribution: bool = False,
        counter_interval: int | None = None,
    ):
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
            self.backside = DramCacheBackside(config.dram, attributed=attribution)
            self._l1_served = ServedBy.ROW_BUFFER
        else:
            self.backside = BacksideMemory(
                config.backside, config.l1_line, attributed=attribution
            )
            self._l1_served = ServedBy.L1
        self.stats = MemoryStats()
        self._pending_served: dict[int, ServedBy] = {}
        #: ``_pending_served`` is trimmed once it outgrows this.
        self._served_bound = 4 * config.mshrs
        self._prefetching = config.next_line_prefetch
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
            AttributionAccumulator() if attribution else None
        )
        #: Interval counter sampler; ``None`` (the default) keeps the
        #: kernel commit loops' per-commit cost at one ``is None`` test.
        self.counters: CounterSampler | None = (
            CounterSampler(self, counter_interval)
            if counter_interval is not None
            else None
        )

    @property
    def line_bytes(self) -> int:
        return self.config.l1_line

    def line_of(self, address: int) -> int:
        return address >> self._line_shift

    def stat_owners(self) -> list[tuple[str, object]]:
        """Every component that keeps a ``stats`` dataclass, under the
        metric prefix its fields export as.

        The one list of them: :meth:`reset_stats` zeroes it, and the
        metrics snapshot (which the interval sampler reads through)
        exports it.  Components an organization lacks are absent.
        ``MemoryStats`` itself is not listed: it rides the result under
        its own field names.
        """
        owners: list[tuple[str, object]] = [
            ("memory.ports", self.arbiter),
            ("memory.mshr", self.mshrs),
        ]
        if self.line_buffer is not None:
            owners.append(("memory.line_buffer", self.line_buffer))
        if self.victim_cache is not None:
            owners.append(("memory.victim", self.victim_cache))
        return owners + self.backside.stat_owners()

    def reset_stats(self) -> None:
        """Zero every counter: the measured region starts here.

        Stats objects are replaced, not cleared, so a reference taken
        before the reset keeps reading the warm-up counts.
        """
        self.stats = MemoryStats()
        for _, component in self.stat_owners():
            component.stats = type(component.stats)()
        self.mshrs.occupancy_peak = 0
        if self.attribution is not None:
            # Attribution covers the measured region only, same as stats.
            self.attribution.reset()

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
        fill = self.backside.array.fill
        shift = self.backside.line_shift
        previous = None
        for line in l1_lines:
            back_line = line >> shift
            if back_line != previous:
                fill(back_line)
                previous = back_line

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
        back_fill = self.backside.array.fill
        back_shift = self.backside.line_shift
        for is_store, address in references:
            line = address >> self._line_shift
            if line_buffer is not None and not is_store:
                line_buffer._cache.fill(line)
            if l1.lookup(line, write=is_store):
                continue
            back_fill(line >> back_shift)
            victim = l1.fill(line, dirty=is_store)
            if victim is not None and line_buffer is not None:
                line_buffer._cache.invalidate(victim.line)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load(self, address: int, cycle: int) -> AccessResult:
        """A load whose address is ready at ``cycle``.

        A hit runs inline but for the port grant; the miss path and the
        observers are calls (DESIGN.md, "The access path").
        """
        stats = self.stats
        stats.loads += 1
        line = address >> self._line_shift
        tracer = trace._ACTIVE
        attr = self.attribution
        line_buffer = self.line_buffer
        if line_buffer is not None:
            lb_stats = line_buffer.stats
            lb_stats.load_lookups += 1
            buffered = line_buffer._cache._lines
            if line in buffered:
                buffered.move_to_end(line)
                lb_stats.load_hits += 1
                # If the line's fill is still in flight the buffered copy
                # is not valid yet; data is forwarded when the fill arrives.
                ready = self.mshrs._pending.get(line, 0)
                done = ready if ready > cycle + 1 else cycle + 1
                result = new_record(AccessResult, (done, ServedBy.LINE_BUFFER, cycle))
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
        l1 = self.l1
        tags = l1._tags
        assoc = l1.associativity
        base = (line & l1._set_mask) * assoc
        tag = line >> l1._tag_shift
        hit = tags[base] == tag
        if not hit and assoc > 1:
            if assoc > 2:
                hit = l1.lookup(line)
            elif tags[base + 1] == tag:
                tags[base], tags[base + 1] = tag, tags[base]
                hit = True
        if hit:
            stats.l1_load_hits += 1
            done = start + hit_cycles
            ready = self.mshrs._pending.get(line, 0)
            if ready <= done:
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
                tail = (("mshr_merge", ready - done),)
                done = ready
            result = new_record(AccessResult, (done, served, start))
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
        (handled by the arbiter's ``reserve_store``).  A hit runs inline,
        as in :meth:`load`.
        """
        stats = self.stats
        stats.stores += 1
        line = address >> self._line_shift
        line_buffer = self.line_buffer
        if line_buffer is not None:
            # A store refreshes a buffered copy; it never allocates one.
            buffered = line_buffer._cache._lines
            if line in buffered:
                buffered.move_to_end(line)
                line_buffer.stats.store_updates += 1
        start = self.arbiter.reserve_store(line, cycle)
        if self._write_through:
            return self._store_through(line, start, cycle)
        l1 = self.l1
        tags = l1._tags
        assoc = l1.associativity
        base = (line & l1._set_mask) * assoc
        tag = line >> l1._tag_shift
        hit = tags[base] == tag
        if not hit and assoc > 1:
            if assoc > 2:
                hit = l1.lookup(line)
            elif tags[base + 1] == tag:
                tags[base], tags[base + 1] = tag, tags[base]
                hit = True
        if hit:
            l1._dirty.add(line)
            stats.l1_store_hits += 1
            done = start + self._hit_cycles
            ready = self.mshrs._pending.get(line, 0)
            if ready <= done:
                result = new_record(AccessResult, (done, self._l1_served, start))
                outcome = "l1_hit"
            else:
                stats.delayed_hits += 1
                self.mshrs.stats.merged_misses += 1
                served = self._pending_served.get(line, ServedBy.L2)
                result = new_record(AccessResult, (ready, served, start))
                outcome = "delayed_hit"
        else:
            stats.l1_store_misses += 1
            result, outcome, _ = self._miss(line, start, dirty=True)
        stats.served_by[result[1]] += 1
        tracer = trace._ACTIVE
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
                    new_record(AccessResult, (done, ServedBy.VICTIM_CACHE, port_start)),
                    "victim_hit",
                    (("victim_swap", VictimCache.SWAP_PENALTY_CYCLES),),
                )
        start, merged, pending_ready = self.mshrs.request(line, detect)
        if merged:
            served = self._pending_served.get(line, ServedBy.L2)
            if dirty:
                self.l1.lookup(line, write=True)  # mark dirty once filled
            done = pending_ready if pending_ready > detect else detect
            if not self.l1.probe(line):
                # The allocating miss installed this line, but it was
                # evicted again while its fill is still in flight.  The
                # arriving fill lands in the L1 regardless, so model
                # that -- it is also what keeps the line-buffer
                # coherence invariant (LB lines reside in the L1): a
                # load caller buffers this line right after this return.
                self._install(line, done, dirty=dirty)
            tail = (("mshr_merge", done - detect),) if done > detect else ()
            result = new_record(AccessResult, (done, served, port_start))
            return result, "miss_merged", tail
        ready, served, tail = self.backside.fetch_line(line, start)
        if ready < start:
            raise SimulationInvariantError(
                f"fill for line {line:#x} ready at cycle {ready}, "
                f"before its request at cycle {start}"
            )
        self.mshrs.complete(line, ready, alloc_cycle=start)
        # Remember which level fills the line, keeping the map bounded.
        pending_served = self._pending_served
        pending_served[line] = served
        if len(pending_served) > self._served_bound:
            self._trim_pending()
        self._install(line, ready, dirty=dirty)
        if self._prefetching:
            self._prefetch(line + 1, ready)
        if start > detect:
            # The miss waited for a free MSHR register before issuing.
            tail = (("mshr_wait", start - detect),) + tail
        return new_record(AccessResult, (ready, served, port_start)), "miss_alloc", tail

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
        ready, served, _ = self.backside.fetch_line(line, cycle)
        self.mshrs.complete(line, ready, alloc_cycle=cycle)
        pending_served = self._pending_served
        pending_served[line] = served
        if len(pending_served) > self._served_bound:
            self._trim_pending()
        self._install(line, ready, dirty=False)

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
