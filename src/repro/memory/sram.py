"""Functional set-associative cache state with true LRU replacement.

This models *contents* only (hits, misses, evictions, dirty lines); all
timing -- ports, banks, pipelining, MSHRs, buses -- lives in the other
modules of :mod:`repro.memory`.  The paper's primary data cache is
two-way set-associative with 32-byte lines and write-back/write-allocate
semantics (stores allocate through the MSHRs like loads).

A :class:`SetAssociativeCache` keeps its tags in one flat list of
``num_sets * associativity`` slots: set ``i`` owns the ``associativity``
slots starting at ``i * associativity``, most recently used first, with
empty slots (:data:`EMPTY`) at the tail.  One Python list per set would
be the obvious layout, but every design point of a sweep builds a 4 MB
two-way L2 (32,768 sets) and most restore a memoised warm snapshot of
it, so that layout costs tens of thousands of list objects per point and
keeps the cyclic garbage collector busy walking them.  With one list,
building the L2 takes a single ``[EMPTY] * n`` (3.6 ms to 0.08 ms on a
2-vCPU x86 VM), and snapshot and restore are one list copy each
(3.9 ms to 0.13 ms and 3.3 ms to 0.15 ms).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from repro.memory.common import new_record


#: Tag value of an empty way (real tags are non-negative).
EMPTY = -1


class Eviction(NamedTuple):
    """A line pushed out of the cache by a fill.

    A named tuple because every evicting fill builds one, and a tuple
    is the cheapest immutable record to build.
    """

    line: int
    dirty: bool


class SetAssociativeCache:
    """LRU set-associative cache over *line addresses*.

    All methods take line addresses (byte address divided by the line
    size); callers convert with :func:`repro.memory.common.line_address`.
    """

    def __init__(self, size_bytes: int, associativity: int, line_bytes: int):
        if size_bytes <= 0 or size_bytes % (associativity * line_bytes):
            raise ValueError(
                f"cache size {size_bytes} not divisible into "
                f"{associativity}-way sets of {line_bytes}B lines"
            )
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (associativity * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"number of sets must be a power of two: {self.num_sets}")
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        # Flat tag array, laid out as the module docstring says.  Dirty
        # lines live in one flat set of line addresses (cheap to snapshot
        # and to probe; after warm-up only a small fraction is dirty).
        self._tags: list[int] = [EMPTY] * (self.num_sets * associativity)
        self._dirty: set[int] = set()
        self._count = 0  # resident lines, maintained for O(1) __len__

    def lookup(self, line: int, *, write: bool = False) -> bool:
        """Reference a line; returns hit/miss and updates LRU (and dirty)."""
        assoc = self.associativity
        tags = self._tags
        base = (line & self._set_mask) * assoc
        tag = line >> self._tag_shift
        if tags[base] != tag:
            if assoc == 1:
                return False
            if tags[base + 1] == tag:
                tags[base + 1] = tags[base]
                tags[base] = tag
            elif assoc == 2:
                return False
            else:
                end = base + assoc
                ways = tags[base:end]
                if tag not in ways:
                    return False
                ways.remove(tag)
                ways.insert(0, tag)
                tags[base:end] = ways
        if write:
            self._dirty.add(line)
        return True

    def probe(self, line: int) -> bool:
        """Check presence without touching LRU state."""
        assoc = self.associativity
        tags = self._tags
        base = (line & self._set_mask) * assoc
        tag = line >> self._tag_shift
        if assoc <= 2:
            return tags[base] == tag or tags[base + assoc - 1] == tag
        return tag in tags[base:base + assoc]

    def fill(self, line: int, *, dirty: bool = False) -> Eviction | None:
        """Install a line (MRU position); returns the victim, if any.

        Filling a line that is already present refreshes its LRU position
        (this happens when a merged MSHR response races a prefetch-like
        refill) and returns ``None``.
        """
        assoc = self.associativity
        tags = self._tags
        index = line & self._set_mask
        base = index * assoc
        tag = line >> self._tag_shift
        # ``victim`` ends up as the tag pushed out of the set: ``EMPTY``
        # when the set had room, ``tag`` itself when it was resident.
        if assoc == 1:
            victim = tags[base]
            tags[base] = tag
        elif assoc == 2:
            victim = tags[base + 1]
            if tags[base] == tag:
                victim = tag
            else:
                tags[base + 1] = tags[base]
                tags[base] = tag
        else:
            end = base + assoc
            ways = tags[base:end]
            if tag in ways:
                ways.remove(tag)
                victim = tag
            else:
                victim = ways.pop()
            ways.insert(0, tag)
            tags[base:end] = ways
        if dirty:
            self._dirty.add(line)
        if victim == tag:
            return None
        if victim == EMPTY:
            self._count += 1
            return None
        victim_line = (victim << self._tag_shift) | index
        if victim_line in self._dirty:
            self._dirty.discard(victim_line)
            return new_record(Eviction, (victim_line, True))
        return new_record(Eviction, (victim_line, False))

    def invalidate(self, line: int) -> bool:
        """Drop a line if present; returns whether it was present."""
        base = (line & self._set_mask) * self.associativity
        end = base + self.associativity
        ways = self._tags[base:end]
        tag = line >> self._tag_shift
        if tag not in ways:
            return False
        ways.remove(tag)
        ways.append(EMPTY)
        self._tags[base:end] = ways
        self._dirty.discard(line)
        self._count -= 1
        return True

    def snapshot_state(self) -> tuple:
        """An immutable-by-convention copy of contents, LRU, and dirty
        bits -- pair with :meth:`restore_state` to clone warmed caches."""
        return (
            (self.num_sets, self.associativity, self.line_bytes),
            self._tags[:],
            set(self._dirty),
            self._count,
        )

    def restore_state(self, state: tuple) -> None:
        """Replace all contents with a copy of a snapshot's.

        Raises :class:`ValueError` when the snapshot was taken from a
        cache of another geometry, even one with as many sets or slots.
        """
        geometry, tags, dirty, count = state
        if geometry != (self.num_sets, self.associativity, self.line_bytes):
            sets, ways, line_bytes = geometry
            raise ValueError(
                f"snapshot of a {sets}-set {ways}-way cache with "
                f"{line_bytes}B lines does not fit {self!r}"
            )
        self._tags = tags[:]
        self._dirty = set(dirty)
        self._count = count

    def is_dirty(self, line: int) -> bool:
        return line in self._dirty

    def resident_lines(self) -> list[int]:
        """All currently valid line addresses, set by set and MRU first
        within a set (testing/inspection aid)."""
        shift = self._tag_shift
        assoc = self.associativity
        return [
            (tag << shift) | (slot // assoc)
            for slot, tag in enumerate(self._tags)
            if tag != EMPTY
        ]

    def audit(self, name: str = "cache") -> list[str]:
        """Structural self-check; returns a list of problem descriptions.

        Guards the replacement bookkeeping the timing model relies on:
        the tag array must hold exactly ``associativity`` ways per set,
        no set may hold a duplicated way or a valid way after an empty
        one (a hole), and no dirty bit may belong to a line that is not
        resident.
        """
        problems: list[str] = []
        tags = self._tags
        assoc = self.associativity
        if len(tags) != self.num_sets * assoc:
            problems.append(
                f"{name}: {len(tags)} tag slots for {self.num_sets} sets "
                f"of associativity {assoc}"
            )
        resident = 0
        for index, base in enumerate(range(0, len(tags), assoc)):
            ways = tags[base:base + assoc]
            empty = ways.count(EMPTY)
            filled = len(ways) - empty
            resident += filled
            if EMPTY in ways[:filled]:
                problems.append(f"{name} set {index}: valid way after an empty way")
            if len(set(ways)) != filled + (empty > 0):
                problems.append(f"{name} set {index}: duplicate tag in LRU order")
        phantom = [line for line in self._dirty if not self.probe(line)]
        if phantom:
            problems.append(
                f"{name}: dirty bits for absent lines {sorted(phantom)}"
            )
        if resident != self._count:
            problems.append(
                f"{name}: resident count {self._count} does not match "
                f"{resident} lines in LRU state"
            )
        return problems

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.size_bytes}B, "
            f"{self.associativity}-way, {self.line_bytes}B lines)"
        )


class FullyAssociativeCache:
    """Small fully-associative LRU cache (line buffer, victim-style uses).

    Lines are the keys of an ``OrderedDict``, least recently used first,
    so a lookup, a fill and an eviction are each one C-level dict
    operation, and a line cannot be held twice.
    """

    def __init__(self, entries: int, line_bytes: int):
        if entries <= 0:
            raise ValueError(f"entries must be positive: {entries}")
        self.entries = entries
        self.line_bytes = line_bytes
        self._lines: OrderedDict[int, None] = OrderedDict()  # LRU first

    def lookup(self, line: int) -> bool:
        if line in self._lines:
            self._lines.move_to_end(line)
            return True
        return False

    def probe(self, line: int) -> bool:
        return line in self._lines

    def fill(self, line: int) -> int | None:
        """Install a line; returns the evicted line address, if any."""
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            return None
        evicted = None
        if len(lines) >= self.entries:
            evicted = lines.popitem(last=False)[0]
        lines[line] = None
        return evicted

    def invalidate(self, line: int) -> bool:
        if line in self._lines:
            del self._lines[line]
            return True
        return False

    def snapshot_state(self) -> list[int]:
        """Copy of the contents, MRU first (see
        :meth:`SetAssociativeCache.snapshot_state`)."""
        return list(reversed(self._lines))

    def restore_state(self, state: list[int]) -> None:
        """Replace all contents with a copy of a snapshot's."""
        self._lines = OrderedDict.fromkeys(reversed(state))

    def clear(self) -> None:
        self._lines.clear()

    def resident_lines(self) -> list[int]:
        """All currently held line addresses, MRU first."""
        return list(reversed(self._lines))

    def audit(self, name: str = "buffer") -> list[str]:
        """Structural self-check; returns a list of problem descriptions."""
        problems: list[str] = []
        if len(self._lines) > self.entries:
            problems.append(
                f"{name}: {len(self._lines)} lines exceed capacity {self.entries}"
            )
        return problems

    def __len__(self) -> int:
        return len(self._lines)
