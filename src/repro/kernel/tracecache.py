"""Precomputed workload artifacts shared across design points.

A design point that builds its own streams spends most of its time
doing so: a cProfile of one cold fast-backend ``gcc`` point (a 24 k
instruction window after 200 k instructions of functional warm-up)
puts about 65% of self time in workload generation.  Yet all 30
organizations of one benchmark consume an identical warm-up reference
stream and an identical timing trace, because neither depends on the
cache organization -- only on ``(spec, seed, functional_warmup)``.

The fast backend therefore generates each stream once and replays it:

* ``footprint_lines`` per line size (pure function of the spec/seed);
* the functional-warmup reference stream, packed one per word into an
  ``array('Q')`` (address << 1 | is_store) -- ~10x smaller than the
  equivalent list of tuples, and drawn without building micro-ops;
* the warm-up state it leaves, memoized by what each part depends on:
  the L1 and backside after the replay, keyed by their geometries, and
  the line buffer, rebuilt per entry count from the replay's operation
  log;
* the timing-phase micro-op stream as a lazily extended *tape*: each
  replay iterator walks the shared list and only the first (longest)
  consumer actually runs the generator.

Bit-identity with the reference backend is by construction: the cached
artifacts come from the same RNG draws, in the same order
(``footprint_lines`` draws no randomness; ``packed_references`` makes
every draw ``memory_references`` makes, and the warm-up stream is drawn
before the timing stream starts, advancing the RNG exactly as
:meth:`ReferenceBackend.prepare` does), and replays reuse the very same
:class:`~repro.cpu.isa.MicroOp` objects.

The cache is per-process (workers build their own) and LRU-bounded:
figure plans group design points by benchmark, so a handful of entries
covers a whole sweep without holding every benchmark's streams alive.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Callable, Iterator

from repro.cpu.isa import MicroOp
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

#: LRU capacity.  Figure sweeps iterate *organization*-major, so every
#: benchmark in the suite is revisited once per organization; capacity
#: below the benchmark catalog size (nine) thrashes -- the headline
#: sweep regenerated every stream ~4x at the old size of six.
CACHE_ENTRIES = 12


class WorkloadArtifacts:
    """Replayable streams of one ``(spec, seed, functional_warmup)``."""

    def __init__(self, spec: WorkloadSpec, seed: int, functional_warmup: int):
        self.spec = spec
        self.seed = seed
        self.functional_warmup = functional_warmup
        self._generator = WorkloadGenerator(spec, seed)
        self._footprints: dict[int, list[int]] = {}
        self._warm_refs: array | None = None
        self._tape: list[MicroOp] = []
        self._timing_source: Iterator[MicroOp] | None = None
        self._timing_done = False
        #: Warm-up memo, keyed as :func:`repro.kernel.fast._functional_key`
        #: says: the L1 and backside after the replay, with its
        #: line-buffer log and the buffers rebuilt from it per entry
        #: count.  Organizations that differ only in timing parameters
        #: or line-buffer size share one replay.
        self.warm_states: dict[tuple, tuple] = {}

    def footprint_lines(self, line_bytes: int) -> list[int]:
        """Cached :meth:`WorkloadGenerator.footprint_lines` (no RNG)."""
        lines = self._footprints.get(line_bytes)
        if lines is None:
            lines = self._generator.footprint_lines(line_bytes)
            self._footprints[line_bytes] = lines
        return lines

    def warm_references(self) -> array:
        """The packed functional-warmup reference stream."""
        if self._warm_refs is None:
            if self._timing_source is not None:
                raise RuntimeError(
                    "timing stream already started; the warm-up stream "
                    "must be generated first to keep RNG order identical"
                )
            self._warm_refs = self._generator.packed_references(
                self.functional_warmup
            )
        return self._warm_refs

    def timing_stream(self) -> "TapeReplay":
        """A fresh iterator over the (shared, lazily grown) timing tape."""
        return TapeReplay(self._tape, self._extend)

    def _extend(self) -> bool:
        """Pull one more micro-op from the live generator onto the tape."""
        if self._timing_done:
            return False
        if self._timing_source is None:
            if self.functional_warmup > 0:
                # Consume the warm-up prefix first so the timing stream
                # starts from the same RNG state as the reference path.
                self.warm_references()
            self._timing_source = self._generator.instructions()
        try:
            self._tape.append(next(self._timing_source))
        except StopIteration:  # pragma: no cover - streams are infinite
            self._timing_done = True
            return False
        return True


class TapeReplay:
    """Iterator over a micro-op tape, with direct-index access.

    A generator resume costs a full frame switch per micro-op; the fast
    loop instead reads ``tape``/``extend``/``index`` directly (one list
    index per fetch) and writes ``index`` back when it stops.
    ``extend()`` appends one more micro-op to ``tape`` and returns
    whether it could.  ``__next__`` keeps this a plain iterator for
    every other consumer.
    """

    __slots__ = ("tape", "extend", "index")

    def __init__(self, tape: list[MicroOp], extend: Callable[[], bool]):
        self.tape = tape
        self.extend = extend
        self.index = 0

    @classmethod
    def over(cls, iterator: Iterator[MicroOp]) -> "TapeReplay":
        """Tape a plain iterator as it is consumed, one micro-op per pull."""
        tape: list[MicroOp] = []
        append = tape.append

        def extend() -> bool:
            mop = next(iterator, None)
            if mop is None:
                return False
            append(mop)
            return True

        return cls(tape, extend)

    def __iter__(self) -> "TapeReplay":
        return self

    def __next__(self) -> MicroOp:
        tape = self.tape
        index = self.index
        if index == len(tape) and not self.extend():
            raise StopIteration
        self.index = index + 1
        return tape[index]


_CACHE: "OrderedDict[tuple, WorkloadArtifacts]" = OrderedDict()


def artifacts_for(
    spec: WorkloadSpec, seed: int, functional_warmup: int
) -> WorkloadArtifacts:
    """The process-wide cached artifacts for one stream identity."""
    key = (spec, seed, functional_warmup)
    artifacts = _CACHE.get(key)
    if artifacts is None:
        artifacts = WorkloadArtifacts(spec, seed, functional_warmup)
        _CACHE[key] = artifacts
    else:
        _CACHE.move_to_end(key)
    while len(_CACHE) > CACHE_ENTRIES:
        _CACHE.popitem(last=False)
    return artifacts


def clear() -> None:
    """Drop every cached artifact (tests and memory-pressure hooks)."""
    _CACHE.clear()
