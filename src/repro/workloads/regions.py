"""Address-region mixture models for synthetic workloads.

We cannot run SPEC95 binaries under SimOS, so each benchmark's memory
behavior is modeled as a weighted mixture of *regions*, each with a size
and an access pattern.  The three patterns cover the behaviors the paper
distinguishes in section 4 (Figure 3):

* ``sequential`` -- unit-stride sweeps over an array, wrapping around.
  Streaming through arrays much larger than the cache misses once per
  line; once the cache holds the whole array the sweeps hit.  Mixtures
  of a few large arrays give the floating-point benchmarks' "radical
  drops in miss rates at specific cache sizes".
* ``hot`` -- references concentrated on a hot subset of the region with
  a uniform cold tail.  Mixtures of nested hot regions give the integer
  benchmarks' incremental miss-rate decline.
* ``random`` -- uniform references over the region (hash tables, heaps).

Region base addresses are laid out non-overlapping inside an address
space; multiprogrammed workloads instantiate one space per process at
disjoint offsets plus a shared kernel space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_PATTERNS = ("sequential", "hot", "random")

#: Guard gap between regions so strided sweeps never cross regions.
_REGION_ALIGN = 4096


@dataclass(frozen=True)
class Region:
    """One component of a workload's memory footprint."""

    name: str
    size_bytes: int
    weight: float  #: share of data references landing in this region
    pattern: str = "hot"
    stride: int = 8  #: bytes between consecutive sequential accesses
    hot_fraction: float = 0.1  #: leading fraction forming the hot subset
    hot_weight: float = 0.9  #: probability a reference stays hot
    #: mean references per spatial burst (hot/random patterns): a burst
    #: stays within one cache line, modeling field/stack-slot locality.
    burst_mean: float = 6.0

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.burst_mean < 1.0:
            raise ValueError("burst_mean must be >= 1")
        if self.size_bytes <= 0:
            raise ValueError(f"region size must be positive: {self.size_bytes}")
        if self.weight < 0:
            raise ValueError(f"region weight must be >= 0: {self.weight}")
        if self.pattern == "sequential" and self.stride <= 0:
            raise ValueError("sequential regions need a positive stride")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError("hot_weight must be in [0, 1]")


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class RegionAddressModel:
    """Draws data addresses from a mixture of regions.

    Deterministic given the ``random.Random`` instance supplied; all of
    a workload's randomness flows from one seeded generator.
    """

    def __init__(
        self,
        regions: tuple[Region, ...],
        rng: random.Random,
        base_offset: int = 0,
    ):
        if not regions:
            raise ValueError("need at least one region")
        total = sum(region.weight for region in regions)
        if total <= 0:
            raise ValueError("region weights must sum to a positive value")
        self.regions = regions
        self._rng = rng
        # Cumulative weights for fast mixture sampling.
        self._cumulative: list[float] = []
        acc = 0.0
        for region in regions:
            acc += region.weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0
        # Non-overlapping placement.
        self._bases: list[int] = []
        cursor = base_offset
        for region in regions:
            cursor = _align(cursor, _REGION_ALIGN)
            self._bases.append(cursor)
            cursor += _align(region.size_bytes, _REGION_ALIGN)
        self.footprint_bytes = cursor - base_offset
        self._cursors = [0] * len(regions)  # sequential sweep positions
        # Spatial-burst state per region: (references left, line base).
        self._burst_left = [0] * len(regions)
        self._burst_base = [0] * len(regions)

    def next_address(self) -> int:
        """One data address, 8-byte aligned.

        The two ``randrange(0, limit, 8)`` draws are made inline, with
        the same ``getrandbits`` calls CPython 3.11's
        ``_randbelow_with_getrandbits`` makes for ``n = ceil(limit / 8)``
        slots: ``n.bit_length()`` bits a draw, redrawn while ``>= n``.
        """
        rng = self._rng
        point = rng.random()
        # Linear scan: region lists are short (< 10 entries).
        for index, bound in enumerate(self._cumulative):
            if point <= bound:
                break
        else:  # pragma: no cover - fp safety
            index = len(self._cumulative) - 1
        region = self.regions[index]
        base = self._bases[index]
        if region.pattern == "sequential":
            offset = self._cursors[index]
            self._cursors[index] = (offset + region.stride) % region.size_bytes
            return (base + offset) & ~7
        # hot/random: spatial bursts that stay within one 32 B line.
        getrandbits = rng.getrandbits
        if self._burst_left[index] > 0:
            self._burst_left[index] -= 1
            slot = getrandbits(3)  # randrange(0, 32, 8): n = 4
            while slot >= 4:
                slot = getrandbits(3)
            offset = self._burst_base[index] + 8 * slot
        else:
            if region.pattern == "hot" and rng.random() < region.hot_weight:
                limit = max(32, int(region.size_bytes * region.hot_fraction))
            else:
                limit = region.size_bytes
            slots = (limit + 7) // 8
            bits = slots.bit_length()
            slot = getrandbits(bits)
            while slot >= slots:
                slot = getrandbits(bits)
            offset = (8 * slot) & ~31  # line aligned
            self._burst_base[index] = offset
            self._burst_left[index] = max(
                0, int(rng.expovariate(1.0 / region.burst_mean))
            )
        return (base + offset) & ~7

    def all_lines(self, line_bytes: int = 32) -> list[int]:
        """Every cache line this model can ever touch (footprint lines),
        region by region in ascending order.

        Used to pre-fill second-level state to its long-run steady
        state before a short measured simulation window.
        """
        lines: list[int] = []
        for region, base in zip(self.regions, self._bases):
            last = (base + region.size_bytes - 1) // line_bytes
            lines.extend(range(base // line_bytes, last + 1))
        return lines

    def total_weight_footprint(self) -> int:
        """Weighted working-set size estimate in bytes."""
        total = sum(r.weight for r in self.regions)
        return int(
            sum(r.size_bytes * (r.weight / total) for r in self.regions)
        )
