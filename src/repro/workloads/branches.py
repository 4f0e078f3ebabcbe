"""Branch-behavior models for synthetic workloads.

Two populations of static branches are modeled:

* **loop branches** -- taken for ``trip_count - 1`` iterations, then not
  taken once; a two-bit predictor gets ~``1/trip_count`` of them wrong.
  Floating-point codes are dominated by these with long trip counts.
* **data-dependent branches** -- taken with a per-branch bias; the
  predictor learns the bias, mispredicting at roughly ``min(p, 1-p)``.
  Integer codes carry many weakly biased data branches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cpu.isa import MicroOp, branch as make_branch


@dataclass(frozen=True)
class BranchProfile:
    """Parameterizes branch generation for one workload."""

    frequency: float  #: fraction of all instructions that are branches
    loop_fraction: float  #: share of branch *executions* from loops
    mean_trip_count: int  #: average loop iterations between exits
    data_branch_count: int = 16  #: static data-dependent branch sites
    data_taken_bias: float = 0.7  #: average taken probability
    bias_spread: float = 0.25  #: per-site bias jitter

    def __post_init__(self) -> None:
        if not 0.0 <= self.frequency < 1.0:
            raise ValueError("branch frequency must be in [0, 1)")
        if not 0.0 <= self.loop_fraction <= 1.0:
            raise ValueError("loop_fraction must be a probability")
        if self.mean_trip_count < 2:
            raise ValueError("mean_trip_count must be >= 2")
        if self.data_branch_count < 1:
            raise ValueError("need at least one data branch site")


#: Integer codes: ~1 branch in 6, modest loops, noisy data branches.
INTEGER_BRANCHES = BranchProfile(
    frequency=0.16,
    loop_fraction=0.78,
    mean_trip_count=24,
    data_branch_count=8,
    data_taken_bias=0.93,
    bias_spread=0.03,
)

#: Floating-point codes: rare, highly predictable loop branches.
FLOAT_BRANCHES = BranchProfile(
    frequency=0.04,
    loop_fraction=0.95,
    mean_trip_count=96,
    data_branch_count=4,
    data_taken_bias=0.8,
    bias_spread=0.1,
)

#: Multiprogrammed/OS-heavy codes: branchy, less predictable.
MULTIPROG_BRANCHES = BranchProfile(
    frequency=0.17,
    loop_fraction=0.70,
    mean_trip_count=16,
    data_branch_count=12,
    data_taken_bias=0.90,
    bias_spread=0.05,
)


class BranchModel:
    """Stateful generator of branch micro-ops for one address space."""

    def __init__(
        self,
        profile: BranchProfile,
        rng: random.Random,
        pc_base: int = 0x1000,
    ):
        self.profile = profile
        self._rng = rng
        self._loop_pc = pc_base
        self._loop_left = self._new_trip_count()
        self._data_sites = []
        for i in range(profile.data_branch_count):
            bias = profile.data_taken_bias + rng.uniform(
                -profile.bias_spread, profile.bias_spread
            )
            self._data_sites.append(
                (pc_base + 0x100 + 4 * i, min(0.95, max(0.05, bias)))
            )
        self._site_bits = len(self._data_sites).bit_length()

    def _new_trip_count(self) -> int:
        mean = self.profile.mean_trip_count
        return max(2, int(self._rng.expovariate(1.0 / mean)) + 1)

    def draw(self) -> tuple[int, bool]:
        """The next dynamic branch as ``(pc, taken)``, without building
        the micro-op :meth:`next_branch` wraps it in."""
        rng = self._rng
        if rng.random() < self.profile.loop_fraction:
            self._loop_left -= 1
            if self._loop_left <= 0:
                self._loop_left = self._new_trip_count()
                return self._loop_pc, False
            return self._loop_pc, True
        # ``rng.randrange(len(sites))``, drawn exactly as CPython 3.11's
        # ``_randbelow_with_getrandbits`` draws it.
        sites = self._data_sites
        bits = self._site_bits
        site = rng.getrandbits(bits)
        while site >= len(sites):
            site = rng.getrandbits(bits)
        pc, bias = sites[site]
        return pc, rng.random() < bias

    def next_branch(self, srcs: tuple[int, ...] = ()) -> MicroOp:
        pc, taken = self.draw()
        return make_branch(pc, taken=taken, srcs=srcs)
