"""Synthetic benchmark trace generation.

A :class:`WorkloadSpec` bundles everything that characterizes one of the
paper's nine benchmarks: instruction mix (Table 2's load/store
percentages), kernel/user split, memory regions (Figure 3's working-set
shape), ILP profile, and branch behavior.  A :class:`WorkloadGenerator`
turns a spec plus a seed into a deterministic infinite micro-op stream.

Operating-system behavior is modeled structurally: execution alternates
between user phases and kernel bursts (with their own address space and
branch sites) in the ratio given by ``kernel_fraction``, and
multiprogrammed workloads round-robin between per-process address
spaces every ``context_switch_interval`` instructions, which is what
gives them their large aggregate working sets.
"""

from __future__ import annotations

import random
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterator

from repro.cpu.isa import MAX_DEP_DISTANCE, MicroOp, Op
from repro.workloads.branches import BranchModel, BranchProfile
from repro.workloads.deps import DependenceTracker, IlpProfile
from repro.workloads.regions import Region, RegionAddressModel

#: Offset between per-process address spaces (and the kernel space).
_SPACE_STRIDE = 1 << 26  # 64 MB
_KERNEL_SPACE_INDEX = 31
#: Length of one kernel burst (system call / interrupt service), instrs.
_KERNEL_BURST = 400
#: Countdown of a phase event that never fires (no kernel, one process).
_NEVER = 1 << 62

_INT_COMPUTE = ((Op.IALU, 0.92), (Op.IMUL, 0.06), (Op.IDIV, 0.02))
_FP_COMPUTE = ((Op.FADD, 0.50), (Op.FMUL, 0.38), (Op.FDIV, 0.10), (Op.FSQRT, 0.02))


@dataclass(frozen=True)
class WorkloadSpec:
    """Full characterization of one synthetic benchmark."""

    name: str
    description: str
    group: str  #: "SPECint95" | "SPECfp95" | "multiprogramming"
    load_fraction: float
    store_fraction: float
    kernel_fraction: float  #: share of *non-idle* time in kernel mode
    idle_fraction: float  #: reported for Table 2; idle is not simulated
    user_regions: tuple[Region, ...]
    kernel_regions: tuple[Region, ...] = ()
    ilp: IlpProfile = field(default=None)  # type: ignore[assignment]
    branches: BranchProfile = field(default=None)  # type: ignore[assignment]
    fp_fraction: float = 0.0  #: share of compute ops that are FP
    processes: int = 1
    context_switch_interval: int = 0  #: 0 = single process, no switching

    def __post_init__(self) -> None:
        if self.ilp is None or self.branches is None:
            raise ValueError(f"{self.name}: ilp and branches profiles required")
        refs = self.load_fraction + self.store_fraction
        if not 0.0 < refs < 0.9:
            raise ValueError(f"{self.name}: implausible reference fraction {refs}")
        if refs + self.branches.frequency >= 1.0:
            raise ValueError(f"{self.name}: mix fractions exceed 1.0")
        if not 0.0 <= self.kernel_fraction < 1.0:
            raise ValueError(f"{self.name}: bad kernel fraction")
        if self.kernel_fraction > 0 and not self.kernel_regions:
            raise ValueError(f"{self.name}: kernel fraction without kernel regions")
        if self.processes < 1:
            raise ValueError(f"{self.name}: need at least one process")
        if self.processes > 1 and self.context_switch_interval <= 0:
            raise ValueError(f"{self.name}: multiprocess needs a switch interval")


class _Space:
    """One address space: memory regions, branch sites, dependence chains."""

    def __init__(
        self,
        regions: tuple[Region, ...],
        branches: BranchProfile,
        ilp: IlpProfile,
        rng: random.Random,
        index: int,
    ):
        self.memory = RegionAddressModel(
            regions, rng, base_offset=index * _SPACE_STRIDE
        )
        self.branches = BranchModel(
            branches, rng, pc_base=0x1000 + index * 0x10000
        )
        self.deps = DependenceTracker(ilp, rng)


class WorkloadGenerator:
    """Deterministic micro-op stream for one (spec, seed) pair."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0):
        self.spec = spec
        # crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), which made "deterministic" streams differ
        # between runs.
        self._rng = random.Random(zlib.crc32(spec.name.encode()) ^ seed)
        self._user_spaces = [
            _Space(spec.user_regions, spec.branches, spec.ilp, self._rng, index)
            for index in range(spec.processes)
        ]
        self._kernel_space = (
            _Space(
                spec.kernel_regions,
                spec.branches,
                spec.ilp,
                self._rng,
                _KERNEL_SPACE_INDEX,
            )
            if spec.kernel_fraction > 0
            else None
        )
        # user run length between kernel bursts preserving kernel_fraction
        if spec.kernel_fraction > 0:
            self._user_run = max(
                1,
                round(_KERNEL_BURST * (1 - spec.kernel_fraction) / spec.kernel_fraction),
            )
        else:
            self._user_run = 0

    def _stretches(self) -> Iterator[tuple[int, bool, _Space]]:
        """One stream's runs of instructions drawn from one address space,
        as ``(length, in_kernel, space)``: kernel bursts alternate with
        user runs (the first one instruction short), and processes take
        turns every ``context_switch_interval``.  Draws no randomness;
        each call starts over in process 0's user phase.
        """
        user_spaces = self._user_spaces
        kernel_space = self._kernel_space
        interval = self.spec.context_switch_interval
        user_run = self._user_run
        # Instructions until each event next fires; an event fires as
        # the first instruction of the stretch that follows it.
        to_toggle = _NEVER if kernel_space is None else user_run - 1
        to_switch = interval - 1 if interval else _NEVER
        in_kernel = False
        process = 0
        space = user_spaces[0]
        while True:
            length = min(to_toggle, to_switch)
            yield length, in_kernel, space
            to_toggle -= length
            to_switch -= length
            if not to_toggle:
                in_kernel = not in_kernel
                to_toggle = _KERNEL_BURST if in_kernel else user_run
            if not to_switch:
                process = (process + 1) % len(user_spaces)
                to_switch = interval
            space = kernel_space if in_kernel else user_spaces[process]

    def instructions(self) -> Iterator[MicroOp]:
        """The infinite instruction stream.

        Every per-stream constant is a local; the current address
        space's draw methods are rebound once per stretch.
        """
        spec = self.spec
        uniform = self._rng.random
        p_load = spec.load_fraction
        p_store = p_load + spec.store_fraction
        p_branch = p_store + spec.branches.frequency
        fp_fraction = spec.fp_fraction
        load, store = Op.LOAD, Op.STORE
        seq = 0  # global dynamic instruction index

        for length, in_kernel, space in self._stretches():
            next_srcs = space.deps.next_srcs
            next_address = space.memory.next_address
            next_branch = space.branches.next_branch
            kernel_fp = 0.0 if in_kernel else fp_fraction
            end = seq + length
            for seq in range(seq, end):
                point = uniform()
                if point < p_load:
                    yield MicroOp(
                        load, next_srcs(seq, address=True), address=next_address()
                    )
                elif point < p_store:
                    yield MicroOp(
                        store, next_srcs(seq, address=True), address=next_address()
                    )
                elif point < p_branch:
                    # Branch conditions resolve quickly in real codes (a
                    # compare of a register already in flight); chain-free
                    # branches keep mispredict resolution realistic instead
                    # of serializing behind the whole chain backlog.
                    yield next_branch(())
                else:
                    table = _FP_COMPUTE if uniform() < kernel_fp else _INT_COMPUTE
                    point = uniform()
                    acc = 0.0
                    for op, weight in table:
                        acc += weight
                        if point < acc:
                            break
                    else:
                        op = table[0][0]
                    yield MicroOp(op, next_srcs(seq))
            seq = end

    def footprint_lines(self, line_bytes: int = 32) -> list[int]:
        """All cache lines the workload's regions span, across every
        address space (processes + kernel).  Feed to
        :meth:`repro.memory.hierarchy.MemorySystem.prefill_backside`.

        Pure span arithmetic over the region layout -- no randomness.
        """
        spaces = list(self._user_spaces)
        if self._kernel_space is not None:
            spaces.append(self._kernel_space)
        lines: list[int] = []
        for space in spaces:
            lines.extend(space.memory.all_lines(line_bytes))
        return lines

    def memory_references(self, instructions: int) -> list[tuple[bool, int]]:
        """The (is_store, address) reference stream of ``instructions``.

        Convenience for functional cache simulations (Figure 3): same
        stream the full trace would produce, already filtered.
        """
        refs: list[tuple[bool, int]] = []
        stream = self.instructions()
        for _ in range(instructions):
            mop = next(stream)
            if mop.is_memory:
                refs.append((mop.op is Op.STORE, mop.address))
        return refs

    def packed_references(self, instructions: int) -> array:
        """:meth:`memory_references`, packed one reference per word.

        Each entry is ``address << 1 | is_store``: an ``array('Q')`` is
        ~10x smaller than the tuple list, which is what lets the fast
        backend's trace cache hold several benchmarks' warm-up streams
        at once.  Makes every RNG draw :meth:`instructions` makes, in
        the same order, so the generator ends in the same state; but it
        builds no micro-op, and most instructions are not references.
        """
        refs = array("Q")
        append = refs.append
        spec = self.spec
        uniform = self._rng.random
        getrandbits = self._rng.getrandbits
        p_load = spec.load_fraction
        p_store = p_load + spec.store_fraction
        p_branch = p_store + spec.branches.frequency
        seq = 0

        for length, _, space in self._stretches():
            # The space's chain state, for the inline source draws below.
            deps = space.deps
            chain_tail = deps._chain_tail
            chains = deps.profile.chains
            chain_bits = deps._chain_bits
            p_join_address = deps.profile.load_address_dep_probability
            p_join_compute = deps.profile.dep_probability
            next_address = space.memory.next_address
            draw_branch = space.branches.draw
            end = min(seq + length, instructions)
            for seq in range(seq, end):
                point = uniform()
                if point < p_store:
                    p_join = p_join_address
                elif point < p_branch:
                    draw_branch()
                    continue
                else:
                    # The compute table and op draws, then the sources.
                    uniform()
                    uniform()
                    p_join = p_join_compute
                # ``DependenceTracker.next_srcs``'s draws, in its order,
                # without building the sources: the chain, the join and,
                # when the chain's tail is in range, the cross-chain one.
                chain = getrandbits(chain_bits)
                while chain >= chains:
                    chain = getrandbits(chain_bits)
                if uniform() < p_join:
                    tail = chain_tail[chain]
                    if tail is not None and 1 <= seq - tail <= MAX_DEP_DISTANCE:
                        uniform()
                chain_tail[chain] = seq
                if point < p_store:
                    append(next_address() << 1 | (point >= p_load))
            if end >= instructions:
                return refs
            seq = end


def trace(spec: WorkloadSpec, seed: int = 0) -> Iterator[MicroOp]:
    """Shorthand: a fresh instruction stream for a spec."""
    return WorkloadGenerator(spec, seed).instructions()
