"""Instruction-level-parallelism profiles: parallel dependence chains.

Section 4.1 hinges on the ILP difference between benchmark classes: the
dynamic superscalar processor hides multi-cycle cache hits well for
floating-point codes ("the large amount of ILP available") and poorly
for integer codes, whose dependence chains run *through* loads.

We model a workload's dataflow as a set of **parallel chains**.  Each
instruction joins one chain and (usually) depends on that chain's
previous instruction -- so a chain containing a load serializes on the
load's latency, exactly the load-use behavior that makes integer codes
sensitive to cache hit time.  The number of live chains sets the ILP
ceiling:

* integer codes: ~3 chains with frequent load-address dependences
  (pointer chasing) -- modest ILP, strong hit-time sensitivity;
* floating-point codes: many independent chains (unrolled vector
  loops), loads addressed by induction variables -- ILP covers the
  issue width and hides multi-cycle hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cpu.isa import MAX_DEP_DISTANCE


@dataclass(frozen=True)
class IlpProfile:
    """Parameterizes dependence-chain generation for one workload."""

    name: str
    chains: int  #: parallel dependence chains (the ILP ceiling)
    dep_probability: float  #: P(a compute/branch op extends its chain)
    cross_chain_probability: float  #: P(second operand from another chain)
    #: P(a load/store's *address* depends on its chain -- pointer chasing;
    #: independent addresses model induction variables).
    load_address_dep_probability: float

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("need at least one chain")
        for name in (
            "dep_probability",
            "cross_chain_probability",
            "load_address_dep_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


#: Tight pointer-chasing chains: typical compiled integer code.
INTEGER_ILP = IlpProfile(
    name="integer",
    chains=3,
    dep_probability=1.0,
    cross_chain_probability=0.10,
    load_address_dep_probability=0.90,
)

#: Many independent strands: vectorizable floating-point loops.
FLOAT_ILP = IlpProfile(
    name="float",
    chains=14,
    dep_probability=0.70,
    cross_chain_probability=0.10,
    load_address_dep_probability=0.05,
)

#: Integer-like with OS noise; slightly fewer usable chains.
MULTIPROG_ILP = IlpProfile(
    name="multiprog",
    chains=4,
    dep_probability=1.0,
    cross_chain_probability=0.10,
    load_address_dep_probability=0.75,
)


class DependenceTracker:
    """Per-address-space chain state; produces source-operand distances.

    Every generated instruction is assigned to a chain and becomes that
    chain's new tail, so later chain members transitively wait on it.
    Distances beyond the ISA's dependence window fall back to
    architectural state (no source) -- this naturally restarts chains
    that have gone cold, e.g. across kernel bursts.
    """

    def __init__(self, profile: IlpProfile, rng: random.Random):
        self.profile = profile
        self._rng = rng
        self._chain_tail: list[int | None] = [None] * profile.chains
        # Bound once: every generated instruction draws through these.
        self._uniform = rng.random
        self._getrandbits = rng.getrandbits
        self._chain_bits = profile.chains.bit_length()

    def next_srcs(self, seq: int, *, address: bool = False) -> tuple[int, ...]:
        """Operand distances for the instruction at *global* index ``seq``.

        Distances are relative to the dynamic instruction stream the CPU
        sees, so ``seq`` must be the global instruction counter (branches,
        kernel bursts, and other address spaces all advance it).
        ``address=True`` uses the pointer-chasing probability (for
        load/store address operands) instead of the compute one.
        :meth:`WorkloadGenerator.packed_references` makes the same draws
        inline; a change here must change it too.
        """
        profile = self.profile
        chains = profile.chains
        uniform = self._uniform
        chain_tail = self._chain_tail
        # ``rng.randrange(chains)``, drawn exactly as CPython 3.11's
        # ``_randbelow_with_getrandbits`` draws it.
        getrandbits = self._getrandbits
        bits = self._chain_bits
        chain = getrandbits(bits)
        while chain >= chains:
            chain = getrandbits(bits)
        join_probability = (
            profile.load_address_dep_probability
            if address
            else profile.dep_probability
        )
        srcs: tuple[int, ...] = ()
        if uniform() < join_probability:
            tail = chain_tail[chain]
            if tail is not None and 1 <= seq - tail <= MAX_DEP_DISTANCE:
                srcs = (seq - tail,)
                if uniform() < profile.cross_chain_probability:
                    other = chain_tail[(chain + 1) % chains]
                    if (
                        other is not None
                        and 1 <= seq - other <= MAX_DEP_DISTANCE
                        and seq - other != srcs[0]
                    ):
                        srcs = (srcs[0], seq - other)
        chain_tail[chain] = seq
        return srcs
