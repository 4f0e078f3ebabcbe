"""Swappable simulation kernels behind one ``SimulationBackend`` seam.

The cycle loop used to live inline in :mod:`repro.cpu.core`; it is now
a *backend* chosen per run, with two implementations:

* ``fast`` (the default) -- an event-driven loop with dependency
  counting, ready heaps, and precomputed workload artifacts
  (:mod:`repro.kernel.fast`).  It must produce **bit-identical
  results** to ``reference``: same stats, same metrics, same trace
  events.  The parity suite (``tests/engine/test_backends.py``) and a
  CI job enforce that invariant, which is also why the backend name is
  excluded from :class:`~repro.engine.key.ExperimentKey` digests --
  cache entries are shared between backends.
* ``reference`` -- the oracle: the original pure-Python loop, moved
  here verbatim (:mod:`repro.kernel.reference`).  The golden suite
  pins its output.

Selection is the ``REPRO_BACKEND`` environment variable alone
(inherited by pool workers, which is how ``--backend`` reaches parallel
runs); unset or blank means the default, ``fast``.  :func:`use_backend`
scopes a choice by setting and restoring that variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.experiment import ExperimentSettings
    from repro.cpu.core import OutOfOrderCore
    from repro.cpu.isa import MicroOp
    from repro.cpu.result import SimulationResult
    from repro.memory.hierarchy import MemorySystem
    from repro.workloads.generator import WorkloadSpec

#: Environment variable naming the backend for this process and any
#: pool workers it spawns.
BACKEND_ENV = "REPRO_BACKEND"

#: The default backend; also what an empty/unset environment means.
DEFAULT_BACKEND = "fast"

#: Names accepted by :func:`get_backend`, in documentation order.
BACKEND_NAMES = ("reference", "fast")


@runtime_checkable
class SimulationBackend(Protocol):
    """One complete simulation strategy for a design point.

    ``prepare`` performs functional warm-up on ``memory`` and returns
    the timing-phase micro-op stream; ``run`` executes the cycle loop.
    Backends may differ in *how* (caching, event-driven scheduling) but
    never in *what*: every observable output -- statistics, metrics,
    trace events, invariant failures -- must be identical across
    backends for the same inputs.
    """

    name: str

    def prepare(
        self,
        spec: "WorkloadSpec",
        memory: "MemorySystem",
        settings: "ExperimentSettings",
    ) -> Iterator["MicroOp"]: ...

    def run(
        self,
        core: "OutOfOrderCore",
        trace: Iterator["MicroOp"],
        max_instructions: int,
        *,
        warmup_instructions: int = 0,
    ) -> "SimulationResult": ...


_INSTANCES: dict[str, SimulationBackend] = {}


def get_backend(name: str) -> SimulationBackend:
    """The backend registered under ``name`` (instantiated lazily).

    Lazy import keeps ``repro.kernel`` import-cycle-free: the CPU core
    imports this package, and the backend modules import the core.
    """
    normalized = name.strip().lower()
    backend = _INSTANCES.get(normalized)
    if backend is not None:
        return backend
    if normalized == "reference":
        from repro.kernel.reference import ReferenceBackend

        backend = ReferenceBackend()
    elif normalized == "fast":
        from repro.kernel.fast import FastBackend

        backend = FastBackend()
    else:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from: {', '.join(BACKEND_NAMES)}"
        )
    _INSTANCES[normalized] = backend
    return backend


def selected_name() -> str:
    """The backend name the next simulation will use."""
    raw = os.environ.get(BACKEND_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_BACKEND
    return raw.strip().lower()


def active_backend() -> SimulationBackend:
    """Resolve the selected backend (validating the environment value)."""
    return get_backend(selected_name())


@contextmanager
def use_backend(name: str):
    """Scope with ``name`` selected; restores the prior choice on exit.

    Selection is ``REPRO_BACKEND`` itself, so worker processes spawned
    inside the scope inherit the same backend.  Unknown names fail
    immediately rather than at first simulation.
    """
    backend = get_backend(name)
    previous = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = backend.name
    try:
        yield backend
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous
