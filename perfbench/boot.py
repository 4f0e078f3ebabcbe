"""Run one ``repro`` command in this process and report how it went.

Usage::

    python boot.py PROBE.json MODE -- <repro arguments>

``MODE`` is one of:

* ``run``   -- run the command as ``python -m repro`` would and record
  the moment the engine was first configured (the end of set-up);
* ``setup`` -- stop right there, so the process measures set-up alone;
* ``trace`` -- as ``run``, with timing wrappers installed around each
  layer's public seams (see :class:`LayerClock`).

The record goes to ``PROBE.json`` when the process ends.  In ``trace``
mode, worker processes forked by ``--jobs N`` write their own records
next to it as ``PROBE.json.<pid>`` after every chunk they finish.

Timestamps are ``time.monotonic()``, which is system-wide on Linux, so
``run.py`` can subtract its own spawn time from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class _Setup(BaseException):
    """Raised at the end of set-up in ``setup`` mode; unwinds ``main``."""


class LayerClock:
    """Self time and call counts per layer, kept by wrappers.

    A wrapped call's self time is its duration minus the durations of
    wrapped calls nested inside it, so the layers' self times add up to
    the outermost wrapped call's duration with nothing counted twice.
    """

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Summed wall seconds of ``ExecutionPlan.execute`` calls.
        self.execute_s = 0.0
        # One child-time accumulator per open wrapped call; slot 0 sums
        # the durations of top-level calls.
        self._stack = [0.0]

    def reset(self) -> None:
        """Start from zero (a forked worker must not report its parent's)."""
        self.self_s.update(dict.fromkeys(self.self_s, 0.0))
        self.counts.clear()
        self.execute_s = 0.0
        del self._stack[1:]
        self._stack[0] = 0.0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer: str, fn, count: str | None = None, after=None):
        """``fn`` timed into ``layer``; ``after(result, elapsed)`` if given."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        self_s.setdefault(layer, 0.0)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
            if count is not None:
                self.count(count)
            if after is not None:
                after(result, elapsed)
            return result

        return timed

    def wrap_stream(self, layer: str, method, count: str):
        """A generator method whose every ``next`` is timed into ``layer``."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        counts = self.counts
        self_s.setdefault(layer, 0.0)

        @functools.wraps(method)
        def timed_stream(*args, **kwargs):
            stream = method(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    self_s[layer] += elapsed - stack.pop()
                    stack[-1] += elapsed
                counts[count] = counts.get(count, 0) + 1
                yield item

        return timed_stream

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "execute_s": self.execute_s,
        }


def install_layer_clock(clock: LayerClock, probe: str) -> None:
    """Wrap the seams each ``repro`` layer exposes.

    Module-level functions are patched in every module that imported
    them by name, because those modules look the name up in their own
    globals.  Must run before the first simulation: port arbiters bind
    ``GrantLedger.tap`` when they are built.
    """
    from repro import cli
    from repro.engine import checkpoint, dispatch, executor, ledger, store
    from repro.kernel import fast
    from repro.memory import backside, dram_cache, hierarchy
    from repro.robustness import invariants
    from repro.workloads import generator

    wrap = clock.wrap

    def patch(owner, name: str, layer: str, **options) -> None:
        setattr(owner, name, wrap(layer, getattr(owner, name), **options))

    # workloads: stream generation (the warm-up streams pull micro-ops
    # through ``instructions()`` too, so every generated op is counted).
    gen = generator.WorkloadGenerator
    for name in ("packed_references", "footprint_lines", "memory_references"):
        patch(gen, name, "workloads")
    gen.instructions = clock.wrap_stream("workloads", gen.instructions, "workloads.uops")

    # kernel: warm-up replay or memo restore, then the measured loop.
    def ran(result, elapsed):
        clock.count("kernel.sim_instr", result.instructions)
        clock.count("kernel.sim_cycles", result.cycles)

    patch(fast.FastBackend, "prepare", "kernel.prepare", count="kernel.prepare_calls")
    patch(fast.FastBackend, "run", "kernel.run", after=ran)
    patch(fast, "_restore_warm_state", "kernel.prepare", count="kernel.memo_hits")

    # memory: every demand access of the measured window.
    for name in ("load", "store"):
        patch(hierarchy.MemorySystem, name, "memory", count="memory.accesses")

    # robustness: the always-on checks (counted) and the event-channel
    # taps that call them (timed).
    patch(invariants.GrantLedger, "record", "robustness", count="robustness.tap_calls")
    patch(invariants.GrantLedger, "tap", "robustness")
    patch(invariants, "check_causality", "robustness", count="robustness.tap_calls")
    patch(invariants, "bus_causality_tap", "robustness")
    for module in (backside, dram_cache):
        module.bus_causality_tap = invariants.bus_causality_tap
    patch(invariants, "audit_memory", "robustness", count="robustness.tap_calls")
    hierarchy.audit_memory = invariants.audit_memory

    # engine: persistence, planning and pricing, and the batch itself.
    patch(store.ResultStore, "load", "engine.store")
    patch(store.ResultStore, "save", "engine.store")
    patch(ledger.RunLedger, "append", "engine.store")
    patch(checkpoint.SweepCheckpoint, "begin", "engine.store")
    patch(checkpoint.SweepCheckpoint, "mark", "engine.store")
    patch(dispatch, "plan_chunks", "engine.plan")
    cost = dispatch.CostModel
    cost.for_engine = classmethod(wrap("engine.plan", cost.for_engine.__func__))
    patch(cost, "estimate", "engine.plan")
    patch(executor.ExecutionPlan, "add", "engine.plan")
    patch(executor.ExecutionPlan, "add_key", "engine.plan")

    def executed(result, elapsed):
        clock.execute_s += elapsed

    patch(executor.ExecutionPlan, "execute", "engine.exec", after=executed)

    # Pool workers (fork) inherit the wrappers; each chunk is a
    # top-level call there, and the worker reports after every chunk.
    def chunk_done(result, elapsed):
        with open(f"{probe}.{os.getpid()}", "w") as out:
            json.dump(clock.snapshot(), out)

    patch(executor, "run_chunk_payload", "engine.exec", after=chunk_done)
    os.register_at_fork(after_in_child=clock.reset)

    # cli: everything inside ``main`` that no other layer claims.
    patch(cli, "main", "cli")


def main(argv: list[str]) -> int:
    probe, mode = argv[0], argv[1]
    if mode not in ("run", "setup", "trace") or argv[2] != "--":
        raise SystemExit(f"usage: boot.py PROBE MODE -- ARGS (got {argv[:3]})")
    record: dict = {}
    started = time.monotonic()
    import repro.cli as cli

    record["import_s"] = time.monotonic() - started
    configure_engine = cli.configure_engine

    def configure_once(*args, **kwargs):
        if "configured" not in record:
            record["configured"] = time.monotonic()
            if mode == "setup":
                raise _Setup
        return configure_engine(*args, **kwargs)

    cli.configure_engine = configure_once
    clock = None
    if mode == "trace":
        clock = LayerClock()
        installing = time.monotonic()
        install_layer_clock(clock, probe)
        record["install_s"] = time.monotonic() - installing
    code = 0
    try:
        code = cli.main(argv[3:])
    except _Setup:
        pass
    finally:
        if clock is not None:
            record.update(clock.snapshot())
        with open(probe, "w") as out:
            json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
