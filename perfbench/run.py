"""Benchmark runner: host cost of ``repro`` sweeps, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload headlines-j1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --write-expected

Every measured command is a fresh ``python -m repro ...`` process (run
through ``boot.py``) against an empty ``REPRO_CACHE_DIR``, one at a
time (a closed loop), for ``--seconds`` seconds.  ``--trace 1`` instead
alternates plain commands with commands under per-layer wrappers.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` design points, and the metrics.  See
``README.md`` beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

#: The seed the committed expected outputs were generated with.
BENCH_SEED = 1
#: ``REPRO_SCALE`` of every command (multiplies every instruction budget).
SCALE = 0.25
#: Timed set-up probes per run (after one untimed warm-up probe).
SETUP_PROBES = 5
#: Fewest timed commands per run, whatever ``--seconds`` says.
MIN_COMMANDS = 3
#: Fewest traced commands per traced run (each paired with a plain one).
TRACED_COMMANDS = 2
#: Largest ``residual_s`` plus ``cli.self_s`` a traced command may leave.
#: Interpreter start-up and exit take about 0.05 s and 0.1 s on a quiet
#: machine, and ``cli.self_s`` about 0.01 s.
RESIDUAL_TOLERANCE_S = 0.5
#: Kill a command (and its workers) that runs longer than this.
COMMAND_TIMEOUT_S = 150
#: Ledger outcomes that count as a failed design point.
FAILED_OUTCOMES = ("gap", "timeout", "recovered")
SIMULATED_OUTCOMES = ("simulated",) + FAILED_OUTCOMES


@dataclass(frozen=True)
class Workload:
    experiment: str
    jobs: int

    def argv(self, seed: int, backend: str = "fast", jobs: int | None = None) -> list[str]:
        return [
            self.experiment,
            "--jobs", str(self.jobs if jobs is None else jobs),
            "--backend", backend,
            "--seed", str(seed),
        ]


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "headlines-j1": Workload("headlines", 1),
    "ablations-j1": Workload("ablations", 1),
    "headlines-j2": Workload("headlines", 2),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


@dataclass
class Command:
    """One finished ``repro`` process and what it left behind."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    probe: dict
    workers: list[dict]
    points: list[dict]

    @property
    def setup_s(self) -> float:
        return self.probe["configured"] - self.probe["spawned"]

    @property
    def simulated(self) -> int:
        return sum(p["outcome"] in SIMULATED_OUTCOMES for p in self.points)

    @property
    def cached(self) -> int:
        return len(self.points) - self.simulated

    @property
    def points_failed(self) -> int:
        return sum(p["outcome"] in FAILED_OUTCOMES for p in self.points)

    @property
    def instructions(self) -> int:
        return sum(p["instructions"] for p in self.points if p["outcome"] == "simulated")


class Runner:
    """Launches commands one at a time inside a work directory."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self._ids = itertools.count()

    def command(self, workload: Workload, mode: str, **argv) -> Command:
        """Run ``repro`` once in a fresh process with an empty store.

        ``os.wait4`` gives the resource use of the whole process tree
        (pool workers are reaped by the command before it exits).
        """
        cwd = self.work / f"{mode}-{next(self._ids)}"
        cwd.mkdir()
        probe = cwd / "probe.json"
        env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHON"))}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_SCALE=str(SCALE),
            REPRO_CACHE_DIR=str(cwd / "store"),
        )
        argv = [sys.executable, str(HERE / "boot.py"), str(probe), mode, "--",
                *workload.argv(self.seed, **argv)]
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=env, cwd=cwd, start_new_session=True
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the command down too
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - spawned
        # Reaped by wait4, so tell Popen it is done.
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # strays of a crashed command, if any
        stdout = (cwd / "stdout").read_text()
        if not probe.exists() or code not in (0, 3):
            tail = (cwd / "stderr").read_text().strip().splitlines()[-3:]
            raise BenchError(f"{' '.join(argv[5:])} exited {code}: {' | '.join(tail)}")
        record = json.loads(probe.read_text())
        record["spawned"] = spawned
        workers = [json.loads(p.read_text()) for p in sorted(cwd.glob("probe.json.*"))]
        ledger = cwd / "store" / "runs.jsonl"
        points = []
        if ledger.exists():
            for line in ledger.read_text().splitlines():
                points.extend(json.loads(line)["points"])
        shutil.rmtree(cwd)
        return Command(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=code,
            stdout=stdout,
            probe=record,
            workers=workers,
            points=points,
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def expected_output(workload: Workload, seed: int) -> str | None:
    path = EXPECTED / f"{workload.experiment}-seed{seed}.txt"
    return path.read_text() if path.exists() else None


class Checker:
    """Compares every command's stdout with a reference output."""

    def __init__(self, reference: str | None):
        self.reference = reference
        #: False on a held-out seed, where the first command's output
        #: becomes the reference every later command must repeat.
        self.committed = reference is not None
        self.attempted = 0
        self.failed = 0

    def check(self, command: Command) -> None:
        if self.reference is None:
            self.reference = command.stdout  # held-out seed: all runs must agree
        self.attempted += len(command.points)
        self.failed += command.points_failed
        if command.stdout != self.reference or command.code != 0:
            self.failed += 1
            print(f"perfbench: output mismatch (exit {command.code})", file=sys.stderr)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(runner: Runner, workload: Workload) -> None:
    """Compile bytecode and fill the page cache before anything is timed."""
    runner.command(workload, "setup")


def timed_commands(runner: Runner, workload: Workload, seconds: float, checker: Checker,
                   modes: tuple[str, ...] = ("run",), least: int = MIN_COMMANDS) -> list[Command]:
    """A closed loop: the next command starts when the previous one ends.

    ``modes`` repeat in turn.  A round starts only while a typical round
    still fits before the deadline, so a run lasts ``seconds`` give or
    take one round, and at least ``least`` rounds run.
    """
    deadline = time.monotonic() + seconds
    done: list[Command] = []
    while len(done) < least * len(modes) or (
        time.monotonic() + statistics.median(c.wall_s for c in done) * len(modes) <= deadline
    ):
        for mode in modes:
            command = runner.command(workload, mode)
            checker.check(command)
            done.append(command)
    return done


def check_jobs(runner: Runner, workload: Workload, checker: Checker) -> None:
    """On a held-out seed, the sweep must print the same at ``--jobs 1`` and 2.

    One untimed command at the other jobs count.  On the bench seed the
    committed output, confirmed at both counts, already checks this.
    """
    if not checker.committed:
        checker.check(runner.command(workload, "run", jobs=2 if workload.jobs == 1 else 1))


def measure(runner: Runner, workload: Workload, seconds: float, checker: Checker) -> dict:
    warm_up(runner, workload)
    setups = [runner.command(workload, "setup").setup_s for _ in range(SETUP_PROBES)]
    commands = timed_commands(runner, workload, seconds, checker)
    setups += [c.setup_s for c in commands]
    print("perfbench: walls " + " ".join(f"{c.wall_s:.3f}" for c in commands)
          + " setups " + " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)
    check_jobs(runner, workload, checker)
    # Within a run, commands and set-up samples fall into a fast and a
    # slow cluster.  A median jumps between them as their shares cross
    # one half; the fastest sample stays in the fast one.
    return {
        "wall_s": _metric(min(c.wall_s for c in commands), "s"),
        "cpu_s": _metric(min(c.cpu_s for c in commands), "s"),
        "peak_rss_mb": _metric(statistics.median(c.rss_mb for c in commands), "MB"),
        "setup_s": _metric(min(setups), "s"),
        "sim_kips": _metric(
            max(c.instructions / (c.wall_s - c.setup_s) / 1e3 for c in commands),
            "kinstr/s",
        ),
    }


#: Counts that depend only on the simulated design points.  On a pool,
#: which worker generates a stream or restores a memoized warm state
#: depends on scheduling, so the generation and memo counts are exact
#: only for serial workloads.
EXACT_COUNTS = ("kernel.sim_instr", "kernel.sim_cycles", "memory.accesses",
                "robustness.tap_calls", "engine.points", "engine.points_cached")
SERIAL_EXACT_COUNTS = ("workloads.uops", "kernel.prepare_calls", "kernel.memo_hits")


def layer_metrics(command: Command, jobs: int) -> dict:
    """Per-layer numbers of one traced command, summed over its processes."""
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in (command.probe, *command.workers):
        for layer, seconds in record["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, n in record["counts"].items():
            counts[name] = counts.get(name, 0) + n
    parent = command.probe
    parent_self = sum(parent["self_s"].values())
    busy = sum(p["seconds"] or 0.0 for p in command.points)
    run_s = self_s["kernel.run"]
    values = {
        "workloads.gen_s": (self_s["workloads"], "s"),
        "workloads.uops": (counts.get("workloads.uops", 0), "count"),
        "kernel.prepare_s": (self_s["kernel.prepare"], "s"),
        "kernel.prepare_calls": (counts.get("kernel.prepare_calls", 0), "count"),
        "kernel.memo_hits": (counts.get("kernel.memo_hits", 0), "count"),
        "kernel.memo_hit_ratio": (
            counts.get("kernel.memo_hits", 0) / max(1, counts.get("kernel.prepare_calls", 0)),
            "ratio",
        ),
        "kernel.run_s": (run_s, "s"),
        "kernel.ns_per_instr": (run_s * 1e9 / max(1, counts.get("kernel.sim_instr", 0)), "ns"),
        "kernel.sim_instr": (counts.get("kernel.sim_instr", 0), "count"),
        "kernel.sim_cycles": (counts.get("kernel.sim_cycles", 0), "count"),
        "memory.access_s": (self_s["memory"], "s"),
        "memory.accesses": (counts.get("memory.accesses", 0), "count"),
        "robustness.tap_s": (self_s["robustness"], "s"),
        "robustness.tap_calls": (counts.get("robustness.tap_calls", 0), "count"),
        "engine.store_s": (self_s["engine.store"], "s"),
        "engine.plan_s": (self_s["engine.plan"], "s"),
        "engine.exec_s": (self_s["engine.exec"], "s"),
        "engine.points": (command.simulated, "count"),
        "engine.points_cached": (command.cached, "count"),
        "engine.worker_busy_frac": (busy / (jobs * parent["execute_s"]), "ratio"),
        "cli.import_s": (parent["import_s"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        # The tracer's own set-up: wrapping imports modules a plain run
        # would import later, inside the layers.
        "trace.install_s": (parent["install_s"], "s"),
        # Start-up and exit of the interpreter: the time no layer owns.
        "residual_s": (
            command.wall_s - parent["import_s"] - parent["install_s"] - parent_self, "s"
        ),
        "trace.wall_s": (command.wall_s, "s"),
    }
    return values


def measure_traced(runner: Runner, workload: Workload, seconds: float, checker: Checker) -> dict:
    warm_up(runner, workload)
    # Traced and plain commands alternate, so drift in host speed moves
    # both sides of ``trace.overhead`` alike.
    commands = timed_commands(runner, workload, seconds, checker, ("trace", "run"),
                              least=TRACED_COMMANDS)
    traced, plain = commands[0::2], commands[1::2]
    layers = [layer_metrics(command, workload.jobs) for command in traced]
    exact = EXACT_COUNTS + (SERIAL_EXACT_COUNTS if workload.jobs == 1 else ())
    for name in exact:
        if len({values[name][0] for values in layers}) != 1:
            checker.failed += 1
            print(f"perfbench: {name} differs between traced runs", file=sys.stderr)
    for values in layers:
        # ``cli.main`` takes in whatever no other wrapper claims, so a
        # seam that escapes its wrapper shows in ``cli.self_s``: it counts
        # against the tolerance with the residual.
        residual, wall = values["residual_s"][0], values["trace.wall_s"][0]
        unclaimed = residual + values["cli.self_s"][0]
        if residual < 0.0 or unclaimed > RESIDUAL_TOLERANCE_S:
            checker.failed += 1
            print(f"perfbench: residual {residual:.3f}s + cli {unclaimed - residual:.3f}s"
                  f" of {wall:.3f}s", file=sys.stderr)
    check_jobs(runner, workload, checker)
    # A count reports a value one traced command really produced.
    metrics = {
        name: _metric(
            (statistics.median_low if unit == "count" else statistics.median)(
                v[name][0] for v in layers
            ),
            unit,
        )
        for name, (_, unit) in layers[0].items()
    }
    baseline = statistics.median(c.wall_s for c in plain)
    metrics["trace.overhead"] = _metric(metrics["trace.wall_s"]["value"] / baseline - 1, "ratio")
    return metrics


def write_expected(work: Path) -> int:
    """Regenerate ``expected/`` at the bench seed; reference must equal fast."""
    EXPECTED.mkdir(exist_ok=True)
    runner = Runner(work, BENCH_SEED)
    for experiment in sorted({w.experiment for w in WORKLOADS.values()}):
        workload = Workload(experiment, 1)
        oracle = runner.command(workload, "run", backend="reference")
        if oracle.code != 0 or oracle.points_failed:
            raise BenchError(f"{experiment}: reference run failed")
        for jobs in (1, 2):
            fast = runner.command(workload, "run", jobs=jobs)
            if fast.stdout != oracle.stdout:
                raise BenchError(f"{experiment} --jobs {jobs}: fast differs from reference")
        (EXPECTED / f"{experiment}-seed{BENCH_SEED}.txt").write_text(oracle.stdout)
        print(f"{experiment}: reference == fast, {len(oracle.points)} points", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the command it is waiting on and the
    # work directory go with it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    workroot = ROOT / ".perfbench-work"
    workroot.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=workroot))
    try:
        if args.write_expected:
            return write_expected(work)
        workload = WORKLOADS[args.workload]
        runner = Runner(work, args.seed)
        checker = Checker(expected_output(workload, args.seed))
        measure_run = measure_traced if args.trace else measure
        metrics = measure_run(runner, workload, args.seconds, checker)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run is using it
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
