"""Perf-regression suite: wall-clock benchmarks with a committed baseline.

Successor to ``bench_engine.py``; one file now measures everything and
emits ``BENCH_repro.json`` at the repo root:

* **engine** -- ``python -m repro all`` serial vs parallel vs warm
  (each once; the speedup and warm fraction are the interesting
  numbers, and the three reports are diffed to prove the engine keeps
  output byte-identical across execution strategies);
* **headline** -- ``python -m repro headlines --jobs 1`` against an
  empty store, repeated ``--repeats`` times (>= 3): the production
  path's wall clock, mean +- stddev;
* **tracing** -- the same run with a full JSONL event trace
  (``REPRO_TRACE``), quantifying what the event stream costs when on;
* **attribution** -- tracing plus ``REPRO_ATTRIBUTION=1``: the
  per-load critical-path accounting must stay within a few percent of
  tracing alone (the <5% acceptance gate);
* **counters** -- the same run with interval counter sampling on
  (``REPRO_COUNTER_INTERVAL``): the per-interval series snapshot must
  stay within 5% of the plain headline run (the counters-off case is
  the headline mode itself -- no sampler is ever installed, so off
  costs nothing by construction);
* **telemetry** -- ``--progress``: live heartbeats and the progress
  display on, gated at <10% over the plain headline run (and the
  headline mode itself proves telemetry *off* costs nothing, since it
  never installs a beacon or hub);
* **spans** -- the telemetry run plus ``--spans-out`` (the sweep-scope
  orchestration span trace): the span recorder rides the telemetry
  mark channel, so its marginal cost over telemetry alone is gated at
  <5%;
* **backend** -- the same headline run on ``--backend fast``: its
  stdout must be byte-identical to every reference run's, and its
  speedup over the headline (reference) mean is gated at >= 3x;
* **scaling** -- the headline sweep on the fast backend at ``--jobs
  1``, ``2`` and ``4`` (each against an empty store, stdout asserted
  byte-identical across all three): the parallel executor's speedup
  and per-core efficiency, plus the host core count so the gate knows
  what the hardware could possibly deliver.

``--check [BASELINE]`` re-measures and compares against the committed
baseline (default: the repo-root ``BENCH_repro.json``), failing with
exit 1 on a >15% wall-clock regression (``--tolerance``), attribution
overhead above 5%, counter-sampling overhead above 5%, telemetry
overhead above 10%, a fast-backend speedup below 3x, or a scaling
failure -- the CI perf job's gates.
The scaling gate is **core-aware**: with >= 2 cores the ``--jobs 2``
speedup must reach 1.5x; on a single core no speedup is physically
possible, so the gate flips to bounding the parallel machinery's
*overhead* (``--jobs 2`` wall <= serial wall x 1.25) instead of
demanding magic.

Usage::

    python benchmarks/bench_suite.py [--jobs N] [--scale S]
        [--repeats K] [--out PATH] [--check [BASELINE]]
        [--tolerance F]

``--scale`` sets ``REPRO_SCALE`` for every run; a baseline only
compares against measurements taken at the same scale and command.
Not a pytest file on purpose: it measures minutes of wall clock.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Payload format version of BENCH_repro.json itself.  Schema 2 moved
#: ``jobs`` into the ``engine`` block (it never applied to the headline
#: modes, which always run ``--jobs 1``) and added the ``backend``
#: mode.  Schema 3 added the ``scaling`` mode (parallel speedup at
#: ``--jobs {1,2,4}`` with the host core count).  Schema 4 added the
#: ``counters`` mode (interval counter sampling overhead).
BENCH_SCHEMA = 4

#: Relative wall-clock regression tolerated before --check fails.
DEFAULT_TOLERANCE = 0.15

#: Attribution may cost at most this much on top of tracing alone.
ATTRIBUTION_GATE = 0.05

#: Interval counter sampling may cost at most this much on top of the
#: plain headline run.
COUNTERS_GATE = 0.05

#: Sampling interval (committed instructions) the counters mode uses.
COUNTERS_INTERVAL = "5000"

#: Live telemetry (heartbeats + the progress display) may cost at most
#: this much on top of the plain headline run.
TELEMETRY_GATE = 0.10

#: Sweep span recording may cost at most this much on top of the
#: telemetry run it piggybacks on.
SPANS_GATE = 0.05

#: The fast backend must beat the reference headline mean by at least
#: this factor (a conservative floor well under the measured speedup,
#: so CI noise does not flake the gate).
BACKEND_SPEEDUP_GATE = 3.0

#: Job counts the scaling mode measures.
SCALING_JOBS = (1, 2, 4)

#: With >= 2 cores, --jobs 2 must beat --jobs 1 by this factor.
SCALING_SPEEDUP_GATE = 1.5

#: On a single core a speedup is impossible; instead the parallel
#: machinery (pool, pickling, dispatch, mark traffic) may cost at most
#: this much on top of the serial wall clock.  Deliberately coarse: two
#: workers time-slicing one core add genuine scheduler overhead, and
#: the gate exists to catch pathological serialization, not noise.
SCALING_OVERHEAD_GATE = 0.25


def _strip_timing(output: str) -> str:
    return "\n".join(
        line for line in output.splitlines() if "regenerated in" not in line
    )


def _env(cache_dir: Path, scale: float, extra: dict[str, str] | None = None):
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_SCALE=str(scale),
    )
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_ATTRIBUTION", None)
    env.pop("REPRO_COUNTER_INTERVAL", None)
    # Every mode times the backend BENCH_repro.json recorded; the
    # backend and scaling legs pick ``fast`` with an explicit flag.
    env["REPRO_BACKEND"] = "reference"
    if extra:
        env.update(extra)
    return env


def _run_all(jobs: int, cache_dir: Path, scale: float) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "all", "--jobs", str(jobs)],
        env=_env(cache_dir, scale),
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repro all --jobs {jobs} exited {proc.returncode}")
    return elapsed, _strip_timing(proc.stdout)


def _run_headlines(
    cache_dir: Path,
    scale: float,
    extra_env: dict[str, str] | None = None,
    extra_args: list[str] | None = None,
    jobs: int = 1,
) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "headlines", "--jobs", str(jobs)]
        + (extra_args or []),
        env=_env(cache_dir, scale, extra_env),
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repro headlines exited {proc.returncode}")
    return elapsed, proc.stdout


def _mode_stats(samples: list[float]) -> dict:
    return {
        "samples": [round(sample, 2) for sample in samples],
        "mean_seconds": round(statistics.fmean(samples), 3),
        "stddev_seconds": round(
            statistics.pstdev(samples) if len(samples) > 1 else 0.0, 3
        ),
    }


def measure(jobs: int, scale: float, repeats: int) -> dict:
    """Run the whole suite; returns the BENCH_repro.json payload."""
    with tempfile.TemporaryDirectory(prefix="bench-repro-") as tmp:
        tmp_path = Path(tmp)
        serial_seconds, serial_report = _run_all(1, tmp_path / "serial", scale)
        parallel_seconds, parallel_report = _run_all(
            jobs, tmp_path / "parallel", scale
        )
        warm_seconds, warm_report = _run_all(1, tmp_path / "parallel", scale)
        if parallel_report != serial_report:
            raise SystemExit("parallel report differs from serial report")
        if warm_report != parallel_report:
            raise SystemExit("warm report differs from cold report")

        headline: list[float] = []
        tracing: list[float] = []
        attribution: list[float] = []
        counters: list[float] = []
        telemetry: list[float] = []
        spanned: list[float] = []
        fast: list[float] = []
        reference_stdout: str | None = None
        for repeat in range(repeats):
            base = tmp_path / f"repeat{repeat}"
            trace_path = base / "events.jsonl.gz"
            elapsed, stdout = _run_headlines(base / "plain", scale)
            headline.append(elapsed)
            if reference_stdout is None:
                reference_stdout = stdout
            elif stdout != reference_stdout:
                raise SystemExit(
                    "headline stdout varies across repeats; the simulated "
                    "numbers are supposed to be deterministic"
                )
            tracing.append(
                _run_headlines(
                    base / "traced",
                    scale,
                    {"REPRO_TRACE": str(trace_path)},
                )[0]
            )
            attribution.append(
                _run_headlines(
                    base / "attributed",
                    scale,
                    {
                        "REPRO_TRACE": str(trace_path),
                        "REPRO_ATTRIBUTION": "1",
                    },
                )[0]
            )
            counters.append(
                _run_headlines(
                    base / "counters",
                    scale,
                    {"REPRO_COUNTER_INTERVAL": COUNTERS_INTERVAL},
                )[0]
            )
            telemetry.append(
                _run_headlines(
                    base / "telemetered",
                    scale,
                    extra_args=["--progress"],
                )[0]
            )
            spanned.append(
                _run_headlines(
                    base / "spanned",
                    scale,
                    extra_args=[
                        "--progress",
                        "--spans-out",
                        str(base / "spans.jsonl.gz"),
                    ],
                )[0]
            )
            elapsed, stdout = _run_headlines(
                base / "fast", scale, extra_args=["--backend", "fast"]
            )
            fast.append(elapsed)
            if stdout != reference_stdout:
                raise SystemExit(
                    "fast backend stdout differs from the reference "
                    "backend's -- backends must be bit-identical"
                )

        scaling_walls: dict[int, float] = {}
        scaling_stdout: str | None = None
        for n in SCALING_JOBS:
            elapsed, stdout = _run_headlines(
                tmp_path / f"scaling-jobs{n}",
                scale,
                extra_args=["--backend", "fast"],
                jobs=n,
            )
            scaling_walls[n] = elapsed
            if scaling_stdout is None:
                scaling_stdout = stdout
            elif stdout != scaling_stdout:
                raise SystemExit(
                    f"--jobs {n} stdout differs from --jobs "
                    f"{SCALING_JOBS[0]} -- parallel execution must be "
                    "bit-identical to serial"
                )

    headline_stats = _mode_stats(headline)
    tracing_stats = _mode_stats(tracing)
    attribution_stats = _mode_stats(attribution)
    counters_stats = _mode_stats(counters)
    counters_stats["interval"] = int(COUNTERS_INTERVAL)
    counters_stats["overhead_vs_headline"] = round(
        counters_stats["mean_seconds"] / headline_stats["mean_seconds"] - 1.0,
        3,
    )
    telemetry_stats = _mode_stats(telemetry)
    spans_stats = _mode_stats(spanned)
    backend_stats = _mode_stats(fast)
    backend_stats["command"] = (
        "python -m repro headlines --jobs 1 --backend fast"
    )
    backend_stats["speedup_vs_reference"] = round(
        headline_stats["mean_seconds"] / backend_stats["mean_seconds"], 2
    )
    backend_stats["outputs_identical"] = True
    telemetry_stats["overhead_vs_headline"] = round(
        telemetry_stats["mean_seconds"] / headline_stats["mean_seconds"] - 1.0,
        3,
    )
    spans_stats["overhead_vs_telemetry"] = round(
        spans_stats["mean_seconds"] / telemetry_stats["mean_seconds"] - 1.0,
        3,
    )
    tracing_stats["overhead_vs_headline"] = round(
        tracing_stats["mean_seconds"] / headline_stats["mean_seconds"] - 1.0, 3
    )
    attribution_stats["overhead_vs_tracing"] = round(
        attribution_stats["mean_seconds"] / tracing_stats["mean_seconds"] - 1.0,
        3,
    )
    cores = os.cpu_count() or 1
    serial_wall = scaling_walls[SCALING_JOBS[0]]
    scaling_stats = {
        "command": "python -m repro headlines --backend fast --jobs N",
        "cores": cores,
        "walls": {
            str(n): round(wall, 2) for n, wall in scaling_walls.items()
        },
        "speedups": {
            str(n): round(serial_wall / scaling_walls[n], 2)
            for n in SCALING_JOBS
        },
        "efficiency": {
            str(n): round(
                (serial_wall / scaling_walls[n]) / min(n, cores), 2
            )
            for n in SCALING_JOBS
        },
        "outputs_identical": True,
    }
    return {
        "schema": BENCH_SCHEMA,
        "command": "python -m repro headlines --jobs 1",
        "scale": scale,
        "repeats": repeats,
        "headline": headline_stats,
        "tracing": tracing_stats,
        "attribution": attribution_stats,
        "counters": counters_stats,
        "telemetry": telemetry_stats,
        "spans": spans_stats,
        "backend": backend_stats,
        "scaling": scaling_stats,
        "engine": {
            "command": f"python -m repro all --jobs {jobs}",
            "jobs": jobs,
            "serial_seconds": round(serial_seconds, 2),
            "parallel_seconds": round(parallel_seconds, 2),
            "warm_seconds": round(warm_seconds, 2),
            "speedup": round(serial_seconds / parallel_seconds, 2),
            "warm_fraction": round(warm_seconds / parallel_seconds, 3),
            "reports_identical": True,
        },
    }


def compare_payloads(
    fresh: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    attribution_gate: float = ATTRIBUTION_GATE,
    counters_gate: float = COUNTERS_GATE,
    telemetry_gate: float = TELEMETRY_GATE,
    spans_gate: float = SPANS_GATE,
    backend_gate: float = BACKEND_SPEEDUP_GATE,
    scaling_gate: float = SCALING_SPEEDUP_GATE,
    scaling_overhead_gate: float = SCALING_OVERHEAD_GATE,
) -> list[str]:
    """Regression check; returns human-readable failures (empty == pass).

    Wall-clock means are compared mode by mode against the baseline
    with a relative ``tolerance``; the attribution-over-tracing and
    telemetry-over-headline overheads, the fast-backend speedup and
    the parallel-scaling gate are absolute properties of the fresh
    run, gated regardless of what the baseline recorded (so a baseline
    from before a mode existed still compares).  The scaling gate uses
    the fresh run's own core count: multi-core hosts must show the
    ``--jobs 2`` speedup, a single-core host must show the parallel
    path costing no more than ``scaling_overhead_gate`` over serial.
    """
    failures: list[str] = []
    for field in ("schema", "scale", "command"):
        if fresh.get(field) != baseline.get(field):
            failures.append(
                f"baseline mismatch: {field} is {baseline.get(field)!r} "
                f"in the baseline but {fresh.get(field)!r} in this run -- "
                "regenerate the baseline with the same parameters"
            )
    if failures:
        return failures
    for mode in ("headline", "tracing", "attribution"):
        fresh_mean = fresh[mode]["mean_seconds"]
        base_mean = baseline[mode]["mean_seconds"]
        limit = base_mean * (1.0 + tolerance)
        if fresh_mean > limit:
            failures.append(
                f"{mode} regressed: {fresh_mean:.2f}s vs baseline "
                f"{base_mean:.2f}s (>{tolerance:.0%} over)"
            )
    overhead = fresh["attribution"]["overhead_vs_tracing"]
    if overhead > attribution_gate:
        failures.append(
            f"attribution overhead {overhead:.1%} vs tracing exceeds "
            f"the {attribution_gate:.0%} gate"
        )
    counters_overhead = fresh.get("counters", {}).get("overhead_vs_headline")
    if counters_overhead is not None and counters_overhead > counters_gate:
        failures.append(
            f"counter-sampling overhead {counters_overhead:.1%} vs headline "
            f"exceeds the {counters_gate:.0%} gate"
        )
    telemetry_overhead = fresh.get("telemetry", {}).get("overhead_vs_headline")
    if telemetry_overhead is not None and telemetry_overhead > telemetry_gate:
        failures.append(
            f"telemetry overhead {telemetry_overhead:.1%} vs headline "
            f"exceeds the {telemetry_gate:.0%} gate"
        )
    spans_overhead = fresh.get("spans", {}).get("overhead_vs_telemetry")
    if spans_overhead is not None and spans_overhead > spans_gate:
        failures.append(
            f"spans overhead {spans_overhead:.1%} vs telemetry exceeds "
            f"the {spans_gate:.0%} gate"
        )
    speedup = fresh.get("backend", {}).get("speedup_vs_reference")
    if speedup is not None and speedup < backend_gate:
        failures.append(
            f"fast backend speedup {speedup:.2f}x over reference is below "
            f"the {backend_gate:.1f}x gate"
        )
    scaling = fresh.get("scaling")
    if scaling:
        cores = scaling.get("cores") or 1
        walls = scaling.get("walls", {})
        serial_wall = walls.get("1")
        jobs2_wall = walls.get("2")
        jobs2_speedup = scaling.get("speedups", {}).get("2")
        if cores >= 2:
            if jobs2_speedup is not None and jobs2_speedup < scaling_gate:
                failures.append(
                    f"--jobs 2 speedup {jobs2_speedup:.2f}x on a "
                    f"{cores}-core host is below the "
                    f"{scaling_gate:.1f}x gate"
                )
        elif serial_wall and jobs2_wall:
            limit = serial_wall * (1.0 + scaling_overhead_gate)
            if jobs2_wall > limit:
                failures.append(
                    f"--jobs 2 wall {jobs2_wall:.2f}s on a single-core "
                    f"host exceeds serial {serial_wall:.2f}s by more "
                    f"than the {scaling_overhead_gate:.0%} overhead gate"
                )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repeats per headline mode (minimum 3 for a stddev worth printing)",
    )
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_repro.json")
    parser.add_argument(
        "--check",
        nargs="?",
        const=str(REPO / "BENCH_repro.json"),
        default=None,
        metavar="BASELINE",
        help=(
            "compare this run against BASELINE (default: the committed "
            "BENCH_repro.json) and exit 1 on regression"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative wall-clock slack for --check (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args()
    if args.repeats < 3:
        parser.error(f"--repeats must be >= 3, got {args.repeats}")

    baseline = None
    if args.check is not None:
        baseline_path = Path(args.check)
        if not baseline_path.exists():
            parser.error(f"baseline {baseline_path} does not exist")
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    payload = measure(args.jobs, args.scale, args.repeats)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))

    if baseline is not None:
        failures = compare_payloads(payload, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf check passed (tolerance {args.tolerance:.0%}, "
            f"attribution gate {ATTRIBUTION_GATE:.0%}, "
            f"counters gate {COUNTERS_GATE:.0%}, "
            f"telemetry gate {TELEMETRY_GATE:.0%}, "
            f"spans gate {SPANS_GATE:.0%}, "
            f"backend gate {BACKEND_SPEEDUP_GATE:.1f}x, "
            f"scaling gate {SCALING_SPEEDUP_GATE:.1f}x on multi-core / "
            f"{SCALING_OVERHEAD_GATE:.0%} overhead on one core)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
