"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro figure1
    python -m repro figure4 --benchmarks gcc tomcatv
    python -m repro figure9 --instructions 20000
    python -m repro headlines --jobs 4
    python -m repro headlines --backend reference
    python -m repro figure8 --jobs 4 --progress
    python -m repro all
    python -m repro figure4 --jobs 2 --point-timeout 120
    python -m repro cache info
    python -m repro cache clear
    python -m repro cache verify
    python -m repro runs resume last
    python -m repro trace gcc --trace-out gcc.jsonl.gz
    python -m repro trace gcc --format chrome
    python -m repro trace --from-jsonl gcc.jsonl.gz --format chrome
    python -m repro metrics gcc
    python -m repro metrics gcc --format json
    python -m repro counters gcc
    python -m repro counters gcc --interval 500 --format csv
    python -m repro counters gcc --format chrome
    python -m repro compare gcc --a banked-2 --b dual-ported
    python -m repro diagnose tomcatv
    python -m repro diagnose tomcatv --from-counters
    python -m repro runs list
    python -m repro runs show last
    python -m repro runs compare
    python -m repro figure4 --jobs 4 --spans-out sweep.jsonl.gz
    python -m repro spans last
    python -m repro spans --from-jsonl sweep.jsonl.gz --format chrome

Each verb is its own sub-parser and takes only the flags it reads
(``python -m repro <verb> --help`` lists them); a flag on the wrong
verb or an out-of-range number is a usage error before anything runs.

Instruction budgets can also be scaled globally with ``REPRO_SCALE``
(a multiplier) or pinned with ``REPRO_INSTRUCTIONS`` (absolute measured
count).  ``--backend {reference,fast}`` (or ``REPRO_BACKEND``) selects
the simulation kernel.  The default, ``fast``, is event-driven;
``reference`` is the slower oracle loop it is checked against.  Backends
are bit-identical in output, so this is purely a speed knob and cached
results are shared between them.
Results persist in ``.repro-cache/`` (override with ``--cache-dir`` or
``REPRO_CACHE_DIR``; disable with ``--no-cache``), so a second run of
the same figures is nearly free.

Observability: ``trace <benchmark>`` records the full event stream of
one simulation of the paper's recommended organization (``--format
chrome`` writes Chrome trace-event JSON for Perfetto instead of JSONL;
``--from-jsonl`` converts an existing trace offline); ``metrics
[benchmark]`` prints every named counter of that design point;
``counters <benchmark>`` samples the microarchitectural counter set
every ``--interval`` committed instructions (or
``REPRO_COUNTER_INTERVAL``) and prints the per-phase time series with
sparklines (``--format json|csv`` for the raw series; ``--format
chrome`` merges Perfetto counter tracks into the simulation trace
export); ``compare <benchmark> --a <org> --b <org>`` runs two design
points with sampling on, aligns their series on the instruction axis,
ranks the divergent intervals, and prints a paper-style verdict;
``diagnose <benchmark>`` runs the Figure 4-7 design points with
latency attribution and ranks each one's stall sources
(``--from-counters`` adds each point's worst sampled interval to the
narrative).  What a run observes is part of its design point, so these
verbs use the result store like the figures (stored apart from plain
results); ``trace`` and ``counters --format chrome`` watch a live run
and skip it.  Setting ``REPRO_TRACE=<path>``
streams every event of any command to ``<path>`` as JSON lines
(gzipped when the path ends in ``.gz``); only simulations in the
calling process are traced, so trace a sweep with ``--jobs 1``::

    REPRO_TRACE=run.jsonl.gz python -m repro figure4 --jobs 1

``--attribution`` adds exact per-load critical-path metrics to
trace/metrics runs.

Live telemetry: during any figure/sweep run, ``--progress`` renders a
live per-point status display with ETA on stderr (auto-enabled on a
TTY; ``--no-progress`` forces it off) and closes with a one-line
``sweep finished:`` recap.  Every ``execute()`` against the persistent
store also appends a record to the run ledger
(``.repro-cache/runs.jsonl``); ``runs list`` shows the history,
``runs show [ref]`` one record, and ``runs compare [a] [b]`` diffs two
runs' per-point metrics, flagging any drift beyond ``--rel-tol``
(default 0.0 -- the golden suite's exact-agreement bar).

Sweep spans: ``--spans-out PATH`` (or ``REPRO_SPANS=PATH``) records a
hierarchical span trace of the *orchestration* -- plan lookup, cost
pricing, chunk packing, queue wait, per-point worker execution,
absorption, store writes, ledger append -- as JSONL (gzipped for
``.gz`` paths).  ``repro spans [ref]`` resolves a recorded run through
the ledger (default ``last``) and prints its critical path with a
speedup verdict; ``--format json`` emits the full analysis,
``--format chrome`` writes Perfetto-loadable orchestration tracks
(one per worker), and ``--from-jsonl`` analyzes a span file offline.

Crash safety: every sweep keeps a checkpoint next to the store; SIGINT/
SIGTERM finish in-flight points, flush checkpoint and ledger, and exit
with code 4.  Rerunning the same command, or ``repro runs resume
[ref]``, continues the sweep: finished points are store hits, so only
what is missing re-executes and output stays byte-identical to an
uninterrupted run.  ``--point-timeout SECONDS``
bounds each design point's wall clock (also via
``REPRO_POINT_TIMEOUT``): an overrunning point is cancelled and
recorded as a ``timeout`` gap instead of hanging the sweep.  ``cache
verify`` scans the store and ledger for torn/corrupt/mis-stamped
entries and quarantines them under ``.repro-cache/quarantine/``.

Exit codes: 0 -- everything regenerated cleanly; 2 -- usage error, or
nothing to act on; 3 -- finished, but with gaps, failures, or drift;
4 -- interrupted, resumable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager

from repro.core import ExperimentSettings, figures
from repro.core.experiment import Observe
from repro.core import reporting
from repro.engine.executor import configure_engine, get_engine
from repro.engine.store import ResultStore
from repro.observability import trace as obs_trace
from repro.robustness.runner import resilient_sweeps
from repro.workloads.catalog import BENCHMARKS, REPRESENTATIVES

EXPERIMENTS = (
    "figure1",
    "figure2",
    "table1",
    "table2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "headlines",
    "ablations",
)

#: Exit code for a gracefully interrupted, resumable run (0 = clean,
#: 3 = finished with gaps/failures/drift).
EXIT_INTERRUPTED = 4


@contextmanager
def _exported(name: str, value) -> Iterator[None]:
    """Set environment variable ``name`` to ``value`` for the scope.

    Pool workers inherit the environment, so this is how sweep settings
    reach them without protocol changes.  The previous value is
    restored on exit (tests call ``main()`` in-process); ``None`` leaves
    the environment alone.
    """
    if value is None:
        yield
        return
    previous = os.environ.get(name)
    os.environ[name] = str(value)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


@contextmanager
def _point_engine(store: ResultStore | None) -> Iterator[None]:
    """The engine at one job with ``store`` for an observing verb;
    restores the previous configuration on exit."""
    previous = configure_engine(jobs=1, store=store)
    try:
        yield
    finally:
        configure_engine(jobs=previous[0], store=previous[1])


@contextmanager
def _sweep_scope(args: argparse.Namespace, store: ResultStore | None):
    """Everything a sweep runs inside; yields the failure log.

    Shared by the experiment verbs and ``runs resume``: orchestration
    spans when ``--spans-out``/``REPRO_SPANS`` ask (the closing status
    line goes to stderr, so stdout stays byte-identical with spans on or
    off), the engine configured with ``--jobs`` and ``store``, the
    ``--point-timeout`` deadline, graceful SIGINT/SIGTERM, live
    telemetry, and the resilient-sweep failure log.  The persistent
    worker pool lives for the whole scope (reused across figures) and
    is torn down before the engine is handed back.
    """
    from repro.observability import spans as obs_spans
    from repro.observability.telemetry import sweep_telemetry
    from repro.robustness.deadline import POINT_TIMEOUT_ENV
    from repro.robustness.shutdown import ShutdownController

    spans_path = args.spans_out or os.environ.get(obs_spans.SPANS_ENV)
    with ExitStack() as stack:
        if spans_path:
            recorder = stack.enter_context(obs_spans.collecting(spans_path))
        previous = configure_engine(jobs=args.jobs, store=store)
        try:
            with (
                _exported(POINT_TIMEOUT_ENV, args.point_timeout),
                ShutdownController(),
                sweep_telemetry(progress=args.progress),
                resilient_sweeps() as log,
            ):
                yield log
        finally:
            get_engine().shutdown_pool()
            configure_engine(jobs=previous[0], store=previous[1])
    if spans_path:
        print(
            f"[spans: {recorder.recorded} span(s) -> {spans_path}]",
            file=sys.stderr,
        )


#: Default measured instructions per design point.
DEFAULT_INSTRUCTIONS = 12_000

#: Default measured instructions for the headline numbers: they are the
#: quoted result of the whole reproduction, so they get a 2x budget now
#: that the fast backend covers the cost.  Explicit ``--instructions``
#: (or ``REPRO_INSTRUCTIONS``) always wins.
HEADLINE_INSTRUCTIONS = 24_000


def _settings(
    args: argparse.Namespace,
    experiment: str | None = None,
    observe: Observe | None = None,
) -> ExperimentSettings:
    instructions = args.instructions
    if instructions is None:
        instructions = (
            HEADLINE_INSTRUCTIONS
            if experiment == "headlines"
            else DEFAULT_INSTRUCTIONS
        )
    return ExperimentSettings(
        instructions=instructions,
        timing_warmup=args.timing_warmup,
        functional_warmup=args.functional_warmup,
        seed=args.seed,
        observe=observe,
    )


def _run_one(name: str, args: argparse.Namespace) -> str:
    benchmarks = tuple(args.benchmarks)
    settings = _settings(args, experiment=name)
    if name == "figure1":
        return reporting.render_figure1(figures.figure1())
    if name == "figure2":
        return reporting.render_figure2(figures.figure2())
    if name == "table1":
        return reporting.render_table1(figures.table1())
    if name == "table2":
        return reporting.render_table2(figures.table2(seed=args.seed))
    if name == "figure3":
        return reporting.render_figure3(
            figures.figure3(benchmarks=tuple(BENCHMARKS), seed=args.seed)
        )
    if name == "figure4":
        return reporting.render_ipc_grid(
            figures.figure4(benchmarks, settings=settings),
            "ports",
            "Figure 4: ideal multi-cycle multi-ported 32 KB caches",
        )
    if name == "figure5":
        return reporting.render_ipc_grid(
            figures.figure5(benchmarks, settings=settings),
            "banks",
            "Figure 5: multi-cycle banked 32 KB caches",
        )
    if name == "figure6":
        return reporting.render_figure6(
            figures.figure6(benchmarks, settings=settings)
        )
    if name == "figure7":
        return reporting.render_figure7(
            figures.figure7(benchmarks, settings=settings)
        )
    if name == "figure8":
        return reporting.render_figure8(
            figures.figure8(benchmarks, settings=settings)
        )
    if name == "figure9":
        return reporting.render_figure9(
            figures.figure9(benchmarks, settings=settings)
        )
    if name == "headlines":
        return reporting.render_headlines(
            figures.headline_numbers(benchmarks, settings=settings)
        )
    if name == "ablations":
        return _run_ablations(settings)
    raise ValueError(f"unknown experiment {name!r}")


def _run_ablations(settings: ExperimentSettings) -> str:
    from repro.core import sweeps

    blocks = []
    mshr = sweeps.mshr_sweep("database", settings=settings)
    blocks.append(
        "MSHR depth (database):\n"
        + "\n".join(f"  {n} MSHRs: IPC={v:.3f}" for n, v in sorted(mshr.items()))
    )
    lb = sweeps.line_buffer_size_sweep("gcc", settings=settings)
    blocks.append(
        "Line-buffer size (gcc):\n"
        + "\n".join(
            f"  {n:3d} entries: IPC={ipc:.3f}, hit rate={rate:.1%}"
            for n, (ipc, rate) in sorted(lb.items())
        )
    )
    policies = sweeps.write_policy_sweep("gcc", settings=settings)
    blocks.append(
        "Write policy (gcc):\n"
        + "\n".join(f"  {k}: IPC={v:.3f}" for k, v in policies.items())
    )
    victims = sweeps.victim_vs_line_buffer("gcc", settings=settings)
    blocks.append(
        "Victim cache vs line buffer (gcc, 8K):\n"
        + "\n".join(f"  {k}: IPC={v:.3f}" for k, v in victims.items())
    )
    return "\n\n".join(blocks)


def _validated_benchmarks(name: str) -> str:
    """Case-insensitive benchmark validation (an argparse ``type=``)."""
    canonical = {key.lower(): key for key in BENCHMARKS}.get(name.lower())
    if canonical is None:
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {name!r}; choose from: "
            + ", ".join(sorted(BENCHMARKS))
        )
    return canonical


def _recommended_organization():
    """The paper's recommended design point (section 4): a dual-copy
    32 KB cache with a line buffer."""
    from repro.core.organizations import KB, duplicate

    return duplicate(32 * KB, line_buffer=True)


def _warn_overflow(tracer) -> None:
    """A truncated trace is never silent.

    Counting-only tracers (capacity 0) retain nothing by design, so
    they never count as overflow.
    """
    if tracer.capacity <= 0 or not tracer.dropped:
        return
    print(
        f"warning: ring overflowed -- {tracer.dropped} event(s) dropped; "
        "analyses of this trace are truncated "
        "(raise --trace-limit or use --trace-out for the full stream)",
        file=sys.stderr,
    )


def _chrome_output_name(source: str) -> str:
    """``run.jsonl[.gz]`` -> ``run.trace.json``: the default export name."""
    stem = source.removesuffix(".gz").removesuffix(".jsonl")
    return stem + ".trace.json"


def _convert_jsonl(args: argparse.Namespace) -> int:
    """``repro trace --from-jsonl <path> --format chrome``: offline export."""
    from repro.observability.chrometrace import read_jsonl, write_chrome_trace

    source = args.from_jsonl
    out = args.trace_out or _chrome_output_name(source)
    count = write_chrome_trace(read_jsonl(source), out)
    print(f"wrote {count} Chrome trace event(s) to {out}")
    return 0


def _trace_command(args: argparse.Namespace) -> int:
    """``python -m repro trace <benchmark>``: one fully traced simulation
    (``--from-jsonl``: convert an existing stream instead)."""
    from repro.core.experiment import run_experiment
    from repro.observability import tracing, utilization_summary

    if args.from_jsonl is not None:
        if args.fmt != "chrome":
            raise argparse.ArgumentError(
                None, "--from-jsonl requires --format chrome"
            )
        if args.benchmark is not None:
            raise argparse.ArgumentError(
                None,
                "--from-jsonl converts an existing trace; "
                "drop the benchmark name",
            )
        return _convert_jsonl(args)
    if args.benchmark is None:
        raise argparse.ArgumentError(
            None, "'trace' takes a benchmark name (or --from-jsonl PATH)"
        )
    organization = _recommended_organization()
    benchmark = args.benchmark
    chrome = args.fmt == "chrome"
    observe = Observe(attribution=True) if args.attribution else None
    settings = _settings(args, observe=observe)
    # No store: the point of 'trace' is watching a live run.
    with _point_engine(None), ExitStack() as stack:
        sink = None
        if args.trace_out is not None and not chrome:
            sink = stack.enter_context(obs_trace.open_sink(args.trace_out))
        with tracing(capacity=args.trace_limit, sink=sink) as tracer:
            result = run_experiment(organization, benchmark, settings)
    _warn_overflow(tracer)
    print(f"traced {organization.label} on {benchmark}: {result.summary()}")
    print()
    rows = [
        [kind, f"{count}"] for kind, count in sorted(tracer.by_kind.items())
    ]
    rows.append(["total", f"{tracer.emitted}"])
    print(reporting.format_table(["event kind", "count"], rows, "Event stream"))
    print(
        f"\n{len(tracer)} of {tracer.emitted} events retained "
        f"({tracer.dropped} dropped from the ring)"
    )
    if chrome:
        from repro.observability.chrometrace import write_chrome_trace

        out = args.trace_out or f"{benchmark}.trace.json"
        count = write_chrome_trace(tracer.events(), out)
        print(
            f"wrote {count} Chrome trace event(s) to {out} "
            "(open in Perfetto or chrome://tracing)"
        )
    elif args.trace_out is not None:
        print(f"full stream written to {args.trace_out}")
    tail = tracer.events()[-args.trace_tail:] if args.trace_tail else []
    if tail:
        print(f"\nlast {len(tail)} events:")
        for event in tail:
            print(f"  {event.to_json()}")
    print()
    print(utilization_summary(result, f"Pipeline utilization: {benchmark}"))
    return 0


def _print_json(payload) -> None:
    """The one JSON rendering both ``metrics`` and ``runs`` share:
    sorted keys, two-space indent, NaN-free (gaps are ``null``)."""
    import json
    import math

    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: clean(item) for key, item in value.items()}
        if isinstance(value, list):
            return [clean(item) for item in value]
        return value

    print(json.dumps(clean(payload), indent=2, sort_keys=True))


def _metrics_command(args: argparse.Namespace) -> int:
    """``python -m repro metrics [benchmark]``: every named counter."""
    from repro.core.experiment import run_experiment
    from repro.observability import utilization_summary

    organization = _recommended_organization()
    benchmark = args.benchmark
    observe = Observe(attribution=True) if args.attribution else None
    settings = _settings(args, observe=observe)
    with _point_engine(None if args.no_cache else ResultStore(args.cache_dir)):
        result = run_experiment(organization, benchmark, settings)
    if not result.metrics:
        print(
            "no metrics on this result (stale cache entry?); "
            "run 'python -m repro cache clear' and retry",
            file=sys.stderr,
        )
        return 3
    if args.fmt == "json":
        _print_json(
            {
                "organization": organization.label,
                "benchmark": benchmark,
                "summary": {
                    "ipc": result.ipc,
                    "instructions": result.instructions,
                    "cycles": result.cycles,
                },
                "metrics": dict(result.metrics),
            }
        )
        return 0
    rows = [[name, f"{value}"] for name, value in result.metrics.items()]
    print(
        reporting.format_table(
            ["metric", "value"],
            rows,
            f"Metrics: {organization.label} on {benchmark}",
        )
    )
    print()
    print(utilization_summary(result, f"Pipeline utilization: {benchmark}"))
    return 0


def _diagnose_command(args: argparse.Namespace) -> int:
    """``python -m repro diagnose <benchmark>``: rank stall sources."""
    from repro.observability.diagnose import diagnose_benchmark, render_diagnosis

    benchmark = args.benchmark
    settings = _settings(args)
    counter_interval = None
    if args.from_counters:
        counter_interval = _counter_interval(args, settings)
    with _point_engine(ResultStore(args.cache_dir)):
        diagnoses = diagnose_benchmark(
            benchmark, settings, counter_interval=counter_interval
        )
    print(render_diagnosis(diagnoses, benchmark))
    return 0


def _counter_interval(
    args: argparse.Namespace, settings: ExperimentSettings
) -> int:
    """The sampling interval: ``--interval``, env, or ~20 rows/run."""
    if args.interval is not None:
        return args.interval
    scaled = settings.scaled()
    if scaled.observe is not None and scaled.observe.counter_interval:
        return scaled.observe.counter_interval
    return max(1, scaled.instructions // 20)


def _counters_command(args: argparse.Namespace) -> int:
    """``python -m repro counters <benchmark>``: the interval series."""
    from repro.core.experiment import run_experiment
    from repro.observability import counters as obs_counters
    from repro.observability import tracing

    organization = _recommended_organization()
    benchmark = args.benchmark
    every = _counter_interval(args, _settings(args))
    settings = _settings(args, observe=Observe(counter_interval=every))
    chrome = args.fmt == "chrome"
    if chrome:
        # The Chrome export wants the event stream too, so the counter
        # tracks land alongside the slice tracks: a live run, no store.
        with _point_engine(None), tracing(capacity=args.trace_limit) as tracer:
            result = run_experiment(organization, benchmark, settings)
    else:
        with _point_engine(ResultStore(args.cache_dir)):
            result = run_experiment(organization, benchmark, settings)
    series = result.counters
    if not series or not obs_counters.row_count(series):
        print(
            "no counter intervals sampled (measured window shorter "
            "than one interval?); lower --interval",
            file=sys.stderr,
        )
        return 3
    if args.fmt == "json":
        _print_json(
            {
                "organization": organization.label,
                "benchmark": benchmark,
                "summary": {
                    "ipc": result.ipc,
                    "instructions": result.instructions,
                    "cycles": result.cycles,
                },
                "counters": series,
            }
        )
        return 0
    if args.fmt == "csv":
        print(obs_counters.render_csv(series))
        return 0
    if chrome:
        from repro.observability.chrometrace import write_chrome_trace

        _warn_overflow(tracer)
        out = args.trace_out or f"{benchmark}.counters.trace.json"
        tracks = obs_counters.counter_track_events(
            series, label=organization.label
        )
        count = write_chrome_trace(
            tracer.events(), out, extra_events=tracks
        )
        print(
            f"wrote {count} Chrome trace event(s) to {out}, including "
            f"{len(tracks)} counter-track sample(s) "
            "(open in Perfetto or chrome://tracing)"
        )
        return 0
    print(
        f"sampled {organization.label} on {benchmark}: {result.summary()}"
    )
    print()
    print(obs_counters.render_table(series))
    print()
    print(obs_counters.render_sparklines(series))
    return 0


def _compare_command(args: argparse.Namespace) -> int:
    """``python -m repro compare <benchmark> --a X --b Y``: A/B diagnosis."""
    from repro.engine.executor import ExecutionPlan
    from repro.observability import counters as obs_counters
    from repro.observability.diagnose import compare_catalog

    catalog = compare_catalog()

    def resolve(label: str) -> tuple[str, str, object]:
        entry = catalog.get(label.lower())
        if entry is None:
            print(
                f"unknown design point {label!r}; choose from: "
                + ", ".join(sorted(catalog)),
                file=sys.stderr,
            )
            raise SystemExit(2)
        return (label.lower(), *entry)

    label_a, figure_a, org_a = resolve(args.compare_a)
    label_b, figure_b, org_b = resolve(args.compare_b)
    benchmark = args.benchmark
    every = _counter_interval(args, _settings(args))
    settings = _settings(args, observe=Observe(counter_interval=every))
    with _point_engine(ResultStore(args.cache_dir)):
        plan = ExecutionPlan()
        key_a = plan.add(org_a, benchmark, settings)
        key_b = plan.add(org_b, benchmark, settings)
        plan.execute()
        result_a, result_b = plan.resolve(key_a), plan.resolve(key_b)
    ranked = obs_counters.rank_divergent(result_a.counters, result_b.counters)
    # The verdict cites the figure the slower organization belongs to.
    figure = figure_a if result_a.ipc <= result_b.ipc else figure_b
    sentence = obs_counters.verdict(
        label_a,
        label_b,
        result_a.counters,
        result_b.counters,
        figure=figure,
    )
    if args.fmt == "json":
        _print_json(
            {
                "benchmark": benchmark,
                "interval": every,
                "a": {"label": label_a, "ipc": result_a.ipc},
                "b": {"label": label_b, "ipc": result_b.ipc},
                "divergent_intervals": ranked,
                "verdict": sentence,
            }
        )
        return 0
    print(
        f"compared {label_a} (IPC {result_a.ipc:.3f}) vs {label_b} "
        f"(IPC {result_b.ipc:.3f}) on {benchmark}, "
        f"{every} instructions/interval"
    )
    print()
    rows = []
    for entry in ranked:
        start, end = entry["instructions"]
        rows.append(
            [
                f"{entry['index']}{'*' if entry['partial'] else ''}",
                f"{start}..{end}",
                f"{entry['ipc_a']:.3f}",
                f"{entry['ipc_b']:.3f}",
                f"{entry['gap']:+.3f}",
                entry["pressure_label"],
                f"{entry['pressure_value']:.1%}",
            ]
        )
    print(
        reporting.format_table(
            [
                "interval",
                "instructions",
                f"IPC {label_a}",
                f"IPC {label_b}",
                "gap",
                "divergence driver",
                "at",
            ],
            rows,
            "Divergent intervals, widest IPC gap first (* = partial tail)",
        )
    )
    print()
    print(sentence)
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    """``python -m repro cache {info,clear,verify}`` on the result store."""
    store = ResultStore(args.cache_dir)
    if args.action == "info":
        info = store.info()
        print(f"cache root:      {info['root']}")
        print(f"schema version:  {info['schema']}")
        print(
            f"entries:         {info['entries']} "
            f"({info['current_schema_entries']} at the current schema)"
        )
        print(f"size:            {info['bytes']} bytes")
        if info["checkpoints"]:
            print(
                f"checkpoints:     {info['checkpoints']} interrupted "
                "sweep(s) (see 'repro runs resume')"
            )
        ledger = info["ledger"]
        if ledger["runs"]:
            print(
                f"run ledger:      {ledger['runs']} run(s), "
                f"last {ledger['last_run_id']} at {ledger['last_time_utc']}, "
                f"{ledger['bytes']} bytes"
            )
        else:
            print("run ledger:      no runs recorded")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(
            f"scanned {report['scanned']} entr"
            f"{'y' if report['scanned'] == 1 else 'ies'}: "
            f"{report['ok']} healthy"
        )
        for item in report["quarantined"]:
            print(f"  quarantined {item['path']}: {item['problem']}")
            if item["moved_to"]:
                print(f"    -> {item['moved_to']}")
        ledger_report = report["ledger"]
        if ledger_report.get("torn"):
            where = ledger_report.get("fragment_path")
            print(
                "  run ledger: excised a torn trailing record"
                + (f" -> {where}" if where else "")
            )
        elif ledger_report.get("healed"):
            print("  run ledger: completed a record missing its newline")
        if not report["quarantined"] and not ledger_report.get("torn"):
            print("no damage found")
        # Always exit 0: verify's job is to leave the store healthy,
        # and after quarantining it has.  The next sweep re-simulates
        # whatever was lost.
        return 0
    removed = store.clear()
    # Run history survives a cache clear on purpose: the ledger is what
    # post-clear runs are compared against.
    print(f"removed {removed} cached result(s) from {store.root}")
    return 0


# ---------------------------------------------------------------------------
# The run-ledger verbs: repro runs {list,show,compare}
# ---------------------------------------------------------------------------


def _run_summary_row(record: dict) -> list[str]:
    summary = record.get("summary", {})
    cached = summary.get("memo", 0) + summary.get("store", 0)
    outcome_bits = [f"{summary.get('simulated', 0)} sim"]
    if cached:
        outcome_bits.append(f"{cached} cached")
    if summary.get("recovered"):
        outcome_bits.append(f"{summary['recovered']} recovered")
    if summary.get("gaps"):
        outcome_bits.append(f"{summary['gaps']} gaps")
    if summary.get("timeouts"):
        outcome_bits.append(f"{summary['timeouts']} timeouts")
    if record.get("interrupted"):
        outcome_bits.append("interrupted")
    mean_ipc = summary.get("mean_ipc")
    return [
        record.get("run_id", "?"),
        record.get("time_utc", "?"),
        f"{summary.get('points', 0)}",
        ", ".join(outcome_bits),
        f"{mean_ipc:.3f}" if mean_ipc is not None else "-",
        f"{record.get('wall_seconds', 0.0):.1f}s",
        f"{record.get('jobs', 1)}",
    ]


def _runs_list(args: argparse.Namespace) -> int:
    ledger = ResultStore(args.cache_dir).ledger()
    records = ledger.records()
    if args.fmt == "json":
        _print_json(
            [
                {key: value for key, value in record.items() if key != "points"}
                for record in records
            ]
        )
        return 0
    if not records:
        print(f"no runs recorded yet ({ledger.path} is empty)")
        return 0
    rows = [_run_summary_row(record) for record in records]
    print(
        reporting.format_table(
            ["run", "time (UTC)", "points", "outcomes", "mean IPC", "wall", "jobs"],
            rows,
            f"Run ledger: {ledger.path}",
        )
    )
    return 0


def _runs_show(args: argparse.Namespace) -> int:
    ledger = ResultStore(args.cache_dir).ledger()
    record = ledger.resolve(args.ref)
    if record is None:
        raise argparse.ArgumentError(
            None,
            f"no run matches {args.ref!r} in {ledger.path} "
            "(use an index, a run id or prefix, or 'last')",
        )
    if args.fmt == "json":
        _print_json(record)
        return 0
    summary = record.get("summary", {})
    print(f"run:          {record.get('run_id', '?')}")
    print(f"time (UTC):   {record.get('time_utc', '?')}")
    print(f"plan digest:  {record.get('plan_digest', '?')[:16]}")
    print(
        f"schema:       ledger v{record.get('schema', '?')}, "
        f"store v{record.get('store_schema', '?')}, "
        f"scale {record.get('scale', 1.0)}"
    )
    print(
        f"execution:    {record.get('jobs', 1)} job(s), "
        f"{record.get('wall_seconds', 0.0):.1f}s wall clock"
    )
    mean_ipc = summary.get("mean_ipc")
    print(f"mean IPC:     {f'{mean_ipc:.4f}' if mean_ipc is not None else '-'}")
    if record.get("interrupted"):
        print(
            "interrupted:  yes -- partial record; resume with "
            "'repro runs resume' or by rerunning the original command"
        )
    rows = [
        [
            row.get("label", "?"),
            row.get("outcome", "?"),
            f"{row['ipc']:.4f}" if row.get("ipc") is not None else "gap",
            f"{row.get('instructions', 0)}",
            f"{row.get('cycles', 0)}",
            f"{row['seconds']:.2f}s" if row.get("seconds") is not None else "-",
        ]
        for row in record.get("points", [])
    ]
    print()
    print(
        reporting.format_table(
            ["design point", "outcome", "IPC", "instructions", "cycles", "wall"],
            rows,
            f"{summary.get('points', len(rows))} design point(s)",
        )
    )
    spans_info = record.get("spans")
    if spans_info and spans_info.get("recorded"):
        print()
        trace_ref = spans_info.get("trace", "?")
        print(f"spans:        {spans_info['recorded']} recorded, trace {trace_ref}")
        for entry in spans_info.get("top") or []:
            print(f"              {entry['seconds']:8.3f}s  {entry['name']}")
        if spans_info.get("path"):
            print(
                f"              file: {spans_info['path']} "
                f"(analyze with 'repro spans {record.get('run_id', 'last')}')"
            )
    return 0


def _runs_compare(args: argparse.Namespace) -> int:
    from repro.engine.ledger import compare_runs

    ledger = ResultStore(args.cache_dir).ledger()
    rel_tol = args.rel_tol
    if args.newer is not None:
        record_a = ledger.resolve(args.ref)
        record_b = ledger.resolve(args.newer)
        if record_a is None or record_b is None:
            missing = args.ref if record_a is None else args.newer
            raise argparse.ArgumentError(
                None, f"no run matches {missing!r} in {ledger.path}"
            )
    else:
        record_b = ledger.resolve(args.ref)
        if record_b is None:
            raise argparse.ArgumentError(
                None, f"nothing to compare: no runs recorded in {ledger.path}"
            )
        record_a = ledger.previous_of_same_plan(record_b)
        if record_a is None:
            print(
                f"nothing to compare: {record_b.get('run_id', '?')} is the "
                "only recorded run of its plan "
                "(run the same figure again, or name two runs explicitly)",
                file=sys.stderr,
            )
            return 2
    comparison = compare_runs(record_a, record_b, rel_tol=rel_tol)
    if args.fmt == "json":
        _print_json(
            {
                "run_a": comparison.run_a,
                "run_b": comparison.run_b,
                "same_plan": comparison.same_plan,
                "matched_points": comparison.matched_points,
                "clean": comparison.clean,
                "rel_tol": rel_tol,
                "drifts": [
                    {
                        "label": drift.label,
                        "metric": drift.metric,
                        "value_a": drift.value_a,
                        "value_b": drift.value_b,
                    }
                    for drift in comparison.drifts
                ],
                "only_in_a": comparison.only_in_a,
                "only_in_b": comparison.only_in_b,
            }
        )
        return 0 if comparison.clean else 3
    print(f"comparing {comparison.run_a} (older) -> {comparison.run_b} (newer)")
    if not comparison.same_plan:
        print(
            "note: the runs executed different plans; "
            "only shared design points are compared",
            file=sys.stderr,
        )
    for label in comparison.only_in_a:
        print(f"  only in {comparison.run_a}: {label}")
    for label in comparison.only_in_b:
        print(f"  only in {comparison.run_b}: {label}")
    for drift in comparison.drifts:
        print(f"  DRIFT {drift.render()}")
    if comparison.clean:
        print(
            f"no drift: {comparison.matched_points} design point(s) agree "
            f"on every compared metric (rel_tol={rel_tol})"
        )
        return 0
    print(
        f"{len(comparison.drifts)} drifting metric(s) across "
        f"{comparison.matched_points} shared design point(s) "
        f"(rel_tol={rel_tol})",
        file=sys.stderr,
    )
    return 3


def _runs_resume(args: argparse.Namespace) -> int:
    """``python -m repro runs resume [ref]``: finish an interrupted sweep.

    Rebuilds the interrupted plan from its checkpoint header and
    executes it whole; points an earlier run completed resolve from the
    store, so only the missing ones actually simulate.  Exits 0 when
    everything now holds a result, 3 when gaps remain, 4 when this run
    was itself interrupted.
    """
    from repro.engine.checkpoint import list_checkpoints, resolve_checkpoint
    from repro.engine.executor import ExecutionPlan
    from repro.robustness.shutdown import SweepInterrupted

    store = ResultStore(args.cache_dir)
    checkpoint = resolve_checkpoint(store.root, args.ref)
    if checkpoint is None:
        available = list_checkpoints(store.root)
        if not available:
            print(
                f"nothing to resume: no checkpoints under {store.root} "
                "(cleanly completed sweeps delete theirs)",
                file=sys.stderr,
            )
            return 2
        raise argparse.ArgumentError(
            None,
            f"no checkpoint matches {args.ref!r}; choose 'last' or a digest "
            "prefix from: "
            + ", ".join(cp.digest[:12] for cp in available),
        )
    keys = checkpoint.keys()
    if not keys:
        print(
            f"checkpoint {checkpoint.digest[:12]} has no readable plan "
            f"header ({checkpoint.path}); delete it and re-run the "
            "original command",
            file=sys.stderr,
        )
        return 2
    status = checkpoint.status()
    print(
        f"resuming sweep {checkpoint.digest[:12]}: "
        f"{status['completed']} of {status['planned']} point(s) already "
        f"done, {status['remaining']} to go"
    )
    hits_before = store.hits
    with _sweep_scope(args, store) as log:
        plan = ExecutionPlan()
        for key in keys:
            # Checkpoint keys carry already-scaled settings; add_key
            # skips re-scaling.
            plan.add_key(key)
        try:
            plan.execute()
        except SweepInterrupted as stop:
            print(f"[{stop}]", file=sys.stderr)
            print(
                "[resume again with: python -m repro runs "
                f"resume {checkpoint.digest[:12]}]",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
    served = store.hits - hits_before
    simulated = len(keys) - served
    print(
        f"resume complete: {served} point(s) served from the store, "
        f"{simulated} executed this run"
    )
    summary = log.summary()
    if summary:
        print(summary, file=sys.stderr)
    return 3 if log.records else 0


def _spans_command(args: argparse.Namespace) -> int:
    """``python -m repro spans [ref]``: critical-path analysis of a sweep.

    Resolves the span file through the run ledger (``last`` by default)
    or reads one directly with ``--from-jsonl``.  ``--format chrome``
    exports the Perfetto orchestration tracks instead of the report.
    """
    from repro.observability.spans import analyze, read_spans, render_analysis

    source = args.from_jsonl
    trace_id = None
    if source is None:
        ledger = ResultStore(args.cache_dir).ledger()
        ref = args.ref or "last"
        record = ledger.resolve(ref)
        if record is None:
            print(
                f"no run matches {ref!r} in {ledger.path} "
                "(use an index, a run id or prefix, or 'last')",
                file=sys.stderr,
            )
            return 2
        run_id = record.get("run_id", "?")
        info = record.get("spans")
        if not info or not info.get("recorded"):
            print(
                f"run {run_id} recorded no spans; re-run the sweep with "
                "--spans-out PATH (or REPRO_SPANS=PATH)",
                file=sys.stderr,
            )
            return 2
        source = info.get("path")
        trace_id = info.get("trace")
        if not source:
            print(
                f"run {run_id} recorded {info['recorded']} span(s) but no "
                "sink file; re-run with --spans-out PATH to keep them",
                file=sys.stderr,
            )
            return 2
    if not os.path.exists(source):
        print(f"span file {source} does not exist", file=sys.stderr)
        return 2
    spans = read_spans(source)
    if not spans:
        print(f"no spans in {source}", file=sys.stderr)
        return 2
    if args.fmt == "chrome":
        from repro.observability.chrometrace import write_chrome_spans

        selected = (
            [s for s in spans if s.get("trace") == trace_id]
            if trace_id is not None
            else spans
        )
        out = args.trace_out or _chrome_output_name(source)
        count = write_chrome_spans(selected or spans, out)
        print(
            f"wrote {count} Chrome trace event(s) to {out} "
            "(open in Perfetto or chrome://tracing)"
        )
        return 0
    analysis = analyze(spans, trace_id=trace_id)
    if analysis is None:
        print(f"no complete trace found in {source}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        _print_json(analysis)
        return 0
    print(render_analysis(analysis))
    return 0


def _experiments_command(args: argparse.Namespace) -> int:
    """``python -m repro <experiment>``: regenerate tables and figures
    (``all``: every one, in paper order)."""
    from repro.robustness.shutdown import SweepInterrupted

    store = None if args.no_cache else ResultStore(args.cache_dir)
    names = EXPERIMENTS if args.command == "all" else (args.command,)
    broken: list[str] = []
    interrupted: SweepInterrupted | None = None
    with _sweep_scope(args, store) as log:
        for name in names:
            start = time.time()
            try:
                output = _run_one(name, args)
            except SweepInterrupted as stop:
                interrupted = stop
                print(f"[{name} interrupted: {stop}]", file=sys.stderr)
                break
            except Exception as error:  # noqa: BLE001 - keep figures alive
                broken.append(name)
                first_line = (str(error).splitlines() or [repr(error)])[0]
                print(
                    f"[{name} FAILED: {type(error).__name__}: "
                    f"{first_line}]\n",
                    file=sys.stderr,
                )
                continue
            elapsed = time.time() - start
            print(output)
            # Stderr like every other bracketed status line: stdout
            # carries only simulated numbers, so runs are byte-comparable
            # across backends (and machines).
            print(f"[{name} regenerated in {elapsed:.1f}s]\n", file=sys.stderr)

    summary = log.summary()
    if summary:
        print(summary, file=sys.stderr)
    if broken:
        print(
            f"[{len(broken)} experiment(s) failed outright: {', '.join(broken)}]",
            file=sys.stderr,
        )
    if interrupted is not None:
        import shlex  # here, not at the top: start-up never needs it

        print(
            f"[interrupted -- finished work is saved"
            + (
                f"; checkpoint: {interrupted.checkpoint_path}"
                if interrupted.checkpoint_path
                else ""
            )
            + f"; continue with: python -m repro {shlex.join(args.argv)} "
            "(or 'python -m repro runs resume')]",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 3 if (broken or log.records) else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; honors ``REPRO_TRACE=<path>`` for any command
    (``.gz`` paths gzip the JSONL stream transparently).

    The tracer keeps no ring: the sink holds the whole stream, so
    nothing is dropped.  Only simulations in this process are traced;
    pool workers run untraced, so trace a sweep with ``--jobs 1``.
    """
    trace_path = os.environ.get("REPRO_TRACE")
    if not trace_path:
        return _main(argv)
    with obs_trace.open_sink(trace_path) as sink:
        with obs_trace.tracing(capacity=0, sink=sink) as tracer:
            code = _main(argv)
        print(
            f"[REPRO_TRACE: {tracer.emitted} event(s) -> {trace_path}]",
            file=sys.stderr,
        )
    return code


def _main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # The command line as given, so an interrupted sweep's hint repeats
    # its flags and reruns the same plan.
    args.argv = list(sys.argv[1:] if argv is None else argv)
    with ExitStack() as stack:
        if getattr(args, "backend", None) is not None:
            # Scope, not a global set: tests drive main() in-process, and
            # the scope also exports REPRO_BACKEND so pool workers
            # inherit the selection.
            from repro import kernel

            stack.enter_context(kernel.use_backend(args.backend))
        try:
            return args.func(args)
        except argparse.ArgumentError as error:
            # A check only the handler can make (an unknown run
            # reference, an empty ledger): a usage error like argparse's.
            parser.error(str(error))


def _checked(cast, holds, requirement: str):
    """An argparse ``type=``: ``cast``, then reject values that fail
    ``holds`` with a usage error naming the flag."""

    def parse(text: str):
        value = cast(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = cast.__name__
    return parse


_positive_int = _checked(int, lambda value: value >= 1, ">= 1")
_positive_float = _checked(float, lambda value: value > 0, "positive")
_non_negative_int = _checked(int, lambda value: value >= 0, ">= 0")
# NaN fails both comparisons, so it is rejected along with infinity.
_finite_non_negative_float = _checked(
    float, lambda value: 0 <= value < float("inf"), "a finite number >= 0"
)


def _add_format(parser: argparse.ArgumentParser, *choices: str) -> None:
    """``--format``, case-insensitive; the first choice is the default."""
    parser.add_argument(
        "--format",
        dest="fmt",
        type=str.lower,
        choices=choices,
        default=choices[0],
        help=f"output format (default {choices[0]})",
    )


def _parser() -> argparse.ArgumentParser:
    """The ``repro`` command line: one sub-parser per verb.

    Each sub-parser declares only the flags its handler reads, so
    argparse itself rejects a flag on the wrong verb; flags several
    verbs share are declared once on the ``parents=`` parsers below.
    The experiments share one sub-parser under aliases because every
    sub-parser adds to start-up time.
    """
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default=None,
        help=(
            "simulation kernel (default: $REPRO_BACKEND or 'fast'); "
            "'reference' is the slower oracle 'fast' is bit-identical to"
        ),
    )
    sim = argparse.ArgumentParser(add_help=False, parents=[backend])
    sim.add_argument(
        "--instructions",
        type=_positive_int,
        default=None,
        help=(
            f"measured instructions per design point (default "
            f"{DEFAULT_INSTRUCTIONS}; 'headlines' uses "
            f"{HEADLINE_INSTRUCTIONS}); REPRO_INSTRUCTIONS overrides"
        ),
    )
    sim.add_argument("--timing-warmup", type=_non_negative_int, default=2_000)
    sim.add_argument(
        "--functional-warmup", type=_non_negative_int, default=300_000
    )
    sim.add_argument("--seed", type=int, default=1)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for design points (default: 1, serial)",
    )
    sweep.add_argument(
        "--point-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per design point (also via "
            "REPRO_POINT_TIMEOUT); an overrunning point becomes a "
            "'timeout' gap instead of hanging the sweep"
        ),
    )
    sweep.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "live per-point progress display during sweeps "
            "(default: auto, on when stderr is a TTY)"
        ),
    )
    sweep.add_argument(
        "--spans-out",
        default=None,
        metavar="PATH",
        help=(
            "record orchestration spans of every sweep in this run to "
            "PATH as JSON lines (gzipped when the name ends in .gz; "
            "also via REPRO_SPANS); analyze with 'repro spans last'"
        ),
    )

    store = argparse.ArgumentParser(add_help=False)
    store.add_argument(
        "--cache-dir",
        default=None,
        help="result store location (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    tabular = argparse.ArgumentParser(add_help=False)
    _add_format(tabular, "table", "json")
    interval = argparse.ArgumentParser(add_help=False)
    interval.add_argument(
        "--interval",
        type=_positive_int,
        default=None,
        metavar="INSTRUCTIONS",
        help=(
            "committed instructions per sampled interval (default: "
            "$REPRO_COUNTER_INTERVAL, else ~20 intervals per run)"
        ),
    )
    attribution = argparse.ArgumentParser(add_help=False)
    attribution.add_argument(
        "--attribution",
        action="store_true",
        help=(
            "enable per-load critical-path attribution (adds "
            "attribution.* metrics and per-event path fields)"
        ),
    )
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument(
        "--trace-limit",
        type=_non_negative_int,
        default=obs_trace.DEFAULT_CAPACITY,
        help=f"ring-buffer capacity (default {obs_trace.DEFAULT_CAPACITY})",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures from 'Designing High Bandwidth "
            "On-Chip Caches' (Wilson & Olukotun, ISCA 1997)."
        ),
    )
    verbs = parser.add_subparsers(dest="command", metavar="command", required=True)

    run = verbs.add_parser(
        EXPERIMENTS[0],
        aliases=[*EXPERIMENTS[1:], "all"],
        prog="repro EXPERIMENT",
        parents=[sim, sweep, store],
        help="regenerate a table or figure ('all': every one)",
    )
    run.add_argument(
        "--benchmarks",
        nargs="+",
        type=_validated_benchmarks,
        default=list(REPRESENTATIVES),
        help="benchmarks to simulate (default: the three representatives)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result store for this run",
    )
    run.set_defaults(func=_experiments_command)

    ref_help = (
        "an index (1 is oldest, -1 newest), a run id or unique prefix, "
        "or 'last' (the default)"
    )
    runs = verbs.add_parser(
        "runs", help="the run ledger: list (the default), show, compare, resume"
    )
    # Bare 'runs' lists with the default flags.  The actions declare the
    # flags; on 'runs' as well, an action's defaults would silently
    # overwrite a flag given before it.
    runs.set_defaults(func=_runs_list, cache_dir=None, fmt="table")
    actions = runs.add_subparsers(dest="action", metavar="action")
    actions.add_parser(
        "list", parents=[store, tabular], help="every recorded run"
    ).set_defaults(func=_runs_list)
    show = actions.add_parser(
        "show", parents=[store, tabular], help="one run's per-point outcomes"
    )
    show.add_argument("ref", nargs="?", default="last", help=ref_help)
    show.set_defaults(func=_runs_show)
    compare_runs = actions.add_parser(
        "compare",
        parents=[store, tabular],
        help="per-point drift between two runs (exit 3 on any drift)",
    )
    compare_runs.add_argument(
        "ref",
        nargs="?",
        default="last",
        help=(
            f"{ref_help}; compared with the previous run of its plan, or "
            "with NEWER when given"
        ),
    )
    compare_runs.add_argument("newer", nargs="?", help="a second run reference")
    compare_runs.add_argument(
        "--rel-tol",
        type=_finite_non_negative_float,
        default=0.0,
        help=(
            "relative tolerance before a metric difference counts as "
            "drift (default 0.0: exact agreement, the golden-suite bar)"
        ),
    )
    compare_runs.set_defaults(func=_runs_compare)
    resume = actions.add_parser(
        "resume",
        parents=[sweep, backend, store],
        help="finish an interrupted sweep from its checkpoint",
    )
    resume.add_argument(
        "ref",
        nargs="?",
        default="last",
        help="checkpoint: 'last' (the default) or a plan-digest prefix",
    )
    resume.set_defaults(func=_runs_resume)

    cache = verbs.add_parser(
        "cache", parents=[store], help="inspect, clear or verify the result store"
    )
    cache.add_argument("action", choices=("info", "clear", "verify"))
    cache.set_defaults(func=_cache_command)

    trace = verbs.add_parser(
        "trace",
        parents=[sim, attribution, ring],
        help="one fully traced simulation of the recommended organization",
    )
    trace.add_argument("benchmark", nargs="?", type=_validated_benchmarks)
    trace.add_argument(
        "--from-jsonl",
        default=None,
        metavar="PATH",
        help="convert an existing JSONL(.gz) event stream instead of simulating",
    )
    _add_format(trace, "jsonl", "chrome")
    trace.add_argument(
        "--trace-out",
        default=None,
        help=(
            "output file: the JSONL event stream (gzipped when the name "
            "ends in .gz), or the Chrome trace with --format chrome"
        ),
    )
    trace.add_argument(
        "--trace-tail",
        type=_non_negative_int,
        default=10,
        help="how many trailing events to print (default 10)",
    )
    trace.set_defaults(func=_trace_command)

    metrics = verbs.add_parser(
        "metrics",
        parents=[sim, store, tabular, attribution],
        help="every named counter of the recommended organization",
    )
    metrics.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result store for this run",
    )
    metrics.set_defaults(func=_metrics_command)

    counters = verbs.add_parser(
        "counters",
        parents=[sim, store, interval, ring],
        help="the interval-sampled counter time series",
    )
    _add_format(counters, "table", "json", "csv", "chrome")
    counters.add_argument(
        "--trace-out",
        default=None,
        help=(
            "Chrome trace file for --format chrome "
            "(default <benchmark>.counters.trace.json)"
        ),
    )
    counters.set_defaults(func=_counters_command)

    compare = verbs.add_parser(
        "compare",
        parents=[sim, store, interval, tabular],
        help="race two organizations interval by interval",
    )
    compare.add_argument(
        "--a",
        dest="compare_a",
        default="banked-2",
        metavar="ORG",
        help=(
            "first design point label "
            "(default banked-2; see 'repro compare' errors for choices)"
        ),
    )
    compare.add_argument(
        "--b",
        dest="compare_b",
        default="dual-ported",
        metavar="ORG",
        help="second design point label (default dual-ported)",
    )
    compare.set_defaults(func=_compare_command)
    for verb in (metrics, counters, compare):
        verb.add_argument(
            "benchmark",
            nargs="?",
            type=_validated_benchmarks,
            default=REPRESENTATIVES[0],
            help=f"benchmark to simulate (default {REPRESENTATIVES[0]})",
        )

    diagnose = verbs.add_parser(
        "diagnose",
        parents=[sim, store, interval],
        help="rank the stall sources of the Figure 4-7 design points",
    )
    diagnose.add_argument("benchmark", type=_validated_benchmarks)
    diagnose.add_argument(
        "--from-counters",
        action="store_true",
        help=(
            "also sample interval counters and cite each point's worst "
            "interval in the narrative"
        ),
    )
    diagnose.set_defaults(func=_diagnose_command)

    spans = verbs.add_parser(
        "spans",
        parents=[store],
        help="critical-path analysis of a recorded sweep",
    )
    source = spans.add_mutually_exclusive_group()
    source.add_argument("ref", nargs="?", default=None, help=ref_help)
    source.add_argument(
        "--from-jsonl",
        default=None,
        metavar="PATH",
        help="analyze a span file instead of resolving the run ledger",
    )
    _add_format(spans, "report", "json", "chrome")
    spans.add_argument(
        "--trace-out",
        default=None,
        help=(
            "Chrome trace file for --format chrome "
            "(default: the span file's name with .trace.json)"
        ),
    )
    spans.set_defaults(func=_spans_command)
    return parser


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
