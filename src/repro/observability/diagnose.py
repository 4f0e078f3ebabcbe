"""Stall-source diagnosis: where do a design point's load cycles go?

``python -m repro diagnose <benchmark>`` runs representative design
points from Figures 4-7 with latency attribution on and ranks each
point's stall sources, producing the paper-style narrative ("banked-4:
31% of load cycles lost to bank conflicts -- cf. Fig. 5") plus the full
per-component breakdown table.

The points run as one :class:`~repro.engine.executor.ExecutionPlan`
with ``Observe(attribution=True)`` in their settings: design points
like any other, stored apart from the plain figure points, answered by
the store on a warm rerun.  Attribution does not perturb timing (the
golden suite pins that), so the IPCs printed here match the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import experiment
from repro.core.experiment import Observe
from repro.core.organizations import (
    KB,
    CacheOrganization,
    banked,
    dram_cache,
    duplicate,
    ideal_ports,
)
from repro.core.reporting import format_table
from repro.engine.executor import ExecutionPlan
from repro.observability import attribution, counters

#: Human labels for the narrative lines.
COMPONENT_LABELS = {
    "port_wait": "port contention",
    "bank_conflict": "bank conflicts",
    "l1_access": "L1 access",
    "line_buffer": "line-buffer hits",
    "mshr_wait": "MSHR exhaustion",
    "mshr_merge": "in-flight miss waits",
    "victim_swap": "victim-cache swaps",
    "l2_access": "L2 access",
    "bus_queue": "bus queueing",
    "bus_transfer": "bus transfers",
    "dram_bank_wait": "DRAM bank waits",
    "dram_access": "DRAM array access",
    "memory": "main-memory latency",
}


def _design_points() -> tuple[tuple[str, str, CacheOrganization], ...]:
    """(label, paper figure, organization) for the diagnosed points."""
    return (
        ("ideal-2p", "Fig. 4", ideal_ports(32 * KB, ports=2)),
        # The single-banked point makes Figure 5's serialization
        # argument vivid: every concurrent access conflicts.
        ("banked-1", "Fig. 5", banked(32 * KB, banks=1)),
        ("banked-4", "Fig. 5", banked(32 * KB, banks=4)),
        ("banked-8", "Fig. 5", banked(32 * KB, banks=8)),
        ("duplicate", "Fig. 6", duplicate(32 * KB)),
        ("duplicate+lb", "Fig. 6", duplicate(32 * KB, line_buffer=True)),
        ("dram+lb", "Fig. 7", dram_cache(line_buffer=True)),
    )


def compare_catalog() -> "dict[str, tuple[str, CacheOrganization]]":
    """label -> (figure, organization) accepted by ``repro compare``.

    The diagnosis design points plus the classic Figure 5 matchup pair:
    ``banked-2`` and ``dual-ported`` (the latter an alias of the ideal
    two-ported point, named the way the paper's comparison reads).
    """
    catalog = {
        label: (figure, organization)
        for label, figure, organization in _design_points()
    }
    catalog["banked-2"] = ("Fig. 5", banked(32 * KB, banks=2))
    catalog["dual-ported"] = ("Fig. 4", ideal_ports(32 * KB, ports=2))
    return catalog


@dataclass(frozen=True)
class PointDiagnosis:
    """Attribution summary of one design point on one benchmark."""

    label: str
    figure: str
    organization: str
    ipc: float
    loads: int
    load_cycles: int
    p50: float
    p95: float
    p99: float
    components: dict  #: component -> critical-path cycles
    outcomes: dict  #: outcome -> access count
    #: worst sampled interval (``--from-counters``): cycle range, IPC,
    #: and dominant pressure; ``None`` when sampling was off
    worst_interval: dict | None = None

    def stall_ranking(self) -> list[tuple[str, int]]:
        """Non-base components by cycles, heaviest first."""
        stalls = [
            (name, cycles)
            for name, cycles in self.components.items()
            if name not in attribution.BASE_COMPONENTS and cycles > 0
        ]
        return sorted(stalls, key=lambda item: (-item[1], item[0]))

    def dominant_stall(self) -> tuple[str, float] | None:
        """The heaviest stall source and its share of all load cycles."""
        ranking = self.stall_ranking()
        if not ranking or not self.load_cycles:
            return None
        name, cycles = ranking[0]
        return name, cycles / self.load_cycles


def _worst_interval(series: dict | None) -> dict | None:
    """The lowest-IPC sampled interval, with cycle range and blame."""
    if not series:
        return None
    rates = counters.derived_rates(series)
    if not rates["ipc"]:
        return None
    cols = counters.columns_of(series)
    index = min(range(len(rates["ipc"])), key=lambda i: (rates["ipc"][i], i))
    cycle_start = sum(cols["cycles"][:index])
    pressure_key, pressure_label, value = counters.dominant_pressure(
        rates, index
    )
    return {
        "index": index,
        "cycle_start": cycle_start,
        "cycle_end": cycle_start + cols["cycles"][index],
        "ipc": rates["ipc"][index],
        "partial": bool(cols["partial"][index]),
        "pressure": pressure_key,
        "pressure_label": pressure_label,
        "pressure_value": value,
    }


def _observed(settings, counter_interval: int | None):
    """``settings`` with attribution on, and sampling when asked."""
    observe = Observe(counter_interval=counter_interval, attribution=True)
    return replace(settings or experiment.ExperimentSettings(), observe=observe)


def diagnose_design_point(
    label: str,
    figure: str,
    organization: CacheOrganization,
    benchmark: str,
    settings: "experiment.ExperimentSettings",
    counter_interval: int | None = None,
) -> PointDiagnosis:
    """One attributed design point, summarized.

    ``counter_interval`` additionally samples interval counters during
    the same run (``--from-counters``), so the narrative can cite the
    worst phase instead of only whole-run aggregates.
    """
    result = experiment.run_experiment(
        organization, benchmark, _observed(settings, counter_interval)
    )
    metrics = result.metrics
    prefix = "attribution.component."
    components = {
        name[len(prefix):-len(".cycles")]: cycles
        for name, cycles in metrics.items()
        if name.startswith(prefix) and name.endswith(".cycles")
    }
    out_prefix = "attribution.outcome."
    outcomes = {
        name[len(out_prefix):-len(".loads")]: count
        for name, count in metrics.items()
        if name.startswith(out_prefix) and name.endswith(".loads")
    }
    return PointDiagnosis(
        label=label,
        figure=figure,
        organization=organization.label,
        ipc=result.ipc,
        loads=int(metrics.get("attribution.loads", 0)),
        load_cycles=int(metrics.get("attribution.latency.cycles", 0)),
        p50=float(metrics.get("attribution.latency.p50", 0.0)),
        p95=float(metrics.get("attribution.latency.p95", 0.0)),
        p99=float(metrics.get("attribution.latency.p99", 0.0)),
        components=components,
        outcomes=outcomes,
        worst_interval=_worst_interval(result.counters),
    )


def diagnose_benchmark(
    benchmark: str,
    settings: "experiment.ExperimentSettings | None" = None,
    points: "tuple[tuple[str, str, CacheOrganization], ...] | None" = None,
    counter_interval: int | None = None,
) -> list[PointDiagnosis]:
    """Diagnose every design point (Figures 4-7) on one benchmark."""
    if points is None:
        points = _design_points()
    # One plan for every point; each summary below is then a memo hit.
    plan = ExecutionPlan()
    observed = _observed(settings, counter_interval)
    plan.add_all(((org, benchmark) for _, _, org in points), observed)
    plan.execute()
    return [
        diagnose_design_point(
            label,
            figure,
            organization,
            benchmark,
            settings,
            counter_interval=counter_interval,
        )
        for label, figure, organization in points
    ]


def narrative_line(diagnosis: PointDiagnosis) -> str:
    """One paper-style sentence naming the dominant stall source."""
    dominant = diagnosis.dominant_stall()
    if dominant is None:
        line = (
            f"{diagnosis.label}: no stall cycles beyond the base "
            f"access time -- cf. {diagnosis.figure}"
        )
    else:
        name, share = dominant
        line = (
            f"{diagnosis.label}: {share:.0%} of load cycles lost to "
            f"{COMPONENT_LABELS.get(name, name)} -- cf. {diagnosis.figure}"
        )
    worst = diagnosis.worst_interval
    if worst is not None:
        line += (
            f"; worst interval {worst['index']} (cycles "
            f"{worst['cycle_start']}-{worst['cycle_end']}) ran at "
            f"{worst['ipc']:.2f} IPC under {worst['pressure_label']} "
            f"of {worst['pressure_value']:.0%}"
        )
    return line


def render_diagnosis(diagnoses: list[PointDiagnosis], benchmark: str) -> str:
    """The full ``repro diagnose`` report for one benchmark."""
    summary_rows = []
    for diagnosis in diagnoses:
        dominant = diagnosis.dominant_stall()
        if dominant is None:
            dominant_text, share_text = "-", "-"
        else:
            dominant_text = COMPONENT_LABELS.get(dominant[0], dominant[0])
            share_text = f"{dominant[1]:.1%}"
        average = (
            diagnosis.load_cycles / diagnosis.loads if diagnosis.loads else 0.0
        )
        summary_rows.append(
            [
                diagnosis.label,
                diagnosis.figure,
                f"{diagnosis.ipc:.3f}",
                f"{average:.2f}",
                f"{diagnosis.p95:.1f}",
                dominant_text,
                share_text,
            ]
        )
    blocks = [
        format_table(
            ["design point", "figure", "IPC", "avg ld cyc", "p95", "dominant stall", "share"],
            summary_rows,
            f"Stall-source diagnosis: {benchmark}",
        ),
        "",
        "\n".join(narrative_line(diagnosis) for diagnosis in diagnoses),
    ]
    breakdown_rows = []
    for diagnosis in diagnoses:
        for name, cycles in diagnosis.stall_ranking():
            share = cycles / diagnosis.load_cycles if diagnosis.load_cycles else 0.0
            breakdown_rows.append(
                [
                    diagnosis.label,
                    COMPONENT_LABELS.get(name, name),
                    f"{cycles}",
                    f"{share:.1%}",
                ]
            )
    if breakdown_rows:
        blocks += [
            "",
            format_table(
                ["design point", "stall source", "cycles", "% of load cycles"],
                breakdown_rows,
                "Critical-path breakdown (stall components only)",
            ),
        ]
    return "\n".join(blocks)
