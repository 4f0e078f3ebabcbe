"""Bench: regenerate Figure 3 (misses per instruction vs cache size)."""

from conftest import run_once

from repro.analysis import monotone_non_increasing, render_miss_rate_chart
from repro.core import figure3
from repro.core.reporting import render_figure3
from repro.workloads import BENCHMARKS


def test_figure3_miss_rate_curves(benchmark, publish):
    curves = run_once(
        benchmark,
        lambda: figure3(
            instructions=250_000,
            warmup_instructions=300_000,
            benchmarks=tuple(BENCHMARKS),
        ),
    )
    chart = render_miss_rate_chart(
        curves, ["gcc", "tomcatv", "database"],
        title="Figure 3 (chart): gcc vs tomcatv vs database",
    )
    publish("figure3", render_figure3(curves) + "\n\n" + chart)

    at = {
        name: {size: miss for size, miss in series}
        for name, series in curves.items()
    }
    K = 1024

    # Curves decline exactly.  Each size doubles the sets of an LRU
    # cache with the same ways and line size, bit-selection indexed, so
    # every set of the larger cache holds a superset of what its parent
    # set in the smaller one holds: set-refinement inclusion (Hill &
    # Smith, "Evaluating Associativity in CPU Caches", IEEE TC 1989).
    # The larger cache can never miss more, so no rise is jitter.
    for name, series in curves.items():
        values = [miss for _, miss in series]
        assert monotone_non_increasing(values, tolerance=0), name

    # Group ordering at small sizes: integer lowest, multiprogramming
    # and floating point much larger (paper, section 4).
    for integer in ("gcc", "li"):
        for big in ("tomcatv", "database", "VCS", "apsi"):
            assert at[integer][8 * K] < at[big][8 * K]

    # Floating point codes drop radically once their arrays fit.
    assert at["tomcatv"][512 * K] < at["tomcatv"][128 * K] / 5
    assert at["su2cor"][256 * K] < at["su2cor"][64 * K] / 5
    assert at["apsi"][128 * K] < at["apsi"][32 * K] / 5

    # Multiprogramming keeps missing even at 1 MB.
    assert at["database"][1024 * K] > 0.01
    assert at["VCS"][1024 * K] > 0.005

    # Integer benchmarks essentially fit by 1 MB.
    assert at["gcc"][1024 * K] < 0.01
    assert at["li"][1024 * K] < 0.005
