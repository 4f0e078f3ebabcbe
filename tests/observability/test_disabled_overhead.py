"""The zero-overhead-when-disabled contract, stated as properties.

Three observable guarantees when no tracer is active:

* no events are emitted anywhere (there is nothing to receive them);
* simulation results -- including their serialized dict forms -- are
  byte-for-byte identical whether or not a tracer was active during the
  run (tracing observes, never perturbs);
* the metrics snapshot carries no trace-derived keys, so the result
  store may be shared freely between traced and untraced runs.
"""

import json

from repro.core.experiment import ExperimentSettings, run_experiment
from repro.core.organizations import banked, duplicate, ideal_ports
from repro.engine.executor import get_engine
from repro.engine.serialize import to_plain
from repro.observability import trace, tracing

FAST = ExperimentSettings(
    instructions=1_500, timing_warmup=300, functional_warmup=20_000
)


def _fresh_run(organization, benchmark):
    get_engine().memo.clear()
    return run_experiment(organization, benchmark, FAST)


class TestDisabledPath:
    def test_disabled_run_emits_zero_events(self):
        assert trace.active() is None
        _fresh_run(duplicate(line_buffer=True), "gcc")
        # Activate a tracer only AFTER the run: had anything buffered or
        # leaked a reference, this tracer would see stragglers.
        with tracing() as tracer:
            pass
        assert tracer.emitted == 0

    def test_serialized_results_identical_with_and_without_tracing(self):
        for organization in (duplicate(line_buffer=True), banked(), ideal_ports()):
            untraced = to_plain(_fresh_run(organization, "gcc"))
            with tracing():
                traced = to_plain(_fresh_run(organization, "gcc"))
            assert json.dumps(untraced, sort_keys=True) == json.dumps(
                traced, sort_keys=True
            )

    def test_no_trace_keys_in_metrics(self):
        with tracing() as tracer:
            result = _fresh_run(duplicate(line_buffer=True), "gcc")
        assert tracer.emitted > 0  # the run really was traced
        assert not any(key.startswith("trace.") for key in result.metrics)
        assert not any("tracer" in key for key in result.metrics)

    def test_tracing_does_not_change_timing(self):
        untraced = _fresh_run(banked(), "tomcatv")
        with tracing():
            traced = _fresh_run(banked(), "tomcatv")
        assert untraced.cycles == traced.cycles
        assert untraced.metrics == traced.metrics
