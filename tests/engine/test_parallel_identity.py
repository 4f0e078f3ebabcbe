"""Property suite: parallel execution is bit-identical to serial.

Hypothesis generates randomized plans -- mixed workloads and
organizations, duplicated points, scaled settings variants -- and each
one is executed twice, serially and through the chunked parallel
dispatcher.  *Everything observable* must match exactly:

* the resolved results (full ``to_plain`` forms, not just IPC);
* the persistent store contents (what a later run would be served);
* the run-ledger record (plan digest, per-point rows, outcome tally),
  modulo the fields that honestly differ (wall clock, jobs, time).

Both kernel backends are covered at ``--jobs 2`` and ``--jobs 4``.
Budgets are kept tiny so the whole suite stays in test-suite territory;
the scheduling machinery being exercised (cost model, chunk packing,
out-of-order absorption, pool reuse) is budget-independent.
"""

import multiprocessing
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings as hsettings
from hypothesis import strategies as st

from repro import kernel
from repro.core.experiment import ExperimentSettings
from repro.core.organizations import banked, duplicate, ideal_ports
from repro.engine.executor import Engine, ExecutionPlan
from repro.engine.serialize import to_plain
from repro.engine.store import ResultStore

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the parallel identity suite assumes cheap fork workers",
)

#: Ledger fields that legitimately differ between a serial and a
#: parallel run of the same plan.
_NONDETERMINISTIC = ("time_utc", "wall_seconds", "jobs")

ORGANIZATIONS = (
    duplicate(),
    duplicate(line_buffer=True),
    banked(banks=4),
    ideal_ports(ports=2),
)
WORKLOADS = ("gcc", "tomcatv", "li", "compress")
SETTINGS = (
    ExperimentSettings(
        instructions=400, timing_warmup=100, functional_warmup=5_000
    ),
    ExperimentSettings(
        instructions=700, timing_warmup=150, functional_warmup=5_000
    ),
)

#: One design point: (organization index, workload, settings index).
#: Duplicates are allowed on purpose -- ``ExecutionPlan.add`` must
#: deduplicate them identically in both execution strategies.
point_strategy = st.tuples(
    st.integers(0, len(ORGANIZATIONS) - 1),
    st.sampled_from(WORKLOADS),
    st.integers(0, len(SETTINGS) - 1),
)
plan_strategy = st.lists(point_strategy, min_size=1, max_size=6)


def _execute(jobs: int, root: Path, plan_points, backend: str):
    """Run one plan; returns (keys, result dicts, ledger record, store)."""
    store = ResultStore(root)
    engine = Engine(jobs=jobs, store=store)
    try:
        with kernel.use_backend(backend):
            plan = ExecutionPlan(engine)
            keys = [
                plan.add(ORGANIZATIONS[org], name, SETTINGS[cfg])
                for org, name, cfg in plan_points
            ]
            plan.execute()
            results = [to_plain(plan.resolve(key)) for key in keys]
    finally:
        engine.shutdown_pool()
    records = store.ledger().records()
    assert len(records) == 1
    record = {
        field: value
        for field, value in records[0].items()
        if field not in _NONDETERMINISTIC
    }
    # Per-point wall clock is timing, not output: serial rows are
    # parent-measured, parallel rows worker-reported.
    record["points"] = [
        {field: value for field, value in row.items() if field != "seconds"}
        for row in record["points"]
    ]
    return keys, results, record, store


@FORK_ONLY
@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("jobs", [2, 4])
@hsettings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(plan_points=plan_strategy)
def test_parallel_execution_is_bit_identical_to_serial(
    backend, jobs, plan_points
):
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp_path = Path(tmp)
        serial_keys, serial_results, serial_record, serial_store = _execute(
            1, tmp_path / "serial", plan_points, backend
        )
        par_keys, par_results, par_record, par_store = _execute(
            jobs, tmp_path / "parallel", plan_points, backend
        )

        assert par_keys == serial_keys
        assert par_results == serial_results
        assert par_record == serial_record

        # The stores must be interchangeable: every key loads back the
        # same payload from either side, and neither holds extras.
        assert par_store.info()["entries"] == serial_store.info()["entries"]
        for key in serial_keys:
            serial_stored = serial_store.load(key)
            par_stored = par_store.load(key)
            assert serial_stored is not None and par_stored is not None
            assert to_plain(par_stored) == to_plain(serial_stored)
