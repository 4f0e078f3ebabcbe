"""Shared test fixtures: keep the suite hermetic.

Every test gets a throwaway result-store location so no test can read
stale results from (or leak results into) a developer's real
``.repro-cache/`` -- cross-run persistence is exactly what the store is
for, and exactly what hermetic tests must not see.  Likewise every test
starts with tracing disabled: a test that activates a tracer and fails
before restoring it must not leak event capture into its neighbors.
Nor does the shell steer a test: the variables that change what a
simulation runs or observes are unset, and a test that needs one sets
it through ``monkeypatch``.  ``REPRO_BACKEND`` is left alone on purpose,
so the whole suite can be run on either backend.
"""

import pytest

from repro.engine.executor import get_engine
from repro.engine.store import CACHE_DIR_ENV
from repro.observability import trace


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from current behavior",
    )


#: Environment variables that steer a simulation's budget, faults or
#: observers.
STEERING_ENV = (
    "REPRO_SCALE",
    "REPRO_INSTRUCTIONS",
    "REPRO_POINT_TIMEOUT",
    "REPRO_CHAOS",
    "REPRO_TRACE",
    "REPRO_ATTRIBUTION",
    "REPRO_COUNTER_INTERVAL",
    "REPRO_SPANS",
)


@pytest.fixture(autouse=True)
def _unsteered_environment(monkeypatch):
    for name in STEERING_ENV:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "repro-cache"))
    engine = get_engine()
    previous = (engine.jobs, engine.store)
    yield
    engine.jobs, engine.store = previous


@pytest.fixture(autouse=True)
def _tracing_disabled():
    trace.deactivate()
    yield
    trace.deactivate()
